import contextlib
import csv
import sys

import numpy as np
import pytest
from hypothesis import settings

import smpstop.grid
import smpstop.smdp
from smpstop import (
    CostModel,
    Exponential,
    KernelGrid,
    PointMass,
    SemiMarkovKernel,
    SMDPModel,
    SMPModel,
    StateSpace,
    StoppingRegion,
    StoppingRule,
    TimeGrid,
    Uniform,
    ValueGrid,
    Weibull,
    check_regularity,
    discretize_kernel,
    kernel_mass,
)
from smpstop.grid import _fft_length

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def reference_convolve_values(kg, v: np.ndarray) -> np.ndarray:
    """The grid convolution of ``convolve_values`` by direct summation, one edge at a time.

    Every kernel term is nonnegative and the sums run in a fixed order, so
    the result is monotone in v exactly, also in floating point.
    """
    K = kg.grid.steps
    n = kg.mass.shape[0]
    jump_mass = kg.jump_mass
    out = np.zeros_like(v)
    for x in range(n):
        acc = np.zeros(K + 1)
        for y in range(n):
            if kg.edges[x, y]:
                acc = acc + np.convolve(jump_mass[x, y], v[:, y])[: K + 1]
        out[:, x] = acc
    return out


def reference_fft_convolve_values(kg, v: np.ndarray) -> np.ndarray:
    """``convolve_values`` with the kernel rows transformed again on every call.

    It takes the same transforms of the same rows as the stored spectra and
    combines them in the same order, so ``convolve_values`` must match it
    bit for bit.
    """
    K = kg.grid.steps
    n = kg.mass.shape[0]
    size = _fft_length(2 * K - 1)
    jump_mass = kg.jump_mass
    v_hat = np.fft.rfft(v[:K].T, size)
    out = np.zeros_like(v)
    for x in range(n):
        ys = np.flatnonzero(kg.edges[x])
        if ys.size == n:
            ys = slice(None)
        k_hat = np.fft.rfft(jump_mass[x, ys, 1:], size)
        k_hat *= v_hat[ys]
        np.maximum(np.fft.irfft(k_hat.sum(axis=0), size)[:K], 0.0, out=out[1:, x])
    return out


# ---------------------------------------------------------------------------
# The decision process one action at a time: the pointwise reference for
# smdp's whole-table sweep (_sweep).

CONTINUE, STOP = 0, 1


def actions(sm: SMDPModel, x: int) -> tuple[int, ...]:
    return (STOP,) if x == sm.rest_state else (CONTINUE, STOP)


def cost_rate(sm: SMDPModel, x: int, a: int) -> float:
    if x != sm.rest_state and a == CONTINUE:
        return float(sm.base.costs.rate[x])
    return 0.0


def terminal_cost(sm: SMDPModel, x: int, a: int) -> float:
    if x != sm.rest_state and a == STOP:
        return float(sm.base.costs.terminal[x])
    return 0.0


def controlled_mass(sm: SMDPModel, x: int, a: int, t: float) -> float:
    """Jump probability of the controlled kernel within [0, t]."""
    if a == STOP:
        return 1.0 if t >= sm.base.horizon + 1.0 else 0.0
    if x == sm.rest_state:
        raise ValueError("continue is not admissible in the rest state")
    return kernel_mass(sm.base.kernel, x, t)


def check_smdp_regularity(sm: SMDPModel, delta: float, eps: float) -> bool:
    """Regularity of the controlled kernel, tested at delta-hat = min(delta, 1/2).

    Stop rows carry no mass before horizon + 1 > 1/2, so only the
    continuation rows, those of the base kernel, can violate the bound.
    """
    return check_regularity(sm.base, min(delta, 0.5), eps).ok


def apply_T_action(
    sm: SMDPModel,
    v: ValueGrid,
    x: int,
    a: int,
    s: float,
    kg: KernelGrid | None = None,
) -> float:
    """One-step cost of action a at (s, x) continuing with value v.

    This is the running cost over the censored sojourn, plus the terminal
    cost if no jump occurs within s, plus the expected continuation value at
    the post-jump state and remaining horizon. Inadmissible actions cost
    +inf, so they never win a minimization.
    """
    if a not in actions(sm, x):
        return float("inf")
    grid = v.grid
    k = grid.index_of(s)
    if a == STOP:
        # no jump inside the horizon and no running cost; the rest state is free
        return terminal_cost(sm, x, STOP) * (1.0 - controlled_mass(sm, x, STOP, s))
    if kg is None:
        kg = discretize_kernel(sm.base.kernel, grid)
    conv = 0.0
    if k > 0:
        weights = kg.jump_mass[x, :, 1 : k + 1]
        future = v.values[k - 1 :: -1, : sm.n_base]
        conv = float(np.einsum("yj,jy->", weights, future))
    return cost_rate(sm, x, CONTINUE) * float(kg.survival[x, k]) + conv


def region_from_rule(rule: StoppingRule, model: SMPModel, grid: TimeGrid) -> StoppingRegion:
    """Materialize a Markov stopping rule as its stop set on the grid.

    The round trip rule -> region -> ``RegionRule`` reproduces the stop
    decision at every grid node. Node 0, zero remaining horizon, is never
    a member.
    """
    n = len(model.states)
    member = np.zeros((grid.steps + 1, n), dtype=bool)
    stops = rule.stops_many(np.repeat(grid.nodes[1:], n), np.tile(np.arange(n), grid.steps))
    member[1:] = stops.reshape(grid.steps, n)
    return StoppingRegion(grid=grid, member=member)


@contextlib.contextmanager
def reference_recursion():
    """Run every sweep on ``reference_convolve_values``: they all run ``smdp._sweep``."""

    def reference(kg, v, out=None, work=None):
        return reference_convolve_values(kg, v)  # a new table, which _sweep adds into the sweep's own

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smpstop.smdp, "convolve_values", reference)
        yield


@pytest.fixture
def discretizations(monkeypatch) -> list[int]:
    """Grid sizes of the ``discretize_kernel`` calls made while the test runs."""
    calls: list[int] = []
    real = smpstop.grid.discretize_kernel

    def counting(kernel, grid):
        calls.append(grid.steps)
        return real(kernel, grid)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "smpstop" and getattr(module, "discretize_kernel", None) is real:
            monkeypatch.setattr(module, "discretize_kernel", counting)
    return calls


def _read_grid_csv(path, column: str, parse, fill) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Read (nodes, labels, table) from rows (s, state, <column>); unset cells hold ``fill``."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = tuple(dict.fromkeys(r["state"] for r in rows))
    index = {s: i for i, s in enumerate(labels)}
    nodes = sorted(dict.fromkeys(float(r["s"]) for r in rows))
    node_index = {s: k for k, s in enumerate(nodes)}
    table = np.full((len(nodes), len(labels)), fill)
    for r in rows:
        table[node_index[float(r["s"])], index[r["state"]]] = parse(r[column])
    return np.array(nodes), labels, table


def read_value_csv(path) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Read back (nodes, labels, values) from a value CSV."""
    return _read_grid_csv(path, "value", float, np.nan)


def read_region_csv(path) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Read back (nodes, labels, member) from a region CSV."""
    return _read_grid_csv(path, "stop", lambda cell: cell == "1", False)


def reference_write_value_csv(v, states, path) -> None:
    """The value CSV formatted cell by cell from numpy scalars, one f-string per row."""
    with open(path, "w", newline="") as fh:
        fh.write("s,state,value\n")
        nodes = v.grid.nodes
        for k in range(v.grid.steps + 1):
            for x, label in enumerate(states.labels):
                fh.write(f"{nodes[k]:.12g},{label},{v.values[k, x]:.12g}\n")


def reference_write_region_csv(region, states, path) -> None:
    """The region CSV formatted cell by cell from numpy scalars, one f-string per row."""
    with open(path, "w", newline="") as fh:
        fh.write("s,state,stop\n")
        nodes = region.grid.nodes
        for k in range(region.grid.steps + 1):
            for x, label in enumerate(states.labels):
                fh.write(f"{nodes[k]:.12g},{label},{int(region.member[k, x])}\n")


def kernel_cdf(kernel: SemiMarkovKernel, x: int, y: int, t: float) -> float:
    """Edge-conditional sojourn CDF F(t|x,y); the edge must be present."""
    if kernel.transition[x, y] <= 0.0:
        raise ValueError(f"no edge from state {x} to state {y}")
    return float(kernel.sojourn[x][y].cdf(t))


def survival_integral(kernel: SemiMarkovKernel, x: int, s: float, grid: TimeGrid) -> float:
    """Trapezoidal integral of the no-jump probability 1 - Q(t, E|x) over [0, s].

    ``s`` must be a grid node; off-grid times are rejected.
    """
    k = grid.index_of(s)
    return float(discretize_kernel(kernel, grid).survival[x, k])


def single_state_model(c=1.0, g=0.5, horizon=1.0, dist=None) -> SMPModel:
    """One state looping on itself; rate-1 exponential sojourns by default."""
    return SMPModel(
        states=StateSpace(("a",)),
        kernel=SemiMarkovKernel(np.array([[1.0]]), ((dist if dist is not None else Exponential(1.0),),)),
        costs=CostModel(np.array([float(c)]), np.array([float(g)])),
        horizon=horizon,
    )


def two_state_model() -> SMPModel:
    """Two states swapping with exponential sojourns of different rates."""
    return SMPModel(
        states=StateSpace(("a", "b")),
        kernel=SemiMarkovKernel(
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            ((None, Exponential(2.0)), (Exponential(1.0), None)),
        ),
        costs=CostModel(np.array([2.0, 0.1]), np.array([0.3, 1.0])),
        horizon=1.0,
    )


@pytest.fixture
def m1() -> SMPModel:
    return single_state_model()


@pytest.fixture
def m2() -> SMPModel:
    return two_state_model()


def _random_dist(rng: np.random.Generator, horizon: float):
    kind = rng.choice(("exp", "weibull", "uniform", "point"))
    if kind == "exp":
        return Exponential(rate=float(rng.uniform(0.5, 3.0)))
    if kind == "weibull":
        return Weibull(shape=float(rng.uniform(0.8, 2.5)), scale=float(rng.uniform(0.3, 1.5) * horizon))
    if kind == "uniform":
        a = float(rng.uniform(0.0, 0.4) * horizon)
        return Uniform(a=a, b=a + float(rng.uniform(0.2, 1.6) * horizon))
    return PointMass(d=float(rng.uniform(0.1, 1.6) * horizon))


def make_random_model(rng: np.random.Generator, n_states: int | None = None, horizon: float | None = None) -> SMPModel:
    """Random model with mixed sojourn kinds and jump mass within the horizon <= 0.7.

    Every state routes at least 30% of its jump probability through an edge
    whose sojourn atom sits beyond the horizon, which keeps the contraction
    factor away from 1 and regularity trivially satisfied.
    """
    n = int(n_states if n_states is not None else rng.integers(1, 6))
    horizon = float(horizon if horizon is not None else rng.uniform(0.5, 2.0))
    P = np.zeros((n, n))
    sojourn: list[list] = [[None] * n for _ in range(n)]
    for x in range(n):
        anchor = int(rng.integers(0, n))
        weights = rng.uniform(0.5, 1.5, size=n)
        weights[anchor] = 0.0
        p_anchor = float(rng.uniform(0.3, 0.5)) if weights.sum() > 0 else 1.0
        row = np.zeros(n)
        if weights.sum() > 0:
            row = (1.0 - p_anchor) * weights / weights.sum()
        row[anchor] = p_anchor
        P[x] = row / row.sum()
        sojourn[x][anchor] = PointMass(d=horizon * float(rng.uniform(1.2, 1.9)))
        for y in range(n):
            if y != anchor and P[x, y] > 0:
                sojourn[x][y] = _random_dist(rng, horizon)
    return SMPModel(
        states=StateSpace(tuple(f"s{i}" for i in range(n))),
        kernel=SemiMarkovKernel(P, tuple(tuple(r) for r in sojourn)),
        costs=CostModel(rng.uniform(0.0, 3.0, size=n), rng.uniform(0.05, 2.0, size=n)),
        horizon=horizon,
    )


def sparse_free_running_model() -> SMPModel:
    """Three states with sparse edges, atoms on and off the grid, and no running cost."""
    return SMPModel(
        states=StateSpace(("a", "b", "c")),
        kernel=SemiMarkovKernel(
            np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]),
            (
                (None, PointMass(0.25), None),
                (Uniform(0.1, 0.4), None, PointMass(0.3)),
                (None, None, Exponential(5.0)),
            ),
        ),
        costs=CostModel(np.zeros(3), np.array([0.4, 1.0, 0.2])),
        horizon=1.0,
    )


def sparse_random_model(rng: np.random.Generator, n_states: int) -> SMPModel:
    """A random model with each row's beyond-horizon edge kept and about half of its other edges dropped."""
    model = make_random_model(rng, n_states)
    P = model.kernel.transition.copy()
    sojourn = [list(row) for row in model.kernel.sojourn]
    for x in range(n_states):
        for y in range(n_states):
            d = sojourn[x][y]
            beyond = isinstance(d, PointMass) and d.d > model.horizon
            if d is not None and not beyond and rng.random() < 0.5:
                P[x, y] = 0.0
                sojourn[x][y] = None
        P[x] /= P[x].sum()
    return SMPModel(model.states, SemiMarkovKernel(P, tuple(map(tuple, sojourn))), model.costs, model.horizon)


def make_random_policy(rng: np.random.Generator, n_base: int, grid) -> StoppingRegion:
    """Random decision table, as its stop set, that never stops at zero remaining horizon.

    Half of the draws are i.i.d. coin flips per node, half are per-state
    threshold policies (stop from a random node onward, possibly never).
    """
    steps = grid.steps
    member = np.zeros((steps + 1, n_base), dtype=bool)
    if rng.random() < 0.5:
        member[1:] = rng.random((steps, n_base)) < 0.5
    else:
        for x in range(n_base):
            first = int(rng.integers(1, steps + 2))
            member[first:, x] = True
    return StoppingRegion(grid=grid, member=member)
