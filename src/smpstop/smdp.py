"""Two-action stop/continue decision process attached to a semi-Markov model.

Value iteration on the process (``SMDPModel``) computes the minimal
expected cost over all stop/continue strategies. Its rest state admits only
the stop action, so a Markov decision table is a stop set over (node, base
state), a ``StoppingRegion``, and ``evaluate_policy`` computes its cost the
same way. The tests keep a pointwise, per-action copy of the process as
their reference.

On the base states the process's minimum-cost operator T is the stopping
recursion's G, and its rest-state column is zero. So this module holds the
library's one value-iteration sweep (``_sweep``), which writes base columns
and zeroes any column past them, and the one loop (``_fixed_point``) that
runs it for every solve, ``eps_region`` and ``evaluate_policy``: a solve
picks only the table's width and an optional stop table. ``solver`` builds
the stopping recursion on them.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .grid import ConvolutionWorkspace, KernelGrid, TimeGrid, ValueGrid, convolve_values, discretize_kernel
from .model import SMPModel

__all__ = [
    "SMDPModel",
    "SolveReport",
    "StoppingRegion",
    "build_smdp",
    "apply_T",
    "solve_smdp",
    "evaluate_policy",
]


class SMDPModel:
    """Stop/continue decision model over the extended state space E + {rest}.

    Base states are indexed 0..n-1 as in the underlying model; the rest
    state has index n. Base states admit both actions, the rest state only
    the stop action. Costs and the controlled kernel are rule-based:

    * continue in x: running cost c(x), jumps by the underlying kernel;
    * stop in x: one-off terminal cost g(x), then a jump to the rest state
      with a sojourn point mass at horizon + 1 (never inside the horizon);
    * the rest state costs nothing and keeps stopping.
    """

    def __init__(self, base: SMPModel):
        self.base = base

    @property
    def n_base(self) -> int:
        return len(self.base.states)

    @property
    def rest_state(self) -> int:
        return self.n_base

    @property
    def n_states(self) -> int:
        return self.n_base + 1


def build_smdp(model: SMPModel) -> SMDPModel:
    """Attach the stop action and the absorbing rest state to a validated model."""
    return SMDPModel(base=model)


class StoppingRegion:
    """Grid subset ``member[node, base state]`` where a rule stops: the one decision table.

    No rule stops with no horizon left, so node 0 is never a member: the
    region keeps its own read-only copy of ``member`` with row 0 cleared.
    ``boundary[x]`` is the earliest member node time when the section of
    state x is an up-set reaching the horizon, else None.
    """

    def __init__(self, grid: TimeGrid, member: np.ndarray):
        member = np.array(member, dtype=bool)
        if member.ndim != 2 or member.shape[0] != grid.steps + 1 or member.shape[1] < 1:
            raise ValueError(f"member has shape {member.shape}; it needs {grid.steps + 1} rows, one per grid node")
        member[0] = False
        member.flags.writeable = False
        self.grid = grid
        self.member = member
        first = member.argmax(axis=0)  # each section's first member node, 0 if it has none
        upset = member.sum(axis=0) == len(member) - first  # every node from there on, none before
        self.boundary = tuple(float(grid.nodes[k]) if ok else None for k, ok in zip(first.tolist(), upset.tolist()))


class SolveReport(Record):
    """Iteration diagnostics of a fixed-point solve.

    ``next_values`` is the table that one more sweep makes of the solved
    one, the sweep that measured ``residual``; callers that need it read it
    here instead of sweeping again. Equality and repr leave it out.
    """

    _fields = ("iterations", "final_diff", "residual", "converged", "sup_diffs")

    def __init__(
        self, iterations: int, final_diff: float, residual: float, converged: bool, sup_diffs: tuple[float, ...],
        next_values: np.ndarray | None = None,
    ):
        self.iterations = iterations
        self.final_diff = final_diff
        self.residual = residual
        self.converged = converged
        self.sup_diffs = sup_diffs
        self.next_values = next_values


class _Workspace(ConvolutionWorkspace):
    """What every sweep of one solve reuses: the convolution buffers and c(x) * survival.

    ``running`` is computed once per solve; each sweep adds the convolution
    to it (float addition commutes, so the bits are those of ``c * survival
    + convolution``).
    """

    def __init__(self, model: SMPModel, kg: KernelGrid):
        super().__init__(kg)
        self.running = model.costs.rate[None, :] * kg.survival.T


def _sup_diff(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """max |a - b|, computed in ``scratch``."""
    np.subtract(a, b, out=scratch)
    return float(np.abs(scratch, out=scratch).max())


def _fixed_point(
    model: SMPModel,
    grid: TimeGrid,
    width: int,
    tol: float,
    kg: KernelGrid | None = None,
    sweeps: int | None = None,
    stop: np.ndarray | None = None,
) -> tuple[ValueGrid, SolveReport]:
    """Iterate ``_sweep`` from a zero table of ``width`` columns up to its fixed point.

    Lag 0 carries no jump mass, so a sweep's value at node k reads only
    nodes below k: from zero, sweep m fixes node m - 1, the table is the
    fixed point after ``grid.steps + 1`` sweeps, and one more changes
    nothing. So the loop runs at most ``grid.steps + 2`` sweeps. It stops
    early once the sup-norm successive difference drops to ``tol``; a
    ``tol`` below round-off is flagged as not converged, and the last
    iterate is still returned. Given ``sweeps`` (at least 1) instead, it
    runs exactly that many, with no stop at ``tol`` and no cap, as
    ``eps_region``'s iteration budget needs. Either way the fixed-point
    residual is re-verified with one extra sweep, whose table the report
    keeps as ``next_values``. A ``kg`` discretized from ``model.kernel`` on
    ``grid`` is used as given, so solves on one grid can share one
    discretization; one from another kernel or grid is rejected. A table or
    residual sweep that is not finite (an overflow, or the NaN it leads to)
    raises OverflowError once the loop ends.

    ``width`` is n for the stopping recursion and n + 1 for the decision
    process, whose rest-state column stays zero; ``stop`` is passed on to
    every sweep. The loop holds two tables and swaps them, so a sweep never
    writes the table it reads and no sweep allocates one.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if kg is None:
        kg = discretize_kernel(model.kernel, grid)
    elif kg.grid != grid or kg.kernel is not model.kernel:
        raise ValueError("kg was discretized from another kernel or grid")
    ws = _Workspace(model, kg)
    values = np.zeros((grid.steps + 1, width))
    spare = np.empty_like(values)
    scratch = np.empty_like(values)
    diffs: list[float] = []
    # an overflow shows in the residual: a non-finite entry in either table makes it inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(grid.steps + 2 if sweeps is None else sweeps):
            nxt = _sweep(model, kg, values, spare, ws, stop)
            diffs.append(_sup_diff(nxt, values, scratch))
            values, spare = nxt, values
            if sweeps is None and diffs[-1] <= tol:
                break
        swept = _sweep(model, kg, values, spare, ws, stop)
        residual = _sup_diff(swept, values, scratch)
    if not math.isfinite(residual):
        raise OverflowError("the values overflow a float; the model's costs are too large")
    report = SolveReport(
        iterations=len(diffs),
        final_diff=diffs[-1],
        residual=residual,
        converged=diffs[-1] <= tol,
        sup_diffs=tuple(diffs),
        next_values=swept,
    )
    return ValueGrid(grid=grid, values=values), report


def _sweep(
    model: SMPModel, kg: KernelGrid, values: np.ndarray, out: np.ndarray | None = None, ws: _Workspace | None = None,
    stop: np.ndarray | None = None,
) -> np.ndarray:
    """One value-iteration sweep of ``values`` into ``out`` (a new table by default).

    The base columns get c * survival + convolution of the base columns,
    then its minimum with g, or g where ``stop`` is set; every column past
    them (the rest state) gets 0. ``ws`` is a solve's workspace.
    """
    if out is None:
        out = np.empty_like(values)
    ws = ws or _Workspace(model, kg)
    n = len(model.states)
    base = out[:, :n]
    np.add(ws.running, convolve_values(kg, values[:, :n], base, ws), out=base)
    if stop is None:
        np.minimum(base, model.costs.terminal, out=base)
    else:
        np.copyto(base, model.costs.terminal, where=stop)
    out[:, n:] = 0.0
    return out


def apply_T(sm: SMDPModel, v: ValueGrid, kg: KernelGrid | None = None) -> ValueGrid:
    """Pointwise minimum of the action operators over admissible actions."""
    if kg is None:
        kg = discretize_kernel(sm.base.kernel, v.grid)
    return ValueGrid(grid=v.grid, values=_sweep(sm.base, kg, v.values))


def solve_smdp(
    sm: SMDPModel, grid: TimeGrid, tol: float = 1e-9, kg: KernelGrid | None = None
) -> tuple[ValueGrid, SolveReport]:
    """Iterate the minimum-cost operator from zero up to its least fixed point.

    Iterates are pointwise nondecreasing; the loop, its report and the
    optional shared ``kg`` are those of ``_fixed_point``. The rest-state
    column stays zero.
    """
    return _fixed_point(sm.base, grid, sm.n_states, tol, kg)


def evaluate_policy(sm: SMDPModel, region: StoppingRegion, tol: float = 1e-9) -> tuple[ValueGrid, SolveReport]:
    """Expected cost of the decision table that stops on ``region``'s members, on its grid."""
    return _fixed_point(sm.base, region.grid, sm.n_states, tol, stop=region.member)
