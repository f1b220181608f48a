"""Value iteration for the stopping recursion, stopping regions, and accuracy budgets.

The one-step recursion on base states is

    new(s, x) = min( c(x) * integral_0^s (1 - Q(t, E|x)) dt
                     + sum_y sum_{0 < t <= s} value(s - t, y) dQ(t, y|x),
                     g(x) )

discretized on a uniform grid with the jump mass of each step assigned to
its right endpoint. Iterating from zero increases pointwise to the minimal
expected cost over all stopping rules; the set where the value meets g is
the region in which stopping is optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import KernelGrid, TimeGrid, ValueGrid, discretize_kernel
from .model import SMPModel, StateSpace, contraction_factor
from .smdp import (
    SolveReport,
    _continuation,
    _fixed_point,
    _Workspace,
    apply_T,
    build_smdp,
    solve_smdp,
    stop_tolerance,
)

__all__ = [
    "ContractionError",
    "ValueGrid",
    "StoppingRegion",
    "EpsBudget",
    "EpsRegionResult",
    "apply_G",
    "solve_value",
    "stopping_region",
    "iteration_budget",
    "eps_region",
    "exactness_gap",
    "operator_discrepancy",
    "cross_check",
    "write_value_csv",
    "write_region_csv",
]


class ContractionError(RuntimeError):
    """Jump mass within the horizon reaches 1, so no geometric budget exists."""


@dataclass
class StoppingRegion:
    """Grid subset where stopping is optimal; excludes zero remaining horizon.

    ``boundary[x]`` is the earliest member node time when the section of
    state x is an up-set reaching the horizon, else None.
    """

    grid: TimeGrid
    member: np.ndarray
    boundary: tuple[float | None, ...]

    def contains(self, s: float, x: int) -> bool:
        """Membership at remaining horizon s via the nearest node at or below s."""
        if s <= 0.0:
            return False
        return bool(self.member[self.grid.floor_index(s), x])


@dataclass(frozen=True)
class EpsBudget:
    """Iteration count sufficient for an eps-accurate value under contraction."""

    eps: float
    beta: float
    bound: float
    n_iter: int


@dataclass
class EpsRegionResult:
    region: "StoppingRegion"
    iterate: ValueGrid
    refined: ValueGrid
    budget: EpsBudget
    report: SolveReport


def _g_sweep(
    model: SMPModel, kg: KernelGrid, values: np.ndarray, out: np.ndarray | None = None, ws: _Workspace | None = None
) -> np.ndarray:
    """One sweep of the recursion, into ``out`` (a new table by default) with a solve's workspace ``ws``."""
    if out is None:
        out = np.empty_like(values)
    cont = _continuation(model, kg, values, out, ws or _Workspace(model, kg))
    return np.minimum(cont, model.costs.terminal[None, :], out=out)


def apply_G(v: ValueGrid, model: SMPModel, kg: KernelGrid | None = None) -> ValueGrid:
    """One sweep of the stopping recursion: min(continuation cost, stop payoff)."""
    if kg is None:
        kg = discretize_kernel(model.kernel, v.grid)
    return ValueGrid(grid=v.grid, values=_g_sweep(model, kg, v.values))


def solve_value(
    model: SMPModel, grid: TimeGrid, tol: float = 1e-9, kg: KernelGrid | None = None
) -> tuple[ValueGrid, SolveReport]:
    """Iterate the stopping recursion from zero up to the value function.

    Iterates are pointwise nondecreasing and bounded by min(g(x), s * max c).
    The loop and its report are those of ``smdp._fixed_point``: it stops at
    a sup-norm step of ``tol``, or flags non-convergence after the
    ``grid.steps + 2`` sweeps that reach the grid's fixed point, and
    re-verifies the fixed-point residual with one extra sweep. A ``kg``
    discretized on ``grid`` is used instead of discretizing the kernel again.
    """
    return _fixed_point(model, grid, len(model.states), partial(_g_sweep, model), tol, kg)


def stopping_region(v: ValueGrid, model: SMPModel, eta: float = 1e-6) -> StoppingRegion:
    """Nodes where the value meets the stop payoff within eta * (1 + g(x)).

    Zero remaining horizon is never a member. A per-state boundary time is
    reported only when membership, scanned over the grid, is an up-set that
    reaches the horizon.
    """
    g = model.costs.terminal
    member = v.values >= (g - stop_tolerance(g, eta))[None, :]
    member[0, :] = False
    nodes = v.grid.nodes
    boundary: list[float | None] = []
    for x in range(len(model.states)):
        hits = np.flatnonzero(member[:, x])
        if hits.size and member[hits[0] :, x].all():
            boundary.append(float(nodes[hits[0]]))
        else:
            boundary.append(None)
    return StoppingRegion(grid=v.grid, member=member, boundary=tuple(boundary))


def iteration_budget(model: SMPModel, eps: float) -> EpsBudget:
    """Exact iteration count N = ceil((log(eps (1-beta)) - log(M+1)) / log beta).

    M = T * max c + max g bounds every iterate, and successive differences
    shrink geometrically at rate beta = sup_x Q(T, E|x); N iterations leave
    a tail of at most eps. Kernels with beta >= 1 have no such budget and
    raise ContractionError. The count is floored at one sweep, and an eps
    so small that eps (1 - beta) underflows to zero raises ValueError.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    beta = contraction_factor(model)
    m_bound = model.horizon * float(model.costs.rate.max()) + float(model.costs.terminal.max())
    if beta >= 1.0:
        raise ContractionError(f"sup_x Q(T, E|x) = {beta:.12g}; the budget needs a value below 1")
    n_iter = 1
    if beta > 0.0:
        scaled = eps * (1.0 - beta)
        if scaled == 0.0:
            raise ValueError(f"{eps!r} * (1 - beta) underflows to zero; no iteration count reaches it")
        n_iter = max(1, math.ceil((math.log(scaled) - math.log(m_bound + 1.0)) / math.log(beta)))
    return EpsBudget(eps=eps, beta=beta, bound=m_bound, n_iter=n_iter)


def eps_region(model: SMPModel, grid: TimeGrid, eps: float, eta: float = 1e-6) -> EpsRegionResult:
    """Run exactly the budgeted number of sweeps from zero and read off the region.

    The sweeps run in ``smdp._fixed_point``'s loop, told the count, so
    neither ``tol`` nor the grid's cap ends them; the loop's residual sweep
    is ``refined``, its report ``report``. The region collects the nodes
    where that further sweep already returns the stop payoff. Stopping by
    hitting this region is eps-optimal; when the payoff margin outside it
    exceeds eps (see ``exactness_gap``) the region coincides with the optimal one.
    """
    budget = iteration_budget(model, eps)
    iterate, report = _fixed_point(model, grid, len(model.states), partial(_g_sweep, model), eps, sweeps=budget.n_iter)
    refined = ValueGrid(grid=grid, values=report.next_values)
    region = stopping_region(refined, model, eta)
    return EpsRegionResult(region=region, iterate=iterate, refined=refined, budget=budget, report=report)


def exactness_gap(model: SMPModel, region: StoppingRegion, refined: ValueGrid) -> float:
    """Smallest stop-payoff margin g(x) - value outside the region; +inf if empty.

    A gap above eps certifies that the eps-region already equals the optimal
    stopping region.
    """
    outside = ~region.member
    outside[0, :] = False
    if not outside.any():
        return float("inf")
    margins = (model.costs.terminal[None, :] - refined.values)[outside]
    return float(margins.min())


def operator_discrepancy(
    v: ValueGrid, model: SMPModel, kg: KernelGrid | None = None, gv: np.ndarray | None = None
) -> float:
    """Sup distance between the decision process's operator T at [v, 0] and [G(v), 0].

    ``[v, 0]`` is the recursion's table v with a zero rest-state column.
    If ``T([v, 0]) = [G(v), 0]``, then [v, 0] has the same residual under T
    as v has under G, so a solved v solves the decision process to the same
    accuracy: the equivalence of the two routes, checked at the solution
    with one sweep of each operator. The comparison covers the rest-state
    column of T([v, 0]), which must be 0. ``gv``, the table G(v) when it is
    already at hand (``solve_value``'s ``report.next_values``), saves the
    sweep of G.
    """
    if kg is None:
        kg = discretize_kernel(model.kernel, v.grid)
    if gv is None:
        gv = apply_G(v, model, kg).values
    rest = np.zeros((v.grid.steps + 1, 1))
    t = apply_T(build_smdp(model), ValueGrid(grid=v.grid, values=np.hstack((v.values, rest))), kg).values
    g = np.hstack((gv, rest))
    return float(np.max(np.abs(t - g)))


def cross_check(model: SMPModel, grid: TimeGrid, tol: float = 1e-9) -> float:
    """Solve both routes on one discretized kernel; return their max difference on base states.

    The two computations are algebraically identical node for node, so any
    visible discrepancy indicates an implementation fault.
    """
    kg = discretize_kernel(model.kernel, grid)
    u, _ = solve_smdp(build_smdp(model), grid, tol=tol, kg=kg)
    v, _ = solve_value(model, grid, tol=tol, kg=kg)
    return float(np.max(np.abs(u.values[:, : v.values.shape[1]] - v.values)))


# ---------------------------------------------------------------------------
# CSV artifacts
#
# Rows are written one node at a time from Python floats and bools, so no
# file is ever held whole in memory. A label is never part of a format
# template, so one holding % or braces is written as it is.


def write_value_csv(v: ValueGrid, states: StateSpace, path) -> None:
    """Rows (s, state, value) for every node and state, 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("s,state,value\n")
        values = v.values
        for k, node in enumerate(v.grid.nodes.tolist()):
            s = "%.12g" % node
            for label, value in zip(states.labels, values[k].tolist()):
                fh.write("%s,%s,%.12g\n" % (s, label, value))


def write_region_csv(region: StoppingRegion, states: StateSpace, path) -> None:
    """Rows (s, state, stop) with stop in {0, 1} for every node and state."""
    with open(path, "w", newline="") as fh:
        fh.write("s,state,stop\n")
        tails = [("," + label + ",0\n", "," + label + ",1\n") for label in states.labels]
        member = region.member
        for k, node in enumerate(region.grid.nodes.tolist()):
            s = "%.12g" % node
            for tail, stop in zip(tails, member[k].tolist()):
                fh.write(s + tail[stop])
