"""Two-action stop/continue decision process attached to a semi-Markov model.

Value iteration on the process (``SMDPModel``) computes the minimal
expected cost over all stop/continue strategies. Its rest state admits only
the stop action, so a Markov decision table is a stop set over (node, base
state), a ``StoppingRegion``, and ``evaluate_policy`` computes its cost the
same way. ``_t_sweep`` runs the process on whole tables; the tests keep a
pointwise, per-action copy of it as their reference.

This module also holds the library's one value-iteration loop
(``_fixed_point``), which every solve and ``eps_region`` runs, the one
continuation term that every sweep uses (``_continuation``) and the
workspace that a loop's sweeps share (``_Workspace``); the stopping
recursion in ``solver`` builds on them.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

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

    ``boundary[x]`` is the earliest member node time when the section of
    state x is an up-set reaching the horizon, else None.
    """

    def __init__(self, grid: TimeGrid, member: np.ndarray):
        member = np.asarray(member, dtype=bool)
        if member.ndim != 2 or member.shape[0] != grid.steps + 1 or member.shape[1] < 1:
            raise ValueError(f"member has shape {member.shape}; it needs {grid.steps + 1} rows, one per grid node")
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
    sweep: Callable[[KernelGrid, np.ndarray, np.ndarray, _Workspace], np.ndarray],
    tol: float,
    kg: KernelGrid | None = None,
    sweeps: int | None = None,
) -> tuple[ValueGrid, SolveReport]:
    """Iterate ``sweep`` from a zero table of ``width`` columns up to its fixed point.

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

    ``sweep(kg, values, out, ws)`` writes the sweep of ``values`` into
    ``out`` and returns it; ``ws`` is the solve's workspace. The loop holds
    two tables and swaps them, so a sweep never writes the table it reads
    and no sweep allocates one.
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
            nxt = sweep(kg, values, spare, ws)
            diffs.append(_sup_diff(nxt, values, scratch))
            values, spare = nxt, values
            if sweeps is None and diffs[-1] <= tol:
                break
        swept = sweep(kg, values, spare, ws)
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


def _continuation(model: SMPModel, kg: KernelGrid, values: np.ndarray, out: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Continue-action values on base states for all nodes, c * survival + convolution, into ``out``.

    Columns of ``values`` past the base states (the rest state) are ignored.
    """
    conv = convolve_values(kg, values[:, : len(model.states)], out, ws)
    return np.add(ws.running, conv, out=out)


def _t_sweep(
    sm: SMDPModel, kg: KernelGrid, values: np.ndarray, out: np.ndarray | None = None, ws: _Workspace | None = None,
    stop: np.ndarray | None = None,
) -> np.ndarray:
    """One sweep into ``out`` (a new table by default): the minimum-cost operator, or the table stopping on ``stop``."""
    if out is None:
        out = np.empty_like(values)
    base = _continuation(sm.base, kg, values, out[:, : sm.n_base], ws or _Workspace(sm.base, kg))
    if stop is None:
        np.minimum(base, sm.base.costs.terminal[None, :], out=base)
    else:
        np.copyto(base[1:], sm.base.costs.terminal, where=stop[1:])  # never with no horizon left
    out[:, sm.n_base] = 0.0
    return out


def apply_T(sm: SMDPModel, v: ValueGrid, kg: KernelGrid | None = None) -> ValueGrid:
    """Pointwise minimum of the action operators over admissible actions."""
    if kg is None:
        kg = discretize_kernel(sm.base.kernel, v.grid)
    return ValueGrid(grid=v.grid, values=_t_sweep(sm, kg, v.values))


def solve_smdp(
    sm: SMDPModel, grid: TimeGrid, tol: float = 1e-9, kg: KernelGrid | None = None
) -> tuple[ValueGrid, SolveReport]:
    """Iterate the minimum-cost operator from zero up to its least fixed point.

    Iterates are pointwise nondecreasing; the loop, its report and the
    optional shared ``kg`` are those of ``_fixed_point``. The rest-state
    column stays zero.
    """
    return _fixed_point(sm.base, grid, sm.n_states, partial(_t_sweep, sm), tol, kg)


def evaluate_policy(sm: SMDPModel, region: StoppingRegion, tol: float = 1e-9) -> tuple[ValueGrid, SolveReport]:
    """Expected cost of the decision table that stops on ``region``'s members, on its grid.

    No rule stops with no horizon left, so node 0 never stops, whatever ``region`` holds there.
    """
    return _fixed_point(sm.base, region.grid, sm.n_states, partial(_t_sweep, sm, stop=region.member), tol)
