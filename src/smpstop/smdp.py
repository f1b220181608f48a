"""Two-action stop/continue decision process attached to a semi-Markov model.

The state space gains an absorbing rest state. Continuing runs the original
kernel and pays the running cost; stopping pays the terminal cost and parks
the process in the rest state with a sojourn longer than any horizon, so no
further cost can accrue. Value iteration on this process computes the
minimal expected cost over all stop/continue strategies, the argmin yields
an optimal decision table, and a fixed table can be evaluated the same way.
``_t_sweep`` and ``_policy_sweep`` compute the process on whole tables; the
tests keep a pointwise, per-action copy of it as their reference.

This module also holds the library's one value-iteration loop
(``_fixed_point``), which every solve and ``eps_region`` runs, the one
continuation term that every sweep uses (``_continuation``) and the
workspace that a loop's sweeps share (``_Workspace``); the stopping
recursion in ``solver`` builds on them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._record import Record
from .grid import ConvolutionWorkspace, KernelGrid, TimeGrid, ValueGrid, convolve_values, discretize_kernel
from .model import SMPModel

__all__ = [
    "CONTINUE",
    "STOP",
    "SMDPModel",
    "DeterministicMarkovPolicy",
    "SolveReport",
    "build_smdp",
    "apply_T",
    "solve_smdp",
    "extract_optimal_policy",
    "evaluate_policy",
    "stop_tolerance",
]

CONTINUE: int = 0
STOP: int = 1


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


class DeterministicMarkovPolicy:
    """Action table on grid nodes; the last column is the rest state.

    Base states continue at zero remaining horizon, so the induced stopping
    rule never fires once the horizon is spent.
    """

    def __init__(self, grid: TimeGrid, table: np.ndarray):
        tab = np.array(table, dtype=np.int8)
        if tab.ndim != 2 or tab.shape[0] != grid.steps + 1 or tab.shape[1] < 2:
            raise ValueError("policy table shape does not match the grid")
        if not np.isin(tab, (CONTINUE, STOP)).all():
            raise ValueError("policy actions must be 0 (continue) or 1 (stop)")
        if (tab[:, -1] != STOP).any():
            raise ValueError("the rest state admits only the stop action")
        if (tab[0, :-1] != CONTINUE).any():
            raise ValueError("policy must continue at zero remaining horizon")
        tab.flags.writeable = False
        self.grid = grid
        self.table = tab

    def action(self, s: float, x: int) -> int:
        """Action at remaining horizon s, read from the nearest node at or below s."""
        return int(self.table[self.grid.floor_index(s), x])


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


def stop_tolerance(terminal: np.ndarray, eta: float) -> np.ndarray:
    """Per-state tolerance eta * (1 + g(x)) for value-equals-stop-payoff tests."""
    return eta * (1.0 + terminal)


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
    discretization; one from another kernel or grid is rejected.

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
    for _ in range(grid.steps + 2 if sweeps is None else sweeps):
        nxt = sweep(kg, values, spare, ws)
        diffs.append(_sup_diff(nxt, values, scratch))
        values, spare = nxt, values
        if sweeps is None and diffs[-1] <= tol:
            break
    swept = sweep(kg, values, spare, ws)
    report = SolveReport(
        iterations=len(diffs),
        final_diff=diffs[-1],
        residual=_sup_diff(swept, values, scratch),
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
    sm: SMDPModel, kg: KernelGrid, values: np.ndarray, out: np.ndarray | None = None, ws: _Workspace | None = None
) -> np.ndarray:
    """One sweep of the minimum-cost operator, into ``out`` (a new table by default)."""
    if out is None:
        out = np.empty_like(values)
    base = out[:, : sm.n_base]
    cont = _continuation(sm.base, kg, values, base, ws or _Workspace(sm.base, kg))
    np.minimum(cont, sm.base.costs.terminal[None, :], out=base)
    out[:, sm.n_base] = 0.0
    return out


def _policy_sweep(
    sm: SMDPModel, kg: KernelGrid, stop: np.ndarray, values: np.ndarray, out: np.ndarray, ws: _Workspace
) -> np.ndarray:
    """One sweep of a fixed decision table, whose base-state stop cells are ``stop``, into ``out``."""
    base = _continuation(sm.base, kg, values, out[:, : sm.n_base], ws)
    np.copyto(base, sm.base.costs.terminal, where=stop)
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
    return _fixed_point(sm.base, grid, sm.n_states, lambda kg, v, out, ws: _t_sweep(sm, kg, v, out, ws), tol, kg)


def extract_optimal_policy(sm: SMDPModel, u: ValueGrid, eta: float = 1e-6) -> DeterministicMarkovPolicy:
    """Stop wherever the solved value already equals the stop payoff.

    Equality is tested with tolerance eta * (1 + g(x)); ties prefer
    stopping. At zero remaining horizon the policy always continues, so the
    result induces a stopping rule that never fires with the horizon spent.
    """
    n = sm.n_base
    g = sm.base.costs.terminal
    threshold = g - stop_tolerance(g, eta)
    table = np.zeros((u.grid.steps + 1, sm.n_states), dtype=np.int8)
    table[:, :n] = np.where(u.values[:, :n] >= threshold[None, :], STOP, CONTINUE)
    table[0, :n] = CONTINUE
    table[:, n] = STOP
    return DeterministicMarkovPolicy(grid=u.grid, table=table)


def evaluate_policy(
    sm: SMDPModel, policy: DeterministicMarkovPolicy, tol: float = 1e-9
) -> tuple[ValueGrid, SolveReport]:
    """Expected cost of following a fixed decision table, on the policy's grid."""
    stop = policy.table[:, : sm.n_base] == STOP
    return _fixed_point(
        sm.base, policy.grid, sm.n_states, lambda kg, v, out, ws: _policy_sweep(sm, kg, stop, v, out, ws), tol
    )
