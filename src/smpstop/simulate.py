"""Seeded Monte-Carlo simulation of semi-Markov paths under stopping rules.

Each path owns a counter-based random substream derived from the master
seed and the path index, so estimates are bit-reproducible for a fixed
(seed, n_paths) no matter how paths are batched across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import SojournDist
from .grid import TimeGrid
from .model import SMPModel
from .smdp import CONTINUE, STOP, DeterministicMarkovPolicy
from .solver import StoppingRegion

__all__ = [
    "MAX_JUMPS",
    "JumpLimitError",
    "Trajectory",
    "StopOutcome",
    "StoppingRule",
    "RegionRule",
    "PolicyRule",
    "AlwaysStop",
    "NeverStop",
    "HistoryRule",
    "MCReport",
    "path_stream",
    "sample_sojourn",
    "sample_trajectory",
    "execute_rule",
    "trajectory_cost",
    "estimate_value",
    "policy_from_rule",
]

# Jumps one path may take before the horizon. Regular kernels average a few
# jumps per horizon; a kernel whose jumps pile up (a point mass at 1e-300,
# say) would otherwise never reach the horizon.
MAX_JUMPS = 100_000


class JumpLimitError(RuntimeError):
    """A sampled path took MAX_JUMPS jumps without reaching the horizon."""


@dataclass(frozen=True)
class Trajectory:
    """A sampled jump sequence, generated up to the first jump at or past the horizon.

    states      visited states x_0..x_n
    sojourns    holding times t_1..t_n
    jump_times  cumulative times S_0..S_n with S_0 = 0
    """

    states: tuple[int, ...]
    sojourns: tuple[float, ...]
    jump_times: tuple[float, ...]


@dataclass(frozen=True)
class StopOutcome:
    """Index where a rule fired and whether that happened strictly before the horizon."""

    index: int
    stopped_before_horizon: bool


class StoppingRule:
    """Decides at each jump whether to stop, given remaining horizon and state."""

    def stops(self, remaining: float, state: int) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class RegionRule(StoppingRule):
    """Stop on first entry of (remaining horizon, state) into a stopping region."""

    region: StoppingRegion

    def stops(self, remaining, state):
        return self.region.contains(remaining, state)


@dataclass(frozen=True)
class PolicyRule(StoppingRule):
    """Stop where a deterministic decision table says to stop."""

    policy: DeterministicMarkovPolicy

    def stops(self, remaining, state):
        if remaining <= 0.0:
            return False
        return self.policy.action(remaining, state) == STOP


class AlwaysStop(StoppingRule):
    def stops(self, remaining, state):
        return remaining > 0.0


class NeverStop(StoppingRule):
    def stops(self, remaining, state):
        return False


@dataclass(frozen=True)
class HistoryRule(StoppingRule):
    """Stop when predicate(remaining, states_so_far, sojourns_so_far) holds.

    Executable for experimentation; such rules are not reducible to a
    decision table and are rejected by ``policy_from_rule``.
    """

    predicate: Callable[[float, tuple[int, ...], tuple[float, ...]], bool]


@dataclass(frozen=True)
class MCReport:
    """Monte-Carlo estimate of the expected cost of a stopping rule."""

    n_paths: int
    mean: float
    std_err: float
    ci95: tuple[float, float]
    seed: int
    stopped_before_frac: float
    stop_histogram: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "mean": self.mean,
            "std_err": self.std_err,
            "ci95": list(self.ci95),
            "seed": self.seed,
            "stopped_before_T_frac": self.stopped_before_frac,
            "stop_index_histogram": {str(k): v for k, v in self.stop_histogram.items()},
        }


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one path: same seed and index, same draws."""
    key = int(seed) & ((1 << 128) - 1)
    return np.random.Generator(np.random.Philox(key=key, counter=index << 128))


def sample_sojourn(dist: SojournDist, rng: np.random.Generator) -> float:
    """Draw one sojourn by inverse transform; always strictly positive."""
    return dist.sample(rng)


def sample_trajectory(model: SMPModel, x0: int, rng: np.random.Generator) -> Trajectory:
    """Alternate next-state and sojourn draws until a jump lands at or past the horizon.

    Raises JumpLimitError after MAX_JUMPS jumps short of the horizon.
    """
    n = len(model.states)
    if not 0 <= x0 < n:
        raise ValueError(f"initial state index {x0} out of range")
    horizon = model.horizon
    P = model.kernel.transition
    sojourn = model.kernel.sojourn
    cumulative = np.cumsum(P, axis=1)
    states = [int(x0)]
    sojourns: list[float] = []
    jumps = [0.0]
    x = int(x0)
    elapsed = 0.0
    while elapsed < horizon:
        if len(sojourns) == MAX_JUMPS:
            raise JumpLimitError(
                f"a path from state {x0} took {MAX_JUMPS} jumps and reached time {elapsed:.6g} "
                f"of the horizon {horizon:g}; the kernel's jumps pile up inside the horizon"
            )
        y = min(int(np.searchsorted(cumulative[x], rng.random(), side="right")), n - 1)
        t = sample_sojourn(sojourn[x][y], rng)
        elapsed = elapsed + t
        states.append(y)
        sojourns.append(t)
        jumps.append(elapsed)
        x = y
    return Trajectory(states=tuple(states), sojourns=tuple(sojourns), jump_times=tuple(jumps))


def execute_rule(rule: StoppingRule, traj: Trajectory, horizon: float) -> StopOutcome:
    """First jump index where the rule fires, cut off at the first jump past the horizon.

    Jumps at or past the horizon force a stop with no terminal cost, so the
    returned index is always finite.
    """
    history_based = isinstance(rule, HistoryRule)
    for n, (s_n, x_n) in enumerate(zip(traj.jump_times, traj.states)):
        if s_n >= horizon:
            return StopOutcome(index=n, stopped_before_horizon=False)
        remaining = horizon - s_n
        if history_based:
            fired = rule.predicate(remaining, traj.states[: n + 1], traj.sojourns[:n])
        else:
            fired = rule.stops(remaining, x_n)
        if fired:
            return StopOutcome(index=n, stopped_before_horizon=True)
    raise RuntimeError("trajectory ends before the horizon; generate it to the horizon first")


def trajectory_cost(traj: Trajectory, outcome: StopOutcome, model: SMPModel) -> float:
    """Realized cost of a stop decision on one path.

    Stopping strictly before the horizon pays the running cost of every
    completed sojourn plus the terminal cost of the state stopped in;
    otherwise the running cost accrues up to the horizon and no terminal
    cost is due.
    """
    rate = model.costs.rate
    if outcome.stopped_before_horizon:
        running = 0.0
        for m in range(outcome.index):
            running += rate[traj.states[m]] * traj.sojourns[m]
        return float(running + model.costs.terminal[traj.states[outcome.index]])
    horizon = model.horizon
    running = 0.0
    for m, t in enumerate(traj.sojourns):
        window = horizon - traj.jump_times[m]
        if window <= 0.0:
            break
        running += rate[traj.states[m]] * min(window, t)
    return float(running)


def estimate_value(model: SMPModel, rule: StoppingRule, x0, n_paths: int, seed: int) -> MCReport:
    """Monte-Carlo mean cost of a stopping rule from x0 over the model horizon.

    The mean is reduced in fixed path order; a degenerate cost sample is
    reported exactly (zero standard error).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    x_idx = model.states.index(x0) if isinstance(x0, str) else int(x0)
    horizon = model.horizon
    costs = np.empty(n_paths)
    histogram: dict[int, int] = {}
    stopped_before = 0
    for i in range(n_paths):
        rng = path_stream(seed, i)
        traj = sample_trajectory(model, x_idx, rng)
        outcome = execute_rule(rule, traj, horizon)
        costs[i] = trajectory_cost(traj, outcome, model)
        histogram[outcome.index] = histogram.get(outcome.index, 0) + 1
        stopped_before += outcome.stopped_before_horizon
    if float(costs.min()) == float(costs.max()):
        mean, std_err = float(costs[0]), 0.0
    else:
        mean = float(costs.mean())
        std_err = float(costs.std(ddof=1) / math.sqrt(n_paths))
    return MCReport(
        n_paths=int(n_paths),
        mean=mean,
        std_err=std_err,
        ci95=(mean - 1.96 * std_err, mean + 1.96 * std_err),
        seed=int(seed),
        stopped_before_frac=stopped_before / n_paths,
        stop_histogram=dict(sorted(histogram.items())),
    )


def policy_from_rule(rule: StoppingRule, model: SMPModel, grid: TimeGrid) -> DeterministicMarkovPolicy:
    """Materialize a Markov stopping rule as a decision table on the grid.

    The round trip rule -> policy -> induced rule reproduces the stop
    decision at every grid node. History-dependent rules are rejected.
    """
    if isinstance(rule, HistoryRule):
        raise ValueError("history-dependent rules cannot be reduced to a decision table")
    n = len(model.states)
    table = np.zeros((grid.steps + 1, n + 1), dtype=np.int8)
    table[:, n] = STOP
    if isinstance(rule, RegionRule) and rule.region.grid == grid:
        table[:, :n] = np.where(rule.region.member, STOP, CONTINUE)
    else:
        nodes = grid.nodes
        for k in range(1, grid.steps + 1):
            for x in range(n):
                table[k, x] = STOP if rule.stops(float(nodes[k]), x) else CONTINUE
    table[0, :n] = CONTINUE
    return DeterministicMarkovPolicy(grid=grid, table=table)
