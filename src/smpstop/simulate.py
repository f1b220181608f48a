"""Seeded Monte-Carlo simulation of semi-Markov paths under stopping rules.

A rule decides at each jump from the remaining horizon and the current
state; a decision table is a ``StoppingRegion``, and ``RegionRule`` its rule.

Each path owns a counter-based random substream derived from the master
seed and the path index, so estimates are bit-reproducible for a fixed
(seed, n_paths) no matter how paths are batched. ``estimate_value`` steps
a pool of up to 4096 paths together on a numpy copy of those substreams,
refilling it in path order as paths end; the one-path functions
(``path_stream``, ``sample_trajectory``, ``execute_rule``,
``trajectory_cost``) are the reference it reproduces bit for bit. The
cost of a stopping time depends on a path only up to the stop, so a
simulated path ends at its stop: at the first jump where the rule fires
or the first jump at or past the horizon, whichever comes first.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import SMPModel
from .smdp import StoppingRegion

__all__ = [
    "MAX_JUMPS",
    "JumpLimitError",
    "Trajectory",
    "StopOutcome",
    "StoppingRule",
    "RegionRule",
    "AlwaysStop",
    "NeverStop",
    "MCReport",
    "path_stream",
    "sample_trajectory",
    "execute_rule",
    "trajectory_cost",
    "estimate_value",
]

# Jumps one path may take before its stop. Regular kernels average a few
# jumps per horizon; a kernel whose jumps pile up (a point mass at 1e-300,
# say) would otherwise never reach the horizon.
MAX_JUMPS = 100_000

# Paths that estimate_value advances together; bounds its working memory.
_CHUNK = 4096

# Jumps that a path takes in estimate_value's lock-step pool before it is
# handed to the one-path route. Regular kernels take a few jumps per
# horizon. Where jumps pile up, the one-path route reaches MAX_JUMPS at the
# cost of one path, not of a pool.
_LOCKSTEP_JUMPS = 256


class JumpLimitError(RuntimeError):
    """A sampled path took MAX_JUMPS jumps without reaching its stop or the horizon."""


class Trajectory(NamedTuple):
    """A sampled jump sequence, generated up to the first jump at or past the horizon
    or, when sampled under a rule, up to the jump where the rule stops.

    states      visited states x_0..x_n
    sojourns    holding times t_1..t_n
    jump_times  cumulative times S_0..S_n with S_0 = 0
    """

    states: tuple[int, ...]
    sojourns: tuple[float, ...]
    jump_times: tuple[float, ...]


class StopOutcome(NamedTuple):
    """Index where a rule fired and whether that happened strictly before the horizon."""

    index: int
    stopped_before_horizon: bool


class StoppingRule:
    """Decides at each jump whether to stop, given remaining horizon and state."""

    def stops(self, remaining: float, state: int) -> bool:
        raise NotImplementedError

    def stops_many(self, remaining: np.ndarray, states: np.ndarray) -> np.ndarray:
        """``stops`` on paired arrays of remaining horizons and states."""
        return np.array([self.stops(r, x) for r, x in zip(remaining.tolist(), states.tolist())], dtype=bool)


class RegionRule(StoppingRule):
    """Stop on first entry into a stopping region, read at the node at or below the remaining horizon."""

    def __init__(self, region: StoppingRegion):
        self.region = region

    def stops(self, remaining, state):
        return bool(self.region.member[self.region.grid.floor_index(remaining), state])

    def stops_many(self, remaining, states):
        return self.region.member[self.region.grid.floor_index(remaining), states]


class AlwaysStop(StoppingRule):
    def stops(self, remaining, state):
        return remaining > 0.0

    def stops_many(self, remaining, states):
        return remaining > 0.0


class NeverStop(StoppingRule):
    def stops(self, remaining, state):
        return False

    def stops_many(self, remaining, states):
        return np.zeros(len(remaining), dtype=bool)


class MCReport(NamedTuple):
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


def sample_trajectory(
    model: SMPModel, x0: int, rng: np.random.Generator, rule: StoppingRule | None = None
) -> Trajectory:
    """Alternate next-state and sojourn draws until a jump lands at or past the horizon.

    Given a rule, generation also ends at the first jump short of the
    horizon where the rule fires, the stop ``execute_rule`` finds on the
    full trajectory; the draws up to there are the same. Raises
    JumpLimitError after MAX_JUMPS jumps that reach neither.
    """
    n = len(model.states)
    if not 0 <= x0 < n:
        raise ValueError(f"initial state index {x0} out of range")
    horizon = model.horizon
    sojourn = model.kernel.sojourn
    cumulative = model.kernel.cumulative
    states = [int(x0)]
    sojourns: list[float] = []
    jumps = [0.0]
    x = int(x0)
    elapsed = 0.0
    while elapsed < horizon:
        if rule is not None and rule.stops(horizon - elapsed, x):
            break
        if len(sojourns) == MAX_JUMPS:
            raise JumpLimitError(
                f"a path from state {x0} took {MAX_JUMPS} jumps and reached time {elapsed:.6g} "
                f"of the horizon {horizon:g}; the kernel's jumps pile up inside the horizon"
            )
        y = int(np.searchsorted(cumulative[x], rng.random(), side="right"))
        t = sojourn[x][y].sample(rng)
        elapsed = elapsed + t
        states.append(y)
        sojourns.append(t)
        jumps.append(elapsed)
        x = y
    return Trajectory(states=tuple(states), sojourns=tuple(sojourns), jump_times=tuple(jumps))


def execute_rule(rule: StoppingRule, traj: Trajectory, horizon: float) -> StopOutcome:
    """First jump index where the rule fires, cut off at the first jump past the horizon.

    Jumps at or past the horizon force a stop with no terminal cost, so the
    returned index is always finite on a trajectory generated to the
    horizon or under the same rule.
    """
    for n, s_n in enumerate(traj.jump_times):
        if s_n >= horizon:
            return StopOutcome(index=n, stopped_before_horizon=False)
        if rule.stops(horizon - s_n, traj.states[n]):
            return StopOutcome(index=n, stopped_before_horizon=True)
    raise RuntimeError(
        "trajectory ends before the horizon and before the rule stops; generate it to the horizon or under this rule"
    )


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

    Path i draws from ``path_stream(seed, i)``, and its cost, stop index
    and stop flag are those of ``sample_trajectory``, ``execute_rule`` and
    ``trajectory_cost`` on that stream, bit for bit; at most ``_CHUNK``
    paths run at a time (see ``_run_pool``). The mean is reduced in fixed
    path order; a degenerate cost sample is reported exactly (zero
    standard error). Costs so large that the mean, its standard error or
    the 95% interval is not a finite float raise OverflowError.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    x_idx = model.states.index(x0) if isinstance(x0, str) else int(x0)
    if not 0 <= x_idx < len(model.states):
        raise ValueError(f"initial state index {x_idx} out of range")
    # an overflow shows in the figures checked below
    with np.errstate(over="ignore", invalid="ignore"):
        costs, index, before = _run_pool(model, rule, x_idx, seed, n_paths)
        if float(costs.min()) == float(costs.max()):
            mean, std_err = float(costs[0]), 0.0
        else:
            mean = float(costs.mean())
            std_err = float(costs.std(ddof=1) / math.sqrt(n_paths))
    ci95 = (mean - 1.96 * std_err, mean + 1.96 * std_err)
    if not all(math.isfinite(figure) for figure in (mean, std_err, *ci95)):
        raise OverflowError(
            f"the path costs are too large for finite statistics: mean {mean:.6g}, standard error {std_err:.6g}"
        )
    stop_indices, counts = np.unique(index, return_counts=True)
    return MCReport(
        n_paths=int(n_paths),
        mean=mean,
        std_err=std_err,
        ci95=ci95,
        seed=int(seed),
        stopped_before_frac=int(before.sum()) / n_paths,
        stop_histogram=dict(zip(stop_indices.tolist(), counts.tolist())),
    )


# Philox4x64-10 (Salmon et al., SC'11) as numpy's ``Philox`` bit generator runs it.
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_WORD = (1 << 64) - 1


def _philox(key: int, ctr: np.ndarray) -> np.ndarray:
    """Philox4x64-10 under a 128-bit key on counters of shape (4, m); output words, shape (4, m).

    numpy has no 64 x 64 -> 128-bit product, so the high word of each one
    is put together from 32-bit halves.
    """
    mul_lo, mul_hi = _PHILOX_MUL & _LOW32, _PHILOX_MUL >> 32
    k0, k1 = key & _WORD, key >> 64
    round_keys = []
    for _ in range(10):
        round_keys.append([[k0], [k1]])
        k0, k1 = (k0 + _PHILOX_BUMP[0]) & _WORD, (k1 + _PHILOX_BUMP[1]) & _WORD
    for round_key in np.array(round_keys, dtype=np.uint64):
        x = ctr[0::2]  # words 0 and 2 meet the two multipliers
        x_lo, x_hi = x & _LOW32, x >> 32
        mid = x_hi * mul_lo
        mid += (x_lo * mul_lo) >> 32
        cross = x_lo * mul_hi
        cross += mid & _LOW32
        hi = x_hi * mul_hi
        hi += mid >> 32
        hi += cross >> 32
        out = np.empty_like(ctr)
        np.bitwise_xor(hi[::-1], ctr[1::2], out=out[0::2])
        out[0::2] ^= round_key
        np.multiply(x[::-1], _PHILOX_MUL[::-1], out=out[1::2])
        ctr = out
    return ctr


class _Streams:
    """Draws of ``path_stream(seed, i)`` for the paths i = first, ..., first + count - 1,
    then for the paths of each ``admit``, row after row.

    numpy's Philox bumps word 0 of the counter before it makes a block, so
    block b of path i comes from the counter (b + 1, 0, i mod 2**64,
    i >> 64). Each path keeps its current block of four draws, and a draw
    is (word >> 11) * 2**-53, as in ``Generator.random``.
    """

    def __init__(self, seed: int, first: int, count: int):
        self.key = int(seed) & ((1 << 128) - 1)
        self.lo = self.hi = self.made = np.empty(0, dtype=np.uint64)
        self.pos = np.empty(0, dtype=np.intp)
        self.block = np.empty((0, 4))
        self.admit(first, count)

    def admit(self, first: int, count: int) -> None:
        """Append rows for the fresh streams of paths first, ..., first + count - 1."""
        low = np.uint64(first & _WORD)
        lo = low + np.arange(count, dtype=np.uint64)
        hi = np.uint64(first >> 64) + (lo < low).astype(np.uint64)
        self.lo = np.concatenate((self.lo, lo))
        self.hi = np.concatenate((self.hi, hi))
        self.made = np.concatenate((self.made, np.zeros(count, dtype=np.uint64)))
        self.pos = np.concatenate((self.pos, np.full(count, 4)))
        self.block = np.concatenate((self.block, np.empty((count, 4))))

    def draw(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of the path at each row."""
        pos = self.pos[rows]
        spent = pos == 4
        if spent.any():
            fill = rows[spent]
            self.made[fill] += np.uint64(1)
            ctr = np.zeros((4, fill.size), dtype=np.uint64)
            ctr[0], ctr[2], ctr[3] = self.made[fill], self.lo[fill], self.hi[fill]
            self.block[fill] = (_philox(self.key, ctr) >> 11).T * 2.0**-53
            pos[spent] = 0
        self.pos[rows] = pos + 1
        return self.block[rows, pos]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the given rows, in the given order."""
        for name in ("lo", "hi", "made", "pos", "block"):
            setattr(self, name, np.take(getattr(self, name), rows, axis=0))


def _groups(keys: np.ndarray):
    """(key, positions) for each distinct non-negative key, keys and positions ascending.

    The sort is stable, so each key's positions stay in ascending order.
    On keys cast to 8 or 16 bits numpy sorts them by radix, in linear time.
    """
    counts = np.bincount(keys)
    present = np.flatnonzero(counts)
    order = np.argsort(keys.astype(np.min_scalar_type(counts.size - 1)), kind="stable")
    return zip(present.tolist(), np.split(order, np.cumsum(counts[present])[:-1]))


def _draw_sojourns(laws: list, edge: np.ndarray, streams: _Streams) -> np.ndarray:
    """A sojourn per row on the law of its edge, redrawing zeros as ``SojournDist.sample`` does."""
    t = np.empty(edge.size)
    rows = np.arange(edge.size)
    while rows.size:
        u = streams.draw(rows)
        for e, at in _groups(edge[rows]):
            t[rows[at]] = laws[e].quantile(u[at])
        rows = rows[~(t[rows] > 0.0)]
    return t


def _run_pool(model: SMPModel, rule: StoppingRule, x0: int, seed: int, n_paths: int):
    """Cost, stop index and stop flag of paths 0, ..., n_paths - 1, as arrays in path order.

    Paths jump in lock-step in a pool of at most ``_CHUNK`` paths, each on
    its own stream and in the draw order of ``sample_trajectory``: next
    state, sojourn, a redraw while the sojourn is 0. After each jump a path
    first meets the horizon, then the rule, as in ``execute_rule``, and a
    path that either stops leaves the pool: what it would draw later moves
    neither its cost nor any other path's stream. Before the next jump,
    paths not yet run join the pool in path order until it is full again,
    so the pool stays ascending in path index. Jump 0 is the same for every
    path, the whole horizon left in state x0, so it is decided once, and a
    path joins the pool only when it goes on to jump. Running costs are
    summed in jump order as in ``trajectory_cost``, each sojourn cut at the
    horizon. The cut changes only the sojourn that crosses it: if
    fl(S + t) < T, then S + t < T, and fl(T - S) >= t as rounding is
    monotone. So one sum serves both a stop by the rule and a stop at the
    horizon.

    A path that reaches ``_LOCKSTEP_JUMPS`` jumps (at most ``MAX_JUMPS``)
    without stopping is run again on the one-path route at once. Paths
    join in path order and all take the same number of lock-step jumps, so
    they reach the hand-off in path order too, and the lowest-index path
    whose jumps pile up raises ``JumpLimitError`` first, after one pool's
    lock-step jumps and one path.
    """
    costs = np.empty(n_paths)
    index = np.empty(n_paths, dtype=np.int64)
    before = np.empty(n_paths, dtype=bool)
    n = len(model.states)
    horizon = model.horizon
    rate, terminal = model.costs.rate, model.costs.terminal
    # jump 0: the horizon, then the rule
    if not 0.0 < horizon:
        costs[:], index[:], before[:] = 0.0, 0, False
        return costs, index, before
    if rule.stops_many(np.array([horizon]), np.array([x0]))[0]:
        costs[:], index[:], before[:] = 0.0 + terminal[x0], 0, True
        return costs, index, before
    cumulative = model.kernel.cumulative
    laws = [law for row in model.kernel.sojourn for law in row]
    streams = _Streams(seed, 0, 0)
    path, jumps, x = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp)
    elapsed, running = np.empty(0), np.empty(0)
    admitted = 0
    while True:
        fresh = min(_CHUNK - path.size, n_paths - admitted)
        if fresh:
            streams.admit(admitted, fresh)
            path = np.concatenate((path, np.arange(admitted, admitted + fresh)))
            x = np.concatenate((x, np.full(fresh, x0)))
            elapsed, running = (np.concatenate((a, np.zeros(fresh))) for a in (elapsed, running))
            jumps = np.concatenate((jumps, np.zeros(fresh, dtype=np.int64)))
            admitted += fresh
        if not path.size:
            break
        every = np.arange(path.size)
        y = (cumulative[x] <= streams.draw(every)[:, None]).sum(axis=1)
        t = _draw_sojourns(laws, x * n + y, streams)
        running = running + rate[x] * np.minimum(horizon - elapsed, t)
        elapsed = elapsed + t
        x = y
        jumps += 1
        live = elapsed < horizon
        rows = np.flatnonzero(live)
        if rows.size < path.size:
            ended = np.flatnonzero(~live)
            costs[path[ended]], index[path[ended]], before[path[ended]] = running[ended], jumps[ended], False
        due = jumps[rows] == min(_LOCKSTEP_JUMPS, MAX_JUMPS)
        if due.any():
            for i in path[rows[due]].tolist():
                traj = sample_trajectory(model, x0, path_stream(seed, i), rule)
                # sampled under the rule, the trajectory ends at its stop, which execute_rule would find again
                outcome = StopOutcome(index=len(traj.sojourns), stopped_before_horizon=traj.jump_times[-1] < horizon)
                costs[i] = trajectory_cost(traj, outcome, model)
                index[i], before[i] = outcome.index, outcome.stopped_before_horizon
            rows = rows[~due]
        stops = rule.stops_many(horizon - elapsed[rows], x[rows])
        fired, rows = rows[stops], rows[~stops]
        costs[path[fired]], index[path[fired]], before[path[fired]] = running[fired] + terminal[x[fired]], jumps[fired], True
        if rows.size < path.size:
            path, x, elapsed, running, jumps = (a[rows] for a in (path, x, elapsed, running, jumps))
            streams.keep(rows)
    return costs, index, before

