"""The batched Monte-Carlo engine of ``estimate_value`` against the one-path route.

The reference is the loop ``path_stream`` -> ``sample_trajectory`` ->
``execute_rule`` -> ``trajectory_cost`` over paths 0..n-1, reduced as
``estimate_value`` reduces. Reports must match it, and each other across
pool sizes (``_CHUNK``), bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smpstop.simulate as sim
from smpstop import (
    AlwaysStop,
    CostModel,
    Exponential,
    HistoryRule,
    MCReport,
    NeverStop,
    PointMass,
    PolicyRule,
    RegionRule,
    SemiMarkovKernel,
    SMPModel,
    StateSpace,
    StoppingRegion,
    StoppingRule,
    TimeGrid,
    Uniform,
    Weibull,
    build_smdp,
    execute_rule,
    path_stream,
    sample_trajectory,
    solve_value,
    stopping_region,
    trajectory_cost,
    validate_model,
)
from conftest import make_random_model, make_random_policy, two_state_model

# (-log1p(-u)) ** 250 underflows to 0 for u below about 0.05, so about one
# draw in twenty on this law is a zero sojourn that must be redrawn.
UNDERFLOWING = Weibull(shape=0.004, scale=1.0)


def edge_case_model() -> SMPModel:
    """Three states whose laws cover a zero-sojourn redraw, a point mass and Uniform with a = 0."""
    return SMPModel(
        states=StateSpace(("p", "q", "r")),
        kernel=SemiMarkovKernel(
            np.array([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75], [0.5, 0.5, 0.0]]),
            (
                (None, Uniform(0.0, 0.6), PointMass(0.3)),
                (UNDERFLOWING, None, Exponential(3.0)),
                (Weibull(0.7, 0.3), PointMass(0.45), None),
            ),
        ),
        costs=CostModel(np.array([1.0, 0.2, 2.5]), np.array([0.6, 0.9, 0.1])),
        horizon=1.0,
    )


class OddRemaining(StoppingRule):
    """A rule with only the one-path ``stops``, so the engine falls back to it."""

    def stops(self, remaining, state):
        return state == 1 and int(remaining * 1000) % 2 == 1


def reference_report(model, rule, x0, n_paths, seed) -> MCReport:
    x_idx = model.states.index(x0)
    costs = np.empty(n_paths)
    histogram: dict[int, int] = {}
    stopped_before = 0
    for i in range(n_paths):
        traj = sample_trajectory(model, x_idx, path_stream(seed, i))
        outcome = execute_rule(rule, traj, model.horizon)
        costs[i] = trajectory_cost(traj, outcome, model)
        histogram[outcome.index] = histogram.get(outcome.index, 0) + 1
        stopped_before += outcome.stopped_before_horizon
    if float(costs.min()) == float(costs.max()):
        mean, std_err = float(costs[0]), 0.0
    else:
        mean = float(costs.mean())
        std_err = float(costs.std(ddof=1) / math.sqrt(n_paths))
    return MCReport(
        n_paths=n_paths,
        mean=mean,
        std_err=std_err,
        ci95=(mean - 1.96 * std_err, mean + 1.96 * std_err),
        seed=seed,
        stopped_before_frac=stopped_before / n_paths,
        stop_histogram=dict(sorted(histogram.items())),
    )


def rules_for(model: SMPModel) -> dict[str, StoppingRule]:
    grid = TimeGrid(model.horizon, 64)
    v, _ = solve_value(model, grid, tol=1e-9)
    policy = make_random_policy(np.random.default_rng(5), len(model.states), grid)
    return {
        "region": RegionRule(stopping_region(v, model)),
        "policy": PolicyRule(policy),
        "always": AlwaysStop(),
        "never": NeverStop(),
        "history": HistoryRule(lambda remaining, states, sojourns: len(sojourns) >= 2 and states[-1] != states[0]),
        "fallback": OddRemaining(),
    }


def batched_reports(model, rule, x0, n_paths, seed, chunks, monkeypatch):
    reports = []
    for chunk in chunks:
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        reports.append(sim.estimate_value(model, rule, x0, n_paths, seed))
    return reports


# ---------------------------------------------------------------------------
# streams


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 5, 2**128 + 7, -3])
@pytest.mark.parametrize("first", [0, 9, 2**64 - 3])
def test_streams_match_path_stream_bit_for_bit(seed, first):
    # 11 draws cross two block boundaries; paths 2**64 - 3 .. 2**64 + 2 carry into counter word 3
    count, k = 6, 11
    streams = sim._Streams(seed, first, count)
    rows = np.arange(count)
    got = np.column_stack([streams.draw(rows) for _ in range(k)])
    want = np.array([path_stream(seed, first + j).random(k) for j in range(count)])
    assert got.tobytes() == want.tobytes()


def test_streams_draw_for_a_subset_of_rows():
    # paths drawing at different rates keep their own place in their own stream
    streams = sim._Streams(7, 100, 3)
    drawn = {0: [], 1: [], 2: []}
    for rows in ([0, 1, 2], [1], [1], [1, 2], [1], [0, 1, 2], [1], [1]):
        for r, u in zip(rows, streams.draw(np.array(rows)).tolist()):
            drawn[r].append(u)
    for r, draws in drawn.items():
        assert draws == path_stream(7, 100 + r).random(len(draws)).tolist()


# ---------------------------------------------------------------------------
# rules on arrays


def everywhere_rules(grid: TimeGrid, n: int) -> dict[str, StoppingRule]:
    """A region that stops at every node, zero remaining horizon included."""
    return {
        "full_region": RegionRule(StoppingRegion(grid, np.ones((grid.steps + 1, n), dtype=bool), (None,) * n)),
    }


@pytest.mark.parametrize("name", ["region", "policy", "always", "never", "fallback", "full_region"])
def test_stops_many_matches_stops(name):
    model = edge_case_model()
    grid = TimeGrid(model.horizon, 64)
    rule = {**rules_for(model), **everywhere_rules(grid, 3)}[name]
    rng = np.random.default_rng(3)
    remaining = np.concatenate([grid.nodes, rng.uniform(-0.1, 1.2, 300), np.nextafter(grid.nodes, 0.0), [-0.0]])
    states = rng.integers(0, 3, remaining.size)
    want = [rule.stops(r, x) for r, x in zip(remaining.tolist(), states.tolist())]
    assert rule.stops_many(remaining, states).tolist() == want


# ---------------------------------------------------------------------------
# reports: independent of the chunk size, equal to the one-path route


@pytest.mark.parametrize("name", ["region", "policy", "always", "never", "history", "fallback"])
@pytest.mark.parametrize("make_model", [two_state_model, edge_case_model])
def test_report_is_independent_of_chunk_size(make_model, name, monkeypatch):
    model = make_model()
    rule = rules_for(model)[name]
    n_paths, seed = 301, 11
    x0 = model.states.labels[-1]
    reports = batched_reports(model, rule, x0, n_paths, seed, (1, 7, n_paths), monkeypatch)
    want = reference_report(model, rule, x0, n_paths, seed)
    for report in reports:
        assert report == want
        assert repr(report.to_json_dict()) == repr(want.to_json_dict())


def test_edge_case_model_redraws_zero_sojourns():
    # the reference consumes more than two draws per jump on some paths
    assert UNDERFLOWING.quantile(0.01) == 0.0
    model = edge_case_model()
    redrawn = 0
    for i in range(301):
        rng = path_stream(11, i)
        traj = sample_trajectory(model, 2, rng)
        state = rng.bit_generator.state
        draws = 4 * (int(state["state"]["counter"][0]) - 1) + int(state["buffer_pos"])
        redrawn += draws > 2 * len(traj.sojourns)
    assert redrawn > 0


@pytest.mark.parametrize("name", ["region", "history"])
def test_paths_handed_to_the_one_path_route(name, monkeypatch):
    # with a lock-step budget of two jumps most paths finish on the one-path route
    model = edge_case_model()
    rule = rules_for(model)[name]
    monkeypatch.setattr(sim, "_LOCKSTEP_JUMPS", 2)
    reports = batched_reports(model, rule, "p", 200, 4, (7, 200), monkeypatch)
    want = reference_report(model, rule, "p", 200, 4)
    assert reports == [want, want]


def piling_up_model() -> SMPModel:
    """Both sojourns last 1e-300, so no path reaches the horizon within MAX_JUMPS jumps."""
    return SMPModel(
        states=StateSpace(("a", "b")),
        kernel=SemiMarkovKernel(np.array([[0.0, 1.0], [1.0, 0.0]]), ((None, PointMass(1e-300)), (PointMass(1e-300), None))),
        costs=CostModel(np.array([1.0, 1.0]), np.array([0.5, 0.5])),
        horizon=1.0,
    )


def test_jump_limit_error_matches_the_one_path_route(monkeypatch):
    # a rule that never stops leaves only the horizon, which these paths do not reach
    model = piling_up_model()
    monkeypatch.setattr(sim, "MAX_JUMPS", 40)
    with pytest.raises(sim.JumpLimitError) as want:
        sample_trajectory(model, 1, path_stream(0, 0))
    for lockstep in (10, 40, 256):
        monkeypatch.setattr(sim, "_LOCKSTEP_JUMPS", lockstep)
        with pytest.raises(sim.JumpLimitError) as got:
            sim.estimate_value(model, NeverStop(), "b", 50, 0)
        assert str(got.value) == str(want.value)


def short_row_model() -> SMPModel:
    """Row a sums to 1e-12 below 1, within ROW_SUM_TOL, and ends in a zero column without a sojourn law."""
    return SMPModel(
        states=StateSpace(("a", "b", "c")),
        kernel=SemiMarkovKernel(
            np.array([[0.5, 0.5 - 1e-12, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            ((Exponential(1.0), Exponential(2.0), None), (Exponential(1.0), None, None), (Exponential(1.0), None, None)),
        ),
        costs=CostModel(np.array([1.0, 0.5, 0.2]), np.array([0.6, 0.3, 0.1])),
        horizon=1.0,
    )


LAST_DRAW = 1.0 - 2.0**-53  # the largest draw, above row a's sum


class LastDraw:
    """A stand-in generator whose every draw is LAST_DRAW."""

    def random(self):
        return LAST_DRAW


def test_a_draw_at_the_row_sum_picks_the_last_positive_column():
    model = short_row_model()
    assert not validate_model(model).violations
    traj = sample_trajectory(model, 0, LastDraw())
    assert traj.states == (0, 1)
    assert traj.jump_times[-1] >= model.horizon


@pytest.mark.parametrize("x0", ["a", "b"])
def test_estimate_at_the_row_sum_matches_the_one_path_route(x0, monkeypatch):
    model = short_row_model()
    monkeypatch.setattr(sim._Streams, "draw", lambda self, rows: np.full(rows.size, LAST_DRAW))
    region = stopping_region(solve_value(model, TimeGrid(1.0, 64))[0], model)
    traj = sample_trajectory(model, model.states.index(x0), LastDraw())
    for rule in (RegionRule(region), NeverStop()):
        outcome = execute_rule(rule, traj, model.horizon)
        report = sim.estimate_value(model, rule, x0, 50, 3)
        assert (report.mean, report.std_err) == (trajectory_cost(traj, outcome, model), 0.0)
        assert report.stop_histogram == {outcome.index: 50}
        assert report.stopped_before_frac == float(outcome.stopped_before_horizon)


class StopIn(StoppingRule):
    """Stop on entering one state."""

    def __init__(self, state: int):
        self.state = state

    def stops(self, remaining, state):
        return remaining > 0.0 and state == self.state

    def stops_many(self, remaining, states):
        return (remaining > 0.0) & (states == self.state)


@pytest.mark.parametrize("lockstep", [0, 1, 256])
def test_a_stopped_path_is_not_simulated_further(lockstep, monkeypatch):
    # the jumps pile up after the stop, so a path simulated past it would reach MAX_JUMPS
    model = piling_up_model()
    monkeypatch.setattr(sim, "_LOCKSTEP_JUMPS", lockstep)
    n_paths = 300
    for x0 in ("a", "b"):
        report = sim.estimate_value(model, AlwaysStop(), x0, n_paths, 2)
        assert report.mean == model.costs.terminal[model.states.index(x0)]
        assert report.std_err == 0.0
        assert report.stop_histogram == {0: n_paths}
        assert report.stopped_before_frac == 1.0
    for rule in (StopIn(0), HistoryRule(lambda r, xs, ts: xs[-1] == 0)):
        report = sim.estimate_value(model, rule, "b", n_paths, 2)
        assert report.mean == model.costs.terminal[0]  # g(a); a sojourn of 1e-300 adds nothing
        assert report.stop_histogram == {1: n_paths}
        assert report.stopped_before_frac == 1.0


def test_the_engine_makes_only_the_blocks_its_paths_use(monkeypatch):
    # a path under a rule uses the Philox blocks of its trajectory sampled under that rule, redraws included
    model = edge_case_model()
    rule = rules_for(model)["region"]
    n_paths, seed = 301, 11
    made = []
    philox = sim._philox
    monkeypatch.setattr(sim, "_philox", lambda key, ctr: made.append(ctr.shape[1]) or philox(key, ctr))
    report = sim.estimate_value(model, rule, "q", n_paths, seed)
    assert 0.0 < report.stopped_before_frac < 1.0
    used = full = redrawn = 0
    for i in range(n_paths):
        rng = path_stream(seed, i)
        traj = sample_trajectory(model, 1, rng, rule)
        state = rng.bit_generator.state
        used += int(state["state"]["counter"][0])
        redrawn += 4 * (int(state["state"]["counter"][0]) - 1) + int(state["buffer_pos"]) > 2 * len(traj.sojourns)
        rng = path_stream(seed, i)
        sample_trajectory(model, 1, rng)
        full += int(rng.bit_generator.state["state"]["counter"][0])
    assert redrawn > 0
    assert sum(made) == used < full
    made.clear()
    sim.estimate_value(model, AlwaysStop(), "q", n_paths, seed)
    assert made == []


def counted_steps(monkeypatch) -> list:
    """A list that gains an entry at each lock-step jump of ``estimate_value``, one ``_draw_sojourns`` call each."""
    steps = []
    draw_sojourns = sim._draw_sojourns
    monkeypatch.setattr(sim, "_draw_sojourns", lambda *a: steps.append(1) or draw_sojourns(*a))
    return steps


def check_piling_up_budget(monkeypatch) -> None:
    steps, made = counted_steps(monkeypatch), []
    sample = sim.sample_trajectory
    monkeypatch.setattr(sim, "sample_trajectory", lambda *a: made.append(1) or sample(*a))
    with pytest.raises(sim.JumpLimitError):
        sim.estimate_value(piling_up_model(), NeverStop(), "a", 1000, 3)
    assert len(steps) == sim._LOCKSTEP_JUMPS < sim.MAX_JUMPS
    assert len(made) == 1


def test_piling_up_costs_the_lock_step_budget_then_one_path(monkeypatch):
    # a pool of many paths steps _LOCKSTEP_JUMPS times, then one path runs into MAX_JUMPS alone
    check_piling_up_budget(monkeypatch)


def test_piling_up_over_several_pools_costs_the_same(monkeypatch):
    # the same budget holds when the paths fill more than one pool
    monkeypatch.setattr(sim, "_CHUNK", 64)
    check_piling_up_budget(monkeypatch)


def partly_piling_up_model() -> SMPModel:
    """From a, half of the paths wait in b past the horizon; the others loop in c every 1e-300."""
    return SMPModel(
        states=StateSpace(("a", "b", "c")),
        kernel=SemiMarkovKernel(
            np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            (
                (None, Uniform(0.0, 0.5), Uniform(0.0, 0.5)),
                (None, PointMass(2.0), None),
                (None, None, PointMass(1e-300)),
            ),
        ),
        costs=CostModel(np.array([1.0, 1.0, 1.0]), np.array([0.5, 0.5, 0.5])),
        horizon=1.0,
    )


@pytest.mark.parametrize("chunk", [8, 4])
@pytest.mark.parametrize("lockstep", [10, 40, 256])
def test_the_lowest_failing_path_raises_first(lockstep, chunk, monkeypatch):
    # each failing path reports its own first sojourn, so the message names the path that raised;
    # at seed 1 paths 5, 6 and 7 fail: they reach the hand-off together, and in a pool of 4 they
    # join after paths 0-3 have left
    model = partly_piling_up_model()
    monkeypatch.setattr(sim, "MAX_JUMPS", 40)
    monkeypatch.setattr(sim, "_LOCKSTEP_JUMPS", lockstep)
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    n_paths, seed = 60, 1
    failing = []
    for i in range(n_paths):
        try:
            sample_trajectory(model, 0, path_stream(seed, i))
        except sim.JumpLimitError as err:
            failing.append((i, str(err)))
    assert [i for i, _ in failing[:3]] == [5, 6, 7]
    assert len({text for _, text in failing}) == len(failing) > 1
    with pytest.raises(sim.JumpLimitError) as got:
        sim.estimate_value(model, NeverStop(), "a", n_paths, seed)
    assert str(got.value) == failing[0][1]


@pytest.mark.parametrize("model_seed", [8, 10])
def test_the_pool_refills_as_paths_leave(model_seed, monkeypatch):
    # every lock-step jump runs on _CHUNK paths until the last path has joined; the chunk-by-chunk
    # loop this replaced ran each chunk until its slowest path ended
    rng = np.random.default_rng(model_seed)
    model = make_random_model(rng, n_states=4)
    policy = make_random_policy(rng, build_smdp(model).n_base, TimeGrid(model.horizon, 32))
    monkeypatch.setattr(sim, "_CHUNK", 16)
    steps = counted_steps(monkeypatch)
    for rule in (NeverStop(), PolicyRule(policy)):
        steps.clear()
        report = sim.estimate_value(model, rule, "s0", 2000, model_seed)
        jumps = sum(k * count for k, count in report.stop_histogram.items())
        assert report.stopped_before_frac < 1.0
        assert len(steps) <= math.ceil(jumps / 16) + max(report.stop_histogram) + 1


def test_zero_horizon_paths_end_at_once():
    model = SMPModel(
        states=StateSpace(("a",)),
        kernel=SemiMarkovKernel(np.array([[1.0]]), ((Exponential(1.0),),)),
        costs=CostModel(np.array([1.0]), np.array([0.5])),
        horizon=0.0,
    )
    for rule in (AlwaysStop(), NeverStop(), HistoryRule(lambda r, xs, ts: True)):
        report = sim.estimate_value(model, rule, "a", 5, 1)
        assert report == reference_report(model, rule, "a", 5, 1)
        assert report.stop_histogram == {0: 5}


def test_rejects_a_start_state_out_of_range(m1):
    with pytest.raises(ValueError, match="out of range"):
        sim.estimate_value(m1, NeverStop(), 3, 10, 0)


@settings(max_examples=20)
@given(st.integers(0, 10**9))
def test_random_models_match_the_one_path_route(seed):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng)
    grid = TimeGrid(model.horizon, 32)
    policy = make_random_policy(rng, build_smdp(model).n_base, grid)
    x0 = model.states.labels[int(rng.integers(0, len(model.states)))]
    for rule in (PolicyRule(policy), NeverStop(), HistoryRule(lambda r, xs, ts: r < 0.5 * model.horizon)):
        assert sim.estimate_value(model, rule, x0, 40, seed) == reference_report(model, rule, x0, 40, seed)
