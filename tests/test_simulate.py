import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpstop import (
    AlwaysStop,
    HistoryRule,
    NeverStop,
    PointMass,
    PolicyRule,
    RegionRule,
    TimeGrid,
    Trajectory,
    build_smdp,
    estimate_value,
    evaluate_policy,
    execute_rule,
    extract_optimal_policy,
    solve_smdp,
    path_stream,
    sample_trajectory,
    solve_value,
    stopping_region,
    trajectory_cost,
)
from smpstop.simulate import StopOutcome, StoppingRule
from conftest import make_random_model, make_random_policy, policy_from_rule, single_state_model, two_state_model


@pytest.fixture(scope="module")
def m2_solved():
    model = two_state_model()
    grid = TimeGrid(1.0, 1024)
    v, _ = solve_value(model, grid, tol=1e-10)
    return model, grid, v, stopping_region(v, model)


# ---------------------------------------------------------------------------
# sampling


def test_sample_sojourn_pointmass_exact():
    rng = np.random.default_rng(0)
    assert PointMass(0.3).sample(rng) == 0.3


def test_path_stream_is_reproducible_and_order_free():
    draws_a = [path_stream(9, i).random() for i in range(5)]
    draws_b = [path_stream(9, i).random() for i in reversed(range(5))][::-1]
    assert draws_a == draws_b
    assert path_stream(9, 2).random() == draws_a[2]
    assert len(set(draws_a)) == 5


def test_trajectory_zero_horizon():
    model = single_state_model(horizon=0.0)
    traj = sample_trajectory(model, 0, path_stream(1, 0))
    assert traj.states == (0,)
    assert traj.sojourns == ()
    assert traj.jump_times == (0.0,)


def test_trajectory_deterministic_rollout():
    model = single_state_model(dist=PointMass(0.4))
    traj = sample_trajectory(model, 0, path_stream(1, 0))
    assert traj.states == (0, 0, 0, 0)
    assert traj.jump_times == pytest.approx((0.0, 0.4, 0.8, 1.2))
    assert traj.jump_times[-1] >= model.horizon
    assert all(s < model.horizon for s in traj.jump_times[:-1])


@settings(max_examples=25)
@given(st.integers(0, 10**9))
def test_trajectory_invariants(seed):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng)
    start = int(rng.integers(0, len(model.states)))
    traj = sample_trajectory(model, start, path_stream(seed, 0))
    assert traj.states[0] == start
    assert len(traj.states) == len(traj.jump_times) == len(traj.sojourns) + 1
    assert traj.jump_times[0] == 0.0
    assert all(b > a for a, b in zip(traj.jump_times, traj.jump_times[1:]))
    assert traj.jump_times[-1] >= model.horizon
    assert all(s < model.horizon for s in traj.jump_times[:-1])


def test_jump_count_matches_renewal_oracle(m1):
    # unit-rate exponential self-loop on [0, 1]: jumps before the horizon are
    # a unit-mean Poisson count, plus the one jump that crosses the horizon
    counts = np.array(
        [len(sample_trajectory(m1, 0, path_stream(2024, i)).sojourns) for i in range(10000)],
        dtype=float,
    )
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 2.0) <= 3.0 * se + 1e-3


def test_sample_trajectory_rejects_bad_start(m1):
    with pytest.raises(ValueError, match="out of range"):
        sample_trajectory(m1, 5, path_stream(0, 0))


# ---------------------------------------------------------------------------
# rule execution


def test_region_rule_stops_immediately_on_m1(m1):
    grid = TimeGrid(1.0, 1024)
    v, _ = solve_value(m1, grid, tol=1e-10)
    rule = RegionRule(stopping_region(v, m1))
    traj = sample_trajectory(m1, 0, path_stream(0, 0))
    outcome = execute_rule(rule, traj, m1.horizon)
    assert outcome == StopOutcome(index=0, stopped_before_horizon=True)


def test_never_stop_is_forced_at_the_horizon(m1):
    traj = sample_trajectory(m1, 0, path_stream(0, 1))
    outcome = execute_rule(NeverStop(), traj, m1.horizon)
    assert outcome.index == len(traj.sojourns)
    assert not outcome.stopped_before_horizon


def test_always_stop(m1):
    traj = sample_trajectory(m1, 0, path_stream(0, 2))
    assert execute_rule(AlwaysStop(), traj, 1.0) == StopOutcome(0, True)
    model0 = single_state_model(horizon=0.0)
    traj0 = sample_trajectory(model0, 0, path_stream(0, 0))
    assert execute_rule(AlwaysStop(), traj0, 0.0) == StopOutcome(0, False)


def test_history_rule_is_executable(m1):
    rule = HistoryRule(predicate=lambda remaining, states, sojourns: len(sojourns) >= 2)
    traj = Trajectory(states=(0, 0, 0, 0), sojourns=(0.2, 0.2, 0.7), jump_times=(0.0, 0.2, 0.4, 1.1))
    outcome = execute_rule(rule, traj, 1.0)
    assert outcome == StopOutcome(index=2, stopped_before_horizon=True)


def test_a_trajectory_sampled_under_a_rule_ends_at_its_stop(m2_solved):
    # the cut trajectory is the full one up to the stop, with the same outcome and cost
    model, _, _, region = m2_solved
    rules = (RegionRule(region), NeverStop(), AlwaysStop(), HistoryRule(lambda r, xs, ts: sum(ts) > 0.3))
    for rule in rules:
        for i in range(50):
            full = sample_trajectory(model, 1, path_stream(4, i))
            cut = sample_trajectory(model, 1, path_stream(4, i), rule)
            outcome = execute_rule(rule, full, model.horizon)
            assert execute_rule(rule, cut, model.horizon) == outcome
            assert len(cut.sojourns) == outcome.index
            assert (cut.jump_times[-1] < model.horizon) == outcome.stopped_before_horizon
            assert cut.jump_times == full.jump_times[: outcome.index + 1]
            assert cut.states == full.states[: outcome.index + 1]
            assert trajectory_cost(cut, outcome, model) == trajectory_cost(full, outcome, model)


# ---------------------------------------------------------------------------
# realized cost


def test_cost_formula_stop_before_horizon():
    model = two_state_model()
    model = type(model)(
        states=model.states,
        kernel=model.kernel,
        costs=type(model.costs)(np.array([1.0, 2.0]), np.array([0.3, 0.7])),
        horizon=1.0,
    )
    traj = Trajectory(states=(0, 1), sojourns=(0.4,), jump_times=(0.0, 0.4))
    # one full sojourn in state a plus the terminal cost of state b
    cost = trajectory_cost(traj, StopOutcome(index=1, stopped_before_horizon=True), model)
    assert cost == pytest.approx(1.0 * 0.4 + 0.7, abs=1e-15)


def test_cost_stop_at_time_zero(m2):
    traj = Trajectory(states=(1, 0), sojourns=(1.2,), jump_times=(0.0, 1.2))
    cost = trajectory_cost(traj, StopOutcome(index=0, stopped_before_horizon=True), m2)
    assert cost == m2.costs.terminal[1]


def test_cost_truncates_at_the_horizon(m2):
    traj = Trajectory(states=(0, 1, 0), sojourns=(0.7, 0.9), jump_times=(0.0, 0.7, 1.6))
    cost = trajectory_cost(traj, StopOutcome(index=2, stopped_before_horizon=False), m2)
    # full sojourn in a, then b only up to the horizon
    assert cost == pytest.approx(2.0 * 0.7 + 0.1 * 0.3, rel=1e-12)


def test_never_stop_cost_on_m1_is_the_horizon(m1):
    for i in range(20):
        traj = sample_trajectory(m1, 0, path_stream(5, i))
        outcome = execute_rule(NeverStop(), traj, m1.horizon)
        cost = trajectory_cost(traj, outcome, m1)
        assert cost == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Monte-Carlo estimates


def test_always_stop_estimate_is_exact(m2):
    report = estimate_value(m2, AlwaysStop(), "a", 500, seed=3)
    assert report.mean == 0.3
    assert report.std_err == 0.0
    assert report.ci95 == (0.3, 0.3)
    assert report.stop_histogram == {0: 500}
    assert report.stopped_before_frac == 1.0


def test_degenerate_region_estimate(m1):
    grid = TimeGrid(1.0, 1024)
    v, _ = solve_value(m1, grid, tol=1e-10)
    report = estimate_value(m1, RegionRule(stopping_region(v, m1)), "a", 200, seed=5)
    assert report.mean == 0.5
    assert report.std_err == 0.0


def test_estimates_are_bit_reproducible(m2_solved):
    model, _, _, region = m2_solved
    first = estimate_value(model, RegionRule(region), "b", 3000, seed=11)
    second = estimate_value(model, RegionRule(region), "b", 3000, seed=11)
    assert first == second
    assert first.to_json_dict() == second.to_json_dict()
    different = estimate_value(model, RegionRule(region), "b", 3000, seed=12)
    assert different.mean != first.mean


def test_estimate_requires_two_paths(m1):
    with pytest.raises(ValueError, match="n_paths"):
        estimate_value(m1, AlwaysStop(), "a", 1, seed=0)


def test_mc_matches_dp_value_on_m2(m2_solved):
    model, _, v, region = m2_solved
    report = estimate_value(model, RegionRule(region), "b", 20000, seed=17)
    dp = v.values[-1, 1]
    assert abs(report.mean - dp) <= 3.0 * report.std_err + 1e-2


def test_mc_report_json_keys(m2_solved):
    model, _, _, region = m2_solved
    payload = estimate_value(model, RegionRule(region), "b", 100, seed=1).to_json_dict()
    assert set(payload) == {
        "n_paths",
        "mean",
        "std_err",
        "ci95",
        "seed",
        "stopped_before_T_frac",
        "stop_index_histogram",
    }
    assert all(isinstance(k, str) for k in payload["stop_index_histogram"])


# ---------------------------------------------------------------------------
# rules and policies


def test_policy_from_rule_always_and_never(m1):
    grid = TimeGrid(1.0, 16)
    always = policy_from_rule(AlwaysStop(), m1, grid)
    assert np.all(always.table[1:, 0] == 1)
    assert always.table[0, 0] == 0
    never = policy_from_rule(NeverStop(), m1, grid)
    assert np.all(never.table[:, 0] == 0)


def test_policy_from_rule_region_round_trip(m2_solved):
    model, grid, _, region = m2_solved
    rule = RegionRule(region)
    policy = policy_from_rule(rule, model, grid)
    induced = PolicyRule(policy)
    for k in range(0, grid.steps + 1, 41):
        s = float(grid.nodes[k])
        for x in range(2):
            assert induced.stops(s, x) == rule.stops(s, x)


class EarlyHalf(StoppingRule):
    """Stops in state 0 with more than half the horizon left; has ``stops`` only."""

    def stops(self, remaining, state):
        return state == 0 and remaining > 0.5


def test_policy_from_rule_of_a_rule_with_only_stops(m2_solved):
    model, _, _, _ = m2_solved
    grid = TimeGrid(1.0, 8)
    table = policy_from_rule(EarlyHalf(), model, grid).table
    assert table[:, 0].tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1]
    assert not table[:, 1].any() and table[:, 2].all()


def test_policy_from_rule_region_on_another_grid(m2_solved):
    # a region solved on a fine grid, read at the nodes of a coarse one
    model, _, _, region = m2_solved
    rule = RegionRule(region)
    grid = TimeGrid(1.0, 24)
    table = policy_from_rule(rule, model, grid).table
    assert table[0].tolist() == [0, 0, 1] and table[:, 2].all()
    for k in range(1, grid.steps + 1):
        for x in range(2):
            assert table[k, x] == rule.stops(float(grid.nodes[k]), x)
    assert table[1:, 0].any() and not table[1:, 0].all()


def test_policy_from_rule_rejects_history(m1):
    rule = HistoryRule(predicate=lambda remaining, states, sojourns: True)
    with pytest.raises(ValueError, match="history"):
        policy_from_rule(rule, m1, TimeGrid(1.0, 8))


@settings(max_examples=15)
@given(st.integers(0, 10**9))
def test_realized_cost_bounds(seed):
    # every realized cost lies in [0, T max c + max g], whatever the rule
    rng = np.random.default_rng(seed)
    model = make_random_model(rng)
    bound = model.horizon * float(model.costs.rate.max()) + float(model.costs.terminal.max())
    rules = [AlwaysStop(), NeverStop(), HistoryRule(lambda r, xs, ts: len(ts) >= 1)]
    for i, rule in enumerate(rules):
        traj = sample_trajectory(model, 0, path_stream(seed, i))
        outcome = execute_rule(rule, traj, model.horizon)
        cost = trajectory_cost(traj, outcome, model)
        assert 0.0 <= cost <= bound + 1e-12


def test_region_rule_policy_equals_extracted_optimum(m2_solved):
    # the decision table of the optimal region reproduces the extracted
    # optimal policy: both stop exactly where the value meets the payoff
    model, grid, _, region = m2_solved
    sm = build_smdp(model)
    u, _ = solve_smdp(sm, grid, tol=1e-10)
    best = extract_optimal_policy(sm, u)
    from_rule = policy_from_rule(RegionRule(region), model, grid)
    np.testing.assert_array_equal(from_rule.table, best.table)


def test_induced_rule_matches_policy_evaluation(m2_solved):
    # Monte-Carlo cost of the rule induced by a random decision table agrees
    # with the dynamic-programming evaluation of that table at the horizon
    model, _, _, _ = m2_solved
    grid = TimeGrid(1.0, 1024)
    sm = build_smdp(model)
    rng = np.random.default_rng(23)
    for trial in range(3):
        policy = make_random_policy(rng, sm.n_base, grid)
        expected, _ = evaluate_policy(sm, policy, tol=1e-12)
        x0 = "a" if trial % 2 == 0 else "b"
        report = estimate_value(model, PolicyRule(policy), x0, 10000, seed=100 + trial)
        dp = expected.value(1.0, model.states.index(x0))
        assert abs(report.mean - dp) <= 3.0 * report.std_err + 1.5e-2
