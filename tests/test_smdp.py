import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpstop import (
    CONTINUE,
    STOP,
    DeterministicMarkovPolicy,
    TimeGrid,
    ValueGrid,
    apply_T,
    build_smdp,
    evaluate_policy,
    extract_optimal_policy,
    solve_smdp,
)
from smpstop.grid import discretize_kernel
from conftest import (
    actions,
    apply_T_action,
    check_smdp_regularity,
    controlled_mass,
    cost_rate,
    make_random_model,
    make_random_policy,
    reference_recursion,
    single_state_model,
    terminal_cost,
)

EXP1 = 1.0 - math.exp(-1.0)


def zeros_grid(sm, grid) -> ValueGrid:
    return ValueGrid(grid=grid, values=np.zeros((grid.steps + 1, sm.n_states)))


# ---------------------------------------------------------------------------
# construction


def test_build_smdp_structure(m1):
    sm = build_smdp(m1)
    assert sm.n_base == 1 and sm.rest_state == 1 and sm.n_states == 2
    assert actions(sm, 0) == (CONTINUE, STOP)
    assert actions(sm, sm.rest_state) == (STOP,)


def test_build_smdp_costs(m1):
    sm = build_smdp(m1)
    assert cost_rate(sm, 0, CONTINUE) == 1.0
    assert cost_rate(sm, 0, STOP) == 0.0
    assert terminal_cost(sm, 0, STOP) == 0.5
    assert terminal_cost(sm, 0, CONTINUE) == 0.0
    assert cost_rate(sm, sm.rest_state, STOP) == 0.0
    assert terminal_cost(sm, sm.rest_state, STOP) == 0.0


def test_stop_kernel_mass_sits_past_the_horizon(m1):
    sm = build_smdp(m1)
    assert controlled_mass(sm, 0, STOP, m1.horizon) == 0.0
    assert controlled_mass(sm, 0, STOP, m1.horizon + 1.0) == 1.0
    assert controlled_mass(sm, sm.rest_state, STOP, 0.3) == 0.0
    assert controlled_mass(sm, 0, CONTINUE, 1.0) == pytest.approx(EXP1, abs=1e-15)
    with pytest.raises(ValueError):
        controlled_mass(sm, sm.rest_state, CONTINUE, 0.3)


def test_smdp_regularity(m1):
    sm = build_smdp(m1)
    assert check_smdp_regularity(sm, 0.1, 0.05)
    # delta = 2 clamps to 1/2: Q(0.5) ~ 0.39 <= 0.8 even though Q(2) ~ 0.86 > 0.8
    assert check_smdp_regularity(sm, 2.0, 0.2)
    assert not check_smdp_regularity(sm, 0.5, 0.7)


# ---------------------------------------------------------------------------
# one-step operators


def test_apply_T_action_stop_pays_terminal(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 64)
    v = zeros_grid(sm, grid)
    assert apply_T_action(sm, v, 0, STOP, 1.0) == 0.5
    assert apply_T_action(sm, v, 0, STOP, 0.0) == 0.5


def test_apply_T_action_continue_runs_the_kernel(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 1024)
    v = zeros_grid(sm, grid)
    assert apply_T_action(sm, v, 0, CONTINUE, 1.0) == pytest.approx(EXP1, abs=1e-3)


def test_apply_T_action_rest_state_is_free(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 64)
    v = zeros_grid(sm, grid)
    assert apply_T_action(sm, v, sm.rest_state, STOP, 0.5) == 0.0
    assert apply_T_action(sm, v, sm.rest_state, CONTINUE, 0.5) == math.inf


def test_apply_T_action_uses_continuation_values(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 128)
    values = np.full((grid.steps + 1, 2), 0.25)
    values[:, 1] = 0.0
    v = ValueGrid(grid=grid, values=values)
    kg = discretize_kernel(m1.kernel, grid)
    got = apply_T_action(sm, v, 0, CONTINUE, 1.0, kg=kg)
    expected = float(kg.survival[0, -1] + 0.25 * kg.mass[0, -1])
    assert got == pytest.approx(expected, rel=1e-12)


def test_apply_T_pointwise_min(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 1024)
    out = apply_T(sm, zeros_grid(sm, grid))
    assert out.values[-1, 0] == 0.5  # min(0.632..., 0.5)
    assert out.values[0, 0] == 0.0  # empty integrals at s = 0
    assert np.all(out.values[:, 1] == 0.0)


def test_apply_T_is_the_pointwise_min_of_the_action_operators():
    # the whole-table sweep against the per-action reference, node by node
    rng = np.random.default_rng(11)
    for _ in range(5):
        model = make_random_model(rng)
        sm = build_smdp(model)
        grid = TimeGrid(model.horizon, 16)
        kg = discretize_kernel(model.kernel, grid)
        values = rng.uniform(0.0, 2.0, (grid.steps + 1, sm.n_states))
        values[:, sm.rest_state] = 0.0
        v = ValueGrid(grid=grid, values=values)
        got = apply_T(sm, v, kg).values
        for k, s in enumerate(grid.nodes.tolist()):
            for x in range(sm.n_states):
                want = min(apply_T_action(sm, v, x, a, s, kg) for a in (CONTINUE, STOP))
                assert abs(got[k, x] - want) <= 1e-13 * (1.0 + values.max())


# ---------------------------------------------------------------------------
# solve


def test_solve_m1_matches_analytic_value(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 1024)
    u, report = solve_smdp(sm, grid, tol=1e-10)
    assert report.converged
    exact = np.minimum(grid.nodes, 0.5)
    assert np.max(np.abs(u.values[:, 0] - exact)) <= 5e-3
    assert u.value(1.0, 0) == pytest.approx(0.5, abs=5e-3)


def test_solve_invariants(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 256)
    u, _ = solve_smdp(sm, grid, tol=1e-10)
    assert np.all(u.values[:, sm.rest_state] == 0.0)
    assert np.all(u.values[0, :] == 0.0)


def test_solve_monotone_iterates(m2):
    """Exact monotonicity holds for the reference recursion's direct sums."""
    sm = build_smdp(m2)
    grid = TimeGrid(1.0, 128)
    v = zeros_grid(sm, grid)
    with reference_recursion():
        for _ in range(40):
            nxt = apply_T(sm, v)
            assert np.all(nxt.values >= v.values)
            v = nxt


def test_solve_trivial_costs():
    zero_g = single_state_model(g=0.0)
    sm = build_smdp(zero_g)
    grid = TimeGrid(1.0, 64)
    u, report = solve_smdp(sm, grid)
    assert np.all(u.values == 0.0)
    assert report.iterations == 1

    zero_c = single_state_model(c=0.0)
    u, _ = solve_smdp(build_smdp(zero_c), grid)
    assert np.all(u.values == 0.0)


def test_solve_bounds_random_models():
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = make_random_model(rng)
        sm = build_smdp(model)
        grid = TimeGrid(model.horizon, 128)
        u, report = solve_smdp(sm, grid)
        assert report.converged
        g = model.costs.terminal
        cap = np.minimum(
            np.broadcast_to(g, (grid.steps + 1, len(g))),
            grid.nodes[:, None] * model.costs.rate.max(),
        )
        base = u.values[:, : sm.n_base]
        assert np.all(base >= 0.0)
        assert np.all(base <= cap)


# ---------------------------------------------------------------------------
# policy extraction


def test_extracted_policy_boundary(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 1024)
    u, _ = solve_smdp(sm, grid, tol=1e-10)
    policy = extract_optimal_policy(sm, u)
    stops = np.flatnonzero(policy.table[:, 0] == STOP)
    assert stops.size > 0
    first = stops[0]
    assert abs(grid.nodes[first] - 0.5) <= grid.dt  # analytic boundary at g / c
    assert np.all(policy.table[first:, 0] == STOP)
    assert policy.table[0, 0] == CONTINUE
    assert np.all(policy.table[:, 1] == STOP)


def test_extracted_policy_stops_everywhere_when_terminal_is_free():
    model = single_state_model(g=0.0)
    sm = build_smdp(model)
    grid = TimeGrid(1.0, 64)
    u, _ = solve_smdp(sm, grid)
    policy = extract_optimal_policy(sm, u)
    assert np.all(policy.table[1:, 0] == STOP)
    assert policy.table[0, 0] == CONTINUE


def test_policy_table_validation(m1):
    grid = TimeGrid(1.0, 8)
    good = np.zeros((9, 2), dtype=np.int8)
    good[:, 1] = STOP
    DeterministicMarkovPolicy(grid=grid, table=good)
    bad_rest = good.copy()
    bad_rest[3, 1] = CONTINUE
    with pytest.raises(ValueError, match="rest state"):
        DeterministicMarkovPolicy(grid=grid, table=bad_rest)
    bad_origin = good.copy()
    bad_origin[0, 0] = STOP
    with pytest.raises(ValueError, match="zero remaining horizon"):
        DeterministicMarkovPolicy(grid=grid, table=bad_origin)
    with pytest.raises(ValueError, match="shape"):
        DeterministicMarkovPolicy(grid=grid, table=good[:5])


def test_policy_action_lookup_floors(m1):
    grid = TimeGrid(1.0, 4)
    table = np.zeros((5, 2), dtype=np.int8)
    table[:, 1] = STOP
    table[2:, 0] = STOP  # stop from s = 0.5 on
    policy = DeterministicMarkovPolicy(grid=grid, table=table)
    assert policy.action(0.49, 0) == CONTINUE
    assert policy.action(0.5, 0) == STOP
    assert policy.action(0.74, 0) == STOP
    assert policy.action(0.1, 0) == CONTINUE


# ---------------------------------------------------------------------------
# policy evaluation


def test_evaluate_always_stop(m2):
    sm = build_smdp(m2)
    grid = TimeGrid(1.0, 64)
    table = np.ones((grid.steps + 1, sm.n_states), dtype=np.int8)
    table[0, : sm.n_base] = CONTINUE
    policy = DeterministicMarkovPolicy(grid=grid, table=table)
    u, report = evaluate_policy(sm, policy)
    assert report.converged
    np.testing.assert_array_equal(u.values[1:, 0], np.full(grid.steps, 0.3))
    np.testing.assert_array_equal(u.values[1:, 1], np.full(grid.steps, 1.0))
    assert np.all(u.values[0, :] == 0.0)


def test_evaluate_never_stop_single_state(m1):
    sm = build_smdp(m1)
    grid = TimeGrid(1.0, 1024)
    table = np.zeros((grid.steps + 1, sm.n_states), dtype=np.int8)
    table[:, sm.n_base] = STOP
    policy = DeterministicMarkovPolicy(grid=grid, table=table)
    u, _ = evaluate_policy(sm, policy, tol=1e-12)
    # running forever in a unit-rate unit-cost state costs the full horizon
    assert np.max(np.abs(u.values[:, 0] - grid.nodes)) <= 5e-3


def test_optimal_policy_attains_the_value(m1, m2):
    for model in (m1, m2):
        sm = build_smdp(model)
        grid = TimeGrid(model.horizon, 512)
        u, _ = solve_smdp(sm, grid, tol=1e-12)
        policy = extract_optimal_policy(sm, u)
        attained, _ = evaluate_policy(sm, policy, tol=1e-12)
        assert np.max(np.abs(attained.values - u.values)) <= 1e-9


def test_random_policies_dominate_the_value(m2):
    sm = build_smdp(m2)
    grid = TimeGrid(1.0, 128)
    u, _ = solve_smdp(sm, grid, tol=1e-12)
    rng = np.random.default_rng(42)
    for _ in range(10):
        policy = make_random_policy(rng, sm.n_base, grid)
        evaluated, report = evaluate_policy(sm, policy, tol=1e-12)
        assert report.converged
        assert np.all(evaluated.values >= u.values - 1e-9)


@settings(max_examples=10)
@given(st.integers(0, 10**9))
def test_policy_evaluation_dominates_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng)
    sm = build_smdp(model)
    grid = TimeGrid(model.horizon, 64)
    u, _ = solve_smdp(sm, grid, tol=1e-12)
    policy = make_random_policy(rng, sm.n_base, grid)
    evaluated, _ = evaluate_policy(sm, policy, tol=1e-12)
    assert np.all(evaluated.values >= u.values - 1e-9)
