import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smpstop.smdp
import smpstop.solver

from smpstop import (
    ContractionError,
    PointMass,
    RegionRule,
    StateSpace,
    StoppingRegion,
    TimeGrid,
    Uniform,
    ValueGrid,
    apply_G,
    apply_T,
    build_smdp,
    contraction_factor,
    convolve_values,
    cross_check,
    eps_region,
    evaluate_policy,
    exactness_gap,
    iteration_budget,
    operator_discrepancy,
    solve_smdp,
    solve_value,
    stopping_region,
    write_region_csv,
    write_value_csv,
)
from smpstop.grid import discretize_kernel
from smpstop.smdp import _fixed_point, _sweep
from conftest import (
    make_random_model,
    make_random_policy,
    read_region_csv,
    read_value_csv,
    reference_convolve_values,
    reference_recursion,
    reference_write_region_csv,
    reference_write_value_csv,
    single_state_model,
    sparse_free_running_model,
    sparse_random_model,
)

EXP1 = 1.0 - math.exp(-1.0)


def zeros(model, grid) -> ValueGrid:
    return ValueGrid(grid=grid, values=np.zeros((grid.steps + 1, len(model.states))))


def budget_oracle(beta: float, m_bound: float, eps: float) -> int:
    """High-precision re-evaluation of the iteration budget formula."""
    with mpmath.workdps(60):
        raw = (mpmath.log(mpmath.mpf(eps) * (1 - mpmath.mpf(beta))) - mpmath.log(mpmath.mpf(m_bound) + 1)) / mpmath.log(
            mpmath.mpf(beta)
        )
        return max(1, int(mpmath.ceil(raw)))


# ---------------------------------------------------------------------------
# one sweep


def test_apply_G_min_of_continuation_and_payoff(m1):
    grid = TimeGrid(1.0, 1024)
    out = apply_G(zeros(m1, grid), m1)
    assert out.values[-1, 0] == 0.5
    assert out.values[0, 0] == 0.0


def test_apply_G_zero_terminal_cost_clamps_to_zero():
    model = single_state_model(g=0.0)
    grid = TimeGrid(1.0, 64)
    v = ValueGrid(grid=grid, values=np.full((65, 1), 0.123))
    assert np.all(apply_G(v, model).values == 0.0)


# ---------------------------------------------------------------------------
# value iteration


def test_solve_value_m1_analytic(m1):
    grid = TimeGrid(1.0, 1024)
    v, report = solve_value(m1, grid, tol=1e-10)
    assert report.converged
    assert np.max(np.abs(v.values[:, 0] - np.minimum(grid.nodes, 0.5))) <= 5e-3
    assert np.all(v.values[0, :] == 0.0)
    assert np.all(v.values <= m1.costs.terminal[None, :])


def test_solve_value_trivial_models():
    grid = TimeGrid(1.0, 64)
    v, _ = solve_value(single_state_model(c=0.0), grid)
    assert np.all(v.values == 0.0)
    v, _ = solve_value(single_state_model(g=0.0), grid)
    assert np.all(v.values == 0.0)


def test_solve_value_m2_grid_refinement_oracle(m2):
    base = solve_value(m2, TimeGrid(1.0, 1024), tol=1e-10)[0].values[-1]
    half = solve_value(m2, TimeGrid(1.0, 2048), tol=1e-10)[0].values[-1]
    fine = solve_value(m2, TimeGrid(1.0, 1024 * 16), tol=1e-10)[0].values[-1]
    refinement_delta = np.abs(half - base).max()
    assert np.abs(fine - base).max() <= 8.0 * refinement_delta


def test_solve_value_monotone_and_contraction(m2):
    """Exact monotonicity holds for the reference recursion's direct sums."""
    grid = TimeGrid(1.0, 256)
    kg = discretize_kernel(m2.kernel, grid)
    beta = contraction_factor(m2)
    v = np.zeros((grid.steps + 1, 2))
    diffs = []
    with reference_recursion():
        for _ in range(30):
            nxt = _sweep(m2, kg, v)
            assert np.all(nxt >= v)
            diffs.append(np.max(np.abs(nxt - v)))
            v = nxt
    for before, after in zip(diffs, diffs[1:]):
        assert after <= beta * before + 1e-12


def test_fixed_point_residual(m1, m2):
    for model in (m1, m2):
        grid = TimeGrid(model.horizon, 256)
        _, report = solve_value(model, grid, tol=1e-9)
        assert report.converged
        assert report.residual <= 1e-9


def _solve_smdp(model, grid, **kw):
    return solve_smdp(build_smdp(model), grid, **kw)


def _evaluate_never_stop(model, grid, **kw):
    region = StoppingRegion(grid, np.zeros((grid.steps + 1, len(model.states)), dtype=bool))
    return evaluate_policy(build_smdp(model), region, **kw)


def unsettled_convolution(monkeypatch):
    """Make every sweep add 1e-3 to the convolution on odd calls, so no solve ever settles."""
    calls = []

    def convolve(kg, v, out=None, work=None):
        calls.append(1)
        return reference_convolve_values(kg, v) + 1e-3 * (len(calls) % 2)

    monkeypatch.setattr(smpstop.smdp, "convolve_values", convolve)


@pytest.mark.parametrize(
    "solve, width",
    [(solve_value, 2), (_solve_smdp, 3), (_evaluate_never_stop, 3)],
    ids=["solve_value", "solve_smdp", "evaluate_policy"],
)
def test_budget_exhaustion_flagged(m2, solve, width, monkeypatch):
    # state b never stops on m2, so its value follows the alternating convolution
    unsettled_convolution(monkeypatch)
    grid = TimeGrid(1.0, 16)
    v, report = solve(m2, grid, tol=1e-12)
    assert not report.converged
    assert report.iterations == len(report.sup_diffs) == grid.steps + 2
    assert report.final_diff == report.sup_diffs[-1] > 1e-12
    assert report.residual > 0.0
    assert v.values.shape == (17, width) and v.grid is grid


@pytest.mark.parametrize(
    "dist, beta",
    [(PointMass(2.0), 0.0), (Uniform(0.0, 2.0), 0.5), (PointMass(0.5), 1.0)],
    ids=["beta0", "beta-half", "beta1"],
)
@pytest.mark.parametrize("steps", [1, 2, 37])
def test_budget_is_steps_plus_two(dist, beta, steps, monkeypatch):
    # a sweep that never settles runs the whole budget, whatever the jump mass beta
    model = single_state_model(dist=dist)
    assert contraction_factor(model) == beta
    monkeypatch.setattr(smpstop.smdp, "_sweep", lambda model, kg, v, *rest: v + 1.0)
    _, report = _fixed_point(model, TimeGrid(1.0, steps), 1, 1e-300)
    assert not report.converged
    assert report.iterations == steps + 2


@pytest.mark.parametrize("route", ["solve_value", "solve_smdp"])
@pytest.mark.parametrize("seed", [None, 3, 17, 29])
def test_sweep_m_fixes_node_m_minus_1(m2, route, seed):
    # lag 0 carries no jump mass: from zero, m sweeps settle nodes 0..m-1 for good,
    # and the steps + 1 sweep table is the fixed point exactly
    model = m2 if seed is None else make_random_model(np.random.default_rng(seed))
    grid = TimeGrid(model.horizon, 64)
    kg = discretize_kernel(model.kernel, grid)
    width = len(model.states) if route == "solve_value" else build_smdp(model).n_states
    with reference_recursion():
        iterates = [np.zeros((grid.steps + 1, width))]
        for _ in range(grid.steps + 2):
            iterates.append(_sweep(model, kg, iterates[-1]))
    final = iterates[grid.steps + 1]
    for m in range(1, grid.steps + 2):
        assert iterates[m][:m].tobytes() == final[:m].tobytes(), m
    assert iterates[grid.steps + 2].tobytes() == final.tobytes()
    # the production FFT sweep reaches the same table up to round-off
    v, report = _fixed_point(model, grid, width, 1e-300, kg)
    assert report.iterations <= grid.steps + 2
    assert report.residual <= 1e-15
    assert np.max(np.abs(v.values - final)) <= 1e-13


def test_unit_jump_mass_converges_after_steps_plus_one_sweeps():
    # every sojourn lasts one grid step, so beta = 1 and each sweep settles one more node;
    # sweep 1025 is the first whose step is round-off, beyond a fixed 1000-sweep budget
    model = single_state_model(c=1.0, g=5.0, dist=PointMass(1 / 1024))
    grid = TimeGrid(1.0, 1024)
    v, report = solve_value(model, grid, tol=1e-9)
    assert report.converged
    assert report.iterations == grid.steps + 1
    assert report.sup_diffs[-2] > 1e-4 and report.final_diff <= 1e-14
    assert report.residual <= 1e-14
    # each step's trapezoid survival is dt / 2, so the cost of never stopping is T / 2
    assert v.values[-1, 0] == pytest.approx(0.5, abs=1e-12)


def plain_fixed_point(step, width: int, grid: TimeGrid, tol: float):
    """The fixed-point loop written out on a one-sweep function that returns a new table.

    Returns the last iterate, the sup-norm steps, and one more sweep of the iterate.
    """
    values = np.zeros((grid.steps + 1, width))
    diffs = []
    for _ in range(grid.steps + 2):
        nxt = step(values)
        diffs.append(float(np.max(np.abs(nxt - values))))
        values = nxt
        if diffs[-1] <= tol:
            break
    return values, diffs, step(values)


ENGINE_MODELS = {
    "dense": lambda: make_random_model(np.random.default_rng(41), 3),
    "sparse": lambda: sparse_random_model(np.random.default_rng(42), 4),
    "free-running": sparse_free_running_model,
}


@pytest.mark.parametrize("steps", [1, 2, 3, 64])
@pytest.mark.parametrize("name", list(ENGINE_MODELS))
def test_engine_changes_no_bits(name, steps, monkeypatch):
    # The solves and eps_region reuse one workspace and swap two tables. A plain
    # loop of the public one-sweep operators, each of which returns a new table,
    # must give the same bytes; a sweep that wrote into the table it reads would not.
    model = ENGINE_MODELS[name]()
    n = len(model.states)
    grid = TimeGrid(model.horizon, steps)
    kg = discretize_kernel(model.kernel, grid)
    sm = build_smdp(model)
    policy = make_random_policy(np.random.default_rng(steps), n, grid)
    stop = policy.member

    def g_step(v):
        return apply_G(ValueGrid(grid, v), model, kg).values

    def t_step(v):
        return apply_T(sm, ValueGrid(grid, v), kg).values

    def policy_step(v):
        out = np.zeros_like(v)
        continuation = model.costs.rate[None, :] * kg.survival.T + convolve_values(kg, v[:, :n])
        out[:, :n] = np.where(stop, model.costs.terminal[None, :], continuation)
        return out

    tol = 1e-12
    for (table, report), step, width in (
        (solve_value(model, grid, tol), g_step, n),
        (solve_smdp(sm, grid, tol), t_step, n + 1),
        (evaluate_policy(sm, policy, tol), policy_step, n + 1),
    ):
        values, diffs, swept = plain_fixed_point(step, width, grid, tol)
        assert table.values.tobytes() == values.tobytes()
        assert report.sup_diffs == tuple(diffs)
        assert report.next_values.tobytes() == swept.tobytes()
    if contraction_factor(model) == 1.0:
        return  # the free-running model's jumps all land inside the horizon: no eps budget
    # eps_region runs the solves' loop told a sweep count: exactly the budget's
    # sweeps and the residual one, with no stop at tol and no steps + 2 cap.
    # The bytes alone miss either once the table reaches a bitwise fixed point.
    sweeps = []

    def counted_sweep(*args):
        sweeps.append(None)
        return _sweep(*args)

    monkeypatch.setattr(smpstop.smdp, "_sweep", counted_sweep)
    result = eps_region(model, grid, 1e-3)
    monkeypatch.undo()
    assert len(sweeps) == result.budget.n_iter + 1
    if steps <= 3:
        assert result.budget.n_iter > steps + 2
    values = np.zeros((grid.steps + 1, n))
    for _ in range(result.budget.n_iter):
        values = g_step(values)
    assert result.iterate.values.tobytes() == values.tobytes()
    assert result.refined.values.tobytes() == g_step(values).tobytes()


# ---------------------------------------------------------------------------
# stopping regions


def test_stopping_region_m1_boundary(m1):
    grid = TimeGrid(1.0, 1024)
    v, _ = solve_value(m1, grid, tol=1e-10)
    region = stopping_region(v, m1)
    assert not region.member[0].any()
    assert region.boundary[0] is not None
    assert abs(region.boundary[0] - 0.5) <= grid.dt
    rule = RegionRule(region)
    assert rule.stops(1.0, 0)
    assert not rule.stops(0.25, 0)
    assert not rule.stops(0.0, 0)


def test_stopping_region_free_terminal_cost():
    model = single_state_model(g=0.0)
    grid = TimeGrid(1.0, 64)
    v, _ = solve_value(model, grid)
    region = stopping_region(v, model)
    assert region.member[1:, 0].all()
    assert not region.member[0, 0]
    assert region.boundary[0] == grid.nodes[1]


def test_stopping_region_never_stop_section(m2):
    grid = TimeGrid(1.0, 512)
    v, _ = solve_value(m2, grid, tol=1e-10)
    region = stopping_region(v, m2)
    # cheap running cost and expensive terminal cost: state b never stops
    assert not region.member[:, 1].any()
    assert region.boundary[1] is None
    assert region.boundary[0] is not None


def scanned_boundary(member: np.ndarray, nodes: np.ndarray) -> tuple:
    """The boundary by a scan of each state's section: its first member node, if every node from there on is one."""
    boundary = []
    for x in range(member.shape[1]):
        hits = np.flatnonzero(member[:, x])
        boundary.append(float(nodes[hits[0]]) if hits.size and member[hits[0] :, x].all() else None)
    return tuple(boundary)


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_region_boundary_matches_a_scan_of_member(seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, int(rng.integers(1, 12)))
    n = int(rng.integers(1, 5))
    member = np.zeros((grid.steps + 1, n), dtype=bool)
    for x in range(n):  # up-sets from a random node, some with one cell flipped, and coin flips
        member[int(rng.integers(0, grid.steps + 2)) :, x] = True
        if rng.random() < 0.3:
            member[int(rng.integers(0, grid.steps + 1)), x] ^= True
        if rng.random() < 0.2:
            member[:, x] = rng.random(grid.steps + 1) < 0.5
    before = member.copy()
    region = StoppingRegion(grid, member)
    # the region holds the set without node 0, where no rule stops; the caller's table is not written
    assert member.tobytes() == before.tobytes()
    assert not region.member[0].any() and region.member[1:].tobytes() == member[1:].tobytes()
    assert region.boundary == scanned_boundary(region.member, grid.nodes)


def test_stopping_region_reads_only_the_base_states():
    # the decision process's table has a rest-state column; the region of either route is the same
    rng = np.random.default_rng(17)
    for _ in range(5):
        model = make_random_model(rng)
        grid = TimeGrid(model.horizon, 64)
        kg = discretize_kernel(model.kernel, grid)
        v, _ = solve_value(model, grid, kg=kg)
        u, _ = solve_smdp(build_smdp(model), grid, kg=kg)
        assert u.values.shape[1] == v.values.shape[1] + 1
        from_value, from_smdp = stopping_region(v, model), stopping_region(u, model)
        np.testing.assert_array_equal(from_smdp.member, from_value.member)
        assert from_smdp.boundary == from_value.boundary


# ---------------------------------------------------------------------------
# iteration budgets


def synthetic_half_contraction():
    # uniform sojourn on (0, 2) puts exactly half the jump mass inside T = 1
    return single_state_model(c=4.0, g=5.0, dist=Uniform(0.0, 2.0))


def test_budget_formula_exact_synthetic():
    budget = iteration_budget(synthetic_half_contraction(), 0.01)
    assert budget.beta == 0.5
    assert budget.bound == 9.0
    assert budget.n_iter == 11
    assert budget.n_iter == budget_oracle(0.5, 9.0, 0.01)


def test_budget_clamps_to_one_sweep():
    budget = iteration_budget(synthetic_half_contraction(), 20.0)
    assert budget.n_iter == 1


def test_budget_m1_matches_high_precision(m1):
    budget = iteration_budget(m1, 0.01)
    assert budget.beta == pytest.approx(EXP1, abs=1e-15)
    assert budget.bound == 1.5
    assert budget.n_iter == budget_oracle(budget.beta, budget.bound, 0.01)


def test_budget_rejects_non_contractive():
    model = single_state_model(dist=PointMass(0.5))  # jump certain within T = 1
    with pytest.raises(ContractionError):
        iteration_budget(model, 0.01)


def test_budget_zero_beta():
    model = single_state_model(dist=PointMass(2.0))
    assert iteration_budget(model, 0.01).n_iter == 1


def test_budget_rejects_a_bound_that_overflows():
    # M = T * max c + max g = 1.7e308 + 1.7e308 is inf, and N would be 0 / 0 sweeps
    model = single_state_model(c=1.7e308, g=1.7e308)
    assert contraction_factor(model) < 1.0
    with pytest.raises(ValueError, match="overflows a float"):
        iteration_budget(model, 0.01)


@pytest.mark.parametrize(
    "solve", [solve_value, _solve_smdp, _evaluate_never_stop], ids=["solve_value", "solve_smdp", "evaluate_policy"]
)
@pytest.mark.filterwarnings("error")
def test_values_that_overflow_raise(solve):
    # the FFT of a column near 1.7e308 overflows, and the table would turn to NaN
    model = single_state_model(c=1.7e308, g=1.7e308)
    with pytest.raises(OverflowError, match="overflow a float"):
        solve(model, TimeGrid(1.0, 64))


def test_budget_rejects_eps_that_underflows():
    # 5e-324 * (1 - 0.5) rounds to zero, so log(eps (1 - beta)) has no value
    with pytest.raises(ValueError, match="underflows to zero"):
        iteration_budget(synthetic_half_contraction(), 5e-324)
    assert iteration_budget(synthetic_half_contraction(), 1e-320).n_iter > 1000


@settings(max_examples=40)
@given(st.floats(1.05, 20.0), st.floats(0.1, 5.0), st.floats(0.2, 5.0), st.floats(1e-5, 0.5))
def test_budget_matches_high_precision_oracle(b, c, g, eps):
    model = single_state_model(c=c, g=g, dist=Uniform(0.0, b))
    budget = iteration_budget(model, eps)
    assert 0.0 < budget.beta < 1.0
    with mpmath.workdps(60):
        raw = (mpmath.log(mpmath.mpf(eps) * (1 - mpmath.mpf(budget.beta))) - mpmath.log(mpmath.mpf(budget.bound) + 1)) / mpmath.log(mpmath.mpf(budget.beta))
        assume(abs(raw - mpmath.nint(raw)) > 1e-9)  # keep away from ceiling edges
    assert budget.n_iter == budget_oracle(budget.beta, budget.bound, eps)


# ---------------------------------------------------------------------------
# eps regions and the exactness gap


def test_eps_region_close_to_optimal(m1):
    grid = TimeGrid(1.0, 1024)
    v, _ = solve_value(m1, grid, tol=1e-12)
    exact_region = stopping_region(v, m1)
    result = eps_region(m1, grid, 0.01)
    mismatch = exact_region.member ^ result.region.member
    rows = np.flatnonzero(mismatch[:, 0])
    assert rows.size <= 1  # at most the boundary node


def test_eps_region_single_sweep_budget(m1):
    grid = TimeGrid(1.0, 256)
    result = eps_region(m1, grid, 100.0)
    assert result.budget.n_iter == 1
    kg = discretize_kernel(m1.kernel, grid)
    one = _sweep(m1, kg, np.zeros((257, 1)))
    np.testing.assert_array_equal(result.iterate.values, one)
    np.testing.assert_array_equal(result.refined.values, _sweep(m1, kg, one))


def test_eps_region_free_terminal_cost():
    model = single_state_model(g=0.0)
    result = eps_region(model, TimeGrid(1.0, 64), 0.01)
    assert result.region.member[1:, 0].all()
    assert exactness_gap(model, result.region, result.refined) == math.inf


def test_exactness_gap_positive_off_boundary(m1):
    grid = TimeGrid(1.0, 1024)
    result = eps_region(m1, grid, 0.01)
    gap = exactness_gap(m1, result.region, result.refined)
    assert gap > 0.0
    # verdict consistency: no exactness claim unless the margin beats eps
    assert (gap > 0.01) == bool(gap > result.budget.eps)


def test_eps_tail_bound(m1, m2):
    rng = np.random.default_rng(3)
    models = [m1, m2] + [make_random_model(rng) for _ in range(4)]
    for model in models:
        grid = TimeGrid(model.horizon, 128)
        eps = 0.01
        v, _ = solve_value(model, grid, tol=1e-9)
        result = eps_region(model, grid, eps)
        assert np.max(np.abs(v.values - result.refined.values)) <= eps + 1e-8


@pytest.mark.parametrize("steps", [64, 1024])
@pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3, 1e-4])
def test_eps_region_keeps_its_loop_report(m1, m2, steps, eps):
    # From zero the successive differences shrink at rate beta from G(0) <= M,
    # so the residual after N sweeps is at most beta**N M, which the budget
    # makes at most eps (1 - beta) M / (M + 1).
    for model in (m1, m2):
        result = eps_region(model, TimeGrid(model.horizon, steps), eps)
        report = result.report
        assert report.iterations == result.budget.n_iter
        assert report.residual == np.max(np.abs(result.refined.values - result.iterate.values))
        assert report.residual <= eps * (1.0 - result.budget.beta)


# ---------------------------------------------------------------------------
# cross-check and grid convergence


def test_cross_check_tiny(m1, m2):
    assert cross_check(m1, TimeGrid(1.0, 512), tol=1e-10) <= 1e-12
    assert cross_check(m2, TimeGrid(1.0, 512), tol=1e-10) <= 1e-12


def test_cross_check_discretizes_the_kernel_once(m2, discretizations):
    assert cross_check(m2, TimeGrid(1.0, 64)) == 0.0
    assert discretizations == [64]


def test_solve_rejects_a_kernel_grid_from_another_kernel_or_grid(m1, m2):
    grid = TimeGrid(1.0, 64)
    for kg in (discretize_kernel(m2.kernel, TimeGrid(2.0, 64)), discretize_kernel(m1.kernel, grid)):
        with pytest.raises(ValueError, match="another kernel or grid"):
            solve_value(m2, grid, kg=kg)
        with pytest.raises(ValueError, match="another kernel or grid"):
            solve_smdp(build_smdp(m2), grid, kg=kg)


def test_cross_check_zero_terminal():
    model = single_state_model(g=0.0)
    assert cross_check(model, TimeGrid(1.0, 64)) == 0.0


def test_cross_check_random_models():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model = make_random_model(rng)
        assert cross_check(model, TimeGrid(model.horizon, 64)) <= 1e-12


def test_operator_discrepancy_is_zero_on_any_table(m1, m2):
    # T([v, 0]) = [G(v), 0] holds for every table v, solved or not
    rng = np.random.default_rng(12)
    for model in (m1, m2, *(make_random_model(rng) for _ in range(4))):
        grid = TimeGrid(model.horizon, 64)
        kg = discretize_kernel(model.kernel, grid)
        v, _ = solve_value(model, grid, kg=kg)
        assert operator_discrepancy(v, model, kg) == 0.0
        table = ValueGrid(grid, rng.uniform(0.0, 2.0, size=v.values.shape))
        assert operator_discrepancy(table, model) == 0.0


def test_grid_convergence_ratio(m1, m2):
    for model in (m1, m2):
        ends = {}
        for steps in (256, 512, 1024):
            v, _ = solve_value(model, TimeGrid(model.horizon, steps), tol=1e-10)
            ends[steps] = v.values[-1].copy()
        first = np.abs(ends[512] - ends[256]).max()
        second = np.abs(ends[1024] - ends[512]).max()
        assert second <= 0.75 * first or (first == 0.0 and second == 0.0)


# ---------------------------------------------------------------------------
# CSV artifacts


def test_value_csv_round_trip(tmp_path, m2):
    grid = TimeGrid(1.0, 64)
    v, _ = solve_value(m2, grid)
    path = tmp_path / "value.csv"
    write_value_csv(v, m2.states, path)
    nodes, labels, values = read_value_csv(path)
    assert labels == m2.states.labels
    np.testing.assert_allclose(nodes, grid.nodes, rtol=1e-11, atol=1e-300)
    np.testing.assert_allclose(values, v.values, rtol=1e-11, atol=1e-300)


def test_region_csv_round_trip(tmp_path, m1):
    grid = TimeGrid(1.0, 128)
    v, _ = solve_value(m1, grid)
    region = stopping_region(v, m1)
    path = tmp_path / "region.csv"
    write_region_csv(region, m1.states, path)
    nodes, labels, member = read_region_csv(path)
    assert labels == m1.states.labels
    np.testing.assert_array_equal(member, region.member)


# labels that a format template would misread if they were pasted into it
TRICKY_LABELS = ("a", "100%", "{x}", "%s", "{}")


def _csv_inputs(steps: int, horizon: float):
    """A value table over every exponent range, with 0, 1e-300 and 1 in it, and a random region."""
    rng = np.random.default_rng(steps)
    grid = TimeGrid(horizon, steps)
    shape = (steps + 1, len(TRICKY_LABELS))
    values = rng.uniform(1.0, 10.0, size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    values.flat[:3] = (0.0, 1e-300, 1.0)
    member = rng.random(shape) < 0.5
    member[0] = False
    region = StoppingRegion(grid=grid, member=member)
    return ValueGrid(grid, values), region, StateSpace(TRICKY_LABELS)


@pytest.mark.parametrize("horizon", [1.0, 3e-7])
@pytest.mark.parametrize("steps", [1, 2, 3, 1536])
def test_csv_writers_match_the_cell_by_cell_writers(tmp_path, steps, horizon):
    v, region, states = _csv_inputs(steps, horizon)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_value_csv(v, states, got)
    reference_write_value_csv(v, states, want)
    assert got.read_bytes() == want.read_bytes()
    _, labels, values = read_value_csv(got)
    assert labels == TRICKY_LABELS
    np.testing.assert_allclose(values, v.values, rtol=1e-11, atol=0.0)
    write_region_csv(region, states, got)
    reference_write_region_csv(region, states, want)
    assert got.read_bytes() == want.read_bytes()


def _peak_bytes(write, *args) -> int:
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_value_csv_is_written_row_by_row(tmp_path):
    # The file is ASCII, so a string holding all of it takes at least its size in
    # bytes. A peak below the file's size shows the rows were never held together.
    grid = TimeGrid(1.0, 1536)
    v = ValueGrid(grid, np.random.default_rng(5).uniform(0.0, 2.0, size=(grid.steps + 1, 8)))
    states = StateSpace(tuple(f"s{i}" for i in range(8)))
    path = tmp_path / "value.csv"
    peak = _peak_bytes(write_value_csv, v, states, path)
    size = path.stat().st_size
    assert peak < size

    def whole_file(v, states, path):
        rows = [f"{s:.12g},{label},{value:.12g}\n" for s, row in zip(grid.nodes.tolist(), v.values.tolist())
                for label, value in zip(states.labels, row)]
        path.write_text("s,state,value\n" + "".join(rows))

    # the bound tells the two apart: the one-string writer of the same bytes exceeds it
    assert _peak_bytes(whole_file, v, states, tmp_path / "whole.csv") >= size
    assert (tmp_path / "whole.csv").read_bytes() == path.read_bytes()
