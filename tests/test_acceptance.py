"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

import smpstop.cli as cli
from smpstop import (
    TimeGrid,
    Uniform,
    build_smdp,
    cross_check,
    estimate_value,
    eps_region,
    evaluate_policy,
    extract_optimal_policy,
    iteration_budget,
    save_model,
    solve_smdp,
    solve_value,
    stopping_region,
)
from smpstop.simulate import AlwaysStop, NeverStop, PolicyRule, RegionRule
from smpstop.smdp import _fixed_point
from smpstop.solver import _g_sweep
from conftest import (
    make_random_model,
    make_random_policy,
    reference_recursion,
    single_state_model,
    two_state_model,
)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def m1():
    return single_state_model()


@pytest.fixture(scope="module")
def m2():
    return two_state_model()


def _iterate(model, grid, cap):
    """The fixed-point loop to a 1e-9 step on a ``_g_sweep`` that records per-sweep diagnostics."""
    seen = SimpleNamespace(monotone=True, bounded=True)

    def sweep(kg, values, out, ws):
        nxt = _g_sweep(model, kg, values, out, ws)
        seen.monotone = seen.monotone and bool(np.all(nxt >= values))
        seen.bounded = seen.bounded and bool(np.all(nxt >= 0.0)) and bool(np.all(nxt <= cap))
        return nxt

    _, report = _fixed_point(model, grid, len(model.states), sweep, 1e-9)
    return SimpleNamespace(
        monotone=seen.monotone, bounded=seen.bounded, converged=report.converged, residual=report.residual
    )


@pytest.fixture(scope="module")
def random_model_suite():
    """25 random models iterated to convergence with per-sweep diagnostics.

    Each model runs twice: on the reference recursion, whose direct sums
    keep the iterates monotone exactly (criterion 3), and on the production
    sweep, whose fixed-point residual criterion 4 checks.
    """
    rng = np.random.default_rng(20240817)
    runs = []
    for _ in range(25):
        model = make_random_model(rng)
        grid = TimeGrid(model.horizon, 128)
        cap = np.minimum(
            np.broadcast_to(model.costs.terminal, (grid.steps + 1, len(model.states))),
            grid.nodes[:, None] * float(model.costs.rate.max()),
        )
        with reference_recursion():
            reference = _iterate(model, grid, cap)
        production = _iterate(model, grid, cap)
        runs.append(SimpleNamespace(model=model, grid=grid, reference=reference, production=production))
    return runs


def test_criterion_01_single_state_analytic_oracle(m1):
    started = time.perf_counter()
    grid = TimeGrid(1.0, 1024)
    v, report = solve_value(m1, grid, tol=1e-10)
    region = stopping_region(v, m1)
    elapsed = time.perf_counter() - started
    assert report.converged
    err = float(np.max(np.abs(v.values[:, 0] - np.minimum(grid.nodes, 0.5))))
    assert err <= 5e-3
    assert region.boundary[0] is not None
    assert abs(region.boundary[0] - 0.5) <= grid.dt
    assert elapsed < 5.0
    _report(1, f"analytic oracle max error {err:.2e}, boundary at {region.boundary[0]:.6g}, {elapsed:.2f}s")


def test_criterion_02_operator_cross_check(m1, m2):
    worst = 0.0
    for model in (m1, m2):
        worst = max(worst, cross_check(model, TimeGrid(model.horizon, 512), tol=1e-10))
    assert worst <= 1e-12
    _report(2, f"two-action solve vs direct recursion discrepancy {worst:.2e}")


def test_criterion_03_monotone_bounded_iteration(random_model_suite):
    assert len(random_model_suite) == 25
    assert all(r.reference.monotone for r in random_model_suite)
    assert all(r.reference.bounded for r in random_model_suite)
    _report(3, "25 random models: iterates pointwise nondecreasing, 0 <= V <= min(g, s max c)")


def test_criterion_04_fixed_point_residual(random_model_suite, m1, m2):
    worst = 0.0
    for run in random_model_suite:
        assert run.production.converged
        worst = max(worst, run.production.residual)
    for model in (m1, m2):
        _, report = solve_value(model, TimeGrid(model.horizon, 256), tol=1e-9)
        assert report.converged
        worst = max(worst, report.residual)
    assert worst <= 1e-9
    _report(4, f"fixed-point residual re-verified, worst {worst:.2e}")


def test_criterion_05_policy_dominance(m1, m2):
    rng = np.random.default_rng(5150)
    worst_gap = 0.0
    worst_attain = 0.0
    for model in (m1, m2):
        grid = TimeGrid(model.horizon, 512)
        sm = build_smdp(model)
        u, _ = solve_smdp(sm, grid, tol=1e-12)
        for _ in range(20):
            policy = make_random_policy(rng, sm.n_base, grid)
            evaluated, _ = evaluate_policy(sm, policy, tol=1e-12)
            gap = float(np.min(evaluated.values - u.values))
            worst_gap = min(worst_gap, gap)
            assert np.all(evaluated.values >= u.values - 1e-9)
        best = extract_optimal_policy(sm, u)
        attained, _ = evaluate_policy(sm, best, tol=1e-12)
        attain = float(np.max(np.abs(attained.values - u.values)))
        worst_attain = max(worst_attain, attain)
        assert attain <= 1e-9
    _report(5, f"40 random policies dominate (worst slack {-worst_gap:.2e}); extracted policy attains to {worst_attain:.2e}")


def test_criterion_06_monte_carlo_agreement(m2):
    started = time.perf_counter()
    grid = TimeGrid(1.0, 1024)
    v, _ = solve_value(m2, grid, tol=1e-10)
    region = stopping_region(v, m2)
    n_paths, seed = 100000, 2718
    optimal = estimate_value(m2, RegionRule(region), "b", n_paths, seed)
    always = estimate_value(m2, AlwaysStop(), "b", n_paths, seed)
    never = estimate_value(m2, NeverStop(), "b", n_paths, seed)
    elapsed = time.perf_counter() - started
    dp = v.values[-1, 1]
    delta = abs(optimal.mean - dp)
    assert delta <= 3.0 * optimal.std_err + 1e-2
    assert optimal.mean <= always.mean + 3.0 * (optimal.std_err + always.std_err)
    assert optimal.mean <= never.mean + 3.0 * (optimal.std_err + never.std_err)
    assert elapsed < 30.0
    _report(6, f"|MC - DP| = {delta:.2e} (3SE+1e-2 = {3 * optimal.std_err + 1e-2:.2e}); sandwich holds; {elapsed:.1f}s")


def test_criterion_07_eps_budget_and_tail(m1, m2):
    synthetic = single_state_model(c=4.0, g=5.0, dist=Uniform(0.0, 2.0))
    budget = iteration_budget(synthetic, 0.01)
    assert budget.beta == 0.5
    assert budget.bound == 9.0
    assert budget.n_iter == 11
    rng = np.random.default_rng(777)
    models = [m1, m2] + [make_random_model(rng) for _ in range(5)]
    eps = 0.01
    worst = 0.0
    for model in models:
        grid = TimeGrid(model.horizon, 128)
        v, _ = solve_value(model, grid, tol=1e-9)
        result = eps_region(model, grid, eps)
        tail = float(np.max(np.abs(v.values - result.refined.values)))
        worst = max(worst, tail)
        assert tail <= eps + 1e-8
    _report(7, f"N(0.01) = 11 on beta = 0.5, M = 9; tail |V* - V_(N+1)| worst {worst:.2e} <= eps + 1e-8")


def test_criterion_08_induced_stopping_times_match_policy_values(m1, m2):
    rng = np.random.default_rng(8080)
    n_paths = 20000
    worst_margin = -np.inf
    for model in (m1, m2):
        grid = TimeGrid(model.horizon, 1024)
        sm = build_smdp(model)
        for trial in range(10):
            policy = make_random_policy(rng, sm.n_base, grid)
            expected, _ = evaluate_policy(sm, policy, tol=1e-12)
            x0 = model.states.labels[trial % len(model.states.labels)]
            mc = estimate_value(model, PolicyRule(policy), x0, n_paths, seed=900 + trial)
            dp = expected.value(model.horizon, model.states.index(x0))
            margin = abs(mc.mean - dp) - 3.0 * mc.std_err
            worst_margin = max(worst_margin, margin)
            assert abs(mc.mean - dp) <= 3.0 * mc.std_err + 1e-2
    _report(8, f"20 induced rules vs policy values: worst |MC - DP| - 3SE = {worst_margin:.2e} <= 1e-2")


def test_criterion_09_grid_convergence(m1, m2):
    ratios = []
    for model in (m1, m2):
        ends = {}
        for steps in (256, 512, 1024):
            v, _ = solve_value(model, TimeGrid(model.horizon, steps), tol=1e-10)
            ends[steps] = v.values[-1].copy()
        first = float(np.abs(ends[512] - ends[256]).max())
        second = float(np.abs(ends[1024] - ends[512]).max())
        if first == 0.0:
            assert second == 0.0
            ratios.append(0.0)
        else:
            assert second <= 0.75 * first
            ratios.append(second / first)
    _report(9, f"halving 256->512->1024 shrinks the end-value change by {ratios}")


def test_criterion_10_byte_identical_simulation(m2, tmp_path):
    model_path = tmp_path / "m2.json"
    save_model(m2, model_path)
    args = [
        "simulate", "--model", str(model_path), "--rule", "optimal", "--grid", "256",
        "--paths", "5000", "--seed", "42", "--x0", "b",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    first = (out1 / "mc_report.json").read_bytes()
    second = (out2 / "mc_report.json").read_bytes()
    assert first == second
    payload = json.loads(first)
    assert payload["n_paths"] == 5000 and payload["seed"] == 42
    _report(10, "identical flags produce byte-identical mc_report.json")
