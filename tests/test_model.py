import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smpstop import (
    CostModel,
    Exponential,
    ModelFormatError,
    PointMass,
    SemiMarkovKernel,
    SMPModel,
    StateSpace,
    TimeGrid,
    Uniform,
    check_regularity,
    contraction_factor,
    discretize_kernel,
    kernel_mass,
    load_model,
    model_from_dict,
    save_model,
    validate_model,
)
from conftest import kernel_cdf, make_random_model, single_state_model, survival_integral

EXP1 = 1.0 - math.exp(-1.0)


# ---------------------------------------------------------------------------
# state space and construction


def test_state_space_lookup():
    sp = StateSpace(("a", "b", "c"))
    assert len(sp) == 3
    assert sp.index("b") == 1
    with pytest.raises(ValueError, match="unknown state"):
        sp.index("z")


def test_state_space_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        StateSpace(())
    with pytest.raises(ValueError):
        StateSpace(("a", "a"))


def test_model_arrays_are_frozen(m1):
    with pytest.raises(ValueError):
        m1.kernel.transition[0, 0] = 0.5
    with pytest.raises(ValueError):
        m1.costs.rate[0] = 2.0


# ---------------------------------------------------------------------------
# validation


def test_validate_well_formed(m1, m2):
    assert validate_model(m1).ok
    assert validate_model(m2).ok


def test_validate_substochastic_row():
    m = single_state_model()
    bad = SMPModel(m.states, SemiMarkovKernel(np.array([[0.9]]), m.kernel.sojourn), m.costs, 1.0)
    report = validate_model(bad)
    assert not report.ok
    assert any("row 0 sums to 0.9" in v for v in report.violations)


def test_validate_negative_terminal_cost():
    m = single_state_model()
    bad = SMPModel(m.states, m.kernel, CostModel(np.array([1.0]), np.array([-1.0])), 1.0)
    report = validate_model(bad)
    assert any("g(a)" in v and "negative" in v for v in report.violations)


def test_validate_negative_rate_cost_and_missing_sojourn():
    m = single_state_model()
    bad = SMPModel(
        m.states,
        SemiMarkovKernel(np.array([[1.0]]), ((None,),)),
        CostModel(np.array([-0.5]), np.array([0.5])),
        1.0,
    )
    report = validate_model(bad)
    assert any("sojourn[0][0] missing" in v for v in report.violations)
    assert any("c(a)" in v and "negative" in v for v in report.violations)


def test_validate_bad_horizon_and_lengths():
    m = single_state_model()
    bad = SMPModel(m.states, m.kernel, CostModel(np.array([1.0, 2.0]), np.array([0.5])), -1.0)
    report = validate_model(bad)
    assert any("length 2" in v for v in report.violations)
    assert any("horizon" in v for v in report.violations)


# ---------------------------------------------------------------------------
# kernel operations


def test_kernel_cdf_values(m1):
    assert kernel_cdf(m1.kernel, 0, 0, 1.0) == pytest.approx(EXP1, abs=1e-15)
    assert kernel_cdf(m1.kernel, 0, 0, 0.0) == 0.0


def test_kernel_cdf_missing_edge(m2):
    with pytest.raises(ValueError, match="no edge"):
        kernel_cdf(m2.kernel, 0, 0, 1.0)


def test_kernel_mass_single_edge(m1):
    assert kernel_mass(m1.kernel, 0, 1.0) == pytest.approx(EXP1, abs=1e-15)
    assert kernel_mass(m1.kernel, 0, 0.0) == 0.0


def test_kernel_mass_uniform_edge():
    m = single_state_model(dist=Uniform(0.0, 2.0))
    assert kernel_mass(m.kernel, 0, 1.0) == 0.5


def test_kernel_mass_mixture(m2):
    assert kernel_mass(m2.kernel, 0, 0.5) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)


@given(st.integers(0, 10**9), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_kernel_mass_monotone(seed, t1, t2):
    model = make_random_model(np.random.default_rng(seed))
    lo, hi = sorted((t1, t2))
    for x in range(len(model.states)):
        assert kernel_mass(model.kernel, x, lo) <= kernel_mass(model.kernel, x, hi)


# ---------------------------------------------------------------------------
# survival integral


def test_survival_integral_empty_at_zero(m1):
    assert survival_integral(m1.kernel, 0, 0.0, TimeGrid(1.0, 64)) == 0.0


def test_survival_integral_exponential(m1):
    got = survival_integral(m1.kernel, 0, 1.0, TimeGrid(1.0, 1024))
    assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-4)


def test_survival_integral_pointmass_beyond_horizon():
    m = single_state_model(dist=PointMass(2.0))
    assert survival_integral(m.kernel, 0, 1.0, TimeGrid(1.0, 64)) == 1.0


def test_survival_integral_rejects_off_grid(m1):
    with pytest.raises(ValueError, match="not a node"):
        survival_integral(m1.kernel, 0, 0.1234, TimeGrid(1.0, 64))


@given(st.integers(0, 10**9))
def test_survival_integral_bounds_and_monotone(seed):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng)
    grid = TimeGrid(model.horizon, 64)
    kg = discretize_kernel(model.kernel, grid)
    for x in range(len(model.states)):
        si = kg.survival[x]
        assert np.all(si >= 0.0)
        assert np.all(si <= grid.nodes)
        assert np.all(np.diff(si) >= 0.0)


@pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
def test_survival_integral_exponential_closed_form(rate):
    model = single_state_model(dist=Exponential(rate))
    grid = TimeGrid(1.0, 256)
    for s in (0.25, 0.5, 1.0):
        got = survival_integral(model.kernel, 0, s, grid)
        exact = (1.0 - math.exp(-rate * s)) / rate
        assert abs(got - exact) <= 2.0 * grid.dt * rate


# ---------------------------------------------------------------------------
# regularity and contraction


def test_regularity_m1(m1):
    result = check_regularity(m1, 0.1, 0.05)
    assert result.ok
    assert result.sup_mass == pytest.approx(1.0 - math.exp(-0.1), abs=1e-15)


def test_regularity_unsatisfiable_bound(m1):
    result = check_regularity(m1, 1.0, 0.999)
    assert not result.ok
    assert result.sup_mass > 0.0


def test_regularity_pointmass_no_mass_before_atom():
    m = single_state_model(dist=PointMass(0.5))
    result = check_regularity(m, 0.4, 0.5)
    assert result.ok
    assert result.sup_mass == 0.0


def test_regularity_rejects_bad_arguments(m1):
    with pytest.raises(ValueError):
        check_regularity(m1, 0.0, 0.5)
    with pytest.raises(ValueError):
        check_regularity(m1, 0.1, 1.0)


@given(st.integers(0, 10**9), st.floats(0.01, 1.0), st.floats(0.01, 0.5), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_regularity_monotone(seed, delta, eps, shrink_d, shrink_e):
    model = make_random_model(np.random.default_rng(seed))
    if check_regularity(model, delta, eps).ok:
        smaller_d = max(delta * shrink_d, 1e-9)
        smaller_e = max(eps * shrink_e, 1e-9)
        assert check_regularity(model, smaller_d, smaller_e).ok


def test_contraction_factor(m1):
    assert contraction_factor(m1) == pytest.approx(EXP1, abs=1e-15)
    assert contraction_factor(single_state_model(horizon=0.0)) == 0.0
    assert contraction_factor(single_state_model(dist=PointMass(2.0))) == 0.0


# ---------------------------------------------------------------------------
# time grid


def test_time_grid_nodes():
    grid = TimeGrid(1.0, 4)
    np.testing.assert_array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.dt == 0.25
    assert grid.nodes[-1] == grid.horizon


def test_time_grid_endpoint_pinned_for_awkward_steps():
    grid = TimeGrid(0.7, 3)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 0.7
    assert np.all(np.diff(grid.nodes) > 0)


def test_time_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


@given(st.floats(0.1, 10.0), st.integers(1, 400))
def test_time_grid_index_round_trip(horizon, steps):
    grid = TimeGrid(horizon, steps)
    for k in (0, steps // 2, steps):
        assert grid.index_of(float(grid.nodes[k])) == k
        assert grid.floor_index(float(grid.nodes[k])) == k
    assert grid.floor_index(-1.0) == 0
    assert grid.floor_index(horizon * 2) == steps
    mid = float(grid.nodes[0] + 0.5 * grid.dt)
    assert grid.floor_index(mid) == 0
    assert type(grid.floor_index(mid)) is int
    # an array of times gives the scalar answers elementwise
    times = np.concatenate(
        [grid.nodes, grid.nodes + 0.5 * grid.dt, np.nextafter(grid.nodes, -1.0), np.nextafter(grid.nodes, 2 * horizon)]
    )
    times = np.concatenate([times, [-1.0, -0.0, horizon * 2]])
    assert grid.floor_index(times).tolist() == [grid.floor_index(float(s)) for s in times]


@pytest.mark.parametrize(
    "horizon, steps",
    [(1.0, 1), (1.0, 37), (1.0, 1536), (0.7, 37), (3.3, 1536), (1e-300, 1536), (1e300, 37), (1e-310, 7)],
)
def test_floor_index_on_an_array_is_searchsorted_clipped(horizon, steps):
    # the array route guesses from s * (steps / horizon) and corrects against the stored nodes;
    # at 1e-310 / 7, dt is subnormal, where the guess can be off by more than one
    grid = TimeGrid(horizon, steps)
    nodes = grid.nodes
    special = [-0.0, 0.0, -1.0, -horizon, -np.inf, 2 * horizon, np.inf, np.finfo(float).max, np.nan]
    rng = np.random.default_rng(steps)
    s = np.concatenate(
        [
            nodes,
            np.nextafter(nodes, -np.inf),
            np.nextafter(nodes, np.inf),
            special,
            horizon * rng.uniform(-0.1, 1.1, 2000),
        ]
    )
    want = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, steps)
    got = grid.floor_index(s)
    assert got.tolist() == want.tolist()
    assert got[-2000 - 1] == steps  # NaN sorts after every node, as in searchsorted
    assert got.tolist() == [grid.floor_index(float(v)) for v in s]


# ---------------------------------------------------------------------------
# JSON files


def spec_example_dict():
    return {
        "states": ["a", "b"],
        "T": 1.0,
        "transition": [[0.0, 1.0], [1.0, 0.0]],
        "sojourn": [
            [None, {"type": "exp", "rate": 2.0}],
            [{"type": "weibull", "shape": 1.5, "scale": 0.8}, None],
        ],
        "cost_rate": [2.0, 0.1],
        "terminal_cost": [0.3, 1.0],
    }


def test_model_from_dict_example():
    model = model_from_dict(spec_example_dict())
    assert model.states.labels == ("a", "b")
    assert model.kernel.sojourn[0][1] == Exponential(2.0)
    assert validate_model(model).ok


def test_model_file_round_trip(tmp_path, m2):
    path = tmp_path / "model.json"
    save_model(m2, path)
    loaded = load_model(path)
    assert loaded.states.labels == m2.states.labels
    np.testing.assert_array_equal(loaded.kernel.transition, m2.kernel.transition)
    assert loaded.kernel.sojourn == m2.kernel.sojourn
    np.testing.assert_array_equal(loaded.costs.rate, m2.costs.rate)
    assert loaded.horizon == m2.horizon


def test_loader_rejects_negative_rate(tmp_path):
    data = spec_example_dict()
    data["sojourn"][0][1]["rate"] = -2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert any("rate must be positive" in v for v in err.value.violations)


def test_loader_rejects_null_mismatch(tmp_path):
    data = spec_example_dict()
    data["sojourn"][0][1] = None
    data["sojourn"][0][0] = {"type": "exp", "rate": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert any("is null but transition" in v for v in err.value.violations)
    assert any("must be null where transition" in v for v in err.value.violations)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("T"), "missing required key 'T'"),
        (lambda d: d.update(states=["a", "a"]), "unique"),
        (lambda d: d.update(transition=[[1.0]]), "matrix"),
        (lambda d: d.update(cost_rate=[1.0]), "cost_rate"),
        (lambda d: d["sojourn"][0].__setitem__(1, {"type": "gamma"}), "unknown distribution"),
    ],
)
def test_loader_schema_violations(mutate, fragment):
    data = spec_example_dict()
    mutate(data)
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(data)
    assert any(fragment in v for v in err.value.violations)


def test_loader_invalid_json(tmp_path):
    path = tmp_path / "nonsense.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert any("invalid JSON" in v for v in err.value.violations)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["transition"][0].__setitem__(0, "x"), "'transition[0]' must be a list of 2 numbers"),
        (lambda d: d["transition"].__setitem__(1, [1.0]), "'transition[1]' must be a list of 2 numbers"),
        (lambda d: d.update(transition=[[1.0]]), "'transition' must be a 2x2 matrix"),
    ],
)
def test_unread_transition_rows_are_not_paired_with_sojourns(mutate, message):
    # a row that is not a list of numbers gives one message, not one per sojourn cell
    data = spec_example_dict()
    mutate(data)
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(data)
    assert err.value.violations == (message,)


def test_sojourn_cells_of_unread_rows_are_still_decoded():
    data = spec_example_dict()
    data["transition"][0][0] = "x"
    data["sojourn"][0][1] = {"type": "exp", "rate": -1.0}
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(data)
    assert err.value.violations == (
        "'transition[0]' must be a list of 2 numbers",
        "sojourn[0][1]: rate must be positive",
    )
