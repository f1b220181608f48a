import numpy as np
import pytest

from smpstop import (
    CostModel,
    Exponential,
    PointMass,
    SemiMarkovKernel,
    SMPModel,
    StateSpace,
    TimeGrid,
    Uniform,
    convolve_values,
    discretize_kernel,
)
from smpstop.grid import _fft_length
from smpstop.solver import _g_sweep
from conftest import make_random_model, reference_convolve_values, single_state_model

STEPS = (1, 2, 3, 64, 128, 1536)


def sparse_free_running_model() -> SMPModel:
    """Three states with sparse edges, atoms on and off the grid, and no running cost."""
    return SMPModel(
        states=StateSpace(("a", "b", "c")),
        kernel=SemiMarkovKernel(
            np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]),
            (
                (None, PointMass(0.25), None),
                (Uniform(0.1, 0.4), None, PointMass(0.3)),
                (None, None, Exponential(5.0)),
            ),
        ),
        costs=CostModel(np.zeros(3), np.array([0.4, 1.0, 0.2])),
        horizon=1.0,
    )


def _models() -> list[SMPModel]:
    rng = np.random.default_rng(606)
    return [
        single_state_model(dist=PointMass(0.25)),
        sparse_free_running_model(),
        *(make_random_model(rng) for _ in range(4)),
    ]


def test_fft_length_is_smallest_3_smooth():
    smooth = sorted(2**a * 3**b for a in range(14) for b in range(9))
    for m in range(1, 5000):
        assert _fft_length(m) == next(p for p in smooth if p >= m)
    assert _fft_length(2 * 1536 - 1) == 3072


@pytest.mark.parametrize("steps", STEPS)
def test_fft_convolution_matches_reference(steps):
    rng = np.random.default_rng(steps)
    for model in _models():
        kg = discretize_kernel(model.kernel, TimeGrid(model.horizon, steps))
        shape = (steps + 1, len(model.states))
        probes = (
            np.zeros(shape),
            rng.uniform(0.0, 3.0, shape),
            np.where(rng.random(shape) < 0.5, 0.0, 1e3 * rng.random(shape)),
        )
        for v in probes:
            fast = convolve_values(kg, v)
            assert np.max(np.abs(fast - reference_convolve_values(kg, v))) <= 1e-13 * (1.0 + np.max(np.abs(v)))
            assert np.all(fast[0] == 0.0)
            assert np.all(fast >= 0.0)


@pytest.mark.parametrize("steps", STEPS)
def test_sweep_without_running_cost_stays_nonnegative(steps):
    model = sparse_free_running_model()
    kg = discretize_kernel(model.kernel, TimeGrid(model.horizon, steps))
    values = np.random.default_rng(steps).uniform(0.0, 2.0, (steps + 1, 3))
    for _ in range(20):
        values = _g_sweep(model, kg, values)
        assert np.all(values[0] == 0.0)
        assert np.all(values >= 0.0)
