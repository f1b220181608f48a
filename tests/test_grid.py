import tracemalloc

import numpy as np
import pytest

import smpstop.grid
from smpstop import (
    PointMass,
    SMPModel,
    TimeGrid,
    contraction_factor,
    convolve_values,
    discretize_kernel,
    eps_region,
    solve_value,
)
from smpstop.grid import ConvolutionWorkspace, _fft_length
from smpstop.smdp import _sweep
from conftest import (
    make_random_model,
    reference_convolve_values,
    reference_fft_convolve_values,
    single_state_model,
    sparse_free_running_model,
    sparse_random_model,
)

STEPS = (1, 2, 3, 64, 128, 1536)


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


@pytest.mark.parametrize("steps", (1, 2, 3, 64, 1536))
def test_stored_spectra_match_per_call_transforms_bit_for_bit(steps):
    # dense rows, sparse rows (the fancy-index path) and, in every random
    # model, edges whose atom lies beyond the horizon and so carry no jump mass;
    # bytes, not values, so that the sign of a zero counts too ("%.12g" prints
    # -0 and 0 differently). One workspace and one output table serve every
    # probe of a model, as they serve every sweep of a solve.
    rng = np.random.default_rng(1000 + steps)
    models = [
        sparse_free_running_model(),
        *(make_random_model(rng, n) for n in (1, 3, 5)),
        *(sparse_random_model(rng, n) for n in (3, 5)),
    ]
    assert any(not (m.kernel.transition > 0).all() for m in models)
    for model in models:
        kg = discretize_kernel(model.kernel, TimeGrid(model.horizon, steps))
        shape = (steps + 1, len(model.states))
        probes = (
            np.zeros(shape),
            rng.uniform(0.0, 3.0, shape),
            np.where(rng.random(shape) < 0.5, 0.0, 1e3 * rng.random(shape)),
        )
        work, out = ConvolutionWorkspace(kg), np.empty(shape)
        for v in probes:
            expected = reference_fft_convolve_values(kg, v).tobytes()
            assert convolve_values(kg, v).tobytes() == expected
            assert convolve_values(kg, v, out, work) is out
            assert out.tobytes() == expected


@pytest.mark.parametrize("steps", (1, 3, 64, 1536))
def test_fft_branch_without_out_gives_the_same_bytes(steps, monkeypatch):
    # numpy 1.x's transforms take no out=, so _into assigns their results
    # instead; that branch must write the bytes of the out= branch, from the
    # stored spectra through one sweep into a workspace to solved tables
    rng = np.random.default_rng(2000 + steps)
    models = [sparse_free_running_model(), make_random_model(rng, 3), sparse_random_model(rng, 4)]

    def tables(model, grid, v):
        kg = discretize_kernel(model.kernel, grid)
        conv = convolve_values(kg, v, np.empty_like(v), ConvolutionWorkspace(kg))
        found = [kg.spectra, conv, solve_value(model, grid, 1e-12)[0].values]
        if contraction_factor(model) < 1.0:
            result = eps_region(model, grid, 1e-3)
            found += [result.iterate.values, result.refined.values]
        return [table.tobytes() for table in found]

    for model in models:
        grid = TimeGrid(model.horizon, steps)
        v = rng.uniform(0.0, 3.0, (steps + 1, len(model.states)))
        with_out = tables(model, grid, v)
        monkeypatch.setattr(smpstop.grid, "_FFT_TAKES_OUT", False)
        assert tables(model, grid, v) == with_out
        monkeypatch.undo()


def test_sweeps_keep_only_the_spectra_resident():
    # Resident after discretizing: the spectra plus the mass and survival
    # tables (2 n x (K + 1) float64 tables). A call without a workspace adds
    # a one-shot one of about 8 tables: the value spectra (2), one source
    # state's products (2), the per-source sums (2) and their inverse
    # transforms (2), all of length L ~ 2K; the output is 1 more. (A solve
    # keeps the same 8 for all of its sweeps, plus its value tables.) With
    # numpy 2.4.6 the peak is 11.7 tables above the spectra, and 19.7 with
    # jump_mass resident (n = 8 more). The bound, 10 + n / 2 = 14 tables,
    # lies between the two. How numpy allocates its FFT buffers moves the
    # measured peak, so the margin is kept wide on both sides.
    n, steps = 8, 1536
    rng = np.random.default_rng(8)
    model = make_random_model(rng, n)
    assert (model.kernel.transition > 0).all()
    grid = TimeGrid(model.horizon, steps)
    v = rng.uniform(0.0, 3.0, (steps + 1, n))
    convolve_values(discretize_kernel(model.kernel, grid), v)  # load numpy.fft outside the trace
    table = n * (steps + 1) * 8
    tracemalloc.start()
    try:
        kg = discretize_kernel(model.kernel, grid)
        for _ in range(2):
            convolve_values(kg, v)
        peak = tracemalloc.get_traced_memory()[1]
        assert kg.jump_mass.nbytes == n * table
        tracemalloc.reset_peak()
        for _ in range(2):
            convolve_values(kg, v)
        peak_with_jump_mass = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kg.spectra.nbytes == n * n * (_fft_length(2 * steps - 1) // 2 + 1) * 16
    bound = kg.spectra.nbytes + 10 * table + n * table // 2
    assert peak <= bound
    assert peak_with_jump_mass > bound


@pytest.mark.parametrize("steps", STEPS)
def test_sweep_without_running_cost_stays_nonnegative(steps):
    model = sparse_free_running_model()
    kg = discretize_kernel(model.kernel, TimeGrid(model.horizon, steps))
    values = np.random.default_rng(steps).uniform(0.0, 2.0, (steps + 1, 3))
    for _ in range(20):
        values = _sweep(model, kg, values)
        assert np.all(values[0] == 0.0)
        assert np.all(values >= 0.0)
