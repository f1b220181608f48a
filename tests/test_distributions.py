import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smpstop import Exponential, PointMass, Uniform, Weibull
from smpstop.distributions import dist_from_dict, dist_to_dict


@st.composite
def sojourn_dists(draw):
    """(distribution, characteristic scale) over all supported kinds."""
    kind = draw(st.sampled_from(("exp", "weibull", "uniform", "point")))
    if kind == "exp":
        rate = draw(st.floats(0.05, 20.0))
        return Exponential(rate), 1.0 / rate
    if kind == "weibull":
        shape = draw(st.floats(0.7, 5.0))
        scale = draw(st.floats(0.05, 10.0))
        return Weibull(shape, scale), scale
    if kind == "uniform":
        a = draw(st.floats(0.0, 5.0))
        width = draw(st.floats(0.01, 5.0))
        return Uniform(a, a + width), a + width
    d = draw(st.floats(0.01, 10.0))
    return PointMass(d), d


def test_exponential_cdf_closed_form():
    assert Exponential(1.0).cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert Exponential(2.0).cdf(0.5) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)


def test_uniform_cdf_closed_form():
    u = Uniform(0.0, 2.0)
    assert u.cdf(1.0) == 0.5
    assert u.cdf(2.5) == 1.0
    assert Uniform(1.0, 3.0).cdf(1.5) == 0.25


def test_pointmass_is_right_continuous_step():
    p = PointMass(0.3)
    assert p.cdf(0.2) == 0.0
    assert p.cdf(0.3) == 1.0
    assert p.cdf(0.3000001) == 1.0


@pytest.mark.parametrize(
    "dist",
    [Exponential(3.0), Weibull(1.4, 0.7), Uniform(0.0, 2.0), Uniform(0.5, 1.0), PointMass(0.05)],
)
def test_cdf_at_zero_is_zero(dist):
    assert dist.cdf(0.0) == 0.0


def test_quantile_spot_values():
    assert Uniform(0.0, 2.0).quantile(0.25) == 0.5
    assert Exponential(2.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(0.5, abs=1e-15)
    assert PointMass(0.3).quantile(0.77) == 0.3
    # shape-1 Weibull degenerates to an exponential with rate 1/scale
    assert Weibull(1.0, 0.5).quantile(0.8) == pytest.approx(Exponential(2.0).quantile(0.8), rel=1e-12)


@given(sojourn_dists())
def test_cdf_basic_properties(dist_scale):
    dist, scale = dist_scale
    assert dist.cdf(0.0) == 0.0
    tail = dist.cdf(50.0 * scale)
    if isinstance(dist, (PointMass, Uniform)):
        assert tail == 1.0
    else:
        assert tail >= 1.0 - 1e-6
    assert 0.0 <= tail <= 1.0


@given(sojourn_dists(), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_cdf_monotone(dist_scale, t1, t2):
    dist, scale = dist_scale
    lo, hi = sorted((t1 * scale, t2 * scale))
    assert dist.cdf(lo) <= dist.cdf(hi)


@given(sojourn_dists())
def test_cdf_vectorized_matches_scalar(dist_scale):
    dist, scale = dist_scale
    ts = np.array([0.0, 0.3 * scale, scale, 4.0 * scale])
    np.testing.assert_array_equal(dist.cdf(ts), [dist.cdf(float(t)) for t in ts])


def test_weibull_scalar_and_array_agree_bit_for_bit():
    # 0.3 ** 4 is one point where libm's scalar pow and numpy's vectorized pow differ
    assert Weibull(4.0, 1.0).cdf(0.3) == Weibull(4.0, 1.0).cdf(np.array([0.3]))[0]
    rng = np.random.default_rng(59)
    us = rng.random(2000)
    ts = rng.uniform(0.0, 3.0, 2000)
    for shape in (0.7, 1.4, 2.5, 4.0):
        dist = Weibull(shape, 0.8)
        np.testing.assert_array_equal(dist.cdf(ts), [dist.cdf(float(t)) for t in ts])
        np.testing.assert_array_equal(dist.quantile(us), [dist.quantile(float(u)) for u in us])


@given(sojourn_dists(), st.integers(0, 2**32 - 1))
def test_sample_is_strictly_positive(dist_scale, seed):
    dist, _ = dist_scale
    rng = np.random.default_rng(seed)
    for _ in range(5):
        assert dist.sample(rng) > 0.0


def test_pointmass_sampling_is_degenerate():
    rng = np.random.default_rng(0)
    assert {PointMass(0.3).sample(rng) for _ in range(10)} == {0.3}


@pytest.mark.parametrize(
    "dist",
    [Exponential(2.0), Uniform(0.25, 1.75), Weibull(1.5, 0.8)],
)
def test_sampling_matches_cdf(dist):
    from scipy import stats

    rng = np.random.default_rng(1234)
    samples = np.array([dist.sample(rng) for _ in range(2000)])
    result = stats.kstest(samples, dist.cdf)
    assert result.pvalue > 1e-3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Exponential(0.0), "rate must be positive"),
        (lambda: Exponential(-2.0), "rate must be positive"),
        (lambda: Weibull(-1.0, 1.0), "shape must be positive"),
        (lambda: Weibull(1.0, 0.0), "scale must be positive"),
        (lambda: Uniform(-0.1, 1.0), "lower endpoint must be nonnegative"),
        (lambda: Uniform(1.0, 1.0), "upper endpoint must exceed the lower endpoint"),
        (lambda: PointMass(0.0), "atom location must be positive"),
        (lambda: Exponential(math.inf), "rate must be finite"),
        (lambda: Weibull(math.inf, 1.0), "shape must be finite"),
        (lambda: Weibull(1.0, math.nan), "scale must be finite"),
        (lambda: Uniform(0.0, math.inf), "b must be finite"),
        (lambda: PointMass(math.inf), "d must be finite"),
    ],
)
def test_parameter_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "dist",
    [Exponential(2.0), Weibull(1.5, 0.8), Uniform(0.0, 2.0), PointMass(0.3)],
)
def test_dict_round_trip(dist):
    assert dist_from_dict(dist_to_dict(dist)) == dist


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "gamma", "rate": 1.0},
        {"type": "exp"},
        {"rate": 1.0},
        "exp",
        {"type": "point", "d": 0.0},
        {"type": ["exp"], "rate": 1.0},
        {"type": "exp", "rate": None},
        {"type": "exp", "rate": [1.0]},
        {"type": "exp", "rate": {"value": 1.0}},
        {"type": "exp", "rate": "2"},
        {"type": "weibull", "shape": 1.5, "scale": True},
    ],
)
def test_bad_dicts_rejected(payload):
    with pytest.raises(ValueError):
        dist_from_dict(payload)


def test_bad_dict_messages():
    with pytest.raises(ValueError, match="^distribution 'weibull' missing field 'scale'$"):
        dist_from_dict({"type": "weibull", "shape": 1.5})
    with pytest.raises(ValueError, match=r"^unknown distribution type '\['exp'\]'$"):
        dist_from_dict({"type": ["exp"], "rate": 1.0})
    with pytest.raises(ValueError, match="^rate must be a number$"):
        dist_from_dict({"type": "exp", "rate": None})
