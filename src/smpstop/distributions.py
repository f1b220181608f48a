"""Sojourn-time distributions for semi-Markov kernels.

Every law is proper on (0, infinity): the CDF is nondecreasing and
right-continuous with cdf(0) = 0 and limit 1. Sampling is by inverse
transform, so each sojourn consumes exactly one uniform draw and a fixed
stream reproduces identical paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "SojournDist",
    "Exponential",
    "Weibull",
    "Uniform",
    "PointMass",
    "dist_from_dict",
    "dist_to_dict",
]


def _match_input(t, out):
    # scalar in, scalar out; arrays pass through
    if np.ndim(t) == 0:
        return float(np.ravel(out)[0])
    return out


def _require_finite(dist) -> None:
    for field in fields(dist):
        if not math.isfinite(getattr(dist, field.name)):
            raise ValueError(f"{field.name} must be finite")


class SojournDist:
    """Base sojourn law. Subclasses are small frozen dataclasses."""

    def cdf(self, t):
        """P(sojourn <= t) for a scalar or array of times."""
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        """Inverse CDF at u in [0, 1)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> float:
        # Redraw the null event u -> 0 sojourn so jump times strictly increase.
        while True:
            t = float(self.quantile(rng.random()))
            if t > 0.0:
                return t


@dataclass(frozen=True)
class Exponential(SojournDist):
    rate: float

    def __post_init__(self):
        _require_finite(self)
        if not self.rate > 0:
            raise ValueError("rate must be positive")

    def cdf(self, t):
        tt = np.maximum(np.asarray(t, dtype=float), 0.0)
        return _match_input(t, -np.expm1(-self.rate * tt))

    def quantile(self, u):
        return -np.log1p(-u) / self.rate


@dataclass(frozen=True)
class Weibull(SojournDist):
    shape: float
    scale: float

    def __post_init__(self):
        _require_finite(self)
        if not self.shape > 0:
            raise ValueError("shape must be positive")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    # `**` on a numpy scalar calls libm's pow, which can differ in the last
    # bit from numpy's vectorized pow. So cdf runs scalars as 1-element
    # arrays, and quantile, which sampling calls once per draw, calls the
    # np.power ufunc, which runs the array loop on scalars too at a tenth
    # of the cost of building an array.
    def cdf(self, t):
        tt = np.maximum(np.atleast_1d(np.asarray(t, dtype=float)), 0.0)
        with np.errstate(over="ignore"):
            z = (tt / self.scale) ** self.shape
        return _match_input(t, -np.expm1(-z))

    def quantile(self, u):
        return self.scale * np.power(-np.log1p(-u), 1.0 / self.shape)


@dataclass(frozen=True)
class Uniform(SojournDist):
    a: float
    b: float

    def __post_init__(self):
        _require_finite(self)
        if self.a < 0:
            raise ValueError("lower endpoint must be nonnegative")
        if not self.b > self.a:
            raise ValueError("upper endpoint must exceed the lower endpoint")

    def cdf(self, t):
        tt = np.asarray(t, dtype=float)
        return _match_input(t, np.clip((tt - self.a) / (self.b - self.a), 0.0, 1.0))

    def quantile(self, u):
        return self.a + (self.b - self.a) * u


@dataclass(frozen=True)
class PointMass(SojournDist):
    """Deterministic sojourn of length d; the CDF is the right-continuous step at d."""

    d: float

    def __post_init__(self):
        _require_finite(self)
        if not self.d > 0:
            raise ValueError("atom location must be positive")

    def cdf(self, t):
        tt = np.asarray(t, dtype=float)
        return _match_input(t, (tt >= self.d).astype(float))

    def quantile(self, u):
        return self.d


_TAGS = {"exp": Exponential, "weibull": Weibull, "uniform": Uniform, "point": PointMass}


def dist_from_dict(data) -> SojournDist:
    """Decode {"type": ..., <params>} into a distribution; raises ValueError."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("distribution must be an object with a 'type' field")
    kind = data["type"]
    law = _TAGS.get(kind) if isinstance(kind, str) else None
    if law is None:
        raise ValueError(f"unknown distribution type '{kind}'")
    params = {}
    for field in fields(law):
        if field.name not in data:
            raise ValueError(f"distribution '{kind}' missing field '{field.name}'")
        value = data[field.name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{field.name} must be a number")
        params[field.name] = float(value)
    return law(**params)


def dist_to_dict(dist: SojournDist) -> dict:
    for kind, law in _TAGS.items():
        if isinstance(dist, law):
            return {"type": kind, **{field.name: getattr(dist, field.name) for field in fields(law)}}
    raise TypeError(f"cannot encode {type(dist).__name__}")
