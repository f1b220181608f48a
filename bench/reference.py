"""Reference computation of the discretized stopping problem, apart from ``smpstop``.

It follows the scheme of the README's "Numerical notes" from the model
JSON alone: CDFs come from ``scipy.stats``, the jump mass of each step
(s_{k-1}, s_k] sits at its right endpoint, survival integrals are
trapezoid sums capped at the node time, and a sweep convolves through
FFTs instead of the program's direct ``np.convolve``. Because no jump mass
sits at lag 0, node k of the fixed point depends only on nodes below k,
so ``fixed_point`` marches forward once and needs no iteration at all.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def _cdf(law: dict, t: np.ndarray) -> np.ndarray:
    kind = law["type"]
    if kind == "exp":
        return stats.expon(scale=1.0 / law["rate"]).cdf(t)
    if kind == "weibull":
        return stats.weibull_min(c=law["shape"], scale=law["scale"]).cdf(t)
    if kind == "uniform":
        return stats.uniform(loc=law["a"], scale=law["b"] - law["a"]).cdf(t)
    if kind == "point":
        return (t >= law["d"]).astype(float)
    raise ValueError(f"unknown sojourn law {kind!r}")


class Reference:
    """The stopping recursion of one model JSON on a K-step grid."""

    def __init__(self, data: dict, steps: int):
        self.horizon = float(data["T"])
        self.steps = steps
        self.P = np.array(data["transition"], dtype=float)
        self.c = np.array(data["cost_rate"], dtype=float)
        self.g = np.array(data["terminal_cost"], dtype=float)
        self.laws = data["sojourn"]
        n = len(self.c)
        nodes = (self.horizon / steps) * np.arange(steps + 1)
        nodes[-1] = self.horizon
        self.nodes = nodes
        jump = np.zeros((n, n, steps + 1))
        mass = np.zeros((n, steps + 1))
        for x in range(n):
            for y in range(n):
                if self.P[x, y] > 0:
                    F = _cdf(self.laws[x][y], nodes)
                    mass[x] += self.P[x, y] * F
                    jump[x, y, 1:] = self.P[x, y] * np.diff(F)
        hold = 1.0 - np.clip(mass, 0.0, 1.0)
        survival = np.zeros((n, steps + 1))
        survival[:, 1:] = (self.horizon / steps) * np.cumsum(0.5 * (hold[:, :-1] + hold[:, 1:]), axis=1)
        self.survival = np.minimum(survival, nodes[None, :])
        self.jump = jump
        self._fft_len = 1 << (2 * steps + 1).bit_length()
        self._jump_f = np.fft.rfft(jump, self._fft_len, axis=-1)

    def threshold(self, eta: float) -> np.ndarray:
        """Stop-payoff level g - eta (1 + g) above which a node is in a region."""
        return self.g - eta * (1.0 + self.g)

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """One application of min(c * survival + jump-mass convolution, g) on (K+1, n) values."""
        vf = np.fft.rfft(values.T, self._fft_len, axis=-1)
        conv = np.fft.irfft(np.einsum("xyf,yf->xf", self._jump_f, vf), self._fft_len, axis=-1)
        cont = self.c[:, None] * self.survival + conv[:, : self.steps + 1]
        return np.minimum(cont, self.g[:, None]).T

    def iterate(self, sweeps: int) -> np.ndarray:
        """``sweeps`` sweeps from zero."""
        values = np.zeros((self.steps + 1, len(self.c)))
        for _ in range(sweeps):
            values = self.sweep(values)
        return values

    def fixed_point(self) -> np.ndarray:
        """The discretized value function, by one forward march over the nodes."""
        n = len(self.c)
        values = np.zeros((self.steps + 1, n))
        for k in range(1, self.steps + 1):
            conv = np.einsum("xyj,jy->x", self.jump[:, :, k:0:-1], values[:k])
            values[k] = np.minimum(self.c * self.survival[:, k] + conv, self.g)
        return values

    def beta(self) -> float:
        """Contraction factor sup_x Q(T, E|x)."""
        n = len(self.c)
        rows = [
            sum(self.P[x, y] * float(_cdf(self.laws[x][y], np.array(self.horizon))) for y in range(n) if self.P[x, y] > 0)
            for x in range(n)
        ]
        return min(max(max(rows), 0.0), 1.0)

    def bound(self) -> float:
        """M = T max c + max g, a bound on every iterate."""
        return self.horizon * float(self.c.max()) + float(self.g.max())

    def budgets(self, eps: float) -> set[int]:
        """The paper's sweep count N; both neighbours when the raw count is an integer to 1e-9."""
        beta, m = self.beta(), self.bound()
        if beta == 0.0:
            return {1}
        raw = (math.log(eps * (1.0 - beta)) - math.log(m + 1.0)) / math.log(beta)
        counts = {math.ceil(raw)}
        if abs(raw - round(raw)) < 1e-9:
            counts |= {round(raw), round(raw) + 1}
        return {max(1, c) for c in counts}
