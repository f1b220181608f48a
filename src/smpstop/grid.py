"""Uniform time grid on [0, T] and kernel quantities discretized on it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import SemiMarkovKernel

__all__ = ["TimeGrid", "ValueGrid", "KernelGrid", "discretize_kernel", "convolve_values"]


@dataclass(frozen=True)
class TimeGrid:
    """Nodes s_k = k * dt for k = 0..steps, with the last node pinned to the horizon."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        nodes = (self.horizon / self.steps) * np.arange(self.steps + 1)
        nodes[-1] = self.horizon
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def index_of(self, s: float) -> int:
        """Index of the node equal to s; off-grid times are rejected."""
        k = int(round(s / self.dt))
        if 0 <= k <= self.steps and abs(self._nodes[k] - s) <= 1e-12 * max(1.0, self.horizon):
            return k
        raise ValueError(f"time {s!r} is not a node of the grid")

    def floor_index(self, s: float | np.ndarray) -> int | np.ndarray:
        """Largest k with node_k <= s, clipped into [0, steps]; elementwise for an array s."""
        k = np.searchsorted(self._nodes, s, side="right") - 1
        if isinstance(k, np.ndarray):
            return np.clip(k, 0, self.steps)
        return min(max(int(k), 0), self.steps)


@dataclass
class ValueGrid:
    """Value table on grid nodes, one column per state."""

    grid: TimeGrid
    values: np.ndarray

    def value(self, s: float, x: int) -> float:
        return float(self.values[self.grid.index_of(s), x])


@dataclass(frozen=True)
class KernelGrid:
    """Kernel of a jump process evaluated on a time grid.

    mass[x, k]        total jump probability within node k from state x
    jump_mass[x,y,k]  probability of a jump to y with sojourn in (s_{k-1}, s_k]
    survival[x, k]    trapezoidal integral of (1 - mass[x, .]) over [0, s_k]
    edges[x, y]       whether the jump-chain probability is positive
    """

    grid: TimeGrid
    mass: np.ndarray
    jump_mass: np.ndarray
    survival: np.ndarray
    edges: np.ndarray


def discretize_kernel(kernel: "SemiMarkovKernel", grid: TimeGrid) -> KernelGrid:
    """Evaluate CDFs, per-step jump masses, and survival integrals on the grid.

    The jump mass of (s_{k-1}, s_k] is assigned to the right endpoint s_k,
    which keeps one-step operators monotone without interpolation and places
    atoms consistently with right-continuity of the kernel.
    """
    P = kernel.transition
    n = P.shape[0]
    K = grid.steps
    nodes = grid.nodes
    mass = np.zeros((n, K + 1))
    jump = np.zeros((n, n, K + 1))
    edges = P > 0.0
    for x in range(n):
        for y in range(n):
            if edges[x, y]:
                F = np.asarray(kernel.sojourn[x][y].cdf(nodes), dtype=float)
                mass[x] += P[x, y] * F
                jump[x, y, 1:] = P[x, y] * np.diff(F)
    np.clip(mass, 0.0, 1.0, out=mass)
    hold = 1.0 - mass
    survival = np.zeros((n, K + 1))
    # cumulate the per-step trapezoid averages first, then scale by dt, so the
    # integral never exceeds the node time even in floating point
    survival[:, 1:] = grid.dt * np.cumsum(0.5 * (hold[:, :-1] + hold[:, 1:]), axis=1)
    np.minimum(survival, nodes[None, :], out=survival)
    for arr in (mass, jump, survival, edges):
        arr.flags.writeable = False
    return KernelGrid(grid=grid, mass=mass, jump_mass=jump, survival=survival, edges=edges)


def _fft_length(m: int) -> int:
    """Smallest 2^a * 3^b >= m, a transform length that pocketfft handles fast."""
    best = 1 << (m - 1).bit_length()
    p3 = 3
    while p3 < best:
        p = p3
        while p < m:
            p *= 2
        best = min(best, p)
        p3 *= 3
    return best


def convolve_values(kg: KernelGrid, v: np.ndarray) -> np.ndarray:
    """Grid convolution out[k, x] = sum_y sum_{j<=k} jump_mass[x, y, j] * v[k-j, y].

    Lag 0 carries no jump mass and v[K] never reaches nodes 0..K, so the
    kernel is jump_mass[..., 1:] and the values are v[:K]. A zero-padded
    real FFT of length >= 2K - 1 then gives the linear convolution without
    wrap-around. Node 0 is an exact zero, and round-off below zero is
    clipped, since every term is nonnegative. The kernel rows are
    transformed again on every call, one state x at a time: caching all
    n^2 spectra would cost more peak memory than the transforms cost time.
    """
    K = kg.grid.steps
    n = kg.mass.shape[0]
    size = _fft_length(2 * K - 1)
    v_hat = np.fft.rfft(v[:K].T, size)
    out = np.zeros_like(v)
    for x in range(n):
        ys = np.flatnonzero(kg.edges[x])
        if ys.size == n:
            ys = slice(None)  # a dense row indexes by view, copying neither kernel nor spectra
        k_hat = np.fft.rfft(kg.jump_mass[x, ys, 1:], size)
        k_hat *= v_hat[ys]
        np.maximum(np.fft.irfft(k_hat.sum(axis=0), size)[:K], 0.0, out=out[1:, x])
    return out
