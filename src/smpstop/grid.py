"""Uniform time grid on [0, T] and kernel quantities discretized on it."""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record

if TYPE_CHECKING:  # pragma: no cover
    from .model import SemiMarkovKernel

__all__ = ["TimeGrid", "ValueGrid", "KernelGrid", "ConvolutionWorkspace", "discretize_kernel", "convolve_values"]

_FFT_TAKES_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def _into(transform, a: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``transform(a, n)`` of ``numpy.fft``, written into ``out``; numpy 1.x takes no ``out`` there."""
    if _FFT_TAKES_OUT:
        return transform(a, n, out=out)
    out[...] = transform(a, n)
    return out


class TimeGrid(Record):
    """Nodes s_k = k * dt for k = 0..steps, with the last node pinned to the horizon.

    Grids with the same horizon and steps are equal.
    """

    _fields = ("horizon", "steps")

    def __init__(self, horizon: float, steps: int):
        if not horizon > 0:
            raise ValueError("horizon must be positive")
        if steps < 1:
            raise ValueError("steps must be at least 1")
        self.horizon, self.steps = horizon, steps
        nodes = (horizon / steps) * np.arange(steps + 1)
        nodes[-1] = horizon
        nodes.flags.writeable = False
        self._nodes = nodes


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
        """Largest k with node_k <= s, clipped into [0, steps]; elementwise for an array s.

        On an array, s * (steps / horizon) truncated is within one of the
        answer while dt is a normal float, so one comparison with the
        stored nodes each way corrects it. NaN maps to ``steps``, as under
        ``searchsorted``: ``fmin`` turns its guess into ``steps - 1``, and it
        compares false with every node.
        """
        if np.ndim(s) == 0:
            return min(max(int(np.searchsorted(self._nodes, s, side="right")) - 1, 0), self.steps)
        s = np.asarray(s, dtype=float)
        if not self.dt >= np.finfo(float).tiny:
            return np.clip(np.searchsorted(self._nodes, s, side="right") - 1, 0, self.steps)
        k = np.fmin(np.clip(s, 0.0, self.horizon) * (self.steps / self.horizon), self.steps - 1).astype(np.intp)
        k += ~(self._nodes[k + 1] > s)
        k -= (self._nodes[k] > s) & (k > 0)
        return k


class ValueGrid:
    """Value table on grid nodes, one column per state."""

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        self.grid, self.values = grid, values

    def value(self, s: float, x: int) -> float:
        return float(self.values[self.grid.index_of(s), x])


class KernelGrid:
    """Kernel of a jump process evaluated on a time grid.

    mass[x, k]        total jump probability within node k from state x
    survival[x, k]    trapezoidal integral of (1 - mass[x, .]) over [0, s_k]
    edges[x, y]       whether the jump-chain probability is positive
    spectra[x, y]     real FFT of jump_mass[x, y, 1:], zero-padded to the
                      convolution length (see ``convolve_values``)

    ``jump_mass[x, y, k]``, the probability of a jump to y with sojourn in
    (s_{k-1}, s_k], is not kept by ``discretize_kernel``: the sweeps read
    only its spectra. These take n^2 (L/2 + 1) * 16 bytes for transform
    length L, 1.5 MiB at 8 states and K = 1536, twice the jump masses, and
    keeping both raised a ``solve`` process's peak memory by about 5%.
    The pointwise references that read ``jump_mass`` get it recomputed by
    the same code on first access, and kept from then on.
    """

    def __init__(
        self, grid: TimeGrid, kernel: "SemiMarkovKernel", mass: np.ndarray, survival: np.ndarray,
        edges: np.ndarray, spectra: np.ndarray,
    ):
        self.grid = grid
        self.kernel = kernel
        self.mass = mass
        self.survival = survival
        self.edges = edges
        self.spectra = spectra

    @cached_property
    def jump_mass(self) -> np.ndarray:
        """The n x n x (K + 1) per-step jump masses, recomputed from the kernel on first access."""
        nodes = self.grid.nodes
        jump = np.stack([_source_row(self.kernel, nodes, x)[1] for x in range(self.edges.shape[0])])
        jump.flags.writeable = False
        return jump


def _source_row(kernel: "SemiMarkovKernel", nodes: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped jump mass mass[k] and per-step jump masses jump[y, k] out of state x."""
    P = kernel.transition
    n = P.shape[0]
    mass = np.zeros(nodes.size)
    jump = np.zeros((n, nodes.size))
    for y in range(n):
        if P[x, y] > 0.0:
            F = np.asarray(kernel.sojourn[x][y].cdf(nodes), dtype=float)
            mass += P[x, y] * F
            jump[y, 1:] = P[x, y] * np.diff(F)
    return mass, jump


def discretize_kernel(kernel: "SemiMarkovKernel", grid: TimeGrid) -> KernelGrid:
    """Evaluate CDFs, per-step jump masses, their spectra, and survival integrals on the grid.

    The jump mass of (s_{k-1}, s_k] is assigned to the right endpoint s_k,
    which keeps one-step operators monotone without interpolation and places
    atoms consistently with right-continuity of the kernel. The jump masses
    are transformed one source state at a time and then dropped, so only
    their spectra stay resident.
    """
    n = kernel.transition.shape[0]
    K = grid.steps
    nodes = grid.nodes
    size = _fft_length(2 * K - 1)
    mass = np.zeros((n, K + 1))
    spectra = np.empty((n, n, size // 2 + 1), dtype=complex)
    for x in range(n):
        mass[x], jump = _source_row(kernel, nodes, x)
        _into(np.fft.rfft, jump[:, 1:], size, spectra[x])
    np.clip(mass, 0.0, 1.0, out=mass)
    hold = 1.0 - mass
    survival = np.zeros((n, K + 1))
    # cumulate the per-step trapezoid averages first, then scale by dt, so the
    # integral never exceeds the node time even in floating point
    survival[:, 1:] = grid.dt * np.cumsum(0.5 * (hold[:, :-1] + hold[:, 1:]), axis=1)
    np.minimum(survival, nodes[None, :], out=survival)
    edges = kernel.transition > 0.0
    for arr in (mass, survival, edges, spectra):
        arr.flags.writeable = False
    return KernelGrid(grid=grid, kernel=kernel, mass=mass, survival=survival, edges=edges, spectra=spectra)


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


class ConvolutionWorkspace:
    """The buffers of ``convolve_values`` on one ``KernelGrid``, for reuse call after call.

    They hold the value spectra, one source state's products, the per-source
    sums and their inverse transforms: about 0.6 MB at 6 states and
    K = 1536. Were they allocated afresh in every sweep, glibc would hand
    that memory back to the kernel when it is freed, and the next sweep
    would fault it in again, so a solve keeps one workspace for all of its
    sweeps. ``rows`` pairs each source state's edge index with its slice of
    the product buffer; a dense row is indexed by view, copying neither
    spectra nor values.
    """

    def __init__(self, kg: KernelGrid):
        n = kg.edges.shape[0]
        self.size = _fft_length(2 * kg.grid.steps - 1)
        half = self.size // 2 + 1
        self.v_hat = np.empty((n, half), dtype=complex)
        self.product = np.empty((n, half), dtype=complex)
        self.acc = np.empty((n, half), dtype=complex)
        self.conv = np.empty((n, self.size))
        self.rows: list[tuple[slice | np.ndarray, np.ndarray]] = []
        for x in range(n):
            ys = np.flatnonzero(kg.edges[x])
            self.rows.append((slice(None), self.product) if ys.size == n else (ys, self.product[: ys.size]))


def convolve_values(
    kg: KernelGrid, v: np.ndarray, out: np.ndarray | None = None, work: ConvolutionWorkspace | None = None
) -> np.ndarray:
    """Grid convolution out[k, x] = sum_y sum_{j<=k} jump_mass[x, y, j] * v[k-j, y].

    Lag 0 carries no jump mass and v[K] never reaches nodes 0..K, so the
    kernel is jump_mass[..., 1:] and the values are v[:K]. A zero-padded
    real FFT of length >= 2K - 1 then gives the linear convolution without
    wrap-around. Node 0 is an exact zero, and round-off below zero is
    clipped, since every term is nonnegative. The kernel's spectra come
    precomputed with ``kg``, so a call transforms only the n value columns
    and inverts the n sums of their products, all n in one call. The result
    goes to ``out``, a new table by default. ``work``, a workspace of
    ``kg``, lends the transform buffers; without one, the call makes its own.
    """
    K = kg.grid.steps
    if work is None:
        work = ConvolutionWorkspace(kg)
    if out is None:
        out = np.empty_like(v)
    _into(np.fft.rfft, v[:K].T, work.size, work.v_hat)
    for x, (ys, product) in enumerate(work.rows):
        np.multiply(kg.spectra[x, ys], work.v_hat[ys], out=product)
        np.add.reduce(product, axis=0, out=work.acc[x])
    _into(np.fft.irfft, work.acc, work.size, work.conv)
    out[0] = 0.0
    np.maximum(work.conv[:, :K].T, 0.0, out=out[1:])
    return out
