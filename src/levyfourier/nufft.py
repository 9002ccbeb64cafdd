"""Step 1 back half: nonuniform FFT by Gaussian gridding.

Evaluates mu_hat_k = sum_j Phi_j e^{-i k h_tilde y_j} for k = 0..N_gamma in
O(M log M): each source is smeared onto a uniform grid through a truncated
Gaussian, one length-M FFT transforms the grid, and division by the Gaussian's
transform undoes the smearing.  Output indices are shifted by floor(N_gamma/2)
before the FFT so the deconvolution factor exp(tau (a k')^2) stays moderate.

Everything except the weights depends only on the grid: gridding_plan builds
the Gaussian pattern as one sparse matrix over all runs, with the
deconvolution and phase factors, and _forward_stacked applies it to one set
of weights."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .numkit import ComplexSeries


@dataclass(frozen=True)
class NufftParams:
    """Gridding constants: target accuracy epsilon, window half-width b,
    Gaussian variance tau = -ln(eps)/pi^2, grid scale a = 2pi/M, node spacing
    h_check, and the outer node range l = -l_minus..l_plus (exactly M nodes)."""

    epsilon: float
    b: float
    tau: float
    a: float
    h_check: float
    l_minus: int
    l_plus: int

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        if self.b < -(2 / math.pi) * math.log(self.epsilon):
            raise ValueError(
                f"b = {self.b} below the admissible minimum "
                f"{-(2 / math.pi) * math.log(self.epsilon):.4f} for epsilon = {self.epsilon}"
            )
        if not math.isclose(self.tau, -math.log(self.epsilon) / math.pi**2, rel_tol=1e-12):
            raise ValueError("tau must equal -ln(epsilon)/pi^2")


def nufft_params(m: int, points: np.ndarray, h_tilde: float,
                 epsilon: float = 1e-10, b: float = 20.0) -> NufftParams:
    """Resolve the gridding constants for M sources at the given points.

    l_minus = b - floor(min_j c_j / h_check) with c_j = h_tilde*y_j/a, and
    l_plus = -l_minus + M - 1, so the outer grid has exactly M nodes.
    """
    tau = -math.log(epsilon) / math.pi**2
    a = 2 * math.pi / m
    h_check = 1.0
    c_min = h_tilde * float(np.min(points)) / a
    l_minus = int(b) - math.floor(c_min / h_check)
    return NufftParams(epsilon, b, tau, a, h_check, l_minus, -l_minus + m - 1)


def build_windows(points: np.ndarray, params: NufftParams, h_tilde: float):
    """Per-node source windows (j_min, j_max): j in [j_min[p], j_max[p]]
    feeds node l = -l_minus + p.

    j_min(l) = max{j : ceil((c_j + b)/h_check) <= l} and
    j_max(l) = max{j : floor((c_j - b)/h_check) <= l}, where c_j = h_tilde*y_j/a.
    Both threshold sequences are nondecreasing because the points are, so each
    bound is one sorted-array rank query, evaluated for every l at once.  When
    no source qualifies, j_min falls back to the lowest index and j_max to one
    below it, so empty windows have j_max = j_min - 1.  Tied points are
    allowed: large DE grids put several nodes at y = 0.
    """
    points = np.asarray(points, dtype=float)
    if np.any(np.diff(points) < 0):
        raise ValueError("points must be nondecreasing")
    c = h_tilde * points / params.a
    t_min = np.ceil((c + params.b) / params.h_check)
    t_max = np.floor((c - params.b) / params.h_check)
    j_lo = -(len(points) // 2)

    l_vals = np.arange(-params.l_minus, params.l_plus + 1)
    hits_min = np.searchsorted(t_min, l_vals, side="right")
    hits_max = np.searchsorted(t_max, l_vals, side="right")
    j_min = j_lo + np.maximum(hits_min - 1, 0)
    j_max = j_lo + hits_max - 1
    return j_min, j_max


def source_shift(h_tilde: float, n_gamma: int) -> float:
    """zeta_s = floor(N_gamma/2) h~.  The weights enter the gridding step
    multiplied by e^{-i zeta_s y}, so output k is read at the centred index
    k' = k - floor(N_gamma/2), which keeps exp(tau (a k')^2) moderate."""
    return (n_gamma // 2) * h_tilde


@dataclass(frozen=True, eq=False)
class GriddingPlan:
    """Everything of a nonuniform FFT over one or more runs except the
    weights, built once per grid.

    matrix is the block-diagonal gridding pattern: row r*M + p is node
    l = l_lo(r) + p of run r, with l_lo(r) = -l_minus of that run; column i
    is the i-th live source (see gridding_plan), and the entry is the
    Gaussian factor exp(-(l h_check - c_j)^2 / (4 tau)) for each pair of
    build_windows.
    post (runs, n_gamma + 1) holds the deconvolution sqrt(pi/tau)
    exp(tau (a k')^2), the node-offset phase exp(-2 pi i k' l_lo / M) and
    h_check / 2pi; gather = k' mod M reads the FFT bins.
    """

    matrix: sparse.csr_array
    post: np.ndarray
    gather: np.ndarray


def gridding_plan(points: np.ndarray, params_rows, h_tilde: float, n_gamma: int,
                  live: np.ndarray) -> GriddingPlan:
    """Gridding plan for runs of M sources each at the rows of points.

    params_rows holds one NufftParams per run; they must share
    (tau, a, h_check, b).  live lists, in increasing order, the flat indices
    into points of the sources that can carry weight; the plan's columns are
    those sources, and the pairs of every other source are dropped.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    runs, m = points.shape
    if m != 2 * n_gamma:
        raise ValueError(f"M = {m} must equal 2*n_gamma = {2 * n_gamma}")
    if m & (m - 1):
        raise ValueError(f"M = {m} must be a power of two")
    par = params_rows[0]
    if len({(p.tau, p.a, p.h_check, p.b) for p in params_rows}) != 1:
        raise ValueError("stacked runs must share tau, a, h_check and b")
    live = np.asarray(live)
    # window l of run r is the flat source range [lo, hi); its live sources
    # are the plan columns start..stop-1 since live is sorted
    lo, hi, nodes = [], [], []
    for r, (row, p) in enumerate(zip(points, params_rows)):
        j_min, j_max = build_windows(row, p, h_tilde)
        lo.append(j_min + r * m + m // 2)
        hi.append(j_max + 1 + r * m + m // 2)
        nodes.append(np.arange(-p.l_minus, -p.l_minus + m) * par.h_check)
    start = np.searchsorted(live, np.concatenate(lo))
    counts = np.maximum(np.searchsorted(live, np.concatenate(hi)) - start, 0)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    cols = (np.arange(indptr[-1], dtype=np.int32)
            - np.repeat((indptr[:-1] - start).astype(np.int32), counts))
    c = h_tilde * points.ravel()[live] / par.a
    gauss = np.exp(-((np.repeat(np.concatenate(nodes), counts) - c[cols]) ** 2)
                   / (4 * par.tau))
    matrix = sparse.csr_array((gauss, cols, indptr), shape=(runs * m, len(live)))

    kp = np.arange(0, n_gamma + 1) - n_gamma // 2
    deconv = math.sqrt(math.pi / par.tau) * np.exp(par.tau * (par.a * kp) ** 2)
    l_lo = np.array([[-p.l_minus] for p in params_rows])
    post = deconv * (par.h_check / (2 * np.pi)) * np.exp(-2j * np.pi * kp * l_lo / m)
    gather = kp % m
    for arr in (matrix.data, matrix.indices, matrix.indptr, post, gather):
        arr.flags.writeable = False
    return GriddingPlan(matrix, post, gather)


def _forward_stacked(weights: np.ndarray, plan: GriddingPlan) -> np.ndarray:
    """Source sums sum_j w_j e^{-i k h~ y_j}, k = 0..n_gamma, of every run of
    the plan; weights are one per plan column, already multiplied by
    e^{-i zeta_s y_j} (source_shift).  Returns shape (runs, n_gamma + 1).

    One real sparse product per part of the weights grids all runs and one
    batched length-M FFT transforms the grids.  Position p of a grid carries
    node l = l_lo + p, and e^{-i(2pi/M)k'l} = e^{-i(2pi/M)k'l_lo}
    e^{-i(2pi/M)k'p} since k' is an integer, so reading bin (k' mod M) and
    applying the l_lo phase reproduces the sum over the original node range
    exactly.
    """
    grids = np.empty(plan.matrix.shape[0], dtype=complex)
    grids.real = plan.matrix @ weights.real
    grids.imag = plan.matrix @ weights.imag
    spectrum = np.fft.fft(grids.reshape(len(plan.post), -1), axis=-1)
    return plan.post * spectrum[:, plan.gather]


def extend_conjugate(series: ComplexSeries) -> ComplexSeries:
    """Mirror a k >= 0 series to k = -N_gamma+1..N_gamma via out_{-k} = conj(out_k).

    The k = 0 entry is passed through unchanged.
    """
    if series.offset != 0:
        raise ValueError(f"input must start at k = 0, got offset {series.offset}")
    v = series.values
    full = np.concatenate((np.conj(v[-2:0:-1]), v))
    return ComplexSeries(len(v) - len(full), full, series.spacing)
