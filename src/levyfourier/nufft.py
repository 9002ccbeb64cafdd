"""Step 1 back half: nonuniform FFT by exponential-of-semicircle gridding.

Evaluates mu_hat_k = sum_j Phi_j e^{-i k h_tilde y_j} for k = 0..N_gamma in
O(M log M): each source is spread onto a uniform grid of M nodes through the
exponential-of-semicircle (ES) kernel phi(z) = exp(beta (sqrt(1 - (2z/w)^2) - 1))
of width w, which is exactly 0 for |z| > w/2 (Barnett, Magland and
af Klinteberg, arXiv:1808.06736); one length-M FFT transforms the grid, and
division by the kernel's Fourier transform phi_hat undoes the spreading.
The grid is twice the output band, so |a k'| <= pi/2; beta = 2.30 w is the
paper's shape for that upsampling.  The width is fixed at w = 15, the
narrowest that keeps every Step-1 row within 5e-14 of the largest
transform value against direct sums (at most 1.8e-14 on the VG and NIG grids
of M = 2^12 and 2^14; w = 14 gives up to 5.6e-14, w = 13 up to 4.5e-13).
Output indices are shifted by floor(N_gamma/2) before the FFT so the
deconvolution 1/phi_hat(a k') stays moderate.

Everything except the weights depends only on the grid: gridding_plan builds
the kernel pattern as one sparse matrix over all runs, with the
deconvolution and phase factors, and _forward_stacked applies it to one set
of weights."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

# ES kernel width w in grid nodes, and its shape beta = 2.30 w, chosen for
# an upsampling factor of 2
WIDTH = 15
HALF_WIDTH = WIDTH / 2
BETA = 2.30 * WIDTH
# Gauss-Legendre order of the phi_hat rule; test_nufft checks that halving
# it first moves phi_hat by more than 1e-14 phi_hat(0) and doubling it less
ES_QUADRATURE_NODES = 128


def build_windows(c: np.ndarray, nodes: np.ndarray):
    """Per-node source windows (j_min, j_max): j in [j_min[p], j_max[p]]
    feeds node l = nodes[p].

    c holds the nondecreasing lattice positions c_j = h_tilde*y_j/a of the
    sources j = -len(c)//2.. .  The window of node l holds exactly the
    sources inside the kernel's support, l - w/2 <= c_j <= l + w/2, so each
    bound is one rank query into c, evaluated for every l at once; empty
    windows have j_max = j_min - 1.  Tied points are allowed: large DE grids
    put several nodes at y = 0.
    """
    c = np.asarray(c, dtype=float)
    if np.any(np.diff(c) < 0):
        raise ValueError("source positions must be nondecreasing")
    j_lo = -(len(c) // 2)
    j_min = j_lo + np.searchsorted(c, nodes - HALF_WIDTH, side="left")
    j_max = j_lo + np.searchsorted(c, nodes + HALF_WIDTH, side="right") - 1
    return j_min, j_max


def source_shift(h_tilde: float, n_gamma: int) -> float:
    """zeta_s = floor(N_gamma/2) h~.  The weights enter the gridding step
    multiplied by e^{-i zeta_s y}, so output k is read at the centred index
    k' = k - floor(N_gamma/2), which keeps 1/phi_hat(a k') moderate."""
    return (n_gamma // 2) * h_tilde


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


@lru_cache(maxsize=1)
def _legendre_half(n: int):
    """Positive Gauss-Legendre nodes x of even order n and their weights.

    Newton's method from the cosine guesses; five steps take every node to
    within 1e-16 for n <= 256.  Not leggauss: its eigensolver is a threaded
    LAPACK call, after which the idle BLAS threads slowed each following
    small solve by about 4 ms on a 2-CPU host.
    """
    x = np.cos(math.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
    for _ in range(5):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    return x, 2 / ((1 - x * x) * dp * dp)


def _es_quadrature(n: int = ES_QUADRATURE_NODES):
    """Nodes z_q and weights g_q with phi_hat(omega) = sum_q g_q cos(omega z_q)
    on |omega| <= pi/2, the band of every plan, where phi_hat is the Fourier
    transform of the ES kernel.

    z = (w/2) sin(theta) turns the square-root end points of phi into an
    analytic integrand, integrated by n-point Gauss-Legendre quadrature over
    theta in [-pi/2, pi/2]; the nodes pair up as +-theta, so the theta > 0
    half carries the cosine transform.
    """
    x, wts = _legendre_half(n)
    theta = (math.pi / 2) * x
    z = HALF_WIDTH * np.sin(theta)
    g = (math.pi * WIDTH / 2) * wts * np.cos(theta) * np.exp(BETA * (np.cos(theta) - 1))
    return z, g


def _es_transform(step: float, count: int) -> np.ndarray:
    """phi_hat(k step) for k = 0..count-1, with (count - 1) step <= pi/2.

    phi_hat(k step) = Re sum_q g_q e^{i k step z_q}; writing k = s J + j, the
    factors e^{i s J step z_q} and e^{i j step z_q} take S + J rows of
    exponentials, and one product combines them for every k: 1.0 ms at
    M = 2^14 against 5-7 ms for the direct sum of cosines over every k.  The
    product is an einsum, not a BLAS matmul: a threaded BLAS call here took
    16 ms on a 2-CPU host.
    """
    z, g = _es_quadrature()
    j = math.isqrt(count - 1) + 1
    s = -(-count // j)
    fine = np.exp(1j * step * np.outer(np.arange(j), z))
    coarse = np.exp(1j * (step * j) * np.outer(np.arange(s), z)) * g
    return np.einsum("sq,jq->sj", coarse, fine).real.ravel()[:count]


@dataclass(frozen=True, eq=False)
class GriddingPlan:
    """Everything of a nonuniform FFT over one or more runs except the
    weights, built once per grid.

    matrix is the block-diagonal gridding pattern: row r*M + p is node
    l = l_lo(r) + p of run r (see gridding_plan); column i is the i-th live
    source, and the entry is the ES
    kernel phi(l - c_j) for each pair of build_windows, which are the pairs
    inside the kernel's support |l - c_j| <= w/2 (the kernel is exactly 0
    outside it).
    post (runs, n_gamma + 1) holds the deconvolution 1 / phi_hat(a k')
    and the node-offset phase exp(-2 pi i k' l_lo / M); gather = k' mod M
    reads the FFT bins.
    """

    matrix: sparse.csr_array
    post: np.ndarray
    gather: np.ndarray


def gridding_plan(points: np.ndarray, h_tilde: float, n_gamma: int,
                  live: np.ndarray) -> GriddingPlan:
    """Gridding plan for runs of M sources each at the rows of points.

    live lists, in increasing order, the flat indices into points of the
    sources that can carry weight; the plan's columns are those sources, and
    the pairs of every other source are dropped.  Run r grids onto the M
    nodes l = l_lo(r)..l_lo(r) + M - 1 of the lattice a = 2pi/M, with
    l_lo(r) = floor(min_j c_j) - ceil(w/2) for its positions c_j = h_tilde*y_j/a,
    so the kernel of its leftmost source lies on the grid.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    runs, m = points.shape
    if m != 2 * n_gamma:
        raise ValueError(f"M = {m} must equal 2*n_gamma = {2 * n_gamma}")
    if m & (m - 1):
        raise ValueError(f"M = {m} must be a power of two")
    a = 2 * math.pi / m
    c = h_tilde * points / a
    l_lo = np.floor(c.min(axis=1, keepdims=True)).astype(np.int64) - math.ceil(HALF_WIDTH)
    nodes = l_lo + np.arange(m)
    live = np.asarray(live)
    # window l of run r is the flat source range [lo, hi); its live sources
    # are the plan columns start..stop-1 since live is sorted
    lo, hi = [], []
    for r in range(runs):
        j_min, j_max = build_windows(c[r], nodes[r])
        lo.append(j_min + r * m + m // 2)
        hi.append(j_max + 1 + r * m + m // 2)
    start = np.searchsorted(live, np.concatenate(lo))
    counts = np.maximum(np.searchsorted(live, np.concatenate(hi)) - start, 0)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    cols = (np.arange(indptr[-1], dtype=np.int32)
            - np.repeat((indptr[:-1] - start).astype(np.int32), counts))
    c_live = c.ravel()[live]
    # (2z/w)^2 <= 1 for every window pair: the window bounds l -+ w/2 are
    # exact (integer l) and rounding is monotone
    u2 = ((np.repeat(nodes.ravel(), counts) - c_live[cols]) / HALF_WIDTH) ** 2
    kernel = np.exp(BETA * (np.sqrt(1 - u2) - 1))
    matrix = sparse.csr_array((kernel, cols, indptr.astype(np.int32)),
                              shape=(runs * m, len(live)))

    kp = np.arange(0, n_gamma + 1) - n_gamma // 2
    phi_hat = _es_transform(a, np.max(np.abs(kp)) + 1)
    post = (1 / phi_hat[np.abs(kp)]) * np.exp(-2j * np.pi * kp * l_lo / m)
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

