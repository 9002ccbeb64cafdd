"""Step 1 back half: nonuniform FFT by exponential-of-semicircle gridding.

Evaluates mu_hat_k = sum_j Phi_j e^{-i k h_tilde y_j} for k = 0..N_gamma over
S sources in O(S w + M log M), M = 2 N_gamma, whatever S is (the DE runs set
their own node counts): each source is spread onto a uniform grid of M nodes
through the exponential-of-semicircle (ES) kernel
phi(z) = exp(beta (sqrt(1 - (2z/w)^2) - 1)) of width w, which is exactly 0
for |z| > w/2 (Barnett, Magland and af Klinteberg, arXiv:1808.06736); one
length-M FFT transforms the grid, and division by the kernel's Fourier
transform phi_hat undoes the spreading.
With a = 2pi/M the sum is periodic in a source's lattice position
c_j = h_tilde y_j / a with period M, so the grid is one period and every
node l is folded onto l mod M (Dutt and Rokhlin, SIAM J. Sci. Comput.
14:1368, 1993): each live source keeps all w of its kernel values, however
far past M its position lies.  The grid is twice the output band, so
|a k'| <= pi/2; beta = 2.30 w is the paper's shape for that upsampling.
The width is fixed at w = 15, the narrowest that keeps every Step-1 row of
VG and NIG within 5e-14 of the largest transform value against direct
sums (at most 4.5e-14 at M = 2^7, 2^10, 2^12 and 2^14; w = 14 gives up to
3.9e-13, w = 13 up to 3.0e-12).  For mu = e^{-0.05 y}, whose DE sources
carry weight far past one period, the rows reach 1.9e-14 to 1.7e-13 over
the same M for w = 15 and w = 16 alike: that floor is rounding, not the
kernel.  Output indices are shifted by floor(N_gamma/2) before the FFT so
the deconvolution 1/phi_hat(a k') stays moderate.

phi_hat comes from the trapezoid rule at step 1/4 on the same kernel samples
the bands use.  By Poisson summation the rule's error is phi_hat's aliases
at omega + 8 pi m, m != 0; the largest, at m = +-1, is at most 1.5e-16
phi_hat(0) for |omega| <= pi/2, and at 65 frequencies of that band the rule
is within 1.8e-15 relative of a 40-digit quadrature of the kernel.

Everything except the weights depends only on the grid: gridding_plan builds
the kernel band of every source, with the deconvolution and the gather that
reads the bands of a splice in order, and _forward_stacked spreads each
run's sources that carry weight onto that run's own grid."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csc_matvec

# ES kernel width w in grid nodes, and its shape beta = 2.30 w, chosen for
# an upsampling factor of 2
WIDTH = 15
HALF_WIDTH = WIDTH / 2
BETA = 2.30 * WIDTH


def _es_kernel(u: np.ndarray) -> np.ndarray:
    """The ES kernel phi at u = 2z/w, |u| <= 1: exp(beta (sqrt(1 - u^2) - 1))."""
    return np.exp(BETA * (np.sqrt(1 - u * u) - 1))


# phi_hat(omega) = sum_q g_q cos(omega z_q) on |omega| <= pi/2: the trapezoid
# rule at step ES_STEP on the kernel's samples over [-w/2, w/2], each pair +-z
# folded onto z >= 0; test_nufft checks that step 1/4 is the first converged
ES_STEP = 0.25
_ES_NODES = np.arange(0, HALF_WIDTH + ES_STEP / 2, ES_STEP)
_ES_WEIGHTS = 2 * ES_STEP * _es_kernel(_ES_NODES / HALF_WIDTH)
_ES_WEIGHTS[[0, -1]] /= 2
_ES_NODES.flags.writeable = _ES_WEIGHTS.flags.writeable = False


def source_shift(h_tilde: float, n_gamma: int) -> float:
    """zeta_s = floor(N_gamma/2) h~.  The weights enter the gridding step
    multiplied by e^{-i zeta_s y}, so output k is read at the centred index
    k' = k - floor(N_gamma/2), which keeps 1/phi_hat(a k') moderate."""
    return (n_gamma // 2) * h_tilde


def _es_transform(step: float, count: int) -> np.ndarray:
    """phi_hat(k step) for k = 0..count-1, with (count - 1) step <= pi/2.

    phi_hat(k step) = Re sum_q g_q e^{i k step z_q} over the 31 trapezoid
    nodes z_q; writing k = s J + j, the factors e^{i s J step z_q} and
    e^{i j step z_q} take S + J rows of exponentials, and one product
    combines them for every k: 0.3-0.5 ms at M = 2^14 on a 2-CPU host, where
    the same sum as one rfft of length 4M took 1.2-1.9 ms and as a direct
    sum of cosines 1.9-3.3 ms.  The product is an einsum, not a BLAS matmul:
    a threaded BLAS call here took 16 ms on that host.
    """
    z, g = _ES_NODES, _ES_WEIGHTS
    j = math.isqrt(count - 1) + 1
    s = -(-count // j)
    fine = np.exp(1j * step * np.outer(np.arange(j), z))
    coarse = np.exp(1j * (step * j) * np.outer(np.arange(s), z)) * g
    return np.einsum("sq,jq->sj", coarse, fine).real.ravel()[:count]


@dataclass(frozen=True, eq=False)
class GriddingPlan:
    """Everything of a nonuniform FFT over the bands of a splice except the
    weights, built once per grid.

    kernel and rows (sources, w = 15) hold the folded kernel band of each
    source: kernel[i] is the ES kernel phi(l - c_i) at the 15 nodes l nearest
    the i-th source's lattice position c_i, and rows[i] = l mod M their grid
    positions.  post holds the deconvolution 1 / phi_hat(a k') for
    k = 0..n_gamma, and gather[k] = r*M + (k' mod M) the flat index of k's
    FFT bin in the grid r of the band that covers k.
    """

    kernel: np.ndarray
    rows: np.ndarray
    post: np.ndarray
    gather: np.ndarray


def gridding_plan(y: np.ndarray, h_tilde: float, n_gamma: int, bands) -> GriddingPlan:
    """Gridding plan for the points y on grids of M = 2 n_gamma nodes, one per
    band, given as the bands' k-ranges, which split k = 0..n_gamma in order.

    A source at y sits at c = h_tilde*y/a on the lattice a = 2pi/M and
    spreads onto the 15 nodes nearest c, rint(c) - 7..rint(c) + 7: every
    node inside the kernel's support |l - c| <= w/2, except one of the two
    end nodes when c is a half-integer, where the kernel is e^{-beta} ~
    1e-15.  Node l lands on grid position l mod M, since e^{-i a k' l} has
    period M in l for integer k'.  A point whose c is not finite or whose
    nodes do not fit int32 is refused.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    m = 2 * n_gamma
    if m & (m - 1):
        raise ValueError(f"M = {m} must be a power of two")
    if [0, *(k.stop for k in bands)] != [*(k.start for k in bands), n_gamma + 1]:
        raise ValueError(f"bands {list(bands)} must split k = 0..{n_gamma} in order")
    a = 2 * math.pi / m
    c = h_tilde * y / a
    bad = np.flatnonzero(~(np.abs(c) < 2**31 - WIDTH))
    if bad.size:
        raise ValueError(f"point {bad[0]}, y = {y[bad[0]]}: its lattice position "
                         f"{c[bad[0]]} is not finite or does not fit int32")
    centre = np.rint(c)
    offsets = np.arange(WIDTH, dtype=np.int32) - WIDTH // 2
    # rint(c) - c is exact, so |u| <= 1 holds in floating point too and the
    # square root never sees a negative argument
    u = ((centre - c)[:, None] + offsets) / HALF_WIDTH
    kernel = _es_kernel(u)
    rows = centre.astype(np.int32)[:, None] + offsets
    rows %= m

    kp = np.arange(0, n_gamma + 1) - n_gamma // 2
    post = 1 / _es_transform(a, np.max(np.abs(kp)) + 1)[np.abs(kp)]
    gather = np.repeat(np.arange(0, len(bands) * m, m), [len(k) for k in bands]) + kp % m
    for arr in (kernel, rows, post, gather):
        arr.flags.writeable = False
    return GriddingPlan(kernel, rows, post, gather)


def _forward_stacked(weights: np.ndarray, spans, plan: GriddingPlan) -> np.ndarray:
    """Source sums sum_j w_j e^{-i k h~ y_j}, k = 0..n_gamma, each k over the
    sources of the band that covers it.  spans holds one (start, stop) range
    of plan sources per band, whose weights, already multiplied by
    e^{-i zeta_s y_j} (source_shift), follow one another in weights; every
    other source counts as weight 0.

    Span r spreads each real part of its weights onto grid r by scipy's CSC
    matrix-vector kernel over the plan's kernel and rows of its sources,
    read as a matrix of one column of w entries per source; one batched
    length-M FFT transforms the grids and one gather reads each k.  Bin
    (k' mod M) of a folded grid is exactly the sum over its unfolded nodes
    (see gridding_plan).
    """
    parts = np.stack((weights.real, weights.imag))
    m = 2 * (len(plan.post) - 1)
    sums = np.zeros((2, len(spans), m))
    done = 0
    for grid, (start, stop) in enumerate(spans):
        count = stop - start
        indptr = np.arange(0, WIDTH * count + 1, WIDTH, dtype=np.int32)
        rows, kernel = plan.rows[start:stop].ravel(), plan.kernel[start:stop].ravel()
        for part, out in zip(parts, sums[:, grid]):
            csc_matvec(m, count, indptr, rows, kernel, part[done:done + count], out)
        done += count
    grids = np.empty((len(spans), m), dtype=complex)
    grids.real, grids.imag = sums
    return plan.post * np.fft.fft(grids, axis=-1).ravel()[plan.gather]
