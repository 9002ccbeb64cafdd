"""Step 2: sinc-Gauss sampling, the equispaced indefinite-integration formula
built from it, and the kernel-integral table G_r(k).

The interpolant T f(zeta) = sum_k f(k h~) sinc(zeta/h~ - k) exp(-(zeta/h~-k)^2/(2r^2))
integrates term by term into differences of G_r(v) = integral_0^v sinc(eta)
exp(-eta^2/(2r^2)) d eta at integer arguments, so one table of G_r(0..N') plus
an FFT convolution evaluates all N' indefinite integrals in O(N' log N').

A pass maps the real half line of an even or odd f, l = 0..2N', to the half
line of its integral, l = 0..N', so passes chain; G_r is real, so a pass is
one real FFT pair against the kernel's half spectrum, tabulated once per N'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf


@dataclass(frozen=True, eq=False)
class KernelTable:
    """G_r(k) for k = 0..N'; negative arguments go through the odd extension
    G_r(-k) = -G_r(k).  circulant_spectrum is the half spectrum (rfft, 2N'+1
    bins) of G_r(k), k = -N'+1..N', zero-extended onto the 4N' circle of
    indefinite_integral."""

    g: np.ndarray
    r: float
    circulant_spectrum: np.ndarray


def kernel_table(r: float, n_prime: int) -> KernelTable:
    """Tabulate G_r(k), k = 0..n_prime, from the kernel's Fourier transform.

    F_SG(w) = (1/2)[erf(r(w+pi)/sqrt(2)) - erf(r(w-pi)/sqrt(2))] is the
    transform of sinc*Gauss; the midpoint rule with step h' = 2pi/m_table on
    the inversion integral gives the first differences

      G_r(k+1) - G_r(k) ~ (h'/2pi) sum_{l=-M+1}^{M} c_|l| cos(l h' (k + 1/2)),
      c_l = F_SG(l h') sinc(l h'/2pi),

    with M = m_table.  Since h'(k + 1/2) = 2pi (2k+1) / 2M, this is a length-2M
    DFT of the real even sequence c, read at its odd bins: one inverse real
    FFT gives all k at once, prefix-summed from G_r(0) = 0 in extended
    precision.  m_table = max(4*n_prime, 2^10), which must be a power of two.
    The table comes with its half spectrum on the 4N' circle, which every
    Step-2 pass reads.
    """
    m_table = max(4 * n_prime, 1024)
    if n_prime < 1 or m_table & (m_table - 1):
        raise ValueError(f"n_prime = {n_prime} must be positive, and a power of two "
                         "if above 256")
    w = np.arange(m_table + 1) * (2 * np.pi / m_table)
    f_sg = 0.5 * (erf(r * (w + np.pi) / np.sqrt(2)) - erf(r * (w - np.pi) / np.sqrt(2)))
    c = f_sg * np.sinc(w / (2 * np.pi))
    # the sum is 2M irfft(c) at bin 2k+1, and h'/2pi = 1/M
    diffs = 2 * np.fft.irfft(c, 2 * m_table)[1:2 * n_prime:2]
    # G_r(k) at k = -N'+1..N' on the 4N' circle; a float64 prefix sum of N'
    # terms near 1/2 drifts by several ulps
    ker = np.zeros(4 * n_prime)
    ker[1:n_prime + 1] = np.cumsum(diffs, dtype=np.longdouble)
    ker[3 * n_prime + 1:] = -ker[n_prime - 1:0:-1]
    g = ker[:n_prime + 1].copy()
    spectrum = np.fft.rfft(ker)
    g.flags.writeable = spectrum.flags.writeable = False
    return KernelTable(g, r, spectrum)


@lru_cache(maxsize=32)
def _table_cached(n_prime: int) -> KernelTable:
    return kernel_table(math.sqrt(n_prime / math.pi), n_prime)


def indefinite_integral(half, h: float, odd: bool = False) -> np.ndarray:
    """Integrals integral_0^{l h~} f for l = 0..N' (out_0 = 0) from the real
    half line f(l h~), l = 0..2N', with N' = (len(half) - 1)/2, h = h~ and
    f(-l) = f(l), or -f(l) if odd.  With r = sqrt(N'/pi) and the convolution
    conv_l = sum_{k=-N'+1}^{N'} f((l-k)h~) G_r(k), the formula is

      out_l = h~ [conv_l - sum_{k=-N'+1}^{N'} f(k h~) G_r(-k)
                  + G_r(N') sum_{j=1}^{l-1} (f((N'+j)h~) + f((-N'+j)h~))].

    G_r is odd, so the lower-limit sum is conv_0 - G_r(N') (f(N'h~) + f(-N'h~)),
    and its last term joins the tail sum as j = 0.  conv_l reads f at
    l-N'..l+N'-1, so conv_0..conv_N' need only f at -N'..2N'-1: one
    rfft/irfft pair on a 4N' circle against the kernel's half spectrum yields
    them all, and the tail sum is one prefix sum.  The integral of an even f
    is odd and that of an odd f even, so the output feeds the next pass.
    """
    half = np.asarray(half)
    if np.iscomplexobj(half):
        raise ValueError("half must be real: integrate the real and imaginary parts apart")
    if half.ndim != 1:
        raise ValueError(f"half must be 1-d, got shape {half.shape}")
    if len(half) < 3 or len(half) % 2 == 0:
        raise ValueError(f"half must hold f at l = 0..2N', an odd length 2N'+1 >= 3; "
                         f"got length {len(half)}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h}")
    n = len(half) // 2
    table = _table_cached(n)

    # l = 0..2N'-1 at the start of the circle, l = -N'..-1 at its end
    u = np.zeros(4 * n)
    u[:2 * n] = half[:2 * n]
    u[3 * n:] = -half[n:0:-1] if odd else half[n:0:-1]
    tail = np.cumsum(u[n:2 * n] + u[3 * n:])
    spectrum = np.fft.rfft(u)
    spectrum *= table.circulant_spectrum
    conv = np.fft.irfft(spectrum, 4 * n, out=u)

    out = conv[:n + 1] - conv[0]
    out[1:] += table.g[n] * tail
    out *= h
    return out
