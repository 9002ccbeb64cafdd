"""Step 2: sinc-Gauss sampling, the equispaced indefinite-integration formula
built from it, and the kernel-integral table G_r(k).

The interpolant T f(zeta) = sum_k f(k h~) sinc(zeta/h~ - k) exp(-(zeta/h~-k)^2/(2r^2))
integrates term by term into differences of G_r(v) = integral_0^v sinc(eta)
exp(-eta^2/(2r^2)) d eta at integer arguments.  Summed by parts, the formula
reads only the cell integrals d_m = G_r(m+1) - G_r(m): one real FFT pair
against their half spectrum, tabulated once per N', and one cumsum give the
half line l = 0..N' of the integral of an even or odd f from its half line
l = 0..2N', so passes chain.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erf


def _cell_integrals(r: float, n_prime: int) -> np.ndarray:
    """Cell integrals d_m = G_r(m+1) - G_r(m), m = 0..n_prime-1, from the
    transform F_SG(w) = [erf(r(w+pi)/sqrt 2) - erf(r(w-pi)/sqrt 2)]/2 of
    sinc*Gauss.  The midpoint rule with step h' = 2pi/M, M = m_table, on the
    inversion integral gives

      d_m ~ (h'/2pi) sum_{l=-M+1}^{M} c_|l| cos(l h' (m + 1/2)),
      c_l = F_SG(l h') sinc(l h'/2pi).

    Since h'(m + 1/2) = 2pi (2m+1) / 2M, this is a length-2M DFT of the real
    even sequence c, read at its odd bins: one inverse real FFT gives all m
    at once.  m_table = max(4*n_prime, 2^10), which must be a power of two.
    """
    m_table = max(4 * n_prime, 1024)
    if n_prime < 1 or m_table & (m_table - 1):
        raise ValueError(f"n_prime = {n_prime} must be positive, and a power of two "
                         "if above 256")
    w = np.arange(m_table + 1) * (2 * np.pi / m_table)
    f_sg = 0.5 * (erf(r * (w + np.pi) / np.sqrt(2)) - erf(r * (w - np.pi) / np.sqrt(2)))
    c = f_sg * np.sinc(w / (2 * np.pi))
    # the sum is 2M irfft(c) at bin 2m+1, and h'/2pi = 1/M
    return 2 * np.fft.irfft(c, 2 * m_table)[1:2 * n_prime:2]


def kernel_table(r: float, n_prime: int) -> np.ndarray:
    """G_r(k), k = 0..n_prime, read-only: the prefix sum of the cell
    integrals, with G_r(-k) = -G_r(k)."""
    g = np.concatenate(([0.0], np.cumsum(_cell_integrals(r, n_prime))))
    g.flags.writeable = False
    return g


@lru_cache(maxsize=32)
def _table_cached(n_prime: int) -> np.ndarray:
    """The rfft (2N'+1 bins) of D(k) = d_{k-1}, k = -N'+1..N', zero-extended
    onto the 4N' circle of indefinite_integral, r = sqrt(N'/pi): what every
    Step-2 pass on N' reads.  G_r is odd, so d_{-m-1} = d_m."""
    d = _cell_integrals(math.sqrt(n_prime / math.pi), n_prime)
    ker = np.zeros(4 * n_prime)
    ker[0] = d[0]
    ker[1:n_prime + 1] = d
    ker[3 * n_prime + 1:] = d[n_prime - 1:0:-1]
    spectrum = np.fft.rfft(ker)
    spectrum.flags.writeable = False
    return spectrum


def indefinite_integral(half, h: float, odd: bool = False) -> np.ndarray:
    """Integrals integral_0^{l h~} f for l = 0..N' (out_0 = 0) from the real
    half line f(l h~), l = 0..2N', with N' = (len(half) - 1)/2, h = h~ and
    f(-l) = f(l), or -f(l) if odd.  With r = sqrt(N'/pi), the formula
    out_l = h~ sum_k f(k h~) [G_r(l-k) - G_r(-k)], G_r held at +-G_r(N') past
    +-N', summed by parts in l is

      out_l = h~ sum_{l'=1}^{l} delta_l',
      delta_l = sum_{k=-N'+1}^{N'} f((l-k)h~) d_{k-1},

    as d vanishes where G_r is held.  delta_1..delta_N' read f at -N'..2N'-1
    only: one rfft/irfft pair on a 4N' circle yields them all.  Each term is
    one step out_l - out_{l-1}, so rounding follows the steps, not the whole
    half line.  The integral of an even f is odd and that of an odd f even,
    so the output feeds the next pass.
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

    # l = 0..2N'-1 at the start of the circle, l = -N'..-1 at its end
    u = np.zeros(4 * n)
    u[:2 * n] = half[:2 * n]
    u[3 * n:] = -half[n:0:-1] if odd else half[n:0:-1]
    spectrum = np.fft.rfft(u)
    spectrum *= _table_cached(n)
    delta = np.fft.irfft(spectrum, 4 * n, out=u)[:n + 1]
    delta[0] = 0.0
    out = np.cumsum(delta)
    out *= h
    return out
