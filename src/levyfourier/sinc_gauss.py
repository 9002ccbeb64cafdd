"""Step 2: sinc-Gauss sampling, the equispaced indefinite-integration formula
built from it, and the kernel-integral table G_r(k).

The interpolant T f(zeta) = sum_k f(k h~) sinc(zeta/h~ - k) exp(-(zeta/h~-k)^2/(2r^2))
integrates term by term into differences of G_r(v) = integral_0^v sinc(eta)
exp(-eta^2/(2r^2)) d eta at integer arguments, so one table of G_r(0..N') plus
an FFT convolution evaluates all N' indefinite integrals in O(N' log N').

G_r is real and the formula is linear in f, so a pass runs on real samples as
one real FFT pair against the kernel's half spectrum; a complex f is
integrated as its real and imaginary parts."""
from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def n_prime(self) -> int:
        return len(self.g) - 1


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


def indefinite_integral(f, h: float, table: KernelTable) -> np.ndarray:
    """Integrals integral_0^{l h~} f for l = 1..N' from 3N' equispaced samples
    at spacing h = h~, with N' = table.n_prime.

    f must hold f(l h~) exactly for l = -N'..2N'-1.  With the discrete
    convolution conv_l = sum_{k=-N'+1}^{N'} f((l-k)h~) G_r(k), the formula is

      out_l = h~ [conv_l - sum_{k=-N'+1}^{N'} f(k h~) G_r(-k)
                  + G_r(N') sum_{j=1}^{l-1} (f((N'+j)h~) + f((-N'+j)h~))].

    G_r is odd, so the lower-limit sum is conv_0 - G_r(N') (f(N'h~) + f(-N'h~)),
    and its last term joins the tail sum as j = 0.  conv_l reads f at
    l-N'..l+N'-1, so conv_0..conv_N' need only the samples given: one
    rfft/irfft pair on a 4N' circle against the kernel's half spectrum (kept
    with the table) yields them all, and the tail sum is one prefix sum.  A
    complex f is integrated as its real and imaginary parts.
    """
    n = table.n_prime
    f = np.asarray(f)
    if f.shape != (3 * n,):
        raise ValueError(f"need exactly 3N' = {3 * n} samples at l = {-n}..{2 * n - 1}; "
                         f"got shape {f.shape}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h}")
    if np.iscomplexobj(f):
        return (indefinite_integral(f.real, h, table)
                + 1j * indefinite_integral(f.imag, h, table))
    big = 4 * n

    # l = 0..2N'-1 at the start of the circle, l = -N'..-1 at its end
    u = np.zeros(big)
    u[:2 * n] = f[n:]
    u[3 * n:] = f[:n]
    spectrum = np.fft.rfft(u)
    spectrum *= table.circulant_spectrum
    conv = np.fft.irfft(spectrum, big, out=u)

    out = conv[1:n + 1] - conv[0]
    out += table.g[n] * np.cumsum(f[2 * n:] + f[:n])
    out *= h
    return out
