"""Foundation layer: the real-even fractional FFT of Step 3."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# 2pi to long-double precision for angle reduction
_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768")


def _quad_phase(delta: float, k: np.ndarray) -> np.ndarray:
    """e^{i delta k^2 / 2} with the angle reduced mod 2pi in extended precision.

    Forming delta*k^2/2 in float64 first loses ~eps*|angle| radians; at the
    chirp sizes used here that reaches 1e-11 and caps the transform accuracy.
    """
    theta = np.longdouble(delta) * k.astype(np.longdouble) ** 2 / 2
    return np.exp(1j * np.mod(theta, _TWO_PI_LD).astype(np.float64))


def frft_even(c, delta: float) -> np.ndarray:
    """Real-even fractional FFT: Re S_n for n = 0..N, where
    S_n = sum_{l=-N+1}^{N} c_{|l|} e^{i delta l n}, from real c_l, l = 0..N
    (N a power of two); returns float64.

    Pairing l with -l gives Re S_n = sum_{l=0}^{N} v_l c_l cos(delta l n)
    with v = (1, 2, ..., 2, 1), the real part of a one-sided chirp sum over
    l = 0..N.  Its kernel arguments n - l span -N..N; on a circle of length
    2N, -N and N share one slot and one value e^{-i delta N^2/2}, so the sum
    is one circular convolution of length 2N.
    """
    c = np.asarray(c)
    if np.iscomplexobj(c) or c.ndim != 1:
        raise ValueError("frft_even needs a real 1-d sequence c_0..c_N")
    n = len(c) - 1
    if n < 1 or n & (n - 1):
        raise ValueError(f"frft_even needs N + 1 values with N a power of two, got {len(c)}")
    chirp_in, chirp, kernel_hat = _even_plan_cached(n, float(delta))
    z = np.fft.fft(c * chirp_in, 2 * n)
    z *= kernel_hat
    np.fft.ifft(z, out=z)
    return (chirp * z[:n + 1]).real


@lru_cache(maxsize=64)
def _even_plan_cached(n: int, delta: float):
    """frft_even's tables for (N, delta): the input chirp over l = 0..N,
    weighted by (1, 2, ..., 2, 1), the output chirp over n = 0..N, and the
    transform of the length-2N chirp kernel."""
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")
    chirp = _quad_phase(delta, np.arange(n + 1))
    chirp_in = 2 * chirp
    chirp_in[[0, n]] = chirp[[0, n]]
    # kernel e^{-i delta m^2/2} at m = -N+1..N, wrapped onto 0..2N-1
    kernel = np.conj(np.concatenate((chirp, chirp[n - 1:0:-1])))
    tables = (chirp_in, chirp, np.fft.fft(kernel))
    for arr in tables:
        arr.flags.writeable = False
    return tables
