"""Step 3: inverse Fourier transform on x in [x_l, x_u] by the continuous
Euler transform.

The integrand e^{t G(w)} e^{ixw} decays slowly in w; multiplying by the
complementary-error-function weight w_{p,q}(|w|) turns the truncated trapezoid
sum into one with error O(e^{-c sqrt(N)}) uniformly over the target window.
The sum over l = -N+1..N at all outputs x = n h^ is a fractional FFT with
delta = h~ h^.  The exponent of a symmetric process is real and even, so it
is passed at l = 0..N only, the sum runs as a real-even transform over those
l, the density is its real part, and p(-x) = p(x) gives the outputs at n < 0."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from .numkit import frft_even


@dataclass(frozen=True)
class EulerParams:
    """Target window [x_l, x_u], decay constant d and size N of one Step-3
    run, with the frequency step h~ and the weight shape (p, q) that the
    continuous Euler transform derives from them at construction:

      h~ = sqrt(2 pi d (x_l + x_u) / (x_l^2 N)),
      p  = sqrt(N h~ / x_l),  q = sqrt(x_l N h~ / 4).
    """

    n: int
    x_l: float
    x_u: float
    d: float
    h_tilde: float = field(init=False, compare=False)
    p: float = field(init=False, compare=False)
    q: float = field(init=False, compare=False)

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n = {self.n} must be a power of two >= 2")
        for name in ("x_l", "x_u", "d"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (0 < self.x_l < self.x_u):
            raise ValueError("need 0 < x_l < x_u")
        if self.x_l / self.x_u > 0.5:
            raise ValueError("need x_l / x_u <= 1/2")
        if not self.d > 0:
            raise ValueError("d must be positive")
        n, x_l = self.n, self.x_l
        try:
            h_tilde = math.sqrt(2 * math.pi * self.d * (x_l + self.x_u) / (x_l**2 * n))
            p, q = math.sqrt(n * h_tilde / x_l), math.sqrt(x_l * n * h_tilde / 4)
        except (ZeroDivisionError, OverflowError):   # x_l**2 under- or overflows
            h_tilde = p = q = math.nan
        if not all(0 < v < math.inf for v in (h_tilde, p, q)):
            raise ValueError(f"x_l = {x_l} is out of range for x_u = {self.x_u}, "
                             f"d = {self.d} and N = {n}: h~, p and q must be "
                             "finite and positive")
        object.__setattr__(self, "h_tilde", h_tilde)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_theorem(cls, n: int, x_l: float, x_u: float, d: float = 1.0) -> "EulerParams":
        """The parameters of (N, x_l, x_u, d), with d = 1 by default."""
        return cls(n, x_l, x_u, d)


def weight(xi, params: EulerParams) -> np.ndarray:
    """Euler weight w(xi) = erfc(xi/p - q) / 2 (xi >= 0)."""
    return 0.5 * erfc(np.asarray(xi, dtype=float) / params.p - params.q)


@lru_cache(maxsize=64)
def _half_weights(params: EulerParams) -> np.ndarray:
    """(h~ / 2pi) w(l h~) for l = 0..N: the factors of exp(t G(l h~)) in the
    Step-3 sum, the same at every t."""
    ell = np.arange(params.n + 1)
    out = (params.h_tilde / (2 * np.pi)) * weight(ell * params.h_tilde, params)
    out.flags.writeable = False
    return out


def inverse_ft(g, t: float, params: EulerParams) -> np.ndarray:
    """Density values p(n h^, t), n = -N+1..N, as a real array, from the real
    exponent samples G(l h~), l = 0..N, with G(-l) = G(l) standing for the
    rest.

    The output step is h^ = x_u / N, so the grid reaches the right edge of
    the guaranteed window.  Outputs with |n h^| < x_l carry no accuracy
    guarantee.
    """
    n = params.n
    g = np.asarray(g)
    if g.shape != (n + 1,):
        raise ValueError(f"exponent must cover l = 0..{n}; got shape {g.shape}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be a finite non-negative number")
    if np.iscomplexobj(g):
        complex_at = np.flatnonzero(g.imag)
        if complex_at.size:
            raise ValueError(f"exponent not real at l = {complex_at[0]}")
        g = g.real
    amp = np.multiply(t, g, dtype=float)
    with np.errstate(over="ignore"):   # overflow is rejected explicitly below
        np.exp(amp, out=amp)
    if not np.isfinite(amp).all():
        bad = np.flatnonzero(~np.isfinite(amp))
        raise ValueError(f"exp(t G) not finite at l = {bad[0]}")
    peak = amp.max()
    if peak > 1 + 1e-6:
        warnings.warn(f"|exp(t G)| reaches {peak}; exponent has positive real "
                      "part, result is unreliable", RuntimeWarning, stacklevel=2)
    if amp[1] < 2.0 ** -52:
        warnings.warn(f"exp(t G(h~)) = {amp[1]:.3g} at t = {t} is below 2^-52: no term past "
                      "l = 0 changes p, so the density is flat", RuntimeWarning, stacklevel=2)
    amp *= _half_weights(params)
    half = frft_even(amp, params.h_tilde * (params.x_u / n))
    return np.concatenate((half[n - 1:0:-1], half))
