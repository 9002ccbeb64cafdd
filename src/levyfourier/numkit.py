"""Foundation layer: indexed complex series, power-of-two FFT, fractional FFT
(general and real-even), and the erfc window function of the Euler
transform."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.special as sp


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class ComplexSeries:
    """Complex values on an equispaced logical grid.

    Element i carries logical index ``offset + i``; the indices refer to a
    grid of step ``spacing``.  This is the currency passed between pipeline
    stages.  Values are stored read-only.
    """

    offset: int
    values: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-d sequence")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be finite and positive, got {self.spacing}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "offset", int(self.offset))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_index(self) -> int:
        return self.offset + len(self.values) - 1

    def indices(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.values))

    def grid(self) -> np.ndarray:
        """Physical coordinates index * spacing."""
        return self.indices() * self.spacing

    def at(self, k: int) -> complex:
        """Value at logical index k."""
        if not self.offset <= k <= self.last_index:
            raise IndexError(f"index {k} outside [{self.offset}, {self.last_index}]")
        return self.values[k - self.offset]

    def section(self, lo: int, hi: int) -> "ComplexSeries":
        """Sub-series on logical indices lo..hi inclusive."""
        if lo < self.offset or hi > self.last_index or lo > hi:
            raise IndexError(
                f"section [{lo}, {hi}] outside available [{self.offset}, {self.last_index}]"
            )
        return ComplexSeries(lo, self.values[lo - self.offset : hi - self.offset + 1],
                             self.spacing)


def erfc(x):
    """Complementary error function (2/sqrt(pi)) * integral_x^inf exp(-t^2) dt.

    Accepts scalars or arrays; total on finite reals.
    """
    return sp.erfc(x)


# 2pi to long-double precision for angle reduction
_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768")


def _quad_phase(delta: float, k: np.ndarray) -> np.ndarray:
    """e^{i delta k^2 / 2} with the angle reduced mod 2pi in extended precision.

    Forming delta*k^2/2 in float64 first loses ~eps*|angle| radians; at the
    chirp sizes used here that reaches 1e-11 and caps the transform accuracy.
    """
    theta = np.longdouble(delta) * k.astype(np.longdouble) ** 2 / 2
    return np.exp(1j * np.mod(theta, _TWO_PI_LD).astype(np.float64))


def fft_array(values: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Array-level FFT backend: forward X_m = sum_k x_k e^{-2pi i km/n},
    inverse (1/n) sum_m X_m e^{+2pi i km/n}.  Length must be a power of two."""
    values = np.asarray(values, dtype=complex)
    if not _is_pow2(len(values)):
        raise ValueError(f"fft length {len(values)} is not a power of two")
    if direction == "forward":
        return np.fft.fft(values)
    if direction == "inverse":
        return np.fft.ifft(values)
    raise ValueError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class FrftPlan:
    """Reusable fractional-FFT plan for S_n = sum_{l=-N+1}^{N} c_l e^{i delta l n}.

    The chirp decomposition e^{i d l n} = e^{i d (l^2+n^2)/2} e^{-i d (n-l)^2/2}
    turns the sum into one circular convolution of length 4N (three FFTs); the
    transform of the chirp kernel is cached here for reuse at fixed (length,
    delta).
    """

    length: int            # 2N
    delta: float
    _chirp: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _kernel_hat: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.length < 2 or not _is_pow2(self.length):
            raise ValueError(f"frft length {self.length} is not a power of two >= 2")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")
        n = self.length // 2
        idx = np.arange(-n + 1, n + 1)
        chirp = _quad_phase(self.delta, idx)
        m = np.arange(-2 * n + 1, 2 * n + 1)
        kernel = np.zeros(2 * self.length, dtype=complex)
        kernel[m % (2 * self.length)] = np.conj(_quad_phase(self.delta, m))
        object.__setattr__(self, "_chirp", chirp)
        object.__setattr__(self, "_kernel_hat", fft_array(kernel))

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=complex)
        if len(values) != self.length:
            raise ValueError(f"expected {self.length} values, got {len(values)}")
        n = self.length // 2
        big = 2 * self.length
        idx = np.arange(-n + 1, n + 1)
        a = np.zeros(big, dtype=complex)
        a[idx % big] = values * self._chirp
        conv = fft_array(fft_array(a) * self._kernel_hat, "inverse")
        return self._chirp * conv[idx % big]


def frft(c: ComplexSeries, delta: float) -> ComplexSeries:
    """Fractional FFT: S_n = sum_{l=-N+1}^{N} c_l e^{i delta l n}, n = -N+1..N.

    The input series must be centered (offset -N+1 for length 2N, a power of
    two).  delta is an arbitrary real frequency spacing; delta = 2pi/(2N)
    reduces to a re-centered plain DFT.
    """
    two_n = len(c)
    n = two_n // 2
    if c.offset != -n + 1:
        raise ValueError(
            f"frft input must cover l = -N+1..N (offset {-n + 1}), got offset {c.offset}"
        )
    plan = _plan_cached(two_n, float(delta))
    return ComplexSeries(-n + 1, plan.apply(c.values), c.spacing)


@lru_cache(maxsize=64)
def _plan_cached(length: int, delta: float) -> FrftPlan:
    return FrftPlan(length, delta)


def frft_even(c, delta: float) -> np.ndarray:
    """Real-even fractional FFT: S_n = sum_{l=-N+1}^{N} c_{|l|} e^{i delta l n}
    for n = 0..N, from real c_l, l = 0..N (N a power of two).

    Pairing l with -l leaves a one-sided chirp sum over l = 0..N-1, which is
    one circular convolution of length 2N, plus the unpaired l = N term
    c_N e^{i delta N n}, added directly.  S_{-n} = conj(S_n) gives the other
    half.
    """
    c = np.asarray(c)
    if np.iscomplexobj(c) or c.ndim != 1:
        raise ValueError("frft_even needs a real 1-d sequence c_0..c_N")
    n = len(c) - 1
    if not _is_pow2(n):
        raise ValueError(f"frft_even needs N + 1 values with N a power of two, got {len(c)}")
    chirp_in, chirp, kernel_hat, edge = _even_plan_cached(n, float(delta))
    conv = np.fft.ifft(np.fft.fft(c[:n] * chirp_in, 2 * n) * kernel_hat)[:n + 1]
    out = c[n] * edge
    out.real += (chirp * conv).real
    return out


@lru_cache(maxsize=64)
def _even_plan_cached(n: int, delta: float):
    """frft_even's tables for (N, delta): the input chirp over l = 0..N-1,
    doubled for l >= 1 (c_l stands for l and -l), the output chirp over
    n = 0..N, the transform of the length-2N chirp kernel, and e^{i delta N n}."""
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")
    k = np.arange(n + 1)
    chirp = _quad_phase(delta, k)
    chirp_in = 2 * chirp[:n]
    chirp_in[0] = chirp[0]
    # kernel e^{-i delta m^2/2} at m = -N+1..N, wrapped onto 0..2N-1
    kernel = np.conj(np.concatenate((chirp, chirp[n - 1:0:-1])))
    # e^{i delta N n} = e^{i delta N^2/2} e^{i delta n^2/2} e^{-i delta (N-n)^2/2}
    edge = chirp[n] * chirp * np.conj(chirp[::-1])
    tables = (chirp_in, chirp, np.fft.fft(kernel), edge)
    for arr in tables:
        arr.flags.writeable = False
    return tables
