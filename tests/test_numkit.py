"""The scipy special functions and numpy FFT the package relies on, and the
real-even fractional FFT."""
import math

import numpy as np
import pytest
import scipy.special as sp

import oracles
from levyfourier.numkit import frft_even


def test_erfc_pins():
    # the scipy erfc of the Euler weight
    assert abs(sp.erfc(1.0) - 0.15729920705028513) <= 1e-12
    assert sp.erfc(0.0) == 1.0
    # beyond |x| ~ 5.86 the complement saturates to exactly 2.0 in float64
    x = np.linspace(-5, 5, 301)
    vals = sp.erfc(x)
    assert np.all((vals > 0) & (vals < 2))
    assert np.all(np.diff(vals) < 0)
    assert np.allclose(sp.erf(x) + sp.erfc(x), 1.0, atol=1e-14)


def test_bessel_k_pins():
    # the scipy K_v the models and references use: half-integer closed form,
    # the reflection K_{-v} = K_v, and K_1 against its integral form
    assert abs(sp.kv(0.5, 2.0) - math.sqrt(math.pi / 4) * math.exp(-2)) <= 1e-14
    assert sp.kv(-0.5, 2.0) == sp.kv(0.5, 2.0)
    assert abs(sp.k1(1.0) - 0.6019072301972346) <= 1e-13
    assert abs(sp.k1(1.0) - oracles.k1_integral(1.0)) <= 1e-12
    z = np.linspace(0.2, 8.0, 40)
    assert np.all(np.diff(sp.k1(z)) < 0)


def test_fft_impulse():
    # the numpy FFT the package calls directly, forward sign e^{-2pi i km/n}
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    assert np.allclose(np.fft.fft(x), np.ones(8), atol=1e-15)


def test_fft_matches_direct_and_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.max(np.abs(np.fft.fft(x) - oracles.dft_direct(x))) <= 1e-12
    back = np.fft.ifft(np.fft.fft(x))
    assert np.max(np.abs(back - x)) <= 1e-13


def test_parseval():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    spec = np.fft.fft(x)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(spec) ** 2) / len(x)
    assert abs(lhs - rhs) <= 1e-12 * lhs


def test_frft_nyquist_reduces_to_dft():
    rng = np.random.default_rng(23)
    n = 32
    c = rng.standard_normal(n + 1)
    got = frft_even(c, 2 * np.pi / (2 * n))
    # S_n = sum_l c_|l| e^{2pi i l n / 2N} is 2N * ifft on the wrapped frame
    arr = np.zeros(2 * n)
    idx = np.arange(-n + 1, n + 1)
    arr[idx % (2 * n)] = c[np.abs(idx)]
    wrapped = 2 * n * np.fft.ifft(arr)
    assert np.max(np.abs(got - wrapped[:n + 1].real)) <= 1e-11


def test_frft_zeros_and_offset_error():
    z = frft_even(np.zeros(9), 0.3)
    assert np.array_equal(z, np.zeros(9))
    with pytest.raises(ValueError, match="power of two"):
        frft_even(np.zeros(8), 0.3)        # c_0..c_N with N + 1 = 8 values


def test_frft_matches_direct():
    rng = np.random.default_rng(31)
    c = rng.standard_normal(65)
    got = frft_even(c, 0.3)
    full = c[np.abs(np.arange(-63, 65))]
    assert np.max(np.abs(got - oracles.frft_direct(full, 0.3, np.arange(65)).real)) <= 1e-11


def test_frft_linearity():
    rng = np.random.default_rng(37)
    x = rng.standard_normal(33)
    y = rng.standard_normal(33)
    a, b = 1.7, -0.9
    lhs = frft_even(a * x + b * y, 0.11)
    rhs = a * frft_even(x, 0.11) + b * frft_even(y, 0.11)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 13)])
def test_frft_even_matches_direct(n):
    # the direct sum at up to 129 outputs, always n = 0 and n = N, keeps N = 4096 cheap
    rng = np.random.default_rng(41 + n)
    c = rng.standard_normal(n + 1)
    full = c[np.abs(np.arange(-n + 1, n + 1))]
    outs = np.unique(np.concatenate(([0, n], rng.integers(1, n, 127))))
    got = frft_even(c, 0.3)
    assert got.shape == (n + 1,)
    direct = oracles.frft_direct(full, 0.3, outs)
    assert np.max(np.abs(got[outs] - direct.real)) <= 1e-13 * np.sum(np.abs(full))


def test_frft_even_input_errors():
    with pytest.raises(ValueError, match="real"):
        frft_even(np.ones(9, dtype=complex), 0.3)
    with pytest.raises(ValueError, match="power of two"):
        frft_even(np.ones(8), 0.3)
    with pytest.raises(ValueError, match="finite"):
        frft_even(np.ones(9), float("inf"))
