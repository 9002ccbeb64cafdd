"""Series container, special functions, and the FFT/fractional-FFT kernels."""
import math

import numpy as np
import pytest
import scipy.special as sp

import oracles
from levyfourier.numkit import ComplexSeries, FrftPlan, erfc, fft_array, frft, frft_even


def test_complex_series_indexing():
    s = ComplexSeries(-3, [1, 2j, 3, 4, 5, 6, 7, 8], 0.5)
    assert len(s) == 8
    assert s.offset == -3 and s.last_index == 4
    assert np.array_equal(s.indices(), np.arange(-3, 5))
    assert np.allclose(s.grid(), np.arange(-3, 5) * 0.5)
    assert s.at(-3) == 1 and s.at(-2) == 2j and s.at(4) == 8
    sec = s.section(-1, 2)
    assert sec.offset == -1 and len(sec) == 4 and sec.at(0) == 4


def test_complex_series_validation():
    with pytest.raises(ValueError):
        ComplexSeries(0, [], 1.0)
    with pytest.raises(ValueError):
        ComplexSeries(0, [[1, 2]], 1.0)
    with pytest.raises(ValueError):
        ComplexSeries(0, [1, 2], 0.0)
    with pytest.raises(ValueError):
        ComplexSeries(0, [1, 2], float("nan"))
    s = ComplexSeries(0, [1, 2], 1.0)
    with pytest.raises(IndexError):
        s.at(2)
    with pytest.raises(IndexError):
        s.section(-1, 1)
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_erfc_pins():
    assert abs(erfc(1.0) - 0.15729920705028513) <= 1e-12
    assert erfc(0.0) == 1.0
    # beyond |x| ~ 5.86 the complement saturates to exactly 2.0 in float64
    x = np.linspace(-5, 5, 301)
    vals = erfc(x)
    assert np.all((vals > 0) & (vals < 2))
    assert np.all(np.diff(vals) < 0)
    assert np.allclose(sp.erf(x) + erfc(x), 1.0, atol=1e-14)


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
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    assert np.allclose(fft_array(x), np.ones(8), atol=1e-15)


def test_fft_matches_direct_and_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.max(np.abs(fft_array(x) - oracles.dft_direct(x))) <= 1e-12
    back = fft_array(fft_array(x), "inverse")
    assert np.max(np.abs(back - x)) <= 1e-13


def test_fft_errors():
    with pytest.raises(ValueError):
        fft_array(np.ones(12, dtype=complex))
    with pytest.raises(ValueError):
        fft_array(np.ones(8, dtype=complex), "sideways")


def test_parseval():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    spec = fft_array(x)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(spec) ** 2) / len(x)
    assert abs(lhs - rhs) <= 1e-12 * lhs


def test_frft_nyquist_reduces_to_dft():
    rng = np.random.default_rng(23)
    n = 32
    v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    delta = 2 * np.pi / (2 * n)
    got = frft(ComplexSeries(-n + 1, v, 1.0), delta).values
    # S_n = sum_l c_l e^{2pi i l n / 2N} is 2N * ifft on the wrapped frame
    arr = np.zeros(2 * n, dtype=complex)
    idx = np.arange(-n + 1, n + 1)
    arr[idx % (2 * n)] = v
    wrapped = 2 * n * np.fft.ifft(arr)
    assert np.max(np.abs(got - wrapped[idx % (2 * n)])) <= 1e-11


def test_frft_zeros_and_offset_error():
    z = frft(ComplexSeries(-3, np.zeros(8), 1.0), 0.3)
    assert np.array_equal(z.values, np.zeros(8))
    assert z.offset == -3
    with pytest.raises(ValueError):
        frft(ComplexSeries(0, np.zeros(8), 1.0), 0.3)


def test_frft_matches_direct():
    rng = np.random.default_rng(31)
    v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    got = frft(ComplexSeries(-63, v, 1.0), 0.3).values
    assert np.max(np.abs(got - oracles.frft_direct(v, 0.3))) <= 1e-11


def test_frft_linearity():
    rng = np.random.default_rng(37)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    a, b = 1.7 - 0.4j, -0.9 + 2.2j
    lhs = frft(ComplexSeries(-31, a * x + b * y, 1.0), 0.11).values
    rhs = a * frft(ComplexSeries(-31, x, 1.0), 0.11).values \
        + b * frft(ComplexSeries(-31, y, 1.0), 0.11).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_frft_plan_length_errors():
    with pytest.raises(ValueError):
        FrftPlan(12, 0.3)
    with pytest.raises(ValueError):
        FrftPlan(0, 0.3)


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
    assert np.max(np.abs(got[outs] - direct)) <= 1e-13 * np.sum(np.abs(full))


def test_frft_even_input_errors():
    with pytest.raises(ValueError, match="real"):
        frft_even(np.ones(9, dtype=complex), 0.3)
    with pytest.raises(ValueError, match="power of two"):
        frft_even(np.ones(8), 0.3)
    with pytest.raises(ValueError, match="finite"):
        frft_even(np.ones(9), float("inf"))
