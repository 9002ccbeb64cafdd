"""Sinc-Gauss interpolation (the oracle interpolant), the kernel-integral
table, and FFT-accelerated indefinite integration."""
import math

import numpy as np
import pytest
from scipy.special import sici

import oracles
from levyfourier.numkit import ComplexSeries
from levyfourier.sinc_gauss import (KernelTable, SincGaussConfig, indefinite_integral,
                                    kernel_table, negative_extension)


def h_rule(n_prime):
    """h~ proportional to 1/sqrt(N'), with the [2, 5] window constant."""
    return math.sqrt(14 * math.pi) / 2 / math.sqrt(n_prime)


def test_config_defaults_and_validation():
    cfg = SincGaussConfig(64, 0.125)
    assert cfg.r == pytest.approx(math.sqrt(64 / math.pi), rel=1e-14)
    assert SincGaussConfig(64, 0.125, r=3.0).r == 3.0
    with pytest.raises(ValueError):
        SincGaussConfig(1, 0.125)
    with pytest.raises(ValueError):
        SincGaussConfig(64, 0.0)
    with pytest.raises(ValueError):
        SincGaussConfig(64, float("inf"))
    with pytest.raises(ValueError):
        SincGaussConfig(64, 0.125, r=-1.0)


def test_kernel_table_zero_and_odd_extension():
    tab = kernel_table(math.sqrt(32 / math.pi), 32)
    assert tab.g[0] == 0.0
    assert tab.n_prime == 32
    k = np.array([-5, -1, 0, 1, 5])
    signed = tab.signed(k)
    assert signed[2] == 0.0
    assert np.array_equal(signed[:2], -signed[:2:-1])
    with pytest.raises(ValueError):
        tab.g[0] = 1.0


def test_kernel_table_bounded():
    for n_prime in (32, 128, 1024):
        tab = kernel_table(math.sqrt(n_prime / math.pi), n_prime)
        assert np.max(np.abs(tab.g)) <= 0.6


def test_kernel_table_matches_quadrature():
    for n_prime in (32, 128, 1024):
        r = math.sqrt(n_prime / math.pi)
        tab = kernel_table(r, n_prime)
        ref = oracles.kernel_quad(r, n_prime)
        assert np.max(np.abs(tab.g - ref)) <= 1e-9


def test_kernel_table_matches_its_midpoint_sum():
    # the real-FFT evaluation against the same midpoint rule summed directly
    for n_prime, m_table in ((32, None), (64, None), (512, None), (64, 128)):
        r = math.sqrt(n_prime / math.pi)
        tab = kernel_table(r, n_prime, m_table=m_table)
        ref = oracles.kernel_midpoint_direct(r, n_prime, m_table or max(4 * n_prime, 1024))
        assert np.max(np.abs(tab.g - ref)) <= 1e-15, (n_prime, m_table)


def test_kernel_table_huge_r_gives_sine_integral():
    # r -> inf turns G_r(1) into int_0^1 sinc = Si(pi)/pi.  The near-box
    # frequency window converges at second order in the table mesh, so the
    # refinement ratio is ~16 per 4x and 2^16 points reach 1e-9.
    ref = sici(math.pi)[0] / math.pi
    err = {m: abs(float(kernel_table(1e6, 8, m_table=m).g[1]) - ref)
           for m in (4096, 16384, 65536)}
    assert err[65536] <= 1e-9
    assert err[4096] >= 8 * err[16384]


def test_kernel_table_keeps_its_circulant_spectrum():
    n_prime = 64
    table = kernel_table(math.sqrt(n_prime / math.pi), n_prime)
    spectrum = table.circulant_spectrum
    assert spectrum is table.circulant_spectrum
    ker = np.zeros(4 * n_prime, dtype=complex)
    k = np.arange(-n_prime + 1, n_prime + 1)
    ker[k % (4 * n_prime)] = table.signed(k)
    assert np.array_equal(spectrum, np.fft.fft(ker))


def test_kernel_table_size_errors():
    with pytest.raises(ValueError):
        kernel_table(3.0, 32, m_table=100)
    with pytest.raises(ValueError):
        kernel_table(3.0, 600, m_table=1024)


def test_sg_interpolate_reproduces_nodes():
    rng = np.random.default_rng(7)
    cfg = SincGaussConfig(8, 0.25)
    f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    samples = ComplexSeries(-12, f, 0.25)
    # np.sinc leaves ~4e-17 at nonzero integers, so nodes reproduce to
    # machine scale rather than bitwise
    for k in (-4, 0, 3):
        assert abs(oracles.sg_interpolate(samples, cfg, k * 0.25) - samples.at(k)) <= 1e-13


def test_sg_interpolate_zero():
    cfg = SincGaussConfig(8, 0.25)
    samples = ComplexSeries(-12, np.zeros(40), 0.25)
    assert oracles.sg_interpolate(samples, cfg, 0.1) == 0.0


def test_sg_interpolate_runge_accuracy():
    cfg = SincGaussConfig(64, 0.125)
    k = np.arange(-80, 81)
    samples = ComplexSeries(-80, 1.0 / (1.0 + (k * 0.125) ** 2), 0.125)
    got = oracles.sg_interpolate(samples, cfg, 0.06)
    assert abs(got - 1.0 / (1.0 + 0.06**2)) <= 1e-6


def test_sg_interpolate_coverage_error():
    cfg = SincGaussConfig(8, 0.25)
    samples = ComplexSeries(0, np.ones(4), 0.25)
    with pytest.raises(ValueError, match="missing"):
        oracles.sg_interpolate(samples, cfg, 0.1)


def arctan_setup(n_prime):
    h = h_rule(n_prime)
    ell = np.arange(-n_prime, 2 * n_prime)
    f = 1.0 / (1.0 + (ell * h) ** 2)
    cfg = SincGaussConfig(n_prime, h)
    tab = kernel_table(cfg.r, n_prime)
    return ComplexSeries(-n_prime, f, h), cfg, tab, h


def test_indefinite_zero():
    samples, cfg, tab, h = arctan_setup(16)
    zero = ComplexSeries(-16, np.zeros(48), h)
    out = indefinite_integral(zero, cfg, tab)
    assert out.offset == 1 and len(out) == 16
    assert np.array_equal(out.values, np.zeros(16))


def test_indefinite_constant():
    n_prime = 256
    h = h_rule(n_prime)
    cfg = SincGaussConfig(n_prime, h)
    tab = kernel_table(cfg.r, n_prime)
    ones = ComplexSeries(-n_prime, np.ones(3 * n_prime), h)
    out = indefinite_integral(ones, cfg, tab)
    assert np.max(np.abs(out.values - out.indices() * h)) <= 1e-6


def test_indefinite_arctan():
    samples, cfg, tab, h = arctan_setup(256)
    out = indefinite_integral(samples, cfg, tab)
    assert np.max(np.abs(out.values - np.arctan(out.indices() * h))) <= 5e-8


def test_indefinite_shape_errors():
    samples, cfg, tab, h = arctan_setup(16)
    with pytest.raises(ValueError):
        indefinite_integral(ComplexSeries(0, np.ones(48), h), cfg, tab)
    with pytest.raises(ValueError):
        indefinite_integral(ComplexSeries(-16, np.ones(50), h), cfg, tab)
    other = kernel_table(cfg.r, 32)
    with pytest.raises(ValueError):
        indefinite_integral(samples, cfg, other)
    odd_r = KernelTable(tab.g, tab.r * 1.01)
    with pytest.raises(ValueError):
        indefinite_integral(samples, cfg, odd_r)


def test_indefinite_fft_matches_direct_partitioned_sum():
    rng = np.random.default_rng(19)
    for n_prime in (16, 64):
        h = 0.31
        f = rng.standard_normal(3 * n_prime) + 1j * rng.standard_normal(3 * n_prime)
        cfg = SincGaussConfig(n_prime, h)
        tab = kernel_table(cfg.r, n_prime)
        got = indefinite_integral(ComplexSeries(-n_prime, f, h), cfg, tab).values
        ref = oracles.indefinite_direct(f, tab.g, h)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-11 * scale


def test_indefinite_partition_covers_index_set():
    # the convolution window, the fixed base window, and the saturated tails
    # must tile the full (l, sample) index set: the one-shot saturated-kernel
    # sum over every sample equals the three-part split exactly
    rng = np.random.default_rng(29)
    for n_prime in (2, 4, 8, 16):
        h = 0.4
        f = rng.standard_normal(3 * n_prime) + 1j * rng.standard_normal(3 * n_prime)
        cfg = SincGaussConfig(n_prime, h)
        tab = kernel_table(cfg.r, n_prime)
        fft_out = indefinite_integral(ComplexSeries(-n_prime, f, h), cfg, tab).values
        split = oracles.indefinite_direct(f, tab.g, h)
        whole = oracles.indefinite_saturated(f, tab.g, h)
        scale = max(np.max(np.abs(split)), 1.0)
        assert np.max(np.abs(whole - split)) <= 1e-12 * scale
        assert np.max(np.abs(fft_out - split)) <= 1e-12 * scale


def test_indefinite_convergence_in_n_prime():
    errs = []
    sizes = (64, 128, 256, 512)
    for n_prime in sizes:
        samples, cfg, tab, h = arctan_setup(n_prime)
        out = indefinite_integral(samples, cfg, tab)
        errs.append(np.max(np.abs(out.values - np.arctan(out.indices() * h))))
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0)
    root_n = np.sqrt(np.array(sizes, dtype=float))
    slope, intercept = np.polyfit(root_n, np.log(errs), 1)
    fit = slope * root_n + intercept
    ss_res = np.sum((np.log(errs) - fit) ** 2)
    ss_tot = np.sum((np.log(errs) - np.mean(np.log(errs))) ** 2)
    assert slope < 0
    assert 1 - ss_res / ss_tot >= 0.9


def test_negative_extension_conjugate_odd():
    ext = negative_extension(ComplexSeries(1, [1j, 0.5 + 0.25j], 0.3), "conjugate-odd")
    assert ext.offset == -1 and len(ext) == 4
    assert ext.at(0) == 0.0
    assert ext.at(-1) == -np.conj(ext.at(1))
    assert ext.at(-1) == 1j


def test_negative_extension_even():
    ext = negative_extension(ComplexSeries(1, [3.0, 7.0, 2.0], 0.3), "even")
    assert ext.offset == -2 and len(ext) == 6
    assert ext.at(0) == 0.0
    assert ext.at(-1) == ext.at(1) == 3.0
    assert ext.at(-2) == ext.at(2) == 7.0


def test_negative_extension_errors():
    with pytest.raises(ValueError):
        negative_extension(ComplexSeries(0, [1.0, 2.0], 0.3), "even")
    with pytest.raises(ValueError):
        negative_extension(ComplexSeries(1, [1.0, 2.0], 0.3), "odd-ball")
