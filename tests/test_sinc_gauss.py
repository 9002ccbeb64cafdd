"""Sinc-Gauss interpolation (the oracle interpolant), the kernel-integral
table, and FFT-accelerated indefinite integration."""
import math

import numpy as np
import pytest
from scipy.special import sici

import oracles
from levyfourier.sinc_gauss import (_cell_integrals, _table_cached, indefinite_integral,
                                     kernel_table)


def h_rule(n_prime):
    """h~ proportional to 1/sqrt(N'), with the [2, 5] window constant."""
    return math.sqrt(14 * math.pi) / 2 / math.sqrt(n_prime)


def test_kernel_table_zero_and_odd_extension():
    tab = kernel_table(math.sqrt(32 / math.pi), 32)
    assert tab[0] == 0.0
    assert len(tab) == 33
    k = np.array([-5, -1, 0, 1, 5])
    signed = np.sign(k) * tab[np.abs(k)]
    assert signed[2] == 0.0
    assert np.array_equal(signed[:2], -signed[:2:-1])
    with pytest.raises(ValueError):
        tab[0] = 1.0


def test_kernel_table_bounded():
    for n_prime in (32, 128, 1024):
        tab = kernel_table(math.sqrt(n_prime / math.pi), n_prime)
        assert np.max(np.abs(tab)) <= 0.6


def test_kernel_table_matches_quadrature():
    for n_prime in (32, 128, 1024):
        r = math.sqrt(n_prime / math.pi)
        tab = kernel_table(r, n_prime)
        ref = oracles.kernel_quad(r, n_prime)
        assert np.max(np.abs(tab - ref)) <= 1e-9


def test_kernel_table_matches_its_midpoint_sum():
    # the real-FFT evaluation against the same midpoint rule summed directly
    for n_prime in (32, 64, 512):
        r = math.sqrt(n_prime / math.pi)
        tab = kernel_table(r, n_prime)
        ref = oracles.kernel_midpoint_direct(r, n_prime, max(4 * n_prime, 1024))
        assert np.max(np.abs(tab - ref)) <= 1e-15, n_prime


def test_kernel_table_huge_r_gives_sine_integral():
    # r -> inf turns G_r(1) into int_0^1 sinc = Si(pi)/pi.  The near-box
    # frequency window converges at second order in the table mesh, so the
    # refinement ratio is ~16 per 4x and 2^16 points reach 1e-9.  The table
    # has 4 N' points, so N' = m/4 sets the mesh.
    ref = sici(math.pi)[0] / math.pi
    err = {m: abs(float(kernel_table(1e6, m // 4)[1]) - ref)
           for m in (4096, 16384, 65536)}
    assert err[65536] <= 1e-9
    assert err[4096] >= 8 * err[16384]


def test_kernel_table_keeps_its_circulant_spectrum():
    # a pass convolves with D(k) = d_{k-1}, k = -N'+1..N', where
    # d_m = G_r(m+1) - G_r(m) are the table's cell integrals and
    # d_{-m-1} = d_m by the odd extension
    n_prime = 64
    r = math.sqrt(n_prime / math.pi)
    d = _cell_integrals(r, n_prime)
    assert np.array_equal(kernel_table(r, n_prime)[1:], np.cumsum(d))
    spectrum = _table_cached(n_prime)
    assert _table_cached(n_prime) is spectrum
    # the half spectrum of the real kernel, zero-extended onto the 4N' circle
    ker = np.zeros(4 * n_prime)
    m = np.arange(-n_prime, n_prime)
    ker[(m + 1) % (4 * n_prime)] = d[np.where(m < 0, -m - 1, m)]
    assert np.array_equal(spectrum, np.fft.rfft(ker))
    with pytest.raises(ValueError):
        spectrum[0] = 1.0


def test_kernel_table_size_errors():
    # the table has max(4 N', 1024) points, a power of two only for N' <= 256
    # or N' a power of two
    for n_prime in (600, 0, -4):
        with pytest.raises(ValueError, match=f"n_prime = {n_prime}"):
            kernel_table(3.0, n_prime)
    assert len(kernel_table(3.0, 200)) == 201


def test_sg_interpolate_reproduces_nodes():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    r = math.sqrt(8 / math.pi)
    # f holds l = -12..27; np.sinc leaves ~4e-17 at nonzero integers, so
    # nodes reproduce to machine scale rather than bitwise
    for k in (-4, 0, 3):
        got = oracles.sg_interpolate(f, -12, 0.25, 8, r, k * 0.25)
        assert abs(got - f[k + 12]) <= 1e-13


def test_sg_interpolate_zero():
    r = math.sqrt(8 / math.pi)
    assert oracles.sg_interpolate(np.zeros(40), -12, 0.25, 8, r, 0.1) == 0.0


def test_sg_interpolate_runge_accuracy():
    k = np.arange(-80, 81)
    f = 1.0 / (1.0 + (k * 0.125) ** 2)
    got = oracles.sg_interpolate(f, -80, 0.125, 64, math.sqrt(64 / math.pi), 0.06)
    assert abs(got - 1.0 / (1.0 + 0.06**2)) <= 1e-6


def test_sg_interpolate_coverage_error():
    with pytest.raises(ValueError, match="missing"):
        oracles.sg_interpolate(np.ones(4), 0, 0.25, 8, math.sqrt(8 / math.pi), 0.1)


def arctan_setup(n_prime):
    h = h_rule(n_prime)
    f = 1.0 / (1.0 + (np.arange(2 * n_prime + 1) * h) ** 2)
    return f, h


def table_g(n_prime):
    return kernel_table(math.sqrt(n_prime / math.pi), n_prime)


def random_half(rng, n_prime, odd):
    half = rng.standard_normal(2 * n_prime + 1)
    if odd:
        half[0] = 0.0
    return half


def test_indefinite_zero():
    out = indefinite_integral(np.zeros(33), h_rule(16))
    assert out.shape == (17,)
    assert np.array_equal(out, np.zeros(17))
    assert not np.signbit(out[0])


def test_indefinite_constant():
    n_prime = 256
    h = h_rule(n_prime)
    out = indefinite_integral(np.ones(2 * n_prime + 1), h)
    assert np.max(np.abs(out - np.arange(n_prime + 1) * h)) <= 1e-6


def test_indefinite_arctan():
    f, h = arctan_setup(256)
    out = indefinite_integral(f, h)
    assert out[0] == 0.0
    assert np.max(np.abs(out - np.arctan(np.arange(257) * h))) <= 5e-8


def test_indefinite_shape_errors():
    f, h = arctan_setup(16)
    with pytest.raises(ValueError, match="half must be real"):
        indefinite_integral(f.astype(complex), h)
    with pytest.raises(ValueError, match=r"half must be 1-d, got shape \(3, 33\)"):
        indefinite_integral(np.ones((3, 33)), h)
    for length in (32, 2, 1, 0):
        with pytest.raises(ValueError, match=f"odd length 2N'\\+1 >= 3.*got length {length}$"):
            indefinite_integral(np.ones(length), h)
    for bad_h in (0.0, -h, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="h must be finite and positive"):
            indefinite_integral(f, bad_h)


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
def test_indefinite_integral_extends_the_half_line_by_its_parity(odd):
    # f(-l) = f(l), or -f(l) if odd: the half line integrates exactly as the
    # explicitly extended 3N' window does in the direct partitioned sum
    rng = np.random.default_rng(37)
    for n_prime in (2, 4, 8, 16, 64):
        h = 0.27
        half = random_half(rng, n_prime, odd)
        got = indefinite_integral(half, h, odd)
        ref = oracles.indefinite_direct(oracles.window(half, n_prime, odd), table_g(n_prime), h)
        assert got[0] == 0.0
        assert np.max(np.abs(got[1:] - ref)) <= 1e-12 * np.max(np.abs(ref)), n_prime


def test_indefinite_fft_matches_direct_partitioned_sum():
    rng = np.random.default_rng(19)
    for n_prime in (16, 64):
        for odd in (False, True):
            h = 0.31
            half = random_half(rng, n_prime, odd)
            got = indefinite_integral(half, h, odd)[1:]
            ref = oracles.indefinite_direct(oracles.window(half, n_prime, odd),
                                            table_g(n_prime), h)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-11 * scale


def test_indefinite_partition_covers_index_set():
    # the convolution window, the fixed base window, and the saturated tails
    # must tile the full (l, sample) index set: the one-shot saturated-kernel
    # sum over every sample equals the three-part split exactly
    rng = np.random.default_rng(29)
    for n_prime in (2, 4, 8, 16):
        for odd in (False, True):
            h = 0.4
            half = random_half(rng, n_prime, odd)
            f = oracles.window(half, n_prime, odd)
            g = table_g(n_prime)
            fft_out = indefinite_integral(half, h, odd)[1:]
            split = oracles.indefinite_direct(f, g, h)
            whole = oracles.indefinite_saturated(f, g, h)
            scale = max(np.max(np.abs(split)), 1.0)
            assert np.max(np.abs(whole - split)) <= 1e-12 * scale
            assert np.max(np.abs(fft_out - split)) <= 1e-12 * scale


def test_indefinite_passes_chain_to_the_double_integral():
    # the first pass's output (odd) is the second pass's half line: two
    # passes on f = 1/(1 + x^2) give x arctan x - log(1 + x^2)/2
    errs = {}
    for n_prime in (64, 256, 1024):
        h = h_rule(n_prime)
        f = 1.0 / (1.0 + (np.arange(4 * n_prime + 1) * h) ** 2)
        out = indefinite_integral(indefinite_integral(f, h), h, odd=True)
        x = np.arange(n_prime + 1) * h
        errs[n_prime] = np.max(np.abs(out - (x * np.arctan(x) - 0.5 * np.log1p(x * x))))
    assert errs[1024] <= 1e-12
    assert errs[256] <= errs[64] / 100.0


def test_indefinite_convergence_in_n_prime():
    errs = []
    sizes = (64, 128, 256, 512)
    for n_prime in sizes:
        f, h = arctan_setup(n_prime)
        out = indefinite_integral(f, h)
        errs.append(np.max(np.abs(out - np.arctan(np.arange(n_prime + 1) * h))))
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0)
    root_n = np.sqrt(np.array(sizes, dtype=float))
    slope, intercept = np.polyfit(root_n, np.log(errs), 1)
    fit = slope * root_n + intercept
    ss_res = np.sum((np.log(errs) - fit) ** 2)
    ss_tot = np.sum((np.log(errs) - np.mean(np.log(errs))) ** 2)
    assert slope < 0
    assert 1 - ss_res / ss_tot >= 0.9
