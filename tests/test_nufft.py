"""ES-gridding NUFFT: parameter rules, index windows, kernel transform,
forward accuracy."""
import math

import numpy as np
import pytest

import oracles
from levyfourier.de_ft import _sources_stacked, node_plan, splice_plan
from levyfourier.euler_ft import EulerParams
from levyfourier.nufft import (BETA, ES_QUADRATURE_NODES, HALF_WIDTH, WIDTH, _es_quadrature,
                               _es_transform, _forward_stacked, build_windows,
                               gridding_plan, source_shift)
from levyfourier.solver import _window


def vg_runs(n=128):
    """Both splice runs of the e^{-y} model on the [2, 5] window geometry:
    (h_tilde, n_gamma, [(weights, points, k-range), ...]) with the plain DE
    weights, zero at nodes that carry no weight."""
    euler = EulerParams.from_theorem(n, 2.0, 5.0, 1.0)
    n_gamma = 2 * n
    out = []
    for run, rng in splice_plan(n_gamma, euler.h_tilde):
        plan = node_plan((run,))
        weights = np.zeros(run.m, dtype=complex)
        weights[plan.live] = _sources_stacked(lambda y: np.exp(-y), plan)
        out.append((weights, plan.points[0], rng))
    return euler.h_tilde, n_gamma, out


def forward(weights, points, h_tilde, n_gamma):
    """sum_j w_j e^{-i k h~ y_j}, k = 0..n_gamma, of one run by the plan path."""
    plan = gridding_plan(points, h_tilde, n_gamma, np.arange(len(points)))
    shift = np.exp(-1j * source_shift(h_tilde, n_gamma) * points)
    return _forward_stacked(weights * shift, plan)[0]


def test_params_rules():
    # the fixed ES kernel, and each run's lattice start l_lo = floor(min c) -
    # ceil(w/2): the kernel support of the leftmost source lies on the grid,
    # and the plan's rows are the nodes l_lo..l_lo + M - 1
    assert WIDTH == 15 and HALF_WIDTH == 7.5
    assert BETA == pytest.approx(2.30 * 15, rel=1e-15)
    points = np.linspace(0.5, 7.0, 16)
    for h_tilde in (0.1, 0.5):             # c_0 = 0.127 and 0.637
        c, nodes = oracles.gridding_lattice(points, h_tilde)
        assert c[0] == pytest.approx(h_tilde * 0.5 * 16 / (2 * math.pi), rel=1e-14)
        assert 8 <= c[0] - nodes[0] < 9
        plan = gridding_plan(points, h_tilde, 8, np.arange(16))
        leftmost = plan.matrix[:, [0]].tocsc().indices
        assert np.array_equal(np.sort(leftmost),
                              np.flatnonzero(np.abs(nodes - c[0]) <= HALF_WIDTH))
        assert leftmost.min() >= 1


def test_windows_match_brute_force():
    h_tilde, n_gamma, runs = vg_runs()
    # the high-band run reproduces the published window-plot geometry
    assert splice_plan(n_gamma, h_tilde)[1][0].zeta0 == pytest.approx(41.684, abs=2e-3)
    for _, points, _ in runs:
        c, nodes = oracles.gridding_lattice(points, h_tilde)
        j_min, j_max = build_windows(c, nodes)
        ref_min, ref_max = oracles.windows_brute(c, nodes, 7.5)
        assert np.array_equal(j_min, ref_min)
        assert np.array_equal(j_max, ref_max)


def test_windows_monotone_and_contain_inner_sources():
    h_tilde, _, runs = vg_runs()
    for _, points, _ in runs:
        c, nodes = oracles.gridding_lattice(points, h_tilde)
        j_min, j_max = build_windows(c, nodes)
        assert np.all(np.diff(j_min) >= 0)
        assert np.all(np.diff(j_max) >= 0)
        assert np.all(j_min <= j_max + 1)
        j_lo = -(len(c) // 2)
        for pos, l in enumerate(nodes):
            # a window holds exactly the sources within w/2 of its node
            window = c[j_min[pos] - j_lo:j_max[pos] - j_lo + 1]
            assert np.all(np.abs(l - window) <= 7.5)
            inside = np.nonzero(np.abs(l - c) <= 7.5)[0] + j_lo
            assert len(inside) == len(window)


def test_windows_single_point_threshold():
    # one source at c = 0 feeds exactly the nodes within w/2 = 7.5 of it
    j_min, j_max = build_windows(np.array([0.0]), np.arange(-25, 41))
    for pos, l in enumerate(range(-25, 41)):
        if abs(l) <= 7:
            assert (j_min[pos], j_max[pos]) == (0, 0)
        else:
            assert j_max[pos] == j_min[pos] - 1


def test_windows_reject_unsorted_points():
    with pytest.raises(ValueError, match="nondecreasing"):
        build_windows(np.array([1.0, 0.5]), np.arange(-25, 41))


def test_windows_with_tied_points_match_brute_force():
    # large DE grids put a run of nodes at y = 0; the rank queries must
    # still give exactly the sources inside each node's kernel support
    points = np.concatenate((np.zeros(5), np.linspace(0.1, 4.0, 27)))
    c, nodes = oracles.gridding_lattice(points, 0.9)
    j_min, j_max = build_windows(c, nodes)
    ref_min, ref_max = oracles.windows_brute(c, nodes, 7.5)
    assert np.array_equal(j_min, ref_min)
    assert np.array_equal(j_max, ref_max)


def test_gridding_plan_rows_are_the_window_pairs():
    h_tilde, n_gamma, runs = vg_runs()
    points = np.stack([pts for _, pts, _ in runs])
    m = 2 * n_gamma
    plan = gridding_plan(points, h_tilde, n_gamma, np.arange(2 * m))
    assert plan.matrix.shape == (2 * m, 2 * m)
    for r, (_, pts, _) in enumerate(runs):
        c, nodes = oracles.gridding_lattice(pts, h_tilde)
        j_min, j_max = build_windows(c, nodes)
        for p in (0, m // 3, m // 2, m - 1):
            row = plan.matrix[[r * m + p]]
            cols = np.arange(j_min[p], j_max[p] + 1) + m // 2
            assert np.array_equal(row.indices, cols + r * m)
            u = (nodes[p] - c[cols]) / 7.5
            assert np.array_equal(row.data, np.exp(2.30 * 15 * (np.sqrt(1 - u**2) - 1)))
        assert np.all(plan.matrix.data > 0)
    # restricting to live sources keeps the other columns' entries unchanged
    live = np.flatnonzero(np.arange(2 * m) % 3)
    sub = gridding_plan(points, h_tilde, n_gamma, live)
    assert (sub.matrix != plan.matrix[:, live]).nnz == 0


def test_kernel_transform_rule_is_the_first_converged_doubling():
    # doubling the Gauss-Legendre order from 32 first moves phi_hat at 65
    # frequencies over [0, pi/2] by at most 1e-14 phi_hat(0) at 128 nodes;
    # the transform is summed directly here, not by the plan's factorization
    omega = np.linspace(0.0, math.pi / 2, 65)

    def phi_hat(n):
        z, g = _es_quadrature(n)
        return np.cos(np.outer(omega, z)) @ g

    moves = {}
    for n in (64, 128, 256):
        fine, coarse = phi_hat(n), phi_hat(n // 2)
        moves[n] = np.max(np.abs(fine - coarse)) / fine[0]
    assert moves[64] > 1e-14 and moves[128] <= 1e-14 and moves[256] <= 1e-14
    assert ES_QUADRATURE_NODES == 128
    step = math.pi / 2 / 4096
    assert np.allclose(_es_transform(step, 4097)[::64], phi_hat(128),
                       rtol=1e-14, atol=0)


def test_deconvolution_is_the_kernel_transform():
    # |post| = 1 / phi_hat(a k'); phi_hat against adaptive quadrature of
    # the kernel's defining integral at nine frequencies over |a k'| <= pi/2
    h_tilde, n_gamma, runs = vg_runs()
    points = np.stack([pts for _, pts, _ in runs])
    plan = gridding_plan(points, h_tilde, n_gamma, np.arange(points.size))
    a = 2 * math.pi / (2 * n_gamma)
    kp = np.arange(0, n_gamma + 1) - n_gamma // 2
    for k in np.linspace(0, n_gamma, 9).astype(int):
        assert abs(a * kp[k]) <= math.pi / 2
        ref = oracles.es_transform_quad(15, 2.30 * 15, a * kp[k])
        got = 1 / np.abs(plan.post[:, k])
        assert np.max(np.abs(got - ref)) <= 1e-13 * ref, k


def test_forward_zero_weights():
    points = np.linspace(0.1, 3.2, 32)
    out = forward(np.zeros(32), points, 0.2, 16)
    assert np.array_equal(out, np.zeros(17))


def test_forward_single_source_is_pure_phase():
    # M = 64 nodes so the grid holds every c_j with the kernel's half-width
    # on both sides
    weights = np.zeros(64)
    weights[20] = 1.0
    points = np.linspace(0.3, 4.8, 64)
    h_tilde = 0.21
    out = forward(weights, points, h_tilde, 32)
    k = np.arange(0, 33)
    exact = np.exp(-1j * k * h_tilde * points[20])
    assert np.max(np.abs(out - exact)) <= 1e-9


def test_forward_vg_matches_direct_sum():
    h_tilde, n_gamma, runs = vg_runs()
    for weights, points, _ in runs:
        fast = forward(weights, points, h_tilde, n_gamma)
        direct = oracles.source_sum_direct(weights, points, h_tilde, n_gamma)
        assert np.max(np.abs(fast - direct)) <= 1e-8


def test_forward_phase_randomized_weights_stay_accurate():
    # magnitudes must keep the double-exponential envelope: sources beyond the
    # node span are dropped by design, which only works when they are tiny
    rng = np.random.default_rng(41)
    h_tilde, n_gamma, runs = vg_runs()
    for weights, points, _ in runs:
        w = weights * np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(weights)))
        fast = forward(w, points, h_tilde, n_gamma)
        direct = oracles.source_sum_direct(w, points, h_tilde, n_gamma)
        assert np.max(np.abs(fast - direct)) <= 1e-8


def test_forward_size_errors():
    points = np.linspace(0.3, 4.8, 16)
    with pytest.raises(ValueError, match="must equal 2"):
        forward(np.ones(16), points, 0.2, 16)
    points = np.linspace(0.3, 4.8, 24)
    with pytest.raises(ValueError, match="power of two"):
        forward(np.ones(24), points, 0.2, 12)


def test_phase_compensated_spectrum_is_m_periodic():
    rng = np.random.default_rng(43)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    points = np.linspace(0.3, 4.8, 16)
    h_tilde, n_gamma = 0.21, 8
    m = 16
    plan = gridding_plan(points, h_tilde, n_gamma, np.arange(m))
    shifted = w * np.exp(-1j * source_shift(h_tilde, n_gamma) * points)
    spec = np.fft.fft(plan.matrix @ shifted)
    l_lo = oracles.gridding_lattice(points, h_tilde)[1][0]
    for k in range(n_gamma + 1):
        kp = k - n_gamma // 2
        a = np.exp(-2j * np.pi * kp * l_lo / m) * spec[kp % m]
        b = np.exp(-2j * np.pi * (kp + m) * l_lo / m) * spec[(kp + m) % m]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_stacked_forward_matches_composition():
    h_tilde, n_gamma, runs = vg_runs()
    points = np.stack([pts for _, pts, _ in runs])
    weights = np.concatenate([w for w, _, _ in runs])
    shifted = weights * np.exp(-1j * source_shift(h_tilde, n_gamma) * points.ravel())
    plan = gridding_plan(points, h_tilde, n_gamma, np.arange(weights.size))
    both = _forward_stacked(shifted, plan)
    for row, (w, pts, _) in enumerate(runs):
        ref = forward(w, pts, h_tilde, n_gamma)
        assert np.max(np.abs(both[row] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_extend_conjugate():
    # the Step-2 window of a transform of mu: f(-k) = conj f(k) at k < 0
    v = np.array([1.0 + 0j, 2.0 + 1j, 3.0 - 2j, 4.0 + 3j, 5.0 - 1j])
    ext = _window(v, 2)
    # 3N' values at k = -N'..2N'-1
    assert ext.shape == (6,)
    assert np.array_equal(ext[:2], np.conj(v[2:0:-1]))
    assert np.array_equal(ext[2:], v[:4])
    assert ext[2] == v[0]


def test_extend_conjugate_vg_closed_form():
    # splice the two runs, build the Step-2 window, and compare against
    # 1/(1 + i zeta) on both sides of the origin
    h_tilde, n_gamma, runs = vg_runs()
    spliced = np.empty(n_gamma + 1, dtype=complex)
    for weights, points, krange in runs:
        out = forward(weights, points, h_tilde, n_gamma)
        spliced[np.asarray(krange)] = out[np.asarray(krange)]
    n_prime = n_gamma // 2
    full = _window(spliced, n_prime)
    zeta = np.arange(-n_prime, 2 * n_prime) * h_tilde
    exact = 1.0 / (1.0 + 1j * zeta)
    assert np.min(zeta) < 0 < np.max(zeta)
    assert np.max(np.abs(full - exact)) <= 1e-6
