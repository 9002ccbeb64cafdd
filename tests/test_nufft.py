"""ES-gridding NUFFT: parameter rules, the folded kernel bands, kernel
transform, forward accuracy."""
import math

import numpy as np
import pytest

import oracles
from levyfourier.de_ft import _sources_stacked, node_plan, splice_plan
from levyfourier.euler_ft import EulerParams
from levyfourier.nufft import (BETA, ES_STEP, HALF_WIDTH, SUBNORMAL_WEIGHT, WIDTH, _es_transform,
                               _forward_stacked, gridding_plan, source_shift)


def vg_runs(n=128):
    """Both splice runs of the e^{-y} model on the [2, 5] window geometry:
    (h_tilde, n_gamma, [(weights, points, k-range), ...]) with the plain DE
    weights at the nodes that carry weight."""
    euler = EulerParams.from_theorem(n, 2.0, 5.0, 1.0)
    n_gamma = 2 * n
    out = []
    for run, rng in splice_plan(n_gamma, euler.h_tilde):
        plan = node_plan((run,))
        out.append((_sources_stacked(lambda y: np.exp(-y), plan, 1), plan.y, rng))
    return euler.h_tilde, n_gamma, out


def one_run(points):
    """The run of each point when all belong to one run."""
    return np.zeros(len(points), dtype=np.int32)


def stacked(runs):
    """The points of every run, flat, and the run of each."""
    return (np.concatenate([pts for _, pts, _ in runs]),
            np.repeat(np.arange(len(runs)), [len(pts) for _, pts, _ in runs]))


def forward(weights, points, h_tilde, n_gamma):
    """sum_j w_j e^{-i k h~ y_j}, k = 0..n_gamma, of one run by the plan path."""
    plan = gridding_plan(points, h_tilde, n_gamma, one_run(points))
    shift = np.exp(-1j * source_shift(h_tilde, n_gamma) * points)
    return _forward_stacked(weights * shift, plan)[0]


def test_params_rules():
    # the fixed ES kernel, and the band of each source: the 15 nodes nearest
    # its lattice position c = h~ y M / 2pi, folded mod M, with the kernel at
    # their distance from c, exactly as the periodic brute-force matrix has
    # them; tied sources (large DE grids put several at y = 0) share a band
    assert WIDTH == 15 and HALF_WIDTH == 7.5
    assert BETA == pytest.approx(2.30 * 15, rel=1e-15)
    points = np.concatenate((np.zeros(3), np.linspace(0.5, 7.0, 13)))
    for h_tilde in (0.1, 0.5, 9.0):        # c up to 1.8, 8.9 and 160 = 10 M
        plan = gridding_plan(points, h_tilde, 8, one_run(points))
        assert plan.matrix.indices.dtype == np.int32
        assert np.array_equal(plan.matrix.indptr, 15 * np.arange(17))
        assert np.array_equal(plan.matrix.toarray(), oracles.periodic_band(points, h_tilde, 16))


def test_gridding_plan_rows_are_the_window_pairs():
    # every source's column holds the 15 (node, source) pairs of its folded
    # band on its own run's block of rows; run A's positions reach 5.6 M, so
    # most of its bands fold
    h_tilde, n_gamma, runs = vg_runs()
    # the high-band run reproduces the published window-plot geometry
    assert splice_plan(n_gamma, h_tilde)[1][0].zeta0 == pytest.approx(41.684, abs=2e-3)
    y, run = stacked(runs)
    m = 2 * n_gamma
    plan = gridding_plan(y, h_tilde, n_gamma, run)
    assert plan.matrix.shape == (2 * m, len(y))
    assert plan.matrix.nnz == 15 * len(y)
    assert np.all(plan.matrix.data > 0)
    assert h_tilde * y[run == 0].max() * m / (2 * math.pi) > 5 * m
    dense = plan.matrix.toarray()
    for r, (_, pts, _) in enumerate(runs):
        block = dense[r * m:(r + 1) * m]
        assert np.array_equal(block[:, run == r], oracles.periodic_band(pts, h_tilde, m))
        assert not np.any(block[:, run != r])
    # a subset of the sources, of different sizes per run (a third of run 0,
    # all of run 1), keeps the other columns' entries unchanged
    keep = np.flatnonzero((run == 1) | (np.arange(len(y)) % 3 == 0))
    sub = gridding_plan(y[keep], h_tilde, n_gamma, run[keep])
    assert sub.matrix.shape == (2 * m, len(keep))
    assert np.array_equal(sub.matrix.toarray(), dense[:, keep])


def test_kernel_transform_rule_is_the_first_converged_halving():
    # the trapezoid rule over the kernel's support [-w/2, w/2]: halving step
    # 1/2 still moves phi_hat at 65 frequencies over [0, pi/2] by more than
    # 1e-15 phi_hat(0), and halving step 1/4 by at most that, the rounding
    # floor; the rule is summed directly here, not by the plan's factorization
    omega = np.linspace(0.0, math.pi / 2, 65)

    def phi_hat(step):
        z = np.linspace(-HALF_WIDTH, HALF_WIDTH, round(WIDTH / step) + 1)
        g = np.full(len(z), step)
        g[[0, -1]] /= 2
        return np.cos(np.outer(omega, z)) @ (g * oracles.es_kernel(z))

    rule = {step: phi_hat(step) for step in (1.0, 0.5, 0.25, 0.125)}
    moves = {step: np.max(np.abs(rule[step / 2] - rule[step])) / rule[step][0]
             for step in (1.0, 0.5, 0.25)}
    assert moves[1.0] > moves[0.5] > 1e-15 and moves[0.25] <= 1e-15
    assert ES_STEP == 0.25
    step = math.pi / 2 / 4096
    assert np.allclose(_es_transform(step, 4097)[::64], rule[0.25],
                       rtol=1e-14, atol=0)


def test_deconvolution_is_the_kernel_transform():
    # post = 1 / phi_hat(a k'); phi_hat against adaptive quadrature of
    # the kernel's defining integral at nine frequencies over |a k'| <= pi/2
    h_tilde, n_gamma, runs = vg_runs()
    y, run = stacked(runs)
    plan = gridding_plan(y, h_tilde, n_gamma, run)
    a = 2 * math.pi / (2 * n_gamma)
    kp = np.arange(0, n_gamma + 1) - n_gamma // 2
    for k in np.linspace(0, n_gamma, 9).astype(int):
        assert abs(a * kp[k]) <= math.pi / 2
        ref = oracles.es_transform_quad(15, 2.30 * 15, a * kp[k])
        assert abs(1 / plan.post[k] - ref) <= 1e-13 * ref, k
    assert plan.post.dtype == float


def test_forward_zero_weights():
    points = np.linspace(0.1, 3.2, 32)
    out = forward(np.zeros(32), points, 0.2, 16)
    assert np.array_equal(out, np.zeros(17))
    # weight parts below SUBNORMAL_WEIGHT count as 0; a weight of 1e-280 is
    # kept to full relative accuracy
    tiny = np.full(32, 0.5 * SUBNORMAL_WEIGHT * (1 + 1j))
    assert np.array_equal(forward(tiny, points, 0.2, 16), np.zeros(17))
    kept = np.zeros(32)
    kept[5] = 1e-280
    exact = 1e-280 * np.exp(-1j * np.arange(17) * 0.2 * points[5])
    assert np.max(np.abs(forward(kept, points, 0.2, 16) - exact)) <= 1e-289


def test_forward_single_source_is_pure_phase():
    # the source sits at c = 3.7, so its band -3..11 folds past node 0
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
    # random phases on the magnitudes of the VG DE weights
    rng = np.random.default_rng(41)
    h_tilde, n_gamma, runs = vg_runs()
    for weights, points, _ in runs:
        w = weights * np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(weights)))
        fast = forward(w, points, h_tilde, n_gamma)
        direct = oracles.source_sum_direct(w, points, h_tilde, n_gamma)
        assert np.max(np.abs(fast - direct)) <= 1e-8


def test_forward_flat_random_phase_weights_match_direct_sum():
    # one magnitude and random phases at every DE point: the sources past
    # one period of the lattice (c > M, most of run A) weigh as much as any
    # other, so every one of them must reach the grid
    rng = np.random.default_rng(47)
    h_tilde, n_gamma, runs = vg_runs()
    for _, points, _ in runs:
        w = np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(points)))
        fast = forward(w, points, h_tilde, n_gamma)
        direct = oracles.source_sum_direct(w, points, h_tilde, n_gamma)
        assert np.max(np.abs(fast - direct)) <= 1e-13 * np.sum(np.abs(w))


def test_forward_size_errors():
    # a run may hold any number of sources; the grid must be a power of two
    points = np.linspace(0.3, 4.8, 24)
    with pytest.raises(ValueError, match="M = 24 must be a power of two"):
        forward(np.ones(24), points, 0.2, 12)
    for y, run in ((points, np.zeros(23, dtype=int)), (points[None], np.zeros((1, 24), int))):
        with pytest.raises(ValueError, match="y and run must be 1-d of one length"):
            gridding_plan(y, 0.2, 16, run)


def test_phase_compensated_spectrum_is_m_periodic():
    # folding is exact: bin k' mod M of the folded grid's FFT is the Fourier
    # sum over the unfolded nodes l, for k' and k' + M alike, with the
    # sources spread over three periods of the lattice
    rng = np.random.default_rng(43)
    m, n_gamma, h_tilde = 16, 8, 0.21
    w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    points = np.linspace(0.3, 90.0, m)
    a = 2 * math.pi / m
    c = h_tilde * points / a
    assert c.max() > 3 * m
    plan = gridding_plan(points, h_tilde, n_gamma, one_run(points))
    spec = np.fft.fft(plan.matrix @ w)
    nodes = np.arange(math.floor(c.min()) - 8, math.ceil(c.max()) + 9)
    unfolded = oracles.es_kernel(nodes[:, None] - c) @ w
    for kp in range(-(n_gamma // 2), n_gamma // 2 + 1):
        for k in (kp, kp + m):
            direct = np.sum(unfolded * np.exp(-1j * a * k * nodes))
            assert abs(spec[k % m] - direct) <= 1e-13 * np.sum(np.abs(w)), k


def test_stacked_forward_matches_composition():
    h_tilde, n_gamma, runs = vg_runs()
    y, run = stacked(runs)
    weights = np.concatenate([w for w, _, _ in runs])
    shifted = weights * np.exp(-1j * source_shift(h_tilde, n_gamma) * y)
    plan = gridding_plan(y, h_tilde, n_gamma, run)
    both = _forward_stacked(shifted, plan)
    for row, (w, pts, _) in enumerate(runs):
        ref = forward(w, pts, h_tilde, n_gamma)
        assert np.max(np.abs(both[row] - ref)) <= 1e-13 * np.max(np.abs(ref))
