"""Double-exponential Fourier-transform sources and the two-run splice plan."""
import math
import warnings

import numpy as np
import pytest
import scipy.special as sp

import oracles
from levyfourier.de_ft import (_E_ASYMP, DE_BETA, PROBE_STRIDE, RUN_B_NODES, DeFtParams,
                               _sources_stacked, node_plan, phi_parts, splice_plan)
from levyfourier.euler_ft import EulerParams
from levyfourier.nufft import _forward_stacked, gridding_plan, source_shift

H_TILDE_2_11 = math.sqrt(14 * math.pi / 2**11)


def de_points(run):
    """j = j_start..j_start+m-1 and every DE point P phi(jh) of the run,
    those node_plan drops included."""
    j = np.arange(run.j_start, run.j_start + run.m)
    return j, run.point_scale * phi_parts(j * run.h, run.alpha)[0]


def columns(spans):
    """The plan sources whose weights _sources_stacked returned, in order."""
    return np.concatenate([np.arange(start, stop) for start, stop in spans])


def j_of(run, y):
    """The j of the run's DE point y."""
    j, points = de_points(run)
    (at,) = np.flatnonzero(points == y)
    return j[at]


def test_phi_removable_singularity():
    alpha = 0.18
    limit = 1.0 / (2 + alpha + DE_BETA)
    at_zero, right, left = phi_parts([0.0, 1e-6, -1e-6], alpha)[0]
    assert at_zero == pytest.approx(limit, rel=1e-14)
    # cross-check the limit from both sides
    assert abs(right - limit) <= 1e-5
    assert abs(left - limit) <= 1e-5


def test_phi_asymptotes():
    for alpha in (0.05, 0.2):
        hi, lo = phi_parts([30.0, -30.0], alpha)[0]
        assert abs(hi - 30.0) <= 1e-12
        assert abs(lo) <= 1e-10


def test_phi_parts_monotone_positive_on_truncation_range():
    # the left end of the shifted range reaches phi = 0 (its nodes carry no
    # weight and node_plan drops them); every live node is positive, in order
    (run_a, _), (run_b, _) = splice_plan(1024, H_TILDE_2_11)
    for run in (run_a, run_b):
        j = np.arange(run.j_start, run.j_start + run.m)
        ph, phat, dph = phi_parts(j * run.h, run.alpha)
        live = node_plan((run,)).j - run.j_start
        assert np.all(ph >= 0) and np.all(np.diff(ph) >= 0)
        assert np.all(ph[live] > 0) and np.all(np.diff(ph[live]) > 0)
        assert np.all(dph[live] > 0)
        assert np.all(np.isfinite(phat))


def test_phi_parts_derivative_matches_finite_difference():
    alpha = 0.13
    t = np.linspace(-8, 8, 401)
    eps = 1e-6
    _, _, dph = phi_parts(t, alpha)
    fd = (phi_parts(t + eps, alpha)[0] - phi_parts(t - eps, alpha)[0]) / (2 * eps)
    assert np.max(np.abs(dph - fd)) <= 1e-7 * np.max(np.abs(dph))


def test_phi_parts_phihat_identity():
    t = np.linspace(-20, 20, 1601)
    ph, phat, _ = phi_parts(t, 0.2)
    # phihat = phi - t, computed in a cancellation-free form internally
    ref = ph - t
    assert np.max(np.abs(phat - ref)) <= 1e-9 * max(1.0, np.max(np.abs(phat)))


def test_de_params_validation():
    p = DeFtParams(10.0, 1024)
    h = math.log(1e3 * 1024) / 1024
    expected = 0.25 / math.sqrt(1 + math.log(1 + math.pi / (10.0 * h)) / (4 * 10.0 * h))
    assert p.h == h
    assert p.alpha == pytest.approx(expected, rel=1e-14)
    assert p.point_scale == pytest.approx(math.pi / (10.0 * h), rel=1e-14)
    assert p == DeFtParams(10.0, 1024) and hash(p) == hash(DeFtParams(10.0, 1024))
    for derived in ({"h": h}, {"alpha": expected}):   # h and alpha are derived, not set
        with pytest.raises(TypeError):
            DeFtParams(10.0, 1024, **derived)
    assert p.j_start == -640 and DeFtParams(10.0, 8).j_start == -5
    for m in (1000, 4, 1, 0):
        with pytest.raises(ValueError, match=f"m = {m} must be a power of two >= 8"):
            DeFtParams(10.0, m)
    for zeta0 in (-1.0, 0.0):
        with pytest.raises(ValueError, match="zeta0 must be positive"):
            DeFtParams(zeta0, 1024)


def test_node_plan_stacks_runs_of_different_h_and_m():
    # each run keeps its own zeta0, h and m: the stacked plan is the one-run
    # plans laid end to end, every live source tagged with its run and j
    runs = (DeFtParams(10.0, 1024), DeFtParams(40.0, 256), DeFtParams(20.0, 512))
    plan = node_plan(runs, 0.37)
    assert len(plan.y) == len(plan.j) == len(plan.run) == len(plan.factor) <= 1792
    assert np.all(plan.y > 0)
    for r, run in enumerate(runs):
        one = node_plan((run,), 0.37)
        mine = plan.run == r
        assert np.array_equal(plan.y[mine], one.y)
        assert np.array_equal(plan.j[mine], one.j)
        assert np.array_equal(plan.factor[mine], one.factor)
        j, points = de_points(run)
        assert np.array_equal(one.y, points[one.j - run.j_start])
        assert np.all(np.diff(one.j) > 0) and run.j_start <= one.j[0] and one.j[-1] <= j[-1]
    assert plan.run.dtype == plan.j.dtype == np.int32 and np.all(np.diff(plan.run) >= 0)


def test_node_plan_vg_geometry():
    (run_a, _), (run_b, _) = splice_plan(1024, H_TILDE_2_11)
    for run in (run_a, run_b):
        plan = node_plan((run,))
        assert len(plan.y) == len(plan.j) == len(plan.run) == len(plan.factor) <= run.m
        assert np.all(plan.y > 0) and np.all(np.diff(plan.y) > 0)
        weights = np.exp(-plan.y) * plan.factor
        peak = np.max(np.abs(weights))
        # double-exponential decay has flattened out at both truncation ends
        assert abs(weights[0]) <= 1e-12 * peak
        assert abs(weights[-1]) <= 1e-12 * peak
        with pytest.raises(ValueError):
            plan.factor[0] = 2.0


def test_direct_sum_accurate_on_assigned_window_only():
    # mu = e^{-y} has transform 1/(1 + i zeta); each run must hit 1e-6 on its
    # own k-window and is allowed (and expected) to be worse on the other one
    n_gamma = 256
    h_tilde = EulerParams.from_theorem(128, 2.0, 5.0, 1.0).h_tilde
    (run_a, range_a), (run_b, range_b) = splice_plan(n_gamma, h_tilde)
    errs = {}
    for name, run in (("a", run_a), ("b", run_b)):
        plan = node_plan((run,))
        weights = np.exp(-plan.y) * plan.factor
        direct = oracles.source_sum_direct(weights, plan.y, h_tilde, n_gamma)
        exact = 1.0 / (1.0 + 1j * np.arange(n_gamma + 1) * h_tilde)
        errs[name] = np.abs(direct - exact)
    ka, kb = np.asarray(range_a), np.asarray(range_b)
    assert np.max(errs["a"][ka]) <= 1e-6
    assert np.max(errs["b"][kb]) <= 1e-6
    assert np.max(errs["a"][kb]) > np.max(errs["a"][ka])
    assert np.max(errs["b"][ka]) > np.max(errs["b"][kb])


def test_sources_stacked_matches_per_run():
    n_gamma = 256
    h_tilde = EulerParams.from_theorem(128, 2.0, 5.0, 1.0).h_tilde
    (run_a, _), (run_b, _) = splice_plan(n_gamma, h_tilde)
    mu = lambda y: np.exp(-y)
    shift = 0.37
    plan = node_plan((run_a, run_b), shift)
    weights, spans, evaluated = _sources_stacked(mu, plan, 1)
    # the weights are mu times factor at the returned columns, bit for bit:
    # a range of run A, then all of run B
    assert np.array_equal(weights, (mu(plan.y) * plan.factor)[columns(spans)])
    (lo, hi), (tail, size) = spans
    assert 0 <= lo < hi <= tail == np.count_nonzero(plan.run == 0) and size == len(plan.y)
    assert evaluated == len(range(0, tail, PROBE_STRIDE)) + 2 + (size - tail) + (hi - lo)
    for row, run in ((0, run_a), (1, run_b)):
        one = node_plan((run,))
        assert np.array_equal(plan.y[plan.run == row], one.y)
        ref = mu(one.y) * one.factor * np.exp(-1j * shift * one.y)
        got = (mu(plan.y) * plan.factor)[plan.run == row]
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_node_plan_drops_zero_weight_nodes_and_never_evaluates_mu_there():
    # vg at M = 2^14: phi' underflows to 0 at the left end of both runs,
    # where the points themselves have underflowed to y = 0 (939 of run A's
    # 16384, 203 of run B's 2048)
    h_tilde = EulerParams.from_theorem(2**12, 2.0, 5.0, 1.0).h_tilde
    (run_a, _), (run_b, _) = splice_plan(8192, h_tilde)
    plan = node_plan((run_a, run_b))
    assert run_a.m + run_b.m - len(plan.y) == 1142
    zero = sum(np.count_nonzero(de_points(run)[1] == 0.0) for run in (run_a, run_b))
    assert zero == 1142 and np.all(plan.y > 0)
    assert np.all(plan.factor != 0)
    seen = []

    def mu(y):
        seen.append(y.copy())
        return y ** -0.5                         # infinite at y = 0
    weights, _, evaluated = _sources_stacked(mu, plan, 1)
    # mu never sees y = 0, and sees fewer points than there are live sources
    assert len(seen) == 2 and all(np.all(y > 0) for y in seen)
    assert evaluated == sum(map(len, seen)) < len(plan.y)
    assert np.all(np.isfinite(weights))


@pytest.mark.parametrize("n_gamma", [64, 1024, 8192])
def test_node_plan_starts_each_run_at_its_first_live_j(n_gamma):
    # the live filter drops every node before the first j with
    # E(jh) >= -500, where phi' = 0, and keeps that first one
    h_tilde = EulerParams.from_theorem(n_gamma // 2, 2.0, 5.0, 1.0).h_tilde
    runs = [run for run, _ in splice_plan(n_gamma, h_tilde)]
    plan = node_plan(runs, source_shift(h_tilde, n_gamma))
    for r, run in enumerate(runs):
        first = plan.j[plan.run == r][0]
        t = np.arange(run.j_start, first + 1) * run.h
        exponent = 2 * t + run.alpha * -np.expm1(-t) + DE_BETA * np.expm1(t)
        assert np.all(exponent[:-1] < -_E_ASYMP) and exponent[-1] >= -_E_ASYMP
        assert first > run.j_start or n_gamma < 8192


def test_sources_stacked_rejects_nonfinite_mu_at_live_nodes():
    # M = 2^12: run A has 4096 nodes and run B 2048, so run B's j range
    # -1280..767 is its own, not run A's -2560..1535
    (run_a, _), (run_b, _) = splice_plan(2048, 0.05)
    assert (run_a.m, run_b.m) == (4096, 2048)
    plan = node_plan((run_a, run_b))
    assert run_b.j_start == -1280
    (lo, hi), _ = _sources_stacked(lambda y: np.exp(-y), plan, 1)[1]
    # a node of run b, which the first call of mu sees, and a node of run a
    # between two probes, which only the second sees
    mid = lo + PROBE_STRIDE * ((hi - lo) // (2 * PROBE_STRIDE)) + 1
    for run, at in ((run_b, np.flatnonzero(plan.run == 1)[3]), (run_a, mid)):
        y_bad = plan.y[at]
        mu = lambda y: np.where(y == y_bad, np.nan, np.exp(-y))
        j = j_of(run, y_bad)
        assert run.j_start <= j < run.j_start + run.m
        with pytest.raises(ValueError, match=f"non-finite value nan at j={j}, y=") as info:
            _sources_stacked(mu, plan, 1)
        assert float(str(info.value).partition(", y=")[2]) == y_bad   # a plain number


def test_sources_stacked_rejects_complex_mu():
    (run_a, _), (run_b, _) = splice_plan(2048, 0.05)
    plan = node_plan((run_a, run_b))
    at = np.flatnonzero(plan.run == 1)[5]        # a node of run b
    y_bad = plan.y[at]
    j = j_of(run_b, y_bad)
    mu = lambda y: np.exp(-y) + np.where(y == y_bad, 2j, 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")           # no ComplexWarning, no truncation
        with pytest.raises(ValueError, match=rf"real values: \(1\+2j\) at j={j}, y=") as info:
            _sources_stacked(mu, plan, 1)
        assert float(str(info.value).partition(", y=")[2]) == y_bad
        j0 = j_of(run_a, plan.y[0])
        with pytest.raises(ValueError, match=f"real values: .* at j={j0}, y="):
            _sources_stacked(lambda y: 1j * np.exp(-y), plan, 1)
        # a complex array is refused even where every imaginary part is zero
        with pytest.raises(ValueError, match="real values .*complex array"):
            _sources_stacked(lambda y: np.exp(-y) + 0j, plan, 1)


def test_sources_stacked_rejects_mu_of_another_shape():
    (run_a, _), (run_b, _) = splice_plan(256, 0.05)
    plan = node_plan((run_a, run_b))
    # a scalar would broadcast to every node, a column to an (S, S) block;
    # the message names the shape of the y that mu was given
    for bad, got in ((lambda y: 1.0, lambda shape: ()),
                     (lambda y: y[:, None], lambda shape: shape + (1,))):
        seen = []

        def mu(y):
            seen.append(y.shape)
            return bad(y)
        with pytest.raises(ValueError) as info:
            _sources_stacked(mu, plan, 1)
        (shape,) = seen
        assert str(info.value) == f"mu returned shape {got(shape)} for y of shape {shape}"
        assert 0 < shape[0] < len(plan.y)


def test_node_plan_records_its_two_smallest_live_points():
    (run_a, _), (run_b, _) = splice_plan(256, 0.05)
    plan = node_plan((run_a, run_b))
    assert np.array_equal(plan.low, np.argsort(plan.y)[:2])


def _cgmy_mu(y_power):
    return lambda y: 0.8 * y ** y_power * np.exp(-2.0 * y)


def test_sources_stacked_refuses_a_mu_whose_nu_is_not_a_levy_density():
    # nu = mu / y^gamma needs y^2 nu integrable at 0, so mu ~ y^s needs s > gamma - 3
    (run_a, _), (run_b, _) = splice_plan(256, 0.05)
    plan = node_plan((run_a, run_b))
    refused = ((2, lambda y: np.exp(-y) / y, "-1"),
               (2, lambda y: sp.k1(y) / (np.pi * y), "-2"),     # nig's nu
               (1, lambda y: np.exp(-y) / y**2, "-2"))
    for gamma, mu, s in refused:
        with pytest.raises(ValueError, match=rf"mu grows like y\^{s} at 0: nu = mu/y\^gamma "
                                             r"is not a Levy density .* pass mu = y\^gamma nu"):
            _sources_stacked(mu, plan, gamma)
    # the Y = 1 tempered-stable model at gamma 1, vg, nig and the CGMY
    # models at gamma 1 for Y < 1 and gamma 2 otherwise
    accepted = [(1, lambda y: np.exp(-y) / y), (1, lambda y: np.exp(-y)),
                (2, lambda y: y * sp.k1(y) / np.pi)]
    accepted += [(g, _cgmy_mu(g - 1 - Y))
                 for Y, g in ((0.1, 1), (0.9, 1), (1.0, 2), (1.5, 2), (1.9, 2))]
    for gamma, mu in accepted:
        weights, spans, _ = _sources_stacked(mu, plan, gamma)
        assert np.array_equal(weights, (mu(plan.y) * plan.factor)[columns(spans)])
    # a mu that vanishes at 0 has no power to measure
    _sources_stacked(lambda y: np.where(y < 1e-3, 0.0, 1 / y), plan, 2)


def test_splice_plan_rules():
    n_gamma = 1024
    (run_a, range_a), (run_b, range_b) = splice_plan(n_gamma, H_TILDE_2_11)
    m = 2 * n_gamma
    assert run_a.h == run_b.h == pytest.approx(math.log(1e3 * m) / m, rel=1e-14)
    assert run_a.m == run_b.m == m
    # run A keeps M = 2 N_gamma nodes; run B stops at RUN_B_NODES = 2048,
    # each at h = log(1000 m)/m for its own m and j = -5m/8..3m/8-1
    assert RUN_B_NODES == 2048
    for n_g, m_a, m_b in ((512, 1024, 1024), (4096, 8192, 2048), (8192, 16384, 2048)):
        (a, _), (b, _) = splice_plan(n_g, H_TILDE_2_11)
        assert (a.m, b.m) == (m_a, m_b)
        for run in (a, b):
            assert run.h == math.log(1e3 * run.m) / run.m
            assert (run.j_start, run.j_start + run.m - 1) == (-5 * run.m // 8, 3 * run.m // 8 - 1)
            assert node_plan((run,)).j[-1] == 3 * run.m // 8 - 1
    assert run_a.zeta0 == pytest.approx(n_gamma * H_TILDE_2_11 / 15.0, rel=1e-14)
    assert run_b.zeta0 == pytest.approx(n_gamma * H_TILDE_2_11 / 1.8, rel=1e-14)
    assert run_a.zeta0 == pytest.approx(10.0, abs=0.05)
    assert run_b.zeta0 == pytest.approx(83.4, abs=0.05)
    # the two windows partition k = 0..n_gamma
    assert range_a.start == 0 and range_a.stop == n_gamma // 8 + 1
    assert range_b.start == range_a.stop and range_b.stop == n_gamma + 1
    with pytest.raises(ValueError):
        splice_plan(4, H_TILDE_2_11)


def _tempered(s):
    """mu = y^s e^{-y} and its transform Gamma(s+1) (1 + i zeta)^-(s+1)."""
    return (lambda y: y ** s * np.exp(-y),
            lambda z: math.gamma(s + 1) * (1 + 1j * z) ** -(s + 1))


# (name, gamma, mu, transform of mu, bound on each run against its direct sum
# relative to the run's sum of |weights|): CGMY with C = G = M = 1 has
# mu = y^(gamma-1-Y) e^{-y}; the ES kernel of width 15 reaches 1.0e-14 of the
# mass for the smooth mu, 6.0e-14 for Y = 0.9 and 1.9, whose weights cluster
# near y = 0, and 1.4e-13 for e^{-0.05 y}, whose weights spread far past one
# period (i = 11..14; the same with both runs at M centred nodes)
STEP1_CASES = [("vg", 1, lambda y: np.exp(-y), lambda z: 1 / (1 + 1j * z), 2e-14),
               ("exp-0.05", 1, lambda y: np.exp(-0.05 * y), lambda z: 1 / (0.05 + 1j * z), 3e-13)]
STEP1_CASES += [(f"cgmy-{big_y}", gamma, *_tempered(gamma - 1 - big_y), bound)
                for big_y, gamma, bound in ((0.5, 1, 2e-14), (0.9, 1, 1e-13),
                                            (1.5, 2, 2e-14), (1.9, 2, 1e-13))]


@pytest.mark.parametrize("i", [11, 12, 13, 14])
@pytest.mark.parametrize("case", STEP1_CASES, ids=[c[0] for c in STEP1_CASES])
def test_each_run_matches_its_direct_sum_and_run_b_the_closed_form(case, i):
    # run B holds at 2048 nodes (512 already suffice; 256 miss by 1e-8), and
    # the shifted j range keeps the mass a singular mu has near y = 0
    _, gamma, mu, exact, bound = case
    euler = EulerParams(2 ** (i - gamma - 1), 2.0, 5.0, 1.0)
    n_gamma, h_tilde = euler.n << gamma, euler.h_tilde
    splice = splice_plan(n_gamma, h_tilde)
    runs = [run for run, _ in splice]
    nodes = node_plan(runs, source_shift(h_tilde, n_gamma))
    got = _forward_stacked(*_sources_stacked(mu, nodes, gamma)[:2],
                           gridding_plan(nodes.y, h_tilde, n_gamma, nodes.run))
    plain = node_plan(runs)
    weights = mu(plain.y) * plain.factor
    for row, (_, band) in enumerate(splice):
        mine = plain.run == row
        k = np.unique(np.linspace(band.start, band.stop - 1, 129).astype(int))
        direct = oracles.source_sum_direct(weights[mine], plain.y[mine], h_tilde, n_gamma, k)
        err = np.max(np.abs(got[row, k] - direct))
        assert err <= bound * np.sum(np.abs(weights[mine])), row
    k = np.asarray(splice[1][1])
    mhat = exact(np.arange(n_gamma + 1) * h_tilde)
    assert np.max(np.abs(got[1, k] - mhat[k])) <= 1e-13 * np.max(np.abs(mhat))


@pytest.mark.parametrize("i", [11, 12, 13, 14])
@pytest.mark.parametrize("case", STEP1_CASES, ids=[c[0] for c in STEP1_CASES])
def test_trimmed_transform_matches_mu_at_every_live_source(case, i):
    # mu evaluated only where run A's terms count: run A's row within 1e-15
    # of its sum of |weights| of the transform with mu at every live source,
    # and run B's row, which mu sees in full, bit for bit that transform
    _, gamma, mu, _, _ = case
    euler = EulerParams(2 ** (i - gamma - 1), 2.0, 5.0, 1.0)
    n_gamma, h_tilde = euler.n << gamma, euler.h_tilde
    nodes = node_plan((run for run, _ in splice_plan(n_gamma, h_tilde)),
                      source_shift(h_tilde, n_gamma))
    gridding = gridding_plan(nodes.y, h_tilde, n_gamma, nodes.run)
    weights, spans, _ = _sources_stacked(mu, nodes, gamma)
    (lo, hi), (tail, size) = spans
    assert hi - lo < tail and size - tail == np.count_nonzero(nodes.run == 1)
    got = _forward_stacked(weights, spans, gridding)
    full = mu(nodes.y) * nodes.factor
    ref = _forward_stacked(full, ((0, size),), gridding)
    assert np.max(np.abs(got[0] - ref[0])) <= 1e-15 * np.sum(np.abs(full[:tail]))
    assert np.array_equal(got[1], ref[1])


def test_probes_keep_every_source_outside_the_negligible_tails():
    # at M = 2^14, the range of run A that mu is evaluated over holds every
    # source outside a prefix and a suffix that each carry less than 1e-17
    # of run A's sum of |weights| (at most 8.5e-25 measured).  The stride
    # is odd: at an even one the probes in run A's left cluster see only the
    # zeros of sin(-pi j/2) there and start the range too late for nig and
    # CGMY Y = 1.9, whose weights cluster near y = 0
    nig = lambda y: y * sp.k1(y) / np.pi
    cgmy = lambda y: 1.43 * y ** -0.9 * np.exp(-1.02 * y)
    for gamma, mu in ((2, nig), (2, cgmy)):
        euler = EulerParams(2 ** (14 - gamma - 1), 2.0, 5.0, 1.0)
        n_gamma = euler.n << gamma
        nodes = node_plan(run for run, _ in splice_plan(n_gamma, euler.h_tilde))
        (lo, hi), (tail, _) = _sources_stacked(mu, nodes, gamma)[1]
        share = np.abs(mu(nodes.y[:tail]) * nodes.factor[:tail])
        share /= np.sum(share)
        assert np.sum(share[:lo]) < 1e-17 and np.sum(share[hi:]) < 1e-17
