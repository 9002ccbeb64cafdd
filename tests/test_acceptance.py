"""Acceptance gates.  One test per stated criterion, at the stated sizes and
tolerances, so a verbose run reads as a pass/fail checklist."""
import math
import statistics
import time

import numpy as np
import pytest

import oracles
from levyfourier.de_ft import _sources_stacked, node_plan, splice_plan
from levyfourier.euler_ft import EulerParams
from levyfourier.numkit import frft_even
from levyfourier.nufft import _forward_stacked, gridding_plan, source_shift
from levyfourier.sinc_gauss import indefinite_integral, kernel_table
from levyfourier.solver import (_spliced_transform, clear_exponent_cache, g_gamma, make_grid,
                                nig_model, solve, vg_model)


def case(model, i):
    """Grid pair for exponent i with the standard [2, 5] window, d = 1."""
    euler = EulerParams.from_theorem(2 ** (i - (model.gamma + 1)), 2.0, 5.0, 1.0)
    return make_grid(model, euler), euler


def test_criterion_01_nufft_matches_direct_sum_within_1e8_and_50ms():
    model = vg_model()
    grid, _ = case(model, 9)
    assert grid.m == 2**9
    best_wall = math.inf
    for _ in range(5):
        clear_exponent_cache()                 # time the plan build too
        t0 = time.perf_counter()
        runs = [run for run, _ in splice_plan(grid.n_gamma, grid.h_tilde)]
        nodes = node_plan(runs, source_shift(grid.h_tilde, grid.n_gamma))
        gridding = gridding_plan(nodes.y, grid.h_tilde, grid.n_gamma, nodes.run)
        got = _forward_stacked(_sources_stacked(model.mu, nodes, model.gamma), gridding)
        best_wall = min(best_wall, time.perf_counter() - t0)
    # reference: each run's plain (unshifted) DE weights, summed directly
    plain = node_plan(runs)
    weights = _sources_stacked(model.mu, plain, model.gamma)
    worst = 0.0
    for row in range(len(got)):
        mine = plain.run == row
        direct = oracles.source_sum_direct(weights[mine], plain.y[mine], grid.h_tilde,
                                           grid.n_gamma)
        worst = max(worst, float(np.max(np.abs(got[row] - direct))))
    assert worst <= 1e-8
    assert best_wall <= 0.050


def test_criterion_02_frft_matches_direct_sum_within_1e10():
    n = 2**9                                   # sum over 2N = 2^10 terms
    rng = np.random.default_rng(12)
    c = rng.standard_normal(n + 1)             # real c_0..c_N
    full = c[np.abs(np.arange(-n + 1, n + 1))]  # the even extension c_|l|
    for delta in (0.05, 0.3, 2.0 * np.pi / (2 * n)):
        got = frft_even(c, delta)
        direct = oracles.frft_direct(full, delta, np.arange(n + 1))
        assert np.max(np.abs(got - direct.real)) <= 1e-10


def test_criterion_03_spliced_transform_matches_closed_form_at_every_k():
    model = vg_model()
    grid, _ = case(model, 11)
    assert grid.m == 2**11
    plan = splice_plan(grid.n_gamma, grid.h_tilde)
    assert len(plan) == 2
    assert plan[0][0].zeta0 == pytest.approx(grid.n_gamma * grid.h_tilde / 15.0,
                                             rel=1e-12)
    assert plan[1][0].zeta0 == pytest.approx(grid.n_gamma * grid.h_tilde / 1.8,
                                             rel=1e-12)
    # the two ranges cover 0..N_gamma
    assert plan[0][1].start == 0 and plan[0][1].stop == plan[1][1].start
    assert plan[1][1].stop == grid.n_gamma + 1
    out = _spliced_transform(model, grid)
    assert out.shape == (grid.n_gamma + 1,)
    k = np.arange(grid.n_gamma + 1)
    exact = 1.0 / (1.0 + 1j * k * grid.h_tilde)
    assert np.max(np.abs(out - exact)) <= 1e-6


def test_criterion_04_kernel_table_matches_quadrature_within_1e9():
    n_prime = 512
    r = math.sqrt(n_prime / math.pi)
    table = kernel_table(r, n_prime)
    exact = oracles.kernel_quad(r, n_prime)
    assert np.max(np.abs(table - exact)) <= 1e-9


def test_criterion_05_indefinite_integration_gains_two_orders_and_matches_direct():
    errs = {}
    for n_prime in (64, 512):
        h = math.sqrt(14.0 * math.pi) / 2.0 / math.sqrt(n_prime)
        table = kernel_table(math.sqrt(n_prime / math.pi), n_prime)
        f = 1.0 / (1.0 + (np.arange(2 * n_prime + 1) * h) ** 2)
        out = indefinite_integral(f, h)[1:]
        errs[n_prime] = float(np.max(np.abs(out - np.arctan(np.arange(1, n_prime + 1) * h))))
        if n_prime == 64:
            direct = oracles.indefinite_direct(oracles.window(f, n_prime), table, h)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(out - direct)) <= 1e-11 * scale
    assert errs[512] <= errs[64] / 100.0


def test_criterion_06_exponents_match_quadrature_verified_closed_forms():
    # closed forms first checked against independent quadrature of the
    # defining iterated integrals
    for w in (0.3, 1.0, 3.0):
        assert oracles.vg_g1_quad(w) == pytest.approx(-math.log1p(w * w), abs=1e-9)
    for w in (0.5, 2.0):
        assert oracles.nig_g2_quad(w) == pytest.approx(1 - math.hypot(1, w), abs=1e-9)
    for model, n, tol in ((vg_model(), 2**9, 1e-6), (nig_model(), 2**8, 1e-5)):
        euler = EulerParams.from_theorem(n, 2.0, 5.0, 1.0)
        grid = make_grid(model, euler)
        g = g_gamma(model, grid)
        exact = model.exact_exponent(np.arange(grid.n + 1) * grid.h_tilde)
        assert float(np.max(np.abs(g - exact))) <= tol


def _window_errors(model, times, i_values, region):
    """Max abs error per (t, M) over the full interval or the outer window."""
    errs = {t: [] for t in times}
    m_list = []
    for i in i_values:
        grid, euler = case(model, i)
        m_list.append(grid.m)
        for t in times:
            res = solve(model, grid, t, euler)
            mask = np.abs(res.x) >= 2.0 if region == "window" else slice(None)
            errs[t].append(float(np.max(res.abs_err[mask])))
    return np.asarray(m_list, dtype=float), errs


def _fit_log_err(m_list, errs):
    logs = np.log(errs)
    slope, intercept = np.polyfit(np.sqrt(m_list), logs, 1)
    pred = slope * np.sqrt(m_list) + intercept
    r2 = 1.0 - np.sum((logs - pred) ** 2) / np.sum((logs - logs.mean()) ** 2)
    return slope, float(r2)


def test_criterion_07_vg_window_error_drops_1000x_and_solve_is_fast():
    model = vg_model()
    times = (1.0, 2.0, 3.0)
    m_list, errs = _window_errors(model, times, range(7, 13), "window")
    for t in times:
        assert errs[t][-1] <= 1e-3 * errs[t][0], f"t={t}: {errs[t]}"
        assert errs[t][-1] <= 1e-6
        slope, r2 = _fit_log_err(m_list, errs[t])
        assert slope < 0 and r2 >= 0.9, f"t={t}: slope={slope:.3f} R2={r2:.3f}"
    clear_exponent_cache()
    grid, euler = case(model, 12)
    t0 = time.perf_counter()
    solve(model, grid, 1.0, euler)
    assert time.perf_counter() - t0 <= 2.0


def test_criterion_08_nig_error_drops_1000x_on_full_interval_and_window():
    model = nig_model()
    times = (1.0, 2.0, 3.0)
    for region in ("full", "window"):
        _, errs = _window_errors(model, times, range(7, 13), region)
        for t in times:
            assert errs[t][-1] <= 1e-3 * errs[t][0], f"{region} t={t}: {errs[t]}"


def test_criterion_09_vg_cusp_error_concentrates_at_origin():
    model = vg_model()
    grid, euler = case(model, 11)
    res = solve(model, grid, 1.0, euler)
    full = float(np.max(res.abs_err))
    window = float(np.max(res.abs_err[np.abs(res.x) >= 2.0]))
    assert full >= 10.0 * window


def test_criterion_10_normalized_runtime_spread_within_3x():
    model = vg_model()
    norm = []
    for i in range(7, 13):
        grid, euler = case(model, i)
        totals = []
        for _ in range(5):
            clear_exponent_cache()
            res = solve(model, grid, 1.0, euler)
            totals.append(res.timings["total"])
        norm.append(statistics.median(totals) / (grid.m * math.log2(grid.m)))
    spread = max(norm) / min(norm)
    assert spread <= 3.0, (
        f"normalized total/(M log2 M) spread is {spread:.2f}x over M = 2^7..2^12 "
        f"(values {['%.3e' % v for v in norm]}); fixed per-call overhead dominates "
        f"the smallest grids")


def test_criterion_11_invariants_hold_for_both_models():
    for model, i in ((vg_model(), 10), (nig_model(), 10)):
        grid, euler = case(model, i)
        g = g_gamma(model, grid)
        # G is real and even by construction: the l = 0..N half
        assert g.dtype == np.float64 and g.shape == (grid.n + 1,)
        assert g[0] == 0.0
        assert np.max(g) <= 1e-6
        res = solve(model, grid, 1.0, euler)
        n = grid.n
        pos = res.p[n:2 * n - 1]
        neg = res.p[n - 2::-1]
        assert np.max(np.abs(pos - neg)) <= 1e-9 * np.max(np.abs(res.p))
        # compare window integrals: the tail beyond x_u carries ~e^{-5} of
        # mass, so probing against 1.0 would only measure the truncation
        mass_num = np.trapezoid(res.p, res.x)
        mass_ref = np.trapezoid(res.p_exact, res.x)
        assert abs(mass_num - mass_ref) <= 1e-3
        clear_exponent_cache()
        first = solve(model, grid, 1.0, euler)
        second = solve(model, grid, 1.0, euler)
        assert np.array_equal(first.p, second.p)
        assert not first.timings["exponent_cached"]
        assert second.timings["exponent_cached"]
