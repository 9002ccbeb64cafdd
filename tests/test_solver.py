"""Model registry, exact densities, characteristic exponents, and the
assembled three-step solver."""
import math

import numpy as np
import pytest
import scipy.special as sp

import oracles
from levyfourier.de_ft import _sources_stacked, node_plan, splice_plan
from levyfourier.euler_ft import EulerParams
from levyfourier.numkit import frft_even
from levyfourier.nufft import _forward_stacked, gridding_plan, source_shift
from levyfourier.sinc_gauss import kernel_table
from levyfourier.solver import (GridSpec, LevyModel, _echo_base, _spliced_transform, _step1_plan,
                                clear_exponent_cache, custom_model,
                                exact_nig, exact_vg, g_gamma, make_grid, nig_model,
                                params_echo, solve, vg_model)


def euler_for(model, i):
    n = 2 ** (i - (model.gamma + 1))
    return EulerParams.from_theorem(n, 2.0, 5.0, 1.0)


def setup_case(model, i):
    euler = euler_for(model, i)
    return make_grid(model, euler), euler


def test_make_grid_couplings():
    vg, nig = vg_model(), nig_model()
    gv = make_grid(vg, EulerParams.from_theorem(512, 2.0, 5.0, 1.0))
    assert (gv.n, gv.n_gamma, gv.m) == (512, 1024, 2048)
    assert gv.h_hat * gv.n == pytest.approx(5.0, rel=1e-14)
    assert gv.gamma == 1
    gn = make_grid(nig, EulerParams.from_theorem(256, 2.0, 5.0, 1.0))
    assert (gn.n, gn.n_gamma, gn.m) == (256, 1024, 2048)
    assert gn.gamma == 2


def test_grid_spec_validation():
    # every size is derived from (euler, gamma); only gamma can be wrong
    euler = EulerParams(256, 2.0, 5.0, 1.0)
    grid = GridSpec(euler, 2)
    assert grid == make_grid(nig_model(), euler)
    assert (grid.n, grid.n_gamma, grid.m) == (256, 1024, 2048)
    assert (grid.h_hat, grid.h_tilde) == (5.0 / 256, euler.h_tilde)
    for gamma in (0, 3, 2.0, True, "2"):
        with pytest.raises(ValueError, match="gamma"):
            GridSpec(euler, gamma)


def test_levy_model_validation():
    with pytest.raises(ValueError):
        LevyModel(gamma=3, mu=lambda y: np.exp(-y), name="bad")
    with pytest.raises(ValueError):
        custom_model("bad", 0, lambda y: np.exp(-y))
    # a float gamma would fail only later, in make_grid
    for gamma in (2.0, 1.0, True, None):
        with pytest.raises(ValueError, match=f"gamma must be the int 1 or 2, got {gamma!r}"):
            custom_model("bad", gamma, lambda y: np.exp(-y))
    with pytest.raises(TypeError, match="callable"):
        custom_model("bad", 1, 3.0)


def test_exact_vg_pins():
    assert exact_vg(3.0, 1.0) == pytest.approx(0.5 * math.exp(-3.0), rel=1e-13)
    assert exact_vg(3.0, 1.0) == pytest.approx(0.024893534183931972, rel=1e-12)
    assert exact_vg(0.0, 1.0) == 0.5
    assert exact_vg(-2.0, 1.0) == exact_vg(2.0, 1.0)
    # x = 0 limit: finite for t > 1/2, divergent at or below
    assert exact_vg(0.0, 0.8) == pytest.approx(
        sp.gamma(0.3) / (2 * math.sqrt(math.pi) * sp.gamma(0.8)), rel=1e-12)
    assert exact_vg(0.0, 0.5) == math.inf
    assert exact_vg(0.0, 0.3) == math.inf
    with pytest.raises(ValueError):
        exact_vg(1.0, 0.0)


def test_exact_vg_past_t_170_matches_mpmath():
    # Gamma(t) overflows past t = 171.6 and K_{1/2-t}(2) past t = 172, so
    # the direct form gave NaN or 0 there; the reference is the same closed
    # form in 40-digit mpmath
    import mpmath

    def reference(x, t):
        with mpmath.workdps(40):
            if x == 0:
                return float(mpmath.gamma(t - 0.5) / (2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(t)))
            return float((mpmath.mpf(x) / 2) ** (t - 0.5) * mpmath.besselk(t - 0.5, x)
                         / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(t)))
    for t in (172.0, 180.0, 300.0):
        got = exact_vg(np.array([2.0, -5.0, 0.0]), t)
        for x, value in zip((2, 5, 0), got):
            assert value == pytest.approx(reference(x, t), rel=1e-12), (t, x)
    assert exact_vg(np.array([2.0, 5.0]), 180.0) == pytest.approx(
        [0.020952328315511682, 0.02034512603685773], rel=1e-12)
    # up to t = 170 the direct form stands wherever it is finite and positive;
    # elsewhere (inf at x = 0.5 and t = 170, 0 * inf = NaN at x = 0.01) the
    # log form takes over
    x = np.array([0.01, 0.5, 2.0, 5.0, 30.0])
    for t in (0.3, 1.0, 7.5, 170.0):
        with np.errstate(over="ignore", invalid="ignore"):
            direct = (x / 2) ** (t - 0.5) * sp.kv(0.5 - t, x) / (math.sqrt(math.pi) * sp.gamma(t))
        got = exact_vg(x, t)
        kept = np.isfinite(direct) & (direct > 0)
        assert np.array_equal(got[kept], direct[kept]) and np.all(got > 0), t
        assert np.all(kept) == (t < 170), t
    assert exact_vg(0.01, 170.0) == pytest.approx(exact_vg(0.0, 170.0), rel=1e-4)


def test_exact_vg_bessel_order_symmetry():
    x, t = 1.7, 2.3
    alt = (x / 2) ** (t - 0.5) * sp.kv(t - 0.5, x) / (math.sqrt(math.pi) * sp.gamma(t))
    assert exact_vg(x, t) == pytest.approx(alt, rel=1e-12)


def test_exact_nig_pins():
    assert exact_nig(0.0, 1.0) == pytest.approx(math.e * sp.k1(1.0) / math.pi, rel=1e-13)
    assert exact_nig(0.0, 1.0) == pytest.approx(
        math.e * oracles.k1_integral(1.0) / math.pi, rel=1e-11)
    assert exact_nig(1.3, 2.0) == exact_nig(-1.3, 2.0)
    # central limit: p(0, t) ~ 1/sqrt(2 pi t) for large t
    assert exact_nig(0.0, 50.0) == pytest.approx(1 / math.sqrt(2 * math.pi * 50), rel=0.05)
    # e^t overflows past t = 709; the scaled K_1 keeps the density finite
    x = np.array([0.0, 2.0, 5.0])
    s = np.hypot(x, 700.0)
    assert np.allclose(exact_nig(x, 700.0), 700.0 * math.exp(700.0) * sp.k1(s) / (math.pi * s),
                       rtol=1e-14, atol=0)
    late = exact_nig(x, 800.0)
    assert np.all(np.isfinite(late)) and np.all(late > 0)
    with pytest.raises(ValueError):
        exact_nig(1.0, -1.0)


def test_exponent_closed_forms_match_defining_integrals():
    # the closed forms the exponent tests lean on, re-derived by quadrature of
    # the underlying transform integrals
    for w in (0.3, 1.0, 3.0):
        assert oracles.vg_g1_quad(w) == pytest.approx(-math.log1p(w * w), abs=1e-9)
    for w in (0.5, 2.0):
        assert oracles.nig_g2_quad(w) == pytest.approx(1 - math.hypot(1, w), abs=1e-9)


def test_g_gamma_vg_matches_closed_form():
    model = vg_model()
    grid, _ = setup_case(model, 11)
    g = g_gamma(model, grid)
    omega = np.arange(grid.n + 1) * grid.h_tilde
    assert np.max(np.abs(g - (-np.log1p(omega**2)))) <= 1e-6


def test_g_gamma_nig_matches_closed_form():
    model = nig_model()
    grid, _ = setup_case(model, 11)
    g = g_gamma(model, grid)
    omega = np.arange(grid.n + 1) * grid.h_tilde
    assert np.max(np.abs(g - (1 - np.hypot(1, omega)))) <= 1e-5


def test_g_gamma_invariants():
    for model, i in ((vg_model(), 10), (nig_model(), 10)):
        grid, _ = setup_case(model, i)
        g = g_gamma(model, grid)
        # real and even by construction: the l = 0..N half, read-only
        assert g.dtype == np.float64 and g.shape == (grid.n + 1,)
        assert not g.flags.writeable
        assert g[0] == 0.0
        # nonpositive up to scheme noise
        assert np.max(g) <= 1e-6


@pytest.mark.parametrize("model", [vg_model(), nig_model(),
                                   custom_model("cgmy", 2, lambda y: y ** -0.5 * np.exp(-y))],
                         ids=["vg", "nig", "cgmy"])
def test_g_gamma_real_parts_match_the_complex_integrals(model):
    # Step 2 integrates only the part G keeps: Im m^ (odd) for gamma = 1,
    # Re m^ (even) and then its first integral (odd) for gamma = 2.  The
    # reference integrates the complex m^ on its conjugate-symmetric windows
    # by the direct partitioned sum and takes 2 Im or -2 Re at the end.
    # The scale is max |G| (1260 for CGMY Y = 1.5): the reference is the
    # lower-limit form of the formula, whose rounding at small l is set by
    # the whole half line, not by |G_l|
    grid, _ = setup_case(model, 11)
    n, h = grid.n, grid.h_tilde

    def integral(f, n_prime):
        return oracles.indefinite_direct(
            f, kernel_table(math.sqrt(n_prime / math.pi), n_prime), h)
    mhat, _ = _spliced_transform(model, grid)
    if model.gamma == 1:
        ref = 2 * integral(oracles.window(mhat, n), n).imag
    else:
        first = np.concatenate(([0j], integral(oracles.window(mhat, 2 * n), 2 * n)))
        ref = -2 * integral(oracles.window(first, n, odd=True), n).real
    g = g_gamma(model, grid)
    assert g[0] == 0.0 and not np.signbit(g[0])   # +0.0, also after the -2 of gamma = 2
    assert np.max(np.abs(g[1:] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_g_gamma_grid_mismatch():
    model = vg_model()
    grid, _ = setup_case(nig_model(), 11)
    with pytest.raises(ValueError):
        g_gamma(model, grid)


def test_solve_vg_pin():
    # the t = 1 density is e^{-|x|}/2, so the x = 2 reference is 0.5 e^{-2}
    assert exact_vg(2.0, 1.0) == pytest.approx(0.06766764161830635, rel=1e-13)
    model = vg_model()
    grid, euler = setup_case(model, 11)
    res = solve(model, grid, 1.0, euler)
    near_two = np.argmin(np.abs(res.x - 2.0))
    assert res.p[near_two] == pytest.approx(exact_vg(res.x[near_two], 1.0), abs=1e-9)
    assert res.abs_err is not None
    assert np.max(res.abs_err[np.abs(res.x) >= 2.0]) <= 1e-9


def test_solve_evaluates_the_reference_only_when_read():
    calls = []

    def counted(x, t):
        calls.append(t)
        return exact_vg(x, t)

    model = custom_model("vg-counted", 1, vg_model().mu, exact_density=counted,
                         exact_exponent=vg_model().exact_exponent)
    grid, euler = setup_case(model, 9)
    first, second = (solve(model, grid, 1.5, euler, use_exact_exponent=True)
                     for _ in range(2))
    assert calls == []
    p_exact, abs_err = first.p_exact, second.abs_err       # one read each
    eager = np.asarray(exact_vg(first.x, 1.5), dtype=float)
    assert np.array_equal(p_exact, eager)
    assert np.array_equal(first.abs_err, np.abs(first.p - eager))
    assert np.array_equal(abs_err, np.abs(second.p - eager))
    assert np.array_equal(second.p_exact, eager)
    assert calls == [1.5, 1.5]                             # once per result
    bare = solve(custom_model("bare", 1, vg_model().mu), grid, 1.5, euler)
    assert bare.p_exact is None and bare.abs_err is None


def test_reference_is_evaluated_on_the_half_line():
    seen = []

    def counted(x, t):
        seen.append(np.array(x))
        return exact_vg(x, t)

    model = custom_model("vg-counted", 1, vg_model().mu, exact_density=counted,
                         exact_exponent=vg_model().exact_exponent)
    grid, euler = setup_case(model, 9)
    res = solve(model, grid, 1.5, euler, use_exact_exponent=True)
    assert np.array_equal(res.p_exact, exact_vg(res.x, 1.5))
    (x,) = seen
    assert x.shape == (grid.n + 1,) and x[0] == 0.0 and np.all(x >= 0)
    # the mirrored reference equals the reference on the full line, bitwise
    for model, exact in ((vg_model(), exact_vg), (nig_model(), exact_nig)):
        for i in range(7, 15):
            grid, euler = setup_case(model, i)
            for t in (1.5, 4.0):
                res = solve(model, grid, t, euler, use_exact_exponent=True)
                full = exact(res.x, t)
                assert np.array_equal(res.p_exact, full), (model.name, i, t)
                assert np.array_equal(res.abs_err, np.abs(res.p - full))


def test_solve_nig_pin():
    model = nig_model()
    grid, euler = setup_case(model, 11)
    res = solve(model, grid, 1.0, euler)
    at_zero = res.p[np.argmin(np.abs(res.x))]
    assert at_zero == pytest.approx(math.e * sp.k1(1.0) / math.pi, abs=1e-7)
    assert np.max(res.abs_err) <= 1e-6


def test_solve_oracle_bypass_isolates_step3():
    model = vg_model()
    grid, euler = setup_case(model, 11)
    res = solve(model, grid, 1.0, euler, use_exact_exponent=True)
    window = np.abs(res.x) >= 2.0
    assert np.max(res.abs_err[window]) <= 1e-8
    assert res.timings["step1"] == 0.0 and res.timings["step2"] == 0.0


def test_solve_rejects_complex_or_uneven_exact_exponent():
    grid, euler = setup_case(vg_model(), 9)
    n = grid.n

    def bent(offset):
        def exponent(omega):
            g = -np.log1p(np.asarray(omega) ** 2) + 0j
            g[n - 1 + offset] += 1e-3j
            return g
        return exponent

    def skewed(omega):
        g = -np.log1p(np.asarray(omega) ** 2)
        g[n - 1 - 7] *= 1 + 1e-15                   # G(-7) off by one ulp
        return g

    for name, exponent, message in (
            ("tilted", bent(5), r"\[step 3\] exponent not real at l = 5"),
            ("tilted-left", bent(-3), "exponent not real at l = -3"),
            ("skewed", skewed, r"\[step 3\] exponent not even: G\(-l\) != G\(l\) at l = 7")):
        model = custom_model(name, 1, vg_model().mu, exact_exponent=exponent)
        with pytest.raises(ValueError, match=message):
            solve(model, grid, 1.0, euler, use_exact_exponent=True)
    even = custom_model("even", 1, vg_model().mu,
                        exact_exponent=lambda w: -np.log1p(np.asarray(w) ** 2) + 0j)
    assert np.array_equal(solve(even, grid, 1.0, euler, use_exact_exponent=True).p,
                          solve(vg_model(), grid, 1.0, euler, use_exact_exponent=True).p)
    short = custom_model("short", 1, vg_model().mu, exact_exponent=lambda w: np.zeros(3))
    with pytest.raises(ValueError, match=f"must return {2 * n} values"):
        solve(short, grid, 1.0, euler, use_exact_exponent=True)


def test_solves_on_one_grid_share_a_read_only_x():
    model = vg_model()
    grid, euler = setup_case(model, 9)
    a, b = solve(model, grid, 1.0, euler), solve(model, grid, 2.5, euler)
    assert a.x is b.x
    assert not a.x.flags.writeable
    with pytest.raises(ValueError):
        a.x[0] = 0.0
    assert a.x.tobytes() == (np.arange(-grid.n + 1, grid.n + 1) * grid.h_hat).tobytes()


def test_cached_step1_plans_are_read_only():
    # every solve on a grid reads the one cached plan, so no array of it
    # may be written
    grid, _ = setup_case(vg_model(), 9)
    arrays = [value for part in _step1_plan(grid) for value in vars(part).values()
              if isinstance(value, np.ndarray)]
    assert len(arrays) == 9
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]


def test_solve_mass_and_symmetry():
    for model in (vg_model(), nig_model()):
        grid, euler = setup_case(model, 11)
        res = solve(model, grid, 1.0, euler)
        mass_num = np.trapezoid(res.p, res.x)
        mass_ref = np.trapezoid(res.p_exact, res.x)
        assert abs(mass_num - mass_ref) <= 1e-3
        # p(l h^) vs p(-l h^) for l = 1..N-1 (l = N has no mirror sample)
        n = grid.n
        pos = res.p[n : 2 * n - 1]
        neg = res.p[n - 2 :: -1]
        assert np.max(np.abs(pos - neg)) <= 1e-9 * np.max(np.abs(res.p))


def test_solve_deterministic_bitwise():
    model = vg_model()
    grid, euler = setup_case(model, 10)
    clear_exponent_cache()
    first = solve(model, grid, 1.0, euler)
    clear_exponent_cache()
    second = solve(model, grid, 1.0, euler)
    cached = solve(model, grid, 1.0, euler)
    assert np.array_equal(first.p, second.p)
    assert np.array_equal(first.p, cached.p)
    assert cached.timings["exponent_cached"]
    assert not first.timings["exponent_cached"]


def test_solve_t_consistency():
    model = vg_model()
    grid, euler = setup_case(model, 10)
    errs = []
    for t in (1.0, 2.0, 3.0):
        res = solve(model, grid, t, euler)
        errs.append(np.max(res.abs_err[np.abs(res.x) >= 2.0]))
    # error grows mildly with t (scheme error in G enters as ~t exp(tG) dG),
    # about 3x per unit t here, never explosively
    assert errs[2] <= 10 * errs[0]
    assert max(errs) <= 1e-7


def test_solve_timings_and_echo():
    model = nig_model()
    grid, euler = setup_case(model, 10)
    clear_exponent_cache()
    res = solve(model, grid, 1.5, euler)
    assert set(res.timings) >= {"step1", "step1_plan", "step2", "step3", "total",
                                "exponent_cached", "plan_cached", "step1_sources"}
    assert 0.0 < res.timings["step1_plan"] <= res.timings["step1"]
    clear = solve(custom_model("nig-again", 2, model.mu), grid, 1.5, euler).timings
    assert clear["plan_cached"] and clear["step1_plan"] == 0.0 and clear["step1"] > 0.0
    # the mu values of the solve that computed the exponent, also when cached
    sources = res.timings["step1_sources"]
    assert 0 < sources < len(_step1_plan(grid)[0].y)
    cached = solve(model, grid, 2.0, euler).timings
    assert cached["exponent_cached"]
    assert cached["step1_sources"] == clear["step1_sources"] == sources
    assert solve(model, grid, 1.5, euler, use_exact_exponent=True).timings["step1_sources"] == 0
    echo = res.params_echo
    needed = {"model", "gamma", "n", "n_gamma", "m", "x_l", "x_u", "d", "h_tilde",
              "h_hat", "zeta0_rule", "zeta0_low", "zeta0_high", "m_low", "m_high",
              "h_de_low", "h_de_high", "de_j_rule", "de_beta", "r_rule", "m_table_rule",
              "t", "kernel", "width", "beta", "use_exact_exponent"}
    assert needed <= set(echo)
    assert echo["t"] == 1.5 and echo["kernel"] == "es" and echo["width"] == 15
    assert echo["beta"] == pytest.approx(2.30 * 15, rel=1e-15)
    # each DE run's own node count and step: run B stops at 2048 nodes
    for i, m_high in ((10, 1024), (14, 2048)):
        echo = params_echo(model, setup_case(model, i)[0])
        assert (echo["m_low"], echo["m_high"]) == (2**i, m_high)
        assert echo["h_de_low"] == math.log(1000 * 2**i) / 2**i
        assert echo["h_de_high"] == math.log(1000 * m_high) / m_high
        assert echo["de_j_rule"] == "-5*m_run/8..3*m_run/8-1"
        assert echo["probe_rule"].startswith("low band: a probe every 31 live sources")


def test_cold_highres_densities_evaluate_mu_at_under_60_percent_of_the_live_sources():
    # jump densities c mu_1(lam y), c and lam in [0.7, 1.4] as perfbench's
    # cold-highres draws them, at M = 2^14: run A's range and probes and all
    # of run B (at most 58.9% of the live sources, nig at lam = 0.7)
    for base in (vg_model(), nig_model()):
        grid, euler = setup_case(base, 14)
        live = len(_step1_plan(grid)[0].y)
        for c, lam in ((0.7, 0.7), (1.0, 1.0), (1.4, 1.4)):
            model = custom_model("scaled", base.gamma, lambda y: c * base.mu(lam * y))
            assert solve(model, grid, 1.0, euler).timings["step1_sources"] <= 0.6 * live


def test_models_of_one_name_and_order_share_their_echo():
    # the echo reads only the model's name and order, so a model built anew
    # for each request, each with its own mu, finds the entry of the first
    grid, _ = setup_case(vg_model(), 9)
    first, second = (custom_model("scaled", 1, lambda y, s=s: np.exp(-s * y))
                     for s in (1.0, 2.0))
    _echo_base.cache_clear()
    echo = params_echo(first, grid)
    assert params_echo(second, grid) == echo
    info = _echo_base.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    assert params_echo(custom_model("other", 1, first.mu), grid)["model"] == "other"
    assert _echo_base.cache_info().currsize == 2


def test_solve_validation():
    model = vg_model()
    grid, euler = setup_case(model, 10)
    with pytest.raises(ValueError):
        solve(model, grid, 0.0, euler)
    with pytest.raises(ValueError):
        solve(model, grid, float("inf"), euler)
    other = euler_for(model, 11)
    for wrong in (other, EulerParams(euler.n, euler.x_l, euler.x_u, 2.0)):
        with pytest.raises(ValueError, match="euler parameters inconsistent with grid"):
            solve(model, grid, 1.0, wrong)
    with pytest.raises(ValueError, match="euler parameters inconsistent with grid"):
        solve(model, make_grid(model, other), 1.0, euler)


def test_equal_inputs_built_separately_share_cache_entries():
    vg = vg_model()
    euler = EulerParams(256, 2.0, 5.0, 1.0)
    twin = EulerParams(256, 2.0, 5.0, 1.0)
    assert twin is not euler and twin == euler and hash(twin) == hash(euler)
    grid, twin_grid = make_grid(vg, euler), GridSpec(twin, 1)
    assert twin_grid == grid and hash(twin_grid) == hash(grid)
    clear_exponent_cache()
    first = solve(custom_model("expdecay", 1, vg.mu), grid, 1.0, euler)
    assert not first.timings["plan_cached"]
    # a new density on the twin grid finds the plan, then the exponent
    timings = solve(vg, twin_grid, 1.0, twin).timings
    assert (timings["exponent_cached"], timings["plan_cached"]) == (False, True)
    timings = solve(vg, grid, 2.0, euler).timings
    assert (timings["exponent_cached"], timings["plan_cached"]) == (True, True)


def test_custom_model_reproduces_vg_exponent():
    model = custom_model("expdecay", 1, lambda y: np.exp(-y))
    grid, _ = setup_case(model, 10)
    ref_grid, _ = setup_case(vg_model(), 10)
    g_custom = g_gamma(model, grid)
    g_ref = g_gamma(vg_model(), ref_grid)
    assert np.array_equal(g_custom, g_ref)


def test_solve_result_lengths():
    model = vg_model()
    grid, euler = setup_case(model, 10)
    res = solve(model, grid, 1.0, euler)
    assert len(res.x) == len(res.p) == len(res.p_exact) == len(res.abs_err) == 2 * grid.n
    assert np.all(np.isfinite(res.p))
    custom = custom_model("expdecay", 1, lambda y: np.exp(-y))
    res2 = solve(custom, grid, 1.0, euler)
    assert res2.p_exact is None and res2.abs_err is None


def test_plan_and_exponent_cache_flags():
    # step1, step2 and plan_cached describe the solve that computed the exponent
    vg = vg_model()
    grid, euler = setup_case(vg, 10)
    scaled = custom_model("expdecay-2", 1, lambda y: 2.0 * np.exp(-y))
    clear_exponent_cache()
    flags = []
    for model, t in ((vg, 1.0), (vg, 2.0), (scaled, 1.0)):
        timings = solve(model, grid, t, euler).timings
        flags.append((timings["exponent_cached"], timings["plan_cached"]))
    assert flags == [(False, False), (True, False), (False, True)]
    clear_exponent_cache()                      # drops the plan too
    timings = solve(scaled, grid, 1.0, euler).timings
    assert (timings["exponent_cached"], timings["plan_cached"]) == (False, False)


@pytest.mark.parametrize("model", [vg_model(), nig_model()], ids=["vg", "nig"])
def test_step1_plan_matches_per_run_composition(model):
    for i in range(8, 13):
        grid, _ = setup_case(model, i)
        clear_exponent_cache()
        cold, evaluated = _spliced_transform(model, grid)
        warm = _spliced_transform(model, grid)
        assert np.array_equal(cold, warm[0]) and evaluated == warm[1]
        # each run on its own one-run plan with mu at every live source, spliced
        shift = source_shift(grid.h_tilde, grid.n_gamma)
        ref = np.empty(grid.n_gamma + 1, dtype=complex)
        for run, krange in splice_plan(grid.n_gamma, grid.h_tilde):
            nodes = node_plan((run,), shift)
            gridding = gridding_plan(nodes.y, grid.h_tilde, grid.n_gamma, nodes.run)
            out = _forward_stacked(model.mu(nodes.y) * nodes.factor, ((0, len(nodes.y)),),
                                   gridding)[0]
            ref[krange.start:krange.stop] = out[krange.start:krange.stop]
        assert np.max(np.abs(cold - ref)) <= 1e-14 * np.max(np.abs(ref)), i


def per_run_transform(model, grid):
    """The Step-1 transform of each splice run over k = 0..N_gamma, one row
    per run, from the per-run plan of gridding_plan."""
    runs = [run for run, _ in splice_plan(grid.n_gamma, grid.h_tilde)]
    nodes = node_plan(runs, source_shift(grid.h_tilde, grid.n_gamma))
    gridding = gridding_plan(nodes.y, grid.h_tilde, grid.n_gamma, nodes.run)
    return _forward_stacked(*_sources_stacked(model.mu, nodes, model.gamma)[:2], gridding)


@pytest.mark.parametrize("model", [vg_model(), nig_model()], ids=["vg", "nig"])
def test_stages_hand_on_only_what_the_next_reads(model):
    # Step 1 gathers each k from the run that covers it, bit for bit the
    # per-run rows on their ranges; Step 3's transform is real
    for i in (7, 10, 14):
        grid, _ = setup_case(model, i)
        rows = per_run_transform(model, grid)
        (_, range_a), (_, range_b) = splice_plan(grid.n_gamma, grid.h_tilde)
        ref = np.concatenate((rows[0, range_a.start:range_a.stop],
                              rows[1, range_b.start:range_b.stop]))
        assert np.array_equal(_spliced_transform(model, grid)[0], ref), i
        n = grid.n
        half = frft_even(np.linspace(1.0, 0.0, n + 1), grid.h_tilde * grid.h_hat)
        assert half.dtype == np.float64 and half.shape == (n + 1,), i


def test_step1_plan_matches_direct_sum_with_tied_nodes_at_m_2_14():
    # run B of vg at M = 2^14 has DE nodes tied at y = 0 (zero weight, left
    # out of the plan); both rows must still match the direct source sums
    model = vg_model()
    grid, _ = setup_case(model, 14)
    got = per_run_transform(model, grid)
    (run_a, _), (run_b, _) = splice_plan(grid.n_gamma, grid.h_tilde)
    plain = node_plan((run_a, run_b))
    assert np.count_nonzero(plain.run == 1) < run_b.m and np.all(plain.y > 0)
    weights = model.mu(plain.y) * plain.factor
    k = np.linspace(0, grid.n_gamma, 65).astype(int)
    for row in range(2):
        mine = plain.run == row
        direct = oracles.source_sum_direct(weights[mine], plain.y[mine], grid.h_tilde,
                                           grid.n_gamma, k)
        assert np.max(np.abs(got[row, k] - direct)) <= 1e-8, row


def step1_row_errors(model, i):
    """Per splice run of the production Step-1 plan: its largest error
    against the direct source sum at 129 frequencies, the largest direct
    value and the sum of |weights|."""
    grid, _ = setup_case(model, i)
    got = per_run_transform(model, grid)
    plain = node_plan(run for run, _ in splice_plan(grid.n_gamma, grid.h_tilde))
    weights = model.mu(plain.y) * plain.factor
    k = np.linspace(0, grid.n_gamma, 129).astype(int)
    out = []
    for row in range(2):
        mine = plain.run == row
        direct = oracles.source_sum_direct(weights[mine], plain.y[mine], grid.h_tilde,
                                           grid.n_gamma, k)
        out.append((np.max(np.abs(got[row, k] - direct)), np.max(np.abs(direct)),
                    np.sum(np.abs(weights[mine]))))
    return out


@pytest.mark.parametrize("model", [vg_model(), nig_model()], ids=["vg", "nig"])
@pytest.mark.parametrize("i", [7, 12, 14])
def test_step1_rows_match_direct_sum_to_gridding_precision(model, i):
    # each run of the production plan against its direct source sum, relative
    # to the largest sum: width 15 gives at most 4.5e-14 here (run A at i = 7,
    # whose positions reach 5.5 M, so most of its bands fold), and a kernel
    # one or two nodes narrower misses (width 14: up to 3.9e-13, width 13: up
    # to 3.0e-12)
    for row, (err, peak, _) in enumerate(step1_row_errors(model, i)):
        assert err <= 5e-14 * peak, row


@pytest.mark.parametrize("i", [7, 10])
def test_step1_rows_match_direct_sum_for_slowly_decaying_mu(i):
    # mu = e^{-0.05 y} still carries weight at the DE points past one period
    # of the gridding lattice, so each of them must reach the grid; the error
    # is bounded relative to the sum of |weights| (at most 2.9e-14 measured)
    model = custom_model("slow", 1, lambda y: np.exp(-0.05 * y))
    for row, (err, _, mass) in enumerate(step1_row_errors(model, i)):
        assert err <= 1e-12 * mass, row


def test_singular_cgmy_density_matches_exact_exponent_inversion():
    # CGMY with C = M = 1, Y = 1.5 (gamma = 2): mu(y) = y^(-1/2) e^(-y) is
    # infinite at y = 0, where DE nodes of the M = 2^13 grid underflow; their
    # weights vanish for any mu, so mu is never evaluated there
    big_y = 1.5

    def exponent(omega):
        w = np.asarray(omega, dtype=float)
        return 2 * sp.gamma(-big_y) * ((1 + w * w) ** (big_y / 2)
                                       * np.cos(big_y * np.arctan(w)) - 1)
    model = custom_model("cgmy", 2, lambda y: y ** (1 - big_y) * np.exp(-y),
                         exact_exponent=exponent)
    grid, euler = setup_case(model, 13)
    res = solve(model, grid, 1.0, euler)
    ref = solve(model, grid, 1.0, euler, use_exact_exponent=True)
    window = (np.abs(res.x) >= 2.0) & (np.abs(res.x) <= 5.0)
    assert np.max(np.abs(res.p - ref.p)[window]) <= 1e-6


def test_cgmy_y_1_9_density_matches_exact_exponent_inversion():
    # CGMY with C = 1.43, G = M = 1.02, Y = 1.9: mu = C y^-0.9 e^{-My} keeps
    # mass near y = 0 that a DE run cut at j = -m/2 misses (1.7e-8 here);
    # with every run's j range shifted left by m/8 it is 4e-13.  What is left
    # is Step 2's rounding, which must follow |G| and so fall with M: summed
    # as conv_l - conv_0 it read 4e-13, 3e-12 and 1e-11 at i = 12, 13, 14
    c, tempering, big_y = 1.43, 1.02, 1.9

    def exponent(omega):
        w = np.asarray(omega, dtype=float)
        return 2 * c * sp.gamma(-big_y) * ((tempering**2 + w * w) ** (big_y / 2)
                                           * np.cos(big_y * np.arctan(w / tempering))
                                           - tempering**big_y)
    model = custom_model("cgmy-y1.9", 2,
                         lambda y: c * y ** (1 - big_y) * np.exp(-tempering * y),
                         exact_exponent=exponent)
    for i in (12, 13, 14):
        grid, euler = setup_case(model, i)
        for t in np.arange(1, 9) * 0.5:
            res = solve(model, grid, t, euler)
            ref = solve(model, grid, t, euler, use_exact_exponent=True)
            assert np.max(np.abs(res.p - ref.p)) <= 5e-14, (i, t)


def test_cgmy_y_1_5_exponent_is_relatively_accurate_at_small_omega():
    # CGMY C = G = M = 1, Y = 1.5 (gamma 2): |G(l h~)| is 0.01..0.9 at
    # l = 1..10 and max |G| is 6,087.  Step 2's rounding there must be set by
    # |G| itself, not by the whole half line (8e-11 relative when summed as
    # conv_l - conv_0)
    big_y = 1.5

    def exponent(omega):
        w = np.asarray(omega, dtype=float)
        return 2 * sp.gamma(-big_y) * ((1 + w * w) ** (big_y / 2)
                                       * np.cos(big_y * np.arctan(w)) - 1)
    model = custom_model("cgmy-y1.5", 2, lambda y: y ** (1 - big_y) * np.exp(-y))
    grid, _ = setup_case(model, 14)
    exact = exponent(np.arange(1, 11) * grid.h_tilde)
    assert np.max(np.abs(g_gamma(model, grid)[1:11] / exact - 1)) <= 1e-12


def test_solve_refuses_a_mu_whose_nu_is_not_a_levy_density():
    # nu passed as mu: y^2 nu is then not integrable at 0.  The last four
    # overflow at the smallest DE points (y ~ 2e-169 at i = 7, 1e-215 at
    # i = 14), so the power is measured where mu is finite
    k1_nu, exp_y2 = (lambda y: sp.k1(y) / (np.pi * y)), (lambda y: np.exp(-y) / y**2)
    for gamma, mu, i in ((2, lambda y: np.exp(-y) / y, 7), (2, k1_nu, 7), (1, exp_y2, 7),
                         (2, k1_nu, 14), (1, exp_y2, 14)):
        model = custom_model("nu-as-mu", gamma, mu)
        grid, euler = setup_case(model, i)
        with pytest.raises(ValueError, match=r"\[step 1\] mu grows like y\^-[12] at 0: "
                                             r"nu = mu/y\^gamma is not a Levy density"):
            solve(model, grid, 1.0, euler)


def test_tempered_stable_y_1_at_gamma_1_matches_its_closed_form():
    # nu = e^{-y} / y^2 (mu = e^{-y} / y, which grows like y^-1 at 0) is a
    # Levy density of order 1 with G = -2 (w arctan w - log(1 + w^2) / 2)
    model = custom_model("ts-y1", 1, lambda y: np.exp(-y) / y)
    grid, _ = setup_case(model, 12)
    w = np.arange(grid.n + 1) * grid.h_tilde
    exact = -2.0 * (w * np.arctan(w) - 0.5 * np.log1p(w * w))
    assert np.max(np.abs(g_gamma(model, grid) - exact)) <= 1e-12 * np.max(np.abs(exact))
