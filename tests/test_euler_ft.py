"""Continuous-Euler-transform inverse Fourier step."""
import math
import re

import numpy as np
import pytest

import oracles
from levyfourier.euler_ft import EulerParams, inverse_ft, weight
from levyfourier.solver import g_gamma, make_grid, nig_model, vg_model


def test_from_theorem_couplings():
    ep = EulerParams.from_theorem(512, 2.0, 5.0, 1.0)
    assert ep.h_tilde == pytest.approx(math.sqrt(2 * math.pi * 7 / (4 * 512)), rel=1e-14)
    assert ep.p == pytest.approx(math.sqrt(512 * ep.h_tilde / 2.0), rel=1e-14)
    assert ep.q == pytest.approx(math.sqrt(2.0 * 512 * ep.h_tilde / 4), rel=1e-14)


def test_params_validation():
    ep = EulerParams(256, 2.0, 5.0, 1.0)
    # h~, p and q are derived, not set, and take no part in equality
    twin = EulerParams.from_theorem(256, 2.0, 5.0)
    assert twin == ep and hash(twin) == hash(ep)
    assert (twin.h_tilde, twin.p, twin.q) == (ep.h_tilde, ep.p, ep.q)
    assert ep != EulerParams(256, 2.0, 5.0, 2.0)
    with pytest.raises(TypeError):
        EulerParams(256, 2.0, 5.0, 1.0, ep.h_tilde, ep.p, ep.q)
    with pytest.raises(ValueError, match="power of two"):
        EulerParams(255, 2.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="0 < x_l < x_u"):
        EulerParams(256, 5.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="1/2"):
        # x_l/x_u above 1/2 breaks the window guarantee
        EulerParams.from_theorem(256, 3.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="d must be positive"):
        EulerParams(256, 2.0, 5.0, -1.0)
    with pytest.raises(ValueError, match="d must be positive"):
        EulerParams(256, 2.0, 5.0, 0.0)
    # a non-finite window input is named, not reported through h~, p or q
    for name in ("x_l", "x_u", "d"):
        for bad in (math.inf, -math.inf, math.nan):
            args = {"n": 256, "x_l": 2.0, "x_u": 5.0, "d": 1.0, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
                EulerParams(**args)
    # a finite x_l whose h~, p or q under- or overflows is named too
    for x_l, x_u, d in ((1e-200, 5.0, 1.0), (5e-324, 5.0, 1.0), (1e200, 5e200, 1.0),
                        (2.0, 5.0, 1e308)):
        with pytest.raises(ValueError, match=f"^x_l = {re.escape(str(x_l))} is out of range"):
            EulerParams(256, x_l, x_u, d)


def test_weight_pins():
    ep = EulerParams.from_theorem(256, 2.0, 5.0, 1.0)
    assert weight(ep.p * ep.q, ep) == pytest.approx(0.5, rel=1e-14)
    assert float(weight(0.0, ep)) == pytest.approx(0.5 * math.erfc(-ep.q), rel=1e-13)
    assert float(weight(ep.p * (ep.q + 8.0), ep)) <= 1e-15
    xi = np.linspace(0.0, 3 * ep.p * ep.q, 200)
    w = weight(xi, ep)
    assert np.all(np.diff(w) < 0)
    assert np.all((w > 0) & (w < 1))


def grid_series(ep, fn):
    """fn(l h~) at l = 0..N, the half-line input of inverse_ft."""
    return fn(np.arange(ep.n + 1) * ep.h_tilde)


def test_inverse_ft_zero_exponent_matches_direct_sum():
    ep = EulerParams.from_theorem(64, 2.0, 5.0, 1.0)
    h_hat = ep.x_u / ep.n
    out = inverse_ft(grid_series(ep, lambda w: np.zeros_like(w)), 1.0, ep)
    ell = np.arange(-ep.n + 1, ep.n + 1)
    coeff = weight(np.abs(ell) * ep.h_tilde, ep)
    for n in (-63, -10, 0, 17, 64):
        direct = (ep.h_tilde / (2 * np.pi)) * np.sum(
            coeff * np.exp(1j * n * h_hat * ell * ep.h_tilde))
        assert abs(out[n + ep.n - 1] - direct.real) <= 1e-12 * max(1.0, abs(direct))


def test_inverse_ft_t_zero_degenerates_to_flat_integrand():
    rng = np.random.default_rng(3)
    ep = EulerParams.from_theorem(32, 2.0, 5.0, 1.0)
    half = np.concatenate((rng.standard_normal(32), [0.0]))
    frozen = inverse_ft(half, 0.0, ep)
    flat = inverse_ft(grid_series(ep, lambda w: np.zeros_like(w)), 7.0, ep)
    assert np.array_equal(frozen, flat)


def test_inverse_ft_vg_closed_form_pair():
    # g = -ln(1 + w^2) at t = 1 pairs with e^{-|x|}/2
    ep = EulerParams.from_theorem(512, 2.0, 5.0, 1.0)
    h_hat = ep.x_u / ep.n
    out = inverse_ft(grid_series(ep, lambda w: -np.log1p(w * w)), 1.0, ep)
    x = np.arange(-ep.n + 1, ep.n + 1) * h_hat
    window = np.abs(x) >= 2.0
    err = np.abs(out - 0.5 * np.exp(-np.abs(x)))
    assert np.max(err[window]) <= 1e-7


def test_inverse_ft_real_even_exponent_gives_real_output():
    rng = np.random.default_rng(13)
    ep = EulerParams.from_theorem(128, 2.0, 5.0, 1.0)
    half = np.concatenate((-np.abs(rng.standard_normal(128)), [0.0]))
    out = inverse_ft(half, 1.0, ep)
    assert out.dtype == np.float64 and out.shape == (2 * ep.n,)
    k = np.arange(ep.n)
    assert np.array_equal(out[ep.n - 1 - k], out[ep.n - 1 + k])   # p_{-n} = p_n


def test_inverse_ft_error_decays_like_root_n():
    # the window error follows exp(-c sqrt(N)) until it hits the rounding
    # floor (~1e-15 from N = 512 on), so the fit stops at 512
    errs, sizes = [], (32, 64, 128, 256, 512)
    for n in sizes:
        ep = EulerParams.from_theorem(n, 2.0, 5.0, 1.0)
        h_hat = ep.x_u / ep.n
        out = inverse_ft(grid_series(ep, lambda w: -np.log1p(w * w)), 1.0, ep)
        x = np.arange(-ep.n + 1, ep.n + 1) * h_hat
        window = np.abs(x) >= 2.0
        errs.append(np.max(np.abs(out - 0.5 * np.exp(-np.abs(x)))[window]))
    root_n = np.sqrt(np.array(sizes, dtype=float))
    log_err = np.log(np.array(errs))
    slope, intercept = np.polyfit(root_n, log_err, 1)
    fit = slope * root_n + intercept
    r2 = 1 - np.sum((log_err - fit) ** 2) / np.sum((log_err - np.mean(log_err)) ** 2)
    assert slope < 0
    assert r2 >= 0.9
    assert errs[-1] <= 1e-14


def test_inverse_ft_validation():
    ep = EulerParams.from_theorem(32, 2.0, 5.0, 1.0)
    good = grid_series(ep, lambda w: np.zeros_like(w))
    for wrong in (np.zeros(32), np.zeros(34), np.zeros(64), np.zeros((1, 33))):
        with pytest.raises(ValueError, match="must cover l = 0..32"):
            inverse_ft(wrong, 1.0, ep)
    with pytest.raises(ValueError):
        inverse_ft(good, -1.0, ep)
    with pytest.raises(ValueError):
        inverse_ft(good, float("nan"), ep)
    with pytest.raises(ValueError, match="not finite at l = 0"):
        inverse_ft(grid_series(ep, lambda w: np.full_like(w, 1e4)), 1.0, ep)
    overflow = np.zeros(33)
    overflow[9] = 1e4
    with pytest.raises(ValueError, match="not finite at l = 9"):
        inverse_ft(overflow, 1.0, ep)


def test_inverse_ft_warns_on_positive_exponent():
    ep = EulerParams.from_theorem(32, 2.0, 5.0, 1.0)
    grown = grid_series(ep, lambda w: np.full_like(w, 0.5))
    with pytest.warns(RuntimeWarning, match="positive real part"):
        out = inverse_ft(grown, 1.0, ep)
    assert np.all(np.isfinite(out))


def test_inverse_ft_warns_when_only_the_origin_term_counts():
    # nig at t = 800: e^{t G(h~)} underflows, so p is flat at the l = 0 term
    # up to the rounding of the transform
    model, ep = nig_model(), EulerParams.from_theorem(32, 2.0, 5.0, 1.0)
    g = g_gamma(model, make_grid(model, ep))
    with pytest.warns(RuntimeWarning, match=r"exp\(t G\(h~\)\) = .* at t = 800\.0 is below 2\^-52"):
        out = inverse_ft(g, 800.0, ep)
    assert np.ptp(out) <= 1e-14 * np.max(out)


@pytest.mark.parametrize("model", [vg_model(), nig_model()], ids=lambda m: m.name)
def test_inverse_ft_matches_direct_complex_sum_on_solver_exponents(model):
    # the full 2N-term sum, at up to 257 outputs (n = -N+1, 0, N among them)
    rng = np.random.default_rng(59)
    for i in range(8, 15):
        ep = EulerParams.from_theorem(2 ** (i - model.i_offset), 2.0, 5.0, 1.0)
        grid = make_grid(model, ep)
        g = g_gamma(model, grid)
        n = ep.n
        ell = np.arange(-n + 1, n + 1)
        g_full = g[np.abs(ell)]
        outs = np.unique(np.concatenate(([-n + 1, 0, n], rng.integers(-n + 1, n, 254))))
        for t in (0.5, 1.0, 2.5, 4.0):
            got = inverse_ft(g, t, ep)[outs + n - 1]
            coeff = weight(np.abs(ell) * ep.h_tilde, ep) * np.exp(t * g_full)
            direct = (ep.h_tilde / (2 * np.pi)) * oracles.frft_direct(
                coeff, ep.h_tilde * grid.h_hat, outs)
            err = np.max(np.abs(got - direct.real))
            assert err <= 1e-14 * np.max(np.abs(direct)), (model.name, i, t, err)


def test_inverse_ft_rejects_complex_or_uneven_exponent():
    # an uneven exponent has no half-line form; solve rejects one from
    # exact_exponent (test_solver::test_solve_rejects_complex_or_uneven_exact_exponent)
    ep = EulerParams.from_theorem(32, 2.0, 5.0, 1.0)
    g = -np.log1p((np.arange(33) * ep.h_tilde) ** 2)
    plain = inverse_ft(g, 1.0, ep)
    assert np.array_equal(inverse_ft(g + 0j, 1.0, ep), plain)  # zero imaginary part
    tilted = g + 0j
    tilted[5] += 1e-3j
    with pytest.raises(ValueError, match="not real at l = 5"):
        inverse_ft(tilted, 1.0, ep)
