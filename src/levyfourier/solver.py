"""Pipeline orchestration: characteristic exponents via Steps 1-2, densities
via Step 3, and the model registry (VG, NIG, user-defined) with exact
references for validation."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.special as sp

from .de_ft import DE_BETA, _sources_stacked, node_plan, splice_plan
from .euler_ft import EulerParams, inverse_ft
from .nufft import BETA, WIDTH, _forward_stacked, gridding_plan, source_shift
from .sinc_gauss import indefinite_integral

# Step-1 plans kept at once; one M = 2^14 plan holds about 3.9 MB
PLAN_CACHE_SIZE = 4


def _check_gamma(gamma):
    if type(gamma) is not int or gamma not in (1, 2):
        raise ValueError(f"gamma must be the int 1 or 2, got {gamma!r}")


@dataclass(frozen=True)
class LevyModel:
    """A symmetric pure-jump model: mu(y) = y^gamma nu(y) on (0, inf), where
    nu is the Levy density of the jumps, and the order gamma of the required
    integrability at the origin (1 or 2).  Pass mu, not nu: Step 1 refuses
    a mu that grows like y^s at 0 with s <= gamma - 3, as nu typically does.

    exact_density(x, t) and exact_exponent(omega), when present, are
    closed-form references used for error columns and oracle runs.
    """

    gamma: int
    mu: Callable[[np.ndarray], np.ndarray]
    name: str
    exact_density: Optional[Callable] = None
    exact_exponent: Optional[Callable] = None

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not callable(self.mu):
            raise TypeError("mu must be callable")

    @property
    def i_offset(self) -> int:
        """Grid-size bookkeeping: N = 2^(i - i_offset) for size index i."""
        return self.gamma + 1


@dataclass(frozen=True)
class GridSpec:
    """The grid of one run, fixed by its Euler parameters and the model
    order gamma (1 or 2).

    n = N and h_tilde come from the Euler parameters, so Steps 1-3 share one
    frequency grid; the output spacing is h_hat = x_u / N;
    n_gamma = 2^gamma N fixes the Step-2 budget and m = M = 2 n_gamma the
    Step-1 FFT length (and the node count of DE run A; see splice_plan).
    """

    euler: EulerParams
    gamma: int

    def __post_init__(self):
        _check_gamma(self.gamma)

    @property
    def n(self) -> int:
        return self.euler.n

    @property
    def h_hat(self) -> float:
        return self.euler.x_u / self.euler.n

    @property
    def h_tilde(self) -> float:
        return self.euler.h_tilde

    @property
    def n_gamma(self) -> int:
        return self.euler.n << self.gamma

    @property
    def m(self) -> int:
        return 2 * self.n_gamma


def make_grid(model: LevyModel, euler: EulerParams) -> GridSpec:
    """The grid of the model's order and these Euler parameters."""
    return GridSpec(euler, model.gamma)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """One density run: outputs, optional exact references, and bookkeeping.

    p_exact and abs_err are None without an exact_density(x, t); otherwise
    it runs on first read of either, once, at the N+1 points x >= 0 and
    t = params_echo["t"], and is mirrored to x < 0, so it must be even in x.
    """

    x: np.ndarray
    p: np.ndarray
    timings: dict
    params_echo: dict
    exact_density: Optional[Callable] = field(default=None, repr=False)

    @cached_property
    def p_exact(self) -> Optional[np.ndarray]:
        if self.exact_density is None:
            return None
        n = len(self.x) // 2
        half = np.asarray(self.exact_density(self.x[n - 1:], self.params_echo["t"]),
                          dtype=float)
        return np.concatenate((half[n - 1:0:-1], half))

    @cached_property
    def abs_err(self) -> Optional[np.ndarray]:
        p_exact = self.p_exact
        return None if p_exact is None else np.abs(self.p - p_exact)


def exact_vg(x, t: float):
    """Closed-form variance-gamma density (|x|/2)^(t-1/2) K_{1/2-t}(|x|) / (sqrt(pi) Gamma(t)).

    The x = 0 limit is Gamma(t-1/2) / (2 sqrt(pi) Gamma(t)) for t > 1/2 and
    +inf for t <= 1/2 (the density genuinely diverges there).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    ax = np.abs(np.asarray(x, dtype=float))
    scalar = ax.ndim == 0
    ax = np.atleast_1d(ax)
    out = np.empty_like(ax)
    nz = ax > 0
    out[nz] = ((ax[nz] / 2) ** (t - 0.5) * sp.kv(0.5 - t, ax[nz])
               / (math.sqrt(math.pi) * sp.gamma(t)))
    out[~nz] = (sp.gamma(t - 0.5) / (2 * math.sqrt(math.pi) * sp.gamma(t))
                if t > 0.5 else math.inf)
    return float(out[0]) if scalar else out


def exact_nig(x, t: float):
    """Closed-form normal-inverse-Gaussian density t e^t K_1(s) / (pi s), s = sqrt(x^2+t^2),
    as t e^{t-s} k1e(s) / (pi s) with k1e(s) = e^s K_1(s): e^t overflows past t = 709."""
    if not t > 0:
        raise ValueError("t must be positive")
    s = np.hypot(np.asarray(x, dtype=float), t)
    out = t * np.exp(t - s) * sp.k1e(s) / (np.pi * s)
    return float(out) if out.ndim == 0 else out


def _vg_mu(y):
    return np.exp(-np.asarray(y, dtype=float))


def _vg_exponent(omega):
    return -np.log1p(np.asarray(omega, dtype=float) ** 2)


def _nig_mu(y):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.full_like(y, 1.0 / np.pi)     # y K_1(y) -> 1 as y -> 0+
    pos = y > 0
    out[pos] = y[pos] * sp.k1(y[pos]) / np.pi   # underflows to 0 for large y
    return out


def _nig_exponent(omega):
    return 1.0 - np.hypot(1.0, np.asarray(omega, dtype=float))


_VG = LevyModel(1, _vg_mu, "vg", exact_density=exact_vg, exact_exponent=_vg_exponent)
_NIG = LevyModel(2, _nig_mu, "nig", exact_density=exact_nig, exact_exponent=_nig_exponent)


def vg_model() -> LevyModel:
    """The variance-gamma model: mu(y) = e^{-y} (nu(y) = e^{-y}/y), gamma = 1."""
    return _VG


def nig_model() -> LevyModel:
    """The normal-inverse-Gaussian model: mu(y) = y K_1(y) / pi
    (nu(y) = K_1(y) / (pi y)), gamma = 2."""
    return _NIG


def custom_model(name: str, gamma: int, mu,
                 exact_density=None, exact_exponent=None) -> LevyModel:
    return LevyModel(gamma, mu, name, exact_density, exact_exponent)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _step1_plan(grid: GridSpec):
    """Everything of Step 1 that does not depend on mu: the DE nodes and
    mu-free weight factors of both splice runs, and their gridding plan,
    whose gather reads each k from the run that covers it."""
    (run_a, range_a), (run_b, _) = splice_plan(grid.n_gamma, grid.h_tilde)
    nodes = node_plan((run_a, run_b), source_shift(grid.h_tilde, grid.n_gamma))
    plan = gridding_plan(nodes.y, grid.h_tilde, grid.n_gamma, nodes.run)
    gather = np.concatenate((plan.gather[0, :range_a.stop], plan.gather[1, range_a.stop:]))
    gather.flags.writeable = False
    return nodes, replace(plan, gather=gather)


def _spliced_transform(model: LevyModel, grid: GridSpec) -> np.ndarray:
    """Step 1: m^(k h~) for k = 0..N_gamma, stitched from the two DE runs;
    m^(-k h~) is its conjugate.

    With the grid's plan this is mu at the DE nodes times the mu-free
    factors, one sparse gridding product and one batched FFT over both runs,
    read at the bins of the run that covers each k.
    """
    nodes, plan = _step1_plan(grid)
    return _forward_stacked(_sources_stacked(model.mu, nodes, model.gamma), plan)


@lru_cache(maxsize=64)
def _exponent_cached(model: LevyModel, grid: GridSpec):
    """(exponent G(l h~) for l = 0..N, step-1 seconds, the seconds of them
    spent building the Step-1 plan, step-2 seconds, whether Step 1 found its
    plan cached)."""
    if grid.gamma != model.gamma:
        raise ValueError(f"grid built for gamma = {grid.gamma}, "
                         f"model {model.name} has gamma = {model.gamma}")
    plan_hits = _step1_plan.cache_info().hits
    t0 = time.perf_counter()
    try:
        _step1_plan(grid)
        plan_cached = _step1_plan.cache_info().hits > plan_hits
        plan_s = 0.0 if plan_cached else time.perf_counter() - t0
        mhat = _spliced_transform(model, grid)
    except ValueError as exc:
        raise ValueError(f"[step 1] {exc}") from exc
    t1 = time.perf_counter()
    h = grid.h_tilde
    # Step 2 is linear, so it integrates only the real part G keeps
    try:
        if model.gamma == 1:
            g = 2.0 * indefinite_integral(mhat.imag, h, odd=True)
        else:
            g = -2.0 * indefinite_integral(indefinite_integral(mhat.real, h), h, odd=True)
    except ValueError as exc:
        raise ValueError(f"[step 2] {exc}") from exc
    g[0] = 0.0  # not -2.0 * 0.0 = -0.0
    g.flags.writeable = False
    t2 = time.perf_counter()
    return g, t1 - t0, plan_s, t2 - t1, plan_cached


@lru_cache(maxsize=64)
def _abscissae(grid: GridSpec) -> np.ndarray:
    """The output points n h^, n = -N+1..N, read-only and shared by every
    solve on the grid."""
    x = np.arange(-grid.n + 1, grid.n + 1) * grid.h_hat
    x.flags.writeable = False
    return x


def g_gamma(model: LevyModel, grid: GridSpec) -> np.ndarray:
    """Characteristic exponent G_gamma(l h~), l = 0..N, as a read-only float64
    array with G(0) = 0; G is even, so G(-l) = G(l) gives the rest.

    gamma = 1 runs Step 2 once with N' = N on Im m^ (odd) and returns twice
    the indefinite integral; gamma = 2 runs Step 2 on Re m^ (N' = 2N, even)
    and then on that first integral (N' = N, odd) and returns -2 times the
    double integral.  Both equal 2 Im and -2 Re of the integrals of m^ itself.
    Results are cached per (model, grid) and reused across times.
    """
    return _exponent_cached(model, grid)[0]


def clear_exponent_cache():
    """Drop every cached exponent and Step-1 plan, so the next solve runs
    Steps 1-2 and builds its plan.  Kept: the Step-2 kernel tables (in
    sinc_gauss), the Step-3 weights and chirp tables, the output points x
    and the echo."""
    _exponent_cached.cache_clear()
    _step1_plan.cache_clear()


def solve(model: LevyModel, grid: GridSpec, t: float, euler: EulerParams,
          use_exact_exponent: bool = False) -> SolveResult:
    """Density p(n h^, t) for n = -N+1..N; euler must equal grid.euler.

    use_exact_exponent feeds model.exact_exponent straight to Step 3, skipping
    Steps 1-2 (oracle runs isolating the inversion stage).

    timings holds seconds per step and in total, step1_plan (the part of
    step1 spent building the Step-1 plan, 0.0 when it was cached),
    exponent_cached (the exponent came from the cache) and plan_cached (Step 1
    found the grid's plan built).  step1, step1_plan, step2 and plan_cached
    describe the solve that computed the exponent, which is this one unless
    exponent_cached.
    model.exact_density, if any, runs only when p_exact or abs_err is read.
    Every result on one grid holds the same read-only x.
    """
    if not (np.ndim(t) == 0 and math.isfinite(t) and t > 0):
        raise ValueError(f"t must be a positive finite scalar, got {t!r}")
    if euler != grid.euler:
        raise ValueError("euler parameters inconsistent with grid")
    t = float(t)
    total0 = time.perf_counter()
    cached = plan_cached = False
    if use_exact_exponent:
        g = _exact_exponent(model, grid)
        s1 = s1_plan = s2 = 0.0
    else:
        hits_before = _exponent_cached.cache_info().hits
        g, s1, s1_plan, s2, plan_cached = _exponent_cached(model, grid)
        cached = _exponent_cached.cache_info().hits > hits_before
    t3 = time.perf_counter()
    try:
        p = inverse_ft(g, t, euler)
    except ValueError as exc:
        raise ValueError(f"[step 3] {exc}") from exc
    s3 = time.perf_counter() - t3
    total = time.perf_counter() - total0
    if not np.all(np.isfinite(p)):
        raise ValueError("density output contains non-finite values")
    timings = {"step1": s1, "step1_plan": s1_plan, "step2": s2, "step3": s3, "total": total,
               "exponent_cached": cached, "plan_cached": plan_cached}
    return SolveResult(_abscissae(grid), p, timings,
                       params_echo(model, grid, t=t, use_exact_exponent=use_exact_exponent),
                       model.exact_density)


def _exact_exponent(model: LevyModel, grid: GridSpec) -> np.ndarray:
    """model.exact_exponent at l = -N+1..N, checked real and even, as G(l h~)
    for l = 0..N."""
    if model.exact_exponent is None:
        raise ValueError(f"model {model.name!r} has no exact_exponent")
    n = grid.n
    g = np.asarray(model.exact_exponent(np.arange(-n + 1, n + 1) * grid.h_tilde))
    if g.shape != (2 * n,):
        raise ValueError(f"exact_exponent must return {2 * n} values at "
                         f"l = {-n + 1}..{n}, got shape {g.shape}")
    if np.iscomplexobj(g):
        complex_at = np.flatnonzero(g.imag)
        if complex_at.size:
            raise ValueError(f"[step 3] exponent not real at l = {complex_at[0] - n + 1}")
        g = g.real
    odd_at = np.flatnonzero(g[n - 2::-1] != g[n:2 * n - 1])
    if odd_at.size:
        raise ValueError(f"[step 3] exponent not even: G(-l) != G(l) at l = {odd_at[0] + 1}")
    return g[n - 1:]


def params_echo(model: LevyModel, grid: GridSpec, **extra) -> dict:
    """Every tunable that affects the numbers, resolved."""
    return {**_echo_base(model.name, model.gamma, grid), **extra}


@lru_cache(maxsize=64)
def _echo_base(name: str, gamma: int, grid: GridSpec) -> dict:
    """The part of params_echo fixed by the model's name and order and the
    grid, so models built anew with one name and order share it; kept,
    never handed out, so no caller can change it."""
    euler = grid.euler
    (run_a, range_a), (run_b, _) = splice_plan(grid.n_gamma, grid.h_tilde)
    return {
        "model": name,
        "gamma": gamma,
        "n": grid.n,
        "n_gamma": grid.n_gamma,
        "m": grid.m,
        "x_l": euler.x_l,
        "x_u": euler.x_u,
        "d": euler.d,
        "h_tilde": grid.h_tilde,
        "h_hat": grid.h_hat,
        "euler_p": euler.p,
        "euler_q": euler.q,
        "zeta0_rule": "n_gamma*h_tilde/15 (low band), n_gamma*h_tilde/1.8 (high band)",
        "zeta0_low": run_a.zeta0,
        "zeta0_high": run_b.zeta0,
        "splice_boundary": range_a.stop - 1,
        "m_low": run_a.m,
        "m_high": run_b.m,
        "h_de_low": run_a.h,
        "h_de_high": run_b.h,
        "de_j_rule": "-5*m_run/8..3*m_run/8-1",
        "de_beta": DE_BETA,
        "de_alpha_low": run_a.alpha,
        "de_alpha_high": run_b.alpha,
        "r_rule": "sqrt(n_prime/pi)",
        "m_table_rule": "max(4*n_prime, 1024)",
        "kernel": "es",
        "width": WIDTH,
        "beta": BETA,
    }
