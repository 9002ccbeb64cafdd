"""Step 1 front half: double-exponential formula for the one-sided Fourier
transform integral_0^inf mu(y) e^{-i zeta y} dy.

The variable change y = P*phi(t) concentrates the integrand so that a
trapezoidal sum over t = j*h converges double-exponentially; the output is a
set of weighted point sources (weights, points) that the nufft module turns
into uniform-frequency samples.  Only the factor mu(y_j) of each weight
depends on the density: node_plan builds the rest once per grid and
_sources_stacked multiplies it by mu."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the DE shape constant beta of every run
DE_BETA = 0.25
# |E| beyond this, phi and its companions sit on their asymptotes to < 1e-200
_E_ASYMP = 500.0
# below this |t| the direct quotient loses digits to cancellation; use series
_T_SERIES = 1e-3
# the node count of splice run B (see splice_plan) once M exceeds it: run B's
# band k > N_gamma/8 holds its accuracy down to 512 nodes for vg, e^{-0.05y}
# and CGMY Y = 0.5..1.9, and fails at 256, so this leaves two halvings
RUN_B_NODES = 2048


@dataclass(frozen=True)
class DeFtParams:
    """One DE-transform run: zeta0 and the node count m, a power of two
    >= 8, at j = j_start..j_start+m-1 = -5m/8..3m/8-1.  The step is
    h = log(1000 m)/m, so m sets where the trapezoidal sum is truncated;
    nothing ties it to the FFT length, since the gridding step needs only
    each point's lattice position.  beta is DE_BETA, and h and alpha are
    derived from (zeta0, m) at construction.
    """

    zeta0: float
    m: int
    h: float = field(init=False, compare=False)
    alpha: float = field(init=False, compare=False)

    def __post_init__(self):
        if not self.zeta0 > 0:
            raise ValueError("zeta0 must be positive")
        if self.m < 8 or self.m & (self.m - 1):
            raise ValueError(f"m = {self.m} must be a power of two >= 8")
        zeta0, h = self.zeta0, math.log(1e3 * self.m) / self.m
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "alpha", DE_BETA / math.sqrt(
            1 + math.log(1 + math.pi / (zeta0 * h)) / (4 * zeta0 * h)))

    @property
    def point_scale(self) -> float:
        """P = pi / (zeta0 * h), the scale of the source points y_j = P*phi(jh)."""
        return math.pi / (self.zeta0 * self.h)

    @property
    def j_start(self) -> int:
        """-5m/8, the first j.  The range sits m/8 left of -m/2..m/2-1: the
        left end cuts off the mass near y = 0 that a singular mu carries
        (CGMY Y = 1.9 lost seven digits there), while at the right end the
        weights still fall below 1e-14 of the largest for m >= 128."""
        return -(5 * self.m // 8)


def phi_parts(t, alpha: float):
    """phi(t) = t / (1 - exp(-2t - alpha(1-e^{-t}) - beta(e^t-1))) together
    with phihat(t) = phi(t) - t and the derivative phi'(t), beta = DE_BETA.

    Evaluated branch-wise so that both tails stay exact down to underflow:
    with E(t) the exponent above, phi -> t and phihat -> 0 double-exponentially
    as t -> +inf, while phi, phi' -> 0 and phihat -> -t as t -> -inf.
    Returns (phi, phihat, dphi) as arrays of the shape of t.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    beta = DE_BETA
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E = 2 * t + alpha * (-np.expm1(-t)) + beta * np.expm1(t)
        Ep = 2 + alpha * np.exp(-t) + beta * np.exp(t)
        # on the working band |E| <= 500 both expm1 forms are exact, so
        # t/dd and t/em are stable for either sign of E; only the derivative
        # needs sign-split scaling (dd^2 overflows for E << 0, so the E < 0
        # lane is rewritten with v = e^E < 1 and em in (-1, 0))
        dd = -np.expm1(-E)                   # 1 - e^{-E}
        em = np.expm1(E)                     # e^{E} - 1
        u = np.exp(-E)
        v = np.exp(E)
        tEp = t * Ep
        phi = t / dd
        phihat = t / em
        dphi = np.where(E > 0, (dd - tEp * u) / dd**2,
                        v * (v - 1 - tEp) / em**2)

    hi = E > _E_ASYMP
    lo = E < -_E_ASYMP
    phi[hi], phihat[hi], dphi[hi] = t[hi], 0.0, 1.0
    phi[lo], phihat[lo], dphi[lo] = 0.0, -t[lo], 0.0

    ser = np.abs(t) < _T_SERIES
    if np.any(ser):
        ts = t[ser]
        # alpha may hold one value per element (stacked runs)
        a = np.broadcast_to(alpha, t.shape)[ser]
        # Taylor coefficients of D(t) = 1 - e^{-E(t)} = c1 t + c2 t^2 + ...
        e1 = 2 + a + beta
        e2 = (beta - a) / 2
        e3 = (a + beta) / 6
        e4 = (beta - a) / 24
        c1 = e1
        c2 = e2 - e1**2 / 2
        c3 = e3 - e1 * e2 + e1**3 / 6
        c4 = e4 - e2**2 / 2 - e1 * e3 + e1**2 * e2 / 2 - e1**4 / 24
        w = c1 + ts * (c2 + ts * (c3 + ts * c4))      # D(t)/t
        dw = c2 + ts * (2 * c3 + ts * 3 * c4)
        phi[ser] = 1.0 / w
        phihat[ser] = 1.0 / w - ts
        dphi[ser] = -dw / w**2
    return phi, phihat, dphi


@dataclass(frozen=True, eq=False)
class NodePlan:
    """The mu-free part of the DE sources of one or more runs, built once
    per grid.

    A node whose weight vanishes for every mu (phi' or sin((pi/2h) phihat)
    has underflowed to 0, as at the truncation ends of large grids) is
    dropped.  Each live source i keeps its point y_i, its j within its run,
    its run (the index into the runs given to node_plan) and its mu-free
    weight

      factor_j = -(2 pi i / zeta0) sin((pi/2h) phihat(jh)) phi'(jh)
                 * exp((i pi/2h) phihat(jh)) * exp(-i shift y_j),

    with its run's zeta0, h and alpha, so the weights of a density mu are
    mu(y_j) * factor_j.  The sources of each run follow those of the run
    before, in increasing j.  low holds the indices into y of the two
    smallest points, in increasing order.
    """

    y: np.ndarray
    j: np.ndarray
    run: np.ndarray
    factor: np.ndarray
    low: np.ndarray


def node_plan(runs, shift: float = 0.0) -> NodePlan:
    """DE points and mu-free weight factors of the given runs, each with its
    own zeta0, h and m.

    shift moves the transform's output frequencies by zeta -> zeta + shift
    (the gridding step centres its output that way); with shift 0 the
    weights are the plain DE weights, whose source sum at zeta is the
    one-sided transform of mu.
    """
    runs = tuple(runs)
    counts = [r.m for r in runs]

    def per_node(values):
        return np.repeat(np.array(values), counts)

    h = per_node([r.h for r in runs])
    j = np.concatenate([np.arange(r.j_start, r.j_start + r.m, dtype=np.int32) for r in runs])
    ph, phat, dph = phi_parts(j * h, per_node([r.alpha for r in runs]))
    points = per_node([r.point_scale for r in runs]) * ph
    s = (np.pi / (2 * h)) * phat
    factor = ((-2j * np.pi / per_node([r.zeta0 for r in runs])) * np.sin(s) * dph
              * np.exp(1j * s) * np.exp(-1j * shift * points))
    live = np.flatnonzero(factor)
    y = points[live]
    low = np.argpartition(y, 1)[:2]
    arrays = (y, j[live], per_node(np.arange(len(runs), dtype=np.int32))[live],
              factor[live], low[np.argsort(y[low])])
    for arr in arrays:
        arr.flags.writeable = False
    return NodePlan(*arrays)


def _sources_stacked(mu, plan: NodePlan, gamma: int) -> np.ndarray:
    """Weights mu(y_j) * factor_j at the plan's live nodes, from one call of mu.

    Raises on a result whose shape is not that of y, naming both shapes, and
    on complex or non-finite mu values, naming the first offending j and y_j.
    It also raises when mu grows like y^s at 0, measured at the two smallest
    live points, with s <= gamma - 3: then nu = mu/y^gamma is not a Levy
    density, since y^2 nu is not integrable.
    A mu that is not finite everywhere is measured at the two smallest points
    where it is finite and positive, so one that overflows there is named too.
    """
    def node(i):
        return f"j={int(plan.j[i])}, y={float(plan.y[i])}"

    def check_power(low):
        (mu_1, mu_2), (y_1, y_2) = mu_vals[low], plan.y[low]
        if mu_1 > 0 and mu_2 > 0 and y_2 > y_1:
            s = (math.log(mu_2) - math.log(mu_1)) / math.log(y_2 / y_1)
            if s <= gamma - 3 + 1e-9:
                raise ValueError(f"mu grows like y^{s:.4g} at 0: nu = mu/y^gamma is not a "
                                 "Levy density (y^2 nu must be integrable); pass mu = y^gamma nu")

    mu_vals = np.asarray(mu(plan.y))
    if mu_vals.shape != plan.y.shape:
        raise ValueError(f"mu returned shape {mu_vals.shape} for y of shape {plan.y.shape}")
    if np.iscomplexobj(mu_vals):
        bad = np.flatnonzero(mu_vals.imag)
        where = (f": {mu_vals[bad[0]]} at {node(bad[0])}" if bad.size
                 else " (it returned a complex array)")
        raise ValueError(f"mu must return real values{where}")
    mu_vals = mu_vals.astype(float, copy=False)
    bad = np.flatnonzero(~np.isfinite(mu_vals))
    if bad.size:
        usable = np.flatnonzero(np.isfinite(mu_vals) & (mu_vals > 0))
        if usable.size >= 2:
            check_power(usable[np.argsort(plan.y[usable])[:2]])
        raise ValueError(f"mu returned non-finite value {mu_vals[bad[0]]} at {node(bad[0])}")
    check_power(plan.low)
    return mu_vals * plan.factor


def splice_plan(n_gamma: int, h_tilde: float):
    """Two DE runs whose valid frequency windows are stitched together.

    Run A uses zeta0 = N_gamma*h_tilde/15 and covers k = 0..floor(N_gamma/8)
    with m = M = 2*N_gamma nodes; run B uses zeta0 = N_gamma*h_tilde/1.8 and
    covers the rest up to N_gamma with m = min(M, RUN_B_NODES) nodes.  Each
    run has h = log(1000 m)/m for its own m, and j = -5m/8..3m/8-1.
    Returns ((params_a, range_a), (params_b, range_b)).
    """
    if n_gamma < 8:
        raise ValueError("n_gamma must be at least 8")
    m_a = 2 * n_gamma
    m_b = min(m_a, RUN_B_NODES)
    split = n_gamma // 8
    run_a = DeFtParams(n_gamma * h_tilde / 15.0, m_a)
    run_b = DeFtParams(n_gamma * h_tilde / 1.8, m_b)
    return (run_a, range(0, split + 1)), (run_b, range(split + 1, n_gamma + 1))
