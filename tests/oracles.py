"""Slow independent references the tests compare against.

Everything here is written from the defining formulas with plain loops or
adaptive quadrature, sharing no code path with the package: direct O(n^2)
transform sums, the periodic gridding matrix node by node, adaptive
quadrature of the gridding kernel's transform, the sinc-Gauss interpolant
from its defining sum, per-interval quadrature of the kernel integral and
its midpoint rule as a direct cosine sum, and nested quadrature of the
integral forms behind the closed-form characteristic exponents.
"""
import math

import numpy as np
from scipy import integrate


def dft_direct(values):
    """Forward DFT by the defining sum, numpy sign convention."""
    n = len(values)
    k = np.arange(n)
    return np.array([np.sum(values * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


# 2pi to long-double precision for angle reduction
_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768")


def frft_direct(values, delta, outputs=None):
    """S_n = sum_{l=-N+1}^{N} c_l e^{i delta l n} for n = -N+1..N, or for the
    given n only, by loops.

    The angle delta*l*n reaches ~1e5 rad at the sizes tested here; forming it
    in float64 loses eps*|angle| ~ 1e-11 rad per term, which would swamp the
    error of the transform under test.  Reduce mod 2pi in extended precision.
    """
    n2 = len(values)
    n = n2 // 2
    idx = np.arange(-n + 1, n + 1)
    outputs = idx if outputs is None else np.asarray(outputs)
    l_ld = idx.astype(np.longdouble)
    out = np.empty(len(outputs), dtype=complex)
    for pos, m in enumerate(outputs):
        theta = np.mod(np.longdouble(delta) * np.longdouble(m) * l_ld, _TWO_PI_LD)
        out[pos] = np.sum(values * np.exp(1j * theta.astype(np.float64)))
    return out


def source_sum_direct(weights, points, h_tilde, n_gamma, k=None):
    """mu_hat_k = sum_j Phi_j e^{-i k h~ y_j}, direct double sum, for
    k = 0..n_gamma or only at the given k."""
    k = np.arange(0, n_gamma + 1) if k is None else np.asarray(k)
    return np.exp(-1j * h_tilde * np.outer(k, points)) @ weights


def es_kernel(d, w=15, beta=2.30 * 15):
    """The exponential-of-semicircle kernel exp(beta (sqrt(1 - (2d/w)^2) - 1))
    at distances d, zero for |d| > w/2."""
    d = np.asarray(d, dtype=float)
    inside = np.abs(d) <= w / 2
    u = np.where(inside, d, 0.0) / (w / 2)
    return np.where(inside, np.exp(beta * (np.sqrt(1 - u**2) - 1)), 0.0)


def plan_band(plan):
    """Dense (M, S) gridding matrix of a gridding plan, M = 2 n_gamma:
    column i adds each value of plan.kernel[i] at its row in plan.rows[i]."""
    m = 2 * (len(plan.post) - 1)
    out = np.zeros((m, len(plan.kernel)))
    for i, (rows, values) in enumerate(zip(plan.rows, plan.kernel)):
        np.add.at(out[:, i], rows, values)
    return out


def periodic_band(points, h_tilde, m):
    """Dense (M, S) gridding matrix of one run of S sources on M nodes,
    node by node.

    Source j sits at c_j = h~ y_j / a on the lattice a = 2 pi / M; entry
    (l, j), l = 0..M-1, is the kernel at the distance from c_j to the image
    L = l + n M of node l nearest c_j, computed as L - c_j.
    """
    points = np.asarray(points, dtype=float)
    c = h_tilde * points / (2 * math.pi / m)
    nodes = np.arange(m)
    out = np.zeros((m, len(points)))
    for j, cj in enumerate(c):
        image = nodes + m * np.round((cj - nodes) / m)
        out[:, j] = es_kernel(image - cj)
    return out


def es_transform_quad(w, beta, xi):
    """Fourier transform at xi of the exponential-of-semicircle kernel
    exp(beta (sqrt(1 - (2z/w)^2) - 1)) on |z| <= w/2 (zero outside), by
    adaptive quadrature of the even integrand over [0, w/2]."""

    def f(z):
        return math.exp(beta * (math.sqrt(max(1.0 - (2 * z / w) ** 2, 0.0)) - 1.0)) \
            * math.cos(xi * z)

    val, _ = integrate.quad(f, 0.0, w / 2, epsabs=0.0, epsrel=1e-13, limit=400)
    return 2.0 * val


def sg_interpolate(f, offset, h, n_prime, r, zeta):
    """Sinc-Gauss interpolant sum_k f(k h) sinc(zeta/h - k)
    exp(-(zeta/h - k)^2 / (2 r^2)) at zeta, from samples f(k h) held at
    k = offset..offset + len(f) - 1.

    Uses the window k = floor(zeta/h) - N' + 1 .. floor(zeta/h) + N'; raises
    when the samples do not cover it, naming the missing index range.
    """
    last = offset + len(f) - 1
    center = math.floor(zeta / h)
    lo, hi = center - n_prime + 1, center + n_prime
    if lo < offset or hi > last:
        miss_lo = f"{lo}..{offset - 1}" if lo < offset else ""
        miss_hi = f"{last + 1}..{hi}" if hi > last else ""
        missing = ", ".join(s for s in (miss_lo, miss_hi) if s)
        raise ValueError(f"samples cover {offset}..{last}; "
                         f"window needs {lo}..{hi} (missing {missing})")
    k = np.arange(lo, hi + 1)
    s = zeta / h - k
    window = np.sinc(s) * np.exp(-(s * s) / (2 * r**2))
    return complex(np.sum(np.asarray(f)[lo - offset : hi - offset + 1] * window))


def kernel_quad(r, n_prime):
    """G_r(k) = int_0^k sinc(eta) e^{-eta^2/(2 r^2)} d eta by per-interval
    adaptive quadrature, accumulated so each panel is resolved separately."""

    def f(eta):
        return np.sinc(eta) * math.exp(-(eta * eta) / (2 * r * r))

    g = np.zeros(n_prime + 1)
    for k in range(n_prime):
        piece, _ = integrate.quad(f, k, k + 1, epsabs=1e-13, epsrel=1e-13, limit=200)
        g[k + 1] = g[k] + piece
    return g


def kernel_midpoint_direct(r, n_prime, m_table):
    """G_r(k), k = 0..n_prime, from the midpoint rule of step h' = 2pi/m_table
    on the inversion integral, as the direct cosine sum

      G_r(k+1) - G_r(k) = (h'/2pi) sum_{l=-M+1}^{M} F_SG(l h') sinc(l h'/2pi)
                          cos(l h' (k + 1/2)),   M = m_table,

    F_SG(w) = (erf(r(w+pi)/sqrt 2) - erf(r(w-pi)/sqrt 2)) / 2, accumulated
    from G_r(0) = 0.  The angle l h'(k + 1/2) = pi l (2k+1) / M is reduced
    mod 2pi in integers; the cosines and sums run in extended precision, since
    float64 pi alone biases every difference by ~5e-17 and the prefix sum by
    ~n_prime times that."""
    m = m_table
    ell = np.arange(-m + 1, m + 1)
    hp = 2 * math.pi / m
    f_sg = np.array([0.5 * (math.erf(r * (l * hp + math.pi) / math.sqrt(2))
                            - math.erf(r * (l * hp - math.pi) / math.sqrt(2)))
                     for l in ell])
    coeff = (f_sg * np.sinc(ell * hp / (2 * math.pi))).astype(np.longdouble)
    g = np.zeros(n_prime + 1, dtype=np.longdouble)
    for k in range(n_prime):
        turns = ((ell * (2 * k + 1)) % (2 * m)).astype(np.longdouble)
        g[k + 1] = g[k] + np.sum(coeff * np.cos(_TWO_PI_LD / 2 * turns / m)) / m
    return g.astype(np.float64)


def window(half, n_prime, odd=False):
    """The 3N' samples f(l h~), l = -N'..2N'-1, of a series from its half line
    f(l h~), l >= 0: f(-l) = conj f(l), or -conj f(l) if odd (for a real half
    the even or the odd extension)."""
    head = np.conj(half[n_prime:0:-1])
    return np.concatenate((-head if odd else head, half[:2 * n_prime]))


def indefinite_direct(f, g, h_tilde):
    """The partitioned indefinite-integration sum by explicit loops.

    f holds samples at l = -N'..2N'-1, g holds G_r(0..N').  Returns the
    integrals for l = 1..N' as S1 - S2 + H with

      S1 = h~ sum_{k=-N'+1}^{N'} f((l-k)h~) G_r(k)
      S2 = h~ sum_{k=-N'+1}^{N'} f(k h~) G_r(-k)
      H  = G_r(N') h~ (sum_{k=N'+1}^{N'+l-1} f_k + sum_{k=-N'+1}^{-N'+l-1} f_k).
    """
    n = len(g) - 1

    def gs(k):
        return math.copysign(1.0, k) * g[abs(k)] if k else 0.0

    def fat(l):
        return f[l + n]

    out = np.empty(n, dtype=complex)
    for l in range(1, n + 1):
        s1 = sum(fat(l - k) * gs(k) for k in range(-n + 1, n + 1))
        s2 = sum(fat(k) * gs(-k) for k in range(-n + 1, n + 1))
        tail = sum(fat(k) for k in range(n + 1, n + l)) + sum(
            fat(k) for k in range(-n + 1, -n + l))
        out[l - 1] = h_tilde * (s1 - s2 + g[n] * tail)
    return out


def indefinite_saturated(f, g, h_tilde):
    """Single unpartitioned sum over every sample with the kernel saturated at
    +-G_r(N'); must agree with the three-part split exactly."""
    n = len(g) - 1

    def gsat(k):
        return math.copysign(1.0, k) * g[min(abs(k), n)] if k else 0.0

    out = np.empty(n, dtype=complex)
    for l in range(1, n + 1):
        out[l - 1] = h_tilde * sum(
            f[m + n] * (gsat(l - m) - gsat(-m)) for m in range(-n, 2 * n))
    return out


def k1_integral(z):
    """K_1(z) = int_0^inf e^{-z cosh u} cosh u du.

    The integrand underflows long before u_max = acosh(750/z); truncating
    there changes the value by less than e^{-750}.
    """
    u_max = math.acosh(750.0 / z)
    val, _ = integrate.quad(lambda u: math.exp(-z * math.cosh(u)) * math.cosh(u),
                            0, u_max, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def _gauss_legendre(f, a, b, order=96):
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(w * np.array([f(mid + half * xi) for xi in x]))


def vg_g1_quad(omega):
    """G_1(omega) = 2 int_0^omega Im m^(eta) d eta for mu(y) = e^{-y},
    with Im m^(eta) = -int_0^inf e^{-y} sin(eta y) dy by QAWF quadrature."""

    def im_mhat(eta):
        # e^{-y} is below 1e-27 past y = 62, so a finite range suffices and
        # plain adaptive quadrature stays accurate for small eta too
        val, _ = integrate.quad(lambda y: math.exp(-y) * math.sin(eta * y),
                                0, 62.0, epsabs=1e-13, epsrel=1e-13, limit=800)
        return -val

    return 2.0 * _gauss_legendre(im_mhat, 0.0, omega)


def nig_g2_quad(omega):
    """G_2(omega) = -2 int_0^omega int_0^eta Re m^(zeta) d zeta d eta for
    mu(y) = y K_1(y)/pi; the double integral collapses to a single one with
    the factor (omega - zeta), and Re m^ comes from QAWF quadrature."""
    from scipy.special import k1

    def re_mhat(zeta):
        # y K_1(y) -> 1 as y -> 0 and decays like sqrt(pi y/2) e^{-y}, so the
        # finite range [0, 62] carries the whole integral
        def f(y):
            return (1.0 if y < 1e-12 else y * k1(y)) * math.cos(zeta * y) / math.pi

        val, _ = integrate.quad(f, 0, 62.0, epsabs=1e-13, epsrel=1e-13, limit=800)
        return val

    return -2.0 * _gauss_legendre(lambda z: (omega - z) * re_mhat(z), 0.0, omega)
