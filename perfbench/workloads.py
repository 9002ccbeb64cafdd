"""The workloads: what each request times, and how its densities are checked.

Importing this module imports ``levyfourier`` but not ``levyfourier.cli``
(argparse and ``scipy.integrate``): only ``CliBatch`` imports that, in its own
set-up, so no other workload pays for it. ``call`` is the timed part of a
request; ``errors`` runs outside the timed region and returns, per density,
the largest absolute error on the guaranteed window x_l <= |x| <= x_u against
a reference that does not go through the program's Steps 1-2. References are
closed forms written here, except for the CGMY densities, whose reference is
the package's Step-3 inversion of the closed-form exponent.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np
import scipy.special as sp

from levyfourier.euler_ft import EulerParams
from levyfourier.solver import custom_model, make_grid, nig_model, solve

X_L, X_U, D = 2.0, 5.0, 1.0
CALIB_TIMES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
STEP1_LAYERS = ("solver", "de_ft", "nufft", "sinc_gauss", "euler_ft", "numkit")

# levyfourier.cli.main, bound by CliBatch; a module global so that the tracer
# finds and wraps it like any other cross-module call.
cli_main = None


def vg_density(x, t: float):
    """Variance-gamma density (|x|/2)^(t-1/2) K_{1/2-t}(|x|) / (sqrt(pi) Gamma(t)), x != 0."""
    ax = np.abs(x)
    return (ax / 2) ** (t - 0.5) * sp.kv(0.5 - t, ax) / (math.sqrt(math.pi) * sp.gamma(t))


def nig_density(x, t: float):
    """Normal-inverse-Gaussian density t e^t K_1(sqrt(x^2+t^2)) / (pi sqrt(x^2+t^2))."""
    s = np.hypot(x, t)
    return t * math.exp(t) * sp.k1(s) / (np.pi * s)


def vg_mu(y):
    return np.exp(-y)


def nig_mu(y):
    out = np.full_like(y, 1.0 / np.pi)     # y K_1(y) -> 1 as y -> 0+
    pos = y > 0
    out[pos] = y[pos] * sp.k1(y[pos]) / np.pi
    return out


# base name -> (gamma, mu_1, p_1)
BASES = {"vg": (1, vg_mu, vg_density), "nig": (2, nig_mu, nig_density)}


def scaled_density(base: str, c: float, lam: float, x, t: float):
    """Density of the process with jump density c mu_1(lam y):
    p(x, t) = lam p_1(lam x, c lam^(gamma-1) t)."""
    gamma, _, density = BASES[base]
    return lam * density(lam * np.asarray(x, dtype=float), c * lam ** (gamma - 1) * t)


def cgmy_exponent(C: float, M: float, Y: float):
    """Closed-form CGMY exponent 2 C Gamma(-Y) [(M^2+w^2)^(Y/2) cos(Y arctan(w/M)) - M^Y]."""
    def exponent(omega):
        w = np.asarray(omega, dtype=float)
        return 2 * C * sp.gamma(-Y) * ((M * M + w * w) ** (Y / 2)
                                       * np.cos(Y * np.arctan(w / M)) - M ** Y)
    return exponent


def cgmy_mu(C: float, M: float, Y: float, gamma: int):
    """mu(y) = y^gamma nu(y) for the CGMY Levy density nu(y) = C e^(-M y) / y^(1+Y)."""
    power = gamma - 1 - Y

    def mu(y):
        return C * y ** power * np.exp(-M * y)
    return mu


def window_error(x, p, ref) -> float:
    if not np.all(np.isfinite(p)):
        raise ValueError("density contains non-finite values")
    mask = (np.abs(x) >= X_L) & (np.abs(x) <= X_U)
    return float(np.max(np.abs(p[mask] - ref(x[mask]))))


class Workload:
    """One request stream. ``pool`` holds the seeded inputs; ``wrap_mu`` lets
    the tracer wrap the jump densities that requests build."""

    densities = 1         # per request
    tolerance = 0.0       # largest admissible window error of a density
    required_layers = ()  # layers that must record calls in a traced run
    i = 12                # grid size M = 2^i

    def __init__(self, pool: list, workdir: Path):
        self.pool = pool
        self.workdir = workdir
        self.wrap_mu = lambda fn: fn
        self._grids = {}

    def grid(self, model):
        """(grid, euler) for the model's order, built on first use."""
        if model.gamma not in self._grids:
            euler = EulerParams.from_theorem(2 ** (self.i - model.i_offset), X_L, X_U, D)
            self._grids[model.gamma] = (make_grid(model, euler), euler)
        return self._grids[model.gamma]

    def kinds(self) -> list:
        """The first request of each kind; set-up ends when they complete."""
        return self.pool[:1]

    def call(self, req):
        raise NotImplementedError

    def errors(self, req, out) -> list:
        raise NotImplementedError

    def close(self):
        pass


class ColdHighres(Workload):
    """One density at t = 1 per request, each for a new jump density c mu_1(lam y)."""

    tolerance = 1e-11
    required_layers = (*STEP1_LAYERS, "model.mu")
    i = 14

    def kinds(self):
        return [next(r for r in self.pool if r["base"] == b) for b in BASES]

    def call(self, req):
        gamma, mu_1, _ = BASES[req["base"]]
        c, lam = req["c"], req["lam"]
        model = custom_model(f"{req['base']}-scaled", gamma,
                             self.wrap_mu(lambda y: c * mu_1(lam * y)))
        grid, euler = self.grid(model)
        return solve(model, grid, 1.0, euler)

    def errors(self, req, res):
        return [window_error(res.x, res.p, lambda x: scaled_density(
            req["base"], req["c"], req["lam"], x, 1.0))]


class TermStructure(Workload):
    """Eight times per request on the built-in NIG model; the exponent is
    computed by the first request (set-up) and reused after that."""

    densities = 8
    tolerance = 1e-11
    required_layers = ("solver", "euler_ft", "numkit")
    i = 14

    def __init__(self, pool, workdir):
        super().__init__(pool, workdir)
        self.model = nig_model()

    def call(self, req):
        grid, euler = self.grid(self.model)
        return [solve(self.model, grid, t, euler) for t in req["times"]]

    def errors(self, req, results):
        return [window_error(res.x, res.p, lambda x, t=t: nig_density(x, t))
                for res, t in zip(results, req["times"])]


class CalibSweep(Workload):
    """One CGMY parameter set (C, G = M, Y) at eight fixed times per request."""

    densities = len(CALIB_TIMES)
    tolerance = 1e-6
    required_layers = (*STEP1_LAYERS, "model.mu")

    def __init__(self, pool, workdir):
        super().__init__(pool, workdir)
        self._refs = {}

    @staticmethod
    def gamma(req) -> int:
        return 1 if req["Y"] < 1 else 2

    def kinds(self):
        return [next(r for r in self.pool if self.gamma(r) == g) for g in (1, 2)]

    def call(self, req):
        gamma = self.gamma(req)
        model = custom_model("cgmy", gamma, self.wrap_mu(
            cgmy_mu(req["C"], req["M"], req["Y"], gamma)))
        grid, euler = self.grid(model)
        return [solve(model, grid, t, euler) for t in CALIB_TIMES]

    def errors(self, req, results):
        if id(req) not in self._refs:
            exact = custom_model("cgmy-exact", self.gamma(req), lambda y: y,
                                 exact_exponent=cgmy_exponent(req["C"], req["M"], req["Y"]))
            grid, euler = self.grid(exact)
            self._refs[id(req)] = [solve(exact, grid, t, euler, use_exact_exponent=True).p
                                   for t in CALIB_TIMES]
        out = []
        for res, ref in zip(results, self._refs[id(req)]):
            mask = (np.abs(res.x) >= X_L) & (np.abs(res.x) <= X_U)
            out.append(window_error(res.x, res.p, lambda x, r=ref[mask]: r))
        return out


class CliBatch(Workload):
    """One in-process ``levyfourier solve`` of the built-in VG model at four
    times per request, writing its CSVs and manifest into ``workdir``."""

    densities = 4
    tolerance = 1e-10
    required_layers = ("cli", "solver", "euler_ft", "numkit")

    def __init__(self, pool, workdir):
        global cli_main
        from levyfourier.cli import main as cli_main
        super().__init__(pool, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self._sink = open(os.devnull, "w", encoding="utf-8")

    def call(self, req):
        argv = ["solve", "--model", "vg", "--t", ",".join(map(str, req["times"])),
                "--i-range", str(self.i), "--out", str(self.workdir)]
        with contextlib.redirect_stdout(self._sink):
            return cli_main(argv)

    def errors(self, req, code):
        if code != 0:
            raise ValueError(f"levyfourier solve exited with {code}")
        manifest = self.workdir / "solve_vg_manifest.json"
        runs = json.loads(manifest.read_text(encoding="utf-8"))["runs"]
        if sorted(run["t"] for run in runs) != sorted(req["times"]):
            raise ValueError("manifest does not list the requested times")
        out = []
        for run in runs:
            path = self.workdir / run["file"]
            x, p = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), unpack=True)
            out.append(window_error(x, p, lambda x, t=run["t"]: vg_density(x, t)))
            path.unlink()
        manifest.unlink()
        return out

    def close(self):
        self._sink.close()


WORKLOADS = {"cold-highres": ColdHighres, "term-structure": TermStructure,
             "calib-sweep": CalibSweep, "cli-batch": CliBatch}
