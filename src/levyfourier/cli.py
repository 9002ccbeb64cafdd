"""Command-line front end: density runs, convergence studies, timing
benchmarks, and a built-in oracle selftest.  Results are CSV tables plus a
JSON manifest of every resolved parameter."""
from __future__ import annotations

import argparse
import ast
import json
import math
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .de_ft import _sources_stacked, node_plan, splice_plan
from .euler_ft import EulerParams, inverse_ft, weight
from .numkit import frft_even
from .sinc_gauss import kernel_table
from .solver import (_spliced_transform, clear_exponent_cache, custom_model,
                     g_gamma, make_grid, nig_model, params_echo, solve, vg_model)

CONFIG_SCHEMA_VERSION = "1"
# the names a --mu expression may use besides y, as np.NAME or math.NAME;
# np.NAME must be a ufunc or one of _MU_NUMPY_EXTRA, which keeps numpy's
# file and memory functions (np.save, np.load, np.fromfile, ...) out
_MU_MODULES = {"np": np, "math": math}
_MU_NUMPY_EXTRA = frozenset({"pi", "e", "inf", "where"})
_MU_SYNTAX = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare,
              ast.operator, ast.unaryop, ast.cmpop, ast.Load)


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    model: str = "vg"
    gamma: Optional[int] = None
    mu_expr: Optional[str] = None
    t_values: tuple = (1.0,)
    exponent_i: tuple = (11,)
    x_l: float = 2.0
    x_u: float = 5.0
    d: float = 1.0
    out: str = "out"
    reps: int = 5

    def __post_init__(self):
        if self.model not in ("vg", "nig", "custom"):
            raise ValueError(f"unknown model {self.model!r} (vg, nig or custom)")
        if self.model == "custom":
            if self.gamma not in (1, 2):
                raise ValueError("custom model needs --gamma 1 or 2")
            if not self.mu_expr:
                raise ValueError("custom model needs --mu EXPR (a function of y)")
        elif self.gamma is not None or self.mu_expr is not None:
            raise ValueError(f"--gamma and --mu apply only to --model custom, "
                             f"not to the built-in model {self.model!r}")
        if not self.t_values:
            raise ValueError("need at least one time value")
        if not all(math.isfinite(t) and t > 0 for t in self.t_values):
            raise ValueError(f"all times must be positive and finite: {self.t_values}")
        if len(set(self.t_values)) < len(self.t_values):
            raise ValueError(f"times must not repeat: {self.t_values}")
        if not self.exponent_i:
            raise ValueError("need at least one grid exponent i")
        if not all(7 <= i <= 14 for i in self.exponent_i):
            raise ValueError(f"grid exponents must lie in 7..14: {self.exponent_i}")
        if len(set(self.exponent_i)) < len(self.exponent_i):
            raise ValueError(f"grid exponents must not repeat: {self.exponent_i}")
        if not (0 < self.x_l < self.x_u):
            raise ValueError("need 0 < xl < xu")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")


def parse_config_file(path) -> dict:
    """Flat key=value config; requires schema_version=1.  '#' starts a comment."""
    data = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key != "schema_version" and key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            data[key] = value
    if data.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"{path}: missing or unsupported schema_version "
                         f"(need schema_version={CONFIG_SCHEMA_VERSION})")
    return data


def _parse_times(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_irange(text: str) -> tuple:
    """'7..12', '11', or '7,9,11'."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# each config key, which is also its flag's argparse dest: the RunConfig
# field it sets and the parser of its text; RunConfig holds the defaults
_SETTINGS = {"model": ("model", str), "gamma": ("gamma", int), "mu": ("mu_expr", str),
             "t": ("t_values", _parse_times), "i_range": ("exponent_i", _parse_irange),
             "xl": ("x_l", float), "xu": ("x_u", float), "d": ("d", float),
             "out": ("out", str), "reps": ("reps", int)}


def resolve_config(args) -> RunConfig:
    """Merge RunConfig's defaults < config file < explicit flags."""
    given = parse_config_file(args.config) if args.config else {}
    given.update((key, getattr(args, key)) for key in _SETTINGS
                 if getattr(args, key) is not None)
    return RunConfig(**{name: parse(given[key])
                        for key, (name, parse) in _SETTINGS.items() if key in given})


def _build_model(config: RunConfig):
    if config.model == "vg":
        return vg_model()
    if config.model == "nig":
        return nig_model()
    code = _compile_mu(config.mu_expr)

    def mu(y, _code=code):
        return eval(_code, {"__builtins__": {}}, {**_MU_MODULES, "y": y})

    return custom_model("custom", config.gamma, mu)


def _compile_mu(expr: str):
    """Compile a --mu expression after checking every node of its syntax
    tree: numeric constants, the name y, arithmetic, unary and comparison
    operators, and calls or attributes math.NAME and np.NAME, with NAME not
    starting with '_' and, for np, a ufunc, pi, e, inf or where.  Anything
    else raises ValueError naming the node."""
    try:
        tree = ast.parse(expr, "<mu>", mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"mu expression {expr!r} does not parse: {exc.msg}") from None
    module_refs = set()          # the np/math names under an allowed attribute
    for node in ast.walk(tree):  # parents come before their children
        if isinstance(node, ast.Attribute):
            ok = (isinstance(node.value, ast.Name) and node.value.id in _MU_MODULES
                  and not node.attr.startswith("_")
                  and (node.value.id != "np" or node.attr in _MU_NUMPY_EXTRA
                       or isinstance(getattr(np, node.attr, None), np.ufunc)))
            module_refs.add(node.value)
            what = f"attribute {node.attr!r}"
        elif isinstance(node, ast.Name):
            ok = node.id == "y" or node in module_refs
            what = f"name {node.id!r}"
        elif isinstance(node, ast.Call):
            ok = isinstance(node.func, ast.Attribute) and not node.keywords
            what = "call with keywords" if node.keywords else "call of a non-attribute"
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float, complex)
            what = f"constant {node.value!r}"
        else:
            ok = isinstance(node, _MU_SYNTAX)
            what = type(node).__name__
        if not ok:
            raise ValueError(f"mu expression {expr!r}: {what} is not allowed")
    return compile(tree, "<mu>", "eval")


def _grid(model, config: RunConfig, i: int):
    n = 2 ** (i - model.i_offset)
    return make_grid(model, EulerParams(n, config.x_l, config.x_u, config.d))


def _t_label(t: float) -> str:
    """t in the shortest digits that read back as t: 1, 1.5, 1.0000001."""
    return np.format_float_positional(t, trim="-")


def _config_echo(config: RunConfig) -> dict:
    echo = {}
    for f in fields(config):
        v = getattr(config, f.name)
        echo[f.name] = list(v) if isinstance(v, tuple) else v
    return echo


def _write_manifest(outdir: Path, name: str, payload: dict) -> Path:
    from . import __version__
    payload = {"schema_version": 1, "package_version": __version__, **payload}
    path = outdir / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _fmt(v) -> str:
    return "%.17g" % v


def cmd_solve(config: RunConfig) -> int:
    """One CSV per (model, i, t) with x, p_num and, when available, exact values.

    Every column is even in x, so the rows x >= 0 are formatted once and each
    row at x < 0 repeats the text of the row at -x."""
    model = _build_model(config)
    outdir = Path(config.out)
    runs = []
    for i in config.exponent_i:
        grid = _grid(model, config, i)
        n, x_text = grid.n, None   # the x column, formatted once per grid
        for t in config.t_values:
            res = solve(model, grid, t, grid.euler)
            if not runs:   # a solve that fails leaves no directory behind
                outdir.mkdir(parents=True, exist_ok=True)
            if x_text is None:   # x(-n) = -x(n) exactly
                x_text = ["%.17g," % v for v in res.x[n - 1:].tolist()]
                x_text = ["-" + v for v in x_text[n - 1:0:-1]] + x_text
            fname = f"solve_{model.name}_i{i}_t{_t_label(t)}.csv"
            cols = ((res.p,) if res.p_exact is None
                    else (res.p, res.p_exact, res.abs_err))
            line = ",".join(["%.17g"] * len(cols)) + "\n"
            rows = [line % row for row in zip(*(c[n - 1:].tolist() for c in cols))]
            with open(outdir / fname, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(("x", "p_num", "p_exact", "abs_err")[:len(cols) + 1])
                         + "\n" + "".join(x + r for x, r in zip(x_text, rows[n - 1:0:-1] + rows)))
            entry = dict(res.params_echo)
            entry["i"] = i
            entry["file"] = fname
            runs.append(entry)
            note = (f"  max_abs_err={np.max(res.abs_err):.3e}"
                    if res.abs_err is not None else "")
            print(f"wrote {outdir / fname}  ({len(res.x)} rows, "
                  f"{res.timings['total']:.3f} s){note}")
    _write_manifest(outdir, f"solve_{model.name}_manifest.json",
                    {"command": "solve", "config": _config_echo(config), "runs": runs})
    return 0


def cmd_converge(config: RunConfig) -> int:
    """Error-vs-size table: max errors on the full interval and on the
    guaranteed window per (M, t), plus fitted slopes of log err vs sqrt(M)."""
    if len(config.exponent_i) < 3:
        raise ValueError("converge needs at least 3 grid exponents (--i-range)")
    model = _build_model(config)
    if model.exact_density is None:
        raise ValueError("converge needs a model with an exact density (vg or nig)")
    m_list = []
    full_err = {t: [] for t in config.t_values}
    window_err = {t: [] for t in config.t_values}
    runs = []
    for i in config.exponent_i:
        grid = _grid(model, config, i)
        m_list.append(grid.m)
        for t in config.t_values:
            res = solve(model, grid, t, grid.euler)
            in_window = np.abs(res.x) >= config.x_l
            full_err[t].append(float(np.max(res.abs_err)))
            window_err[t].append(float(np.max(res.abs_err[in_window])))
        entry = params_echo(model, grid)
        entry["i"] = i
        runs.append(entry)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fname = f"converge_{model.name}.csv"
    with open(outdir / fname, "w", encoding="utf-8", newline="") as fh:
        header = ["M"]
        for t in config.t_values:
            header += [f"max_err_full_t{_t_label(t)}", f"max_err_window_t{_t_label(t)}"]
        fh.write(",".join(header) + "\n")
        for row_i, m in enumerate(m_list):
            row = [_fmt(m)]
            for t in config.t_values:
                row += [_fmt(full_err[t][row_i]), _fmt(window_err[t][row_i])]
            fh.write(",".join(row) + "\n")
    slopes = {}
    sqrt_m = np.sqrt(np.asarray(m_list, dtype=float))
    for t in config.t_values:
        logs = np.log(np.maximum(window_err[t], 1e-300))
        slope, intercept = np.polyfit(sqrt_m, logs, 1)
        resid = logs - (slope * sqrt_m + intercept)
        ss_tot = float(np.sum((logs - logs.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
        slopes[f"t={_t_label(t)}"] = {"slope_vs_sqrt_m": float(slope), "r_squared": r2}
        print(f"t={_t_label(t)}: window-error slope vs sqrt(M) = {slope:.4f} "
              f"(R^2 = {r2:.4f})")
    print(f"wrote {outdir / fname}")
    _write_manifest(outdir, f"converge_{model.name}_manifest.json",
                    {"command": "converge", "config": _config_echo(config),
                     "slopes": slopes, "runs": runs})
    return 0


def cmd_bench(config: RunConfig) -> int:
    """Median per-step wall times per grid size, with time/(M log2 M)."""
    if len(config.t_values) > 1:
        times = ", ".join(map(_t_label, config.t_values))
        raise ValueError(f"bench times one t, got t = {times}")
    model = _build_model(config)
    t = config.t_values[0]
    if config.reps < 5:
        warnings.warn(f"reps = {config.reps} < 5; timing medians may be noisy",
                      stacklevel=2)
    rows, runs = [], []
    for i in config.exponent_i:
        grid = _grid(model, config, i)
        samples = {"step1": [], "step2": [], "step3": [], "total": []}
        for _ in range(config.reps):
            clear_exponent_cache()
            res = solve(model, grid, t, grid.euler)
            for key in samples:
                samples[key].append(res.timings[key])
        med = {key: statistics.median(vals) for key, vals in samples.items()}
        rows.append((grid.m, med, med["total"] / (grid.m * math.log2(grid.m))))
        runs.append({**params_echo(model, grid), "i": i})
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fname = f"bench_{model.name}.csv"
    with open(outdir / fname, "w", encoding="utf-8", newline="") as fh:
        fh.write("M,step1_s,step2_s,step3_s,total_s,total_per_mlog2m\n")
        for m, med, ratio in rows:
            fh.write(",".join([_fmt(m), _fmt(med["step1"]), _fmt(med["step2"]),
                               _fmt(med["step3"]), _fmt(med["total"]),
                               _fmt(ratio)]) + "\n")
    norm = [ratio for _, _, ratio in rows]
    print(f"wrote {outdir / fname}  (normalized spread "
          f"max/min = {max(norm) / min(norm):.2f})")
    _write_manifest(outdir, f"bench_{model.name}_manifest.json",
                    {"command": "bench", "config": _config_echo(config),
                     "t": t, "reps": config.reps,
                     "normalized_spread": max(norm) / min(norm), "runs": runs})
    return 0


def _check_frft():
    rng = np.random.default_rng(7)
    n = 32
    c = rng.standard_normal(n + 1)
    got = frft_even(c, 0.3)
    idx = np.arange(-n + 1, n + 1)
    direct = np.array([np.sum(c[np.abs(idx)] * np.exp(1j * 0.3 * idx * k))
                       for k in range(n + 1)])
    return float(np.max(np.abs(got - direct.real))), 1e-10


def _check_euler_even():
    euler = EulerParams(64, 2.0, 5.0, 1.0)
    h_hat = euler.x_u / euler.n
    ell = np.arange(-euler.n + 1, euler.n + 1)
    g = -np.log1p((ell * euler.h_tilde) ** 2)
    got = inverse_ft(g[euler.n - 1:], 1.0, euler)
    coeff = weight(np.abs(ell) * euler.h_tilde, euler) * np.exp(g)
    direct = np.array([np.sum(coeff * np.exp(1j * euler.h_tilde * h_hat * ell * k))
                       for k in ell]) * (euler.h_tilde / (2 * np.pi))
    return float(np.max(np.abs(got - direct.real))), 1e-10


def _check_nufft():
    model = vg_model()
    grid = make_grid(model, EulerParams(128, 2.0, 5.0, 1.0))
    got = _spliced_transform(model, grid)
    # the plain (unshifted) weights of the run covering each k, summed directly
    splice = splice_plan(grid.n_gamma, grid.h_tilde)
    plain = node_plan(run for run, _ in splice)
    weights = _sources_stacked(model.mu, plain, model.gamma)
    worst = 0.0
    for row, (_, krange) in enumerate(splice):
        mine = plain.run == row
        k = np.asarray(krange)
        direct = np.exp(-1j * np.outer(k * grid.h_tilde, plain.y[mine])) @ weights[mine]
        worst = max(worst, float(np.max(np.abs(got[k] - direct))))
    return worst, 1e-8


def _check_kernel_table():
    n_prime = 32
    r = math.sqrt(n_prime / math.pi)
    table = kernel_table(r, n_prime)
    acc, worst = 0.0, 0.0
    for k in range(1, n_prime + 1):
        piece, _ = quad(lambda s: np.sinc(s) * math.exp(-s * s / (2 * r * r)),
                        k - 1, k)
        acc += piece
        worst = max(worst, abs(float(table[k]) - acc))
    return worst, 1e-9


def _check_transform(model, exact, tol):
    grid = make_grid(model, EulerParams(128, 2.0, 5.0, 1.0))
    zeta = np.arange(grid.n_gamma + 1) * grid.h_tilde
    return float(np.max(np.abs(_spliced_transform(model, grid) - exact(zeta)))), tol


def _check_exponent(model, n, tol):
    grid = make_grid(model, EulerParams(n, 2.0, 5.0, 1.0))
    g = g_gamma(model, grid)
    exact = model.exact_exponent(np.arange(grid.n + 1) * grid.h_tilde)
    return float(np.max(np.abs(g - exact))), tol


def cmd_selftest() -> int:
    """Small-size oracle checks; nonzero exit if any fails."""
    checks = [
        ("frft-vs-direct-sum", _check_frft),
        ("euler-even-vs-direct-sum", _check_euler_even),
        ("nufft-vs-direct-sum", _check_nufft),
        ("kernel-table-vs-quadrature", _check_kernel_table),
        ("de-ft-vs-closed-form",
         lambda: _check_transform(vg_model(), lambda z: 1.0 / (1.0 + 1j * z), 1e-6)),
        # CGMY Y = 1.9: mu = y^-0.9 e^-y carries mass near y = 0 that a DE run
        # cut too far right misses; its transform is Gamma(0.1) (1 + i zeta)^-0.1
        ("de-ft-singular-vs-closed-form",
         lambda: _check_transform(custom_model("cgmy-y1.9", 2, lambda y: y ** -0.9 * np.exp(-y)),
                                  lambda z: math.gamma(0.1) * (1.0 + 1j * z) ** -0.1, 1e-11)),
        ("exponent-vg-closed-form", lambda: _check_exponent(vg_model(), 256, 1e-6)),
        ("exponent-nig-closed-form", lambda: _check_exponent(nig_model(), 128, 1e-5)),
    ]
    all_ok = True
    start = time.perf_counter()
    print(f"{'check':<30} {'result':<8} {'max_err':<12} tol")
    for name, fn in checks:
        try:
            err, tol = fn()
            ok = err <= tol
            detail = f"{err:<12.3e} {tol:g}"
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised: {exc}"
        all_ok &= ok
        print(f"{name:<30} {'PASS' if ok else 'FAIL':<8} {detail}")
    print(f"selftest {'passed' if all_ok else 'FAILED'} "
          f"in {time.perf_counter() - start:.2f} s")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyfourier",
        description="Fourier-space solver for densities of symmetric pure-jump "
                    "Levy processes")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file (flags override)")
    common.add_argument("--model", choices=("vg", "nig", "custom"))
    common.add_argument("--gamma", type=int, help="order for --model custom (1 or 2)")
    common.add_argument("--mu", help="mu(y) = y^gamma nu(y), nu the Levy density, "
                                     "for --model custom, e.g. 'np.exp(-y)'")
    common.add_argument("--t", help="comma-separated times, e.g. 1,2,3")
    common.add_argument("--i-range", dest="i_range",
                        help="grid exponents i with M = 2^i: '7..12', '11' or '7,9,11'")
    common.add_argument("--xl", type=float, help="window lower edge x_l")
    common.add_argument("--xu", type=float, help="window upper edge x_u")
    common.add_argument("--d", type=float, help="window decay tuning constant")
    common.add_argument("--out", help="output directory")
    common.add_argument("--reps", type=int, help="bench repetitions (median taken)")
    sub.add_parser("solve", parents=[common],
                   help="write density tables per (model, i, t)")
    sub.add_parser("converge", parents=[common],
                   help="write error-vs-size tables and fitted slopes")
    sub.add_parser("bench", parents=[common],
                   help="write per-step timing tables")
    sub.add_parser("selftest", help="run built-in oracle checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        config = resolve_config(args)
        command = {"solve": cmd_solve, "converge": cmd_converge,
                   "bench": cmd_bench}[args.command]
        return command(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
