"""Command-line front end: config parsing, precedence, CSV and manifest
output, exit codes, and the built-in selftest."""
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from levyfourier import cli
from levyfourier.cli import (RunConfig, _parse_irange, _parse_times, build_parser, main,
                             parse_config_file, resolve_config)
from levyfourier.solver import solve


def test_parse_irange_forms():
    assert _parse_irange("7..12") == (7, 8, 9, 10, 11, 12)
    assert _parse_irange("11") == (11,)
    assert _parse_irange("7,9,11") == (7, 9, 11)
    assert _parse_irange(" 8..9 ") == (8, 9)


def test_parse_times():
    assert _parse_times("1") == (1.0,)
    assert _parse_times("1,2,3") == (1.0, 2.0, 3.0)
    assert _parse_times("0.5,") == (0.5,)


def test_runconfig_validation():
    with pytest.raises(ValueError, match="unknown model"):
        RunConfig(model="gauss")
    with pytest.raises(ValueError, match="needs --gamma"):
        RunConfig(model="custom", mu_expr="np.exp(-y)")
    with pytest.raises(ValueError, match="needs --mu"):
        RunConfig(model="custom", gamma=1)
    with pytest.raises(ValueError, match="only to --model custom.*'vg'"):
        RunConfig(gamma=2)
    with pytest.raises(ValueError, match="only to --model custom.*'nig'"):
        RunConfig(model="nig", mu_expr="np.exp(-y)")
    with pytest.raises(ValueError, match="at least one time"):
        RunConfig(t_values=())
    with pytest.raises(ValueError, match="positive and finite"):
        RunConfig(t_values=(1.0, 0.0))
    with pytest.raises(ValueError, match="positive and finite"):
        RunConfig(t_values=(math.inf,))
    with pytest.raises(ValueError, match="must not repeat"):
        RunConfig(t_values=(1.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="at least one grid exponent"):
        RunConfig(exponent_i=())
    with pytest.raises(ValueError, match="7..14"):
        RunConfig(exponent_i=(6,))
    with pytest.raises(ValueError, match="7..14"):
        RunConfig(exponent_i=(11, 15))
    with pytest.raises(ValueError, match=r"grid exponents must not repeat: \(8, 8, 9\)"):
        RunConfig(exponent_i=(8, 8, 9))
    with pytest.raises(ValueError, match="0 < xl < xu"):
        RunConfig(x_l=5.0, x_u=2.0)
    with pytest.raises(ValueError, match="reps"):
        RunConfig(reps=0)


def test_parse_config_file_reads_flat_keys(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# density study\n"
                   "schema_version = 1\n"
                   "\n"
                   "model=nig\n"
                   "i_range = 7..9   # grid sizes\n",
                   encoding="utf-8")
    assert parse_config_file(cfg) == {"schema_version": "1", "model": "nig",
                                      "i_range": "7..9"}


def test_parse_config_file_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version=1\njust a line\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.cfg:2: expected key=value"):
        parse_config_file(bad)
    bad.write_text("schema_version=1\ncolor=red\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'color'"):
        parse_config_file(bad)
    bad.write_text("schema_version=1\neps=1e-10\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'eps'"):
        parse_config_file(bad)
    bad.write_text("model=vg\n", encoding="utf-8")
    with pytest.raises(ValueError, match="schema_version"):
        parse_config_file(bad)


def test_parse_config_file_rejects_a_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("schema_version=1\nt=1\nxl=1.5\n# later\nt = 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="twice.cfg:5: config key 't' repeats line 2"):
        parse_config_file(cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--i-range", "7", "--out", str(out)]) == 2
    assert "config key 't' repeats line 2" in capsys.readouterr().err
    assert not out.exists()


def test_every_setting_is_one_field_one_flag_and_one_parser(tmp_path, capsys):
    config_fields = {f.name for f in fields(RunConfig)}
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    actions = {a.dest: a for a in commands.choices["solve"]._actions}
    for key, (name, _, text) in cli._SETTINGS.items():
        assert name in config_fields, key
        flag = "--" + key.replace("_", "-")
        assert actions[key].option_strings == [flag], key
        assert actions[key].help == text and text, key
        assert actions[key].type is None and actions[key].choices is None, key
    # a malformed value is named by its key, from a file and from the flag alike
    out = tmp_path / "out"
    for key, bad in (("xl", "abc"), ("t", "1,x"), ("i_range", "7..x"), ("gamma", "1.5"),
                     ("reps", "x")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"schema_version=1\n{key}={bad}\n", encoding="utf-8")
        errs = []
        for argv in (["--config", str(cfg)], ["--" + key.replace("_", "-"), bad]):
            assert main(["solve", *argv, "--out", str(out)]) == 2, key
            errs.append(capsys.readouterr().err)
            assert not out.exists(), key
        assert errs[0] == errs[1], key
        assert errs[0].startswith(f"error: {key}: "), errs[0]


def test_resolve_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("schema_version=1\nxl=1.5\nt=2,3\nreps=9\n", encoding="utf-8")
    args = build_parser().parse_args(["solve", "--config", str(cfg), "--xu", "7"])
    config = resolve_config(args)
    assert config.x_l == 1.5          # file beats default
    assert config.x_u == 7.0          # flag beats file
    assert config.t_values == (2.0, 3.0)
    assert config.reps == 9
    assert config.d == 1.0            # untouched default
    assert config.model == "vg"


def test_solve_writes_csv_and_manifest(tmp_path, capsys):
    rc = main(["solve", "--i-range", "7", "--t", "1", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "max_abs_err=" in out

    lines = (tmp_path / "solve_vg_i7_t1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,p_num,p_exact,abs_err"
    assert len(lines) == 1 + 64       # 2N rows, N = 2^(7-2)
    for line in lines[1:]:
        toks = line.split(",")
        assert len(toks) == 4
        for tok in toks:
            # %.17g survives a float round trip unchanged
            assert "%.17g" % float(tok) == tok
        x, p, pe, err = map(float, toks)
        assert err == abs(p - pe)
    xs = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    assert np.array_equal(xs, np.arange(-31, 33) * (5.0 / 32.0))

    man = json.loads((tmp_path / "solve_vg_manifest.json").read_text(encoding="utf-8"))
    assert man["schema_version"] == 1
    assert isinstance(man["package_version"], str)
    assert man["command"] == "solve"
    assert man["config"]["model"] == "vg"
    assert man["config"]["t_values"] == [1.0]
    assert man["config"]["exponent_i"] == [7]
    (entry,) = man["runs"]
    need = {"model", "gamma", "n", "n_gamma", "m", "x_l", "x_u", "d", "h_tilde",
            "h_hat", "zeta0_rule", "zeta0_low", "zeta0_high", "m_low", "m_high",
            "h_de_low", "h_de_high", "de_j_rule", "de_beta", "r_rule", "m_table_rule", "t", "kernel", "width", "beta",
            "use_exact_exponent", "i", "file"}
    assert need <= set(entry)
    assert entry["i"] == 7 and entry["file"] == "solve_vg_i7_t1.csv"
    assert entry["n"] == 32 and entry["m"] == 128
    assert entry["m_low"] == entry["m_high"] == 128
    assert entry["h_de_low"] == entry["h_de_high"] == math.log(1000 * 128) / 128
    assert entry["t"] == 1.0 and entry["kernel"] == "es" and entry["width"] == 15
    assert entry["beta"] == pytest.approx(2.30 * 15, rel=1e-15)
    assert "epsilon" not in entry and "b" not in entry


@pytest.mark.parametrize("flags", (["--model", "vg"], ["--model", "nig"],
                                   ["--model", "custom", "--gamma", "1", "--mu", "np.exp(-y)"]),
                         ids=("vg", "nig", "custom"))
def test_solve_csv_matches_full_line_formatting(tmp_path, flags, capsys):
    # the CLI formats the rows x >= 0 once and mirrors them; formatting every
    # row of the full line gives the same bytes
    assert main(["solve", *flags, "--i-range", "7,10", "--t", "0.5,2.5",
                 "--out", str(tmp_path)]) == 0
    config = resolve_config(build_parser().parse_args(["solve", *flags]))
    model = cli._build_model(config)
    for i in (7, 10):
        grid = cli._grid(model, config, i)
        for t in (0.5, 2.5):
            res = solve(model, grid, t, grid.euler)
            cols = ((res.p,) if res.p_exact is None
                    else (res.p, res.p_exact, res.abs_err))
            assert len(cols) == (1 if flags[1] == "custom" else 3)
            line = ",".join(["%.17g"] * len(cols)) + "\n"
            text = (",".join(("x", "p_num", "p_exact", "abs_err")[:len(cols) + 1]) + "\n"
                    + "".join("%.17g," % x + line % row for x, row in zip(res.x, zip(*cols))))
            name = f"solve_{model.name}_i{i}_t{cli._t_label(t)}.csv"
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


def test_solve_custom_model_has_no_exact_columns(tmp_path):
    rc = main(["solve", "--model", "custom", "--gamma", "1", "--mu", "np.exp(-y)",
               "--i-range", "7", "--t", "1", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "solve_custom_i7_t1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,p_num"
    assert all(len(ln.split(",")) == 2 for ln in lines[1:])
    man = json.loads((tmp_path / "solve_custom_manifest.json").read_text(encoding="utf-8"))
    assert man["runs"][0]["model"] == "custom"


def test_solve_nig_past_t_709_writes_a_finite_exact_column(tmp_path):
    # e^t overflows a float past t = 709; the closed form must not
    rc = main(["solve", "--model", "nig", "--i-range", "8", "--t", "800",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = np.loadtxt(tmp_path / "solve_nig_i8_t800.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows[:, 2])) and np.all(rows[:, 2] > 0)


def test_solve_vg_past_t_170_writes_finite_exact_columns(tmp_path):
    # Gamma(t) overflows a float past t = 171.6; the closed form must not
    rc = main(["solve", "--i-range", "8", "--t", "180", "--out", str(tmp_path)])
    assert rc == 0
    rows = np.loadtxt(tmp_path / "solve_vg_i8_t180.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 2] > 0)


def test_vg_max_errors_skip_the_infinite_exact_density_at_the_origin(tmp_path, capsys):
    # the vg density is +inf at x = 0 for t <= 1/2: the CSV keeps abs_err =
    # inf there, and both commands take their maxima over the finite p_exact
    assert main(["solve", "--model", "vg", "--t", "0.5", "--i-range", "9",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    rows = np.loadtxt(tmp_path / "solve_vg_i9_t0.5.csv", delimiter=",", skiprows=1)
    origin = rows[:, 0] == 0
    assert np.all(np.isinf(rows[origin, 2:])) and np.all(np.isfinite(rows[~origin]))
    largest = np.max(rows[~origin, 3])
    assert f"max_abs_err={largest:.3e} (over finite p_exact; 1 point(s) left out)" in out
    assert main(["converge", "--model", "vg", "--t", "0.5", "--i-range", "7..9",
                 "--out", str(tmp_path)]) == 0
    assert "3 point(s) left out" in capsys.readouterr().out
    table = np.loadtxt(tmp_path / "converge_vg.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table)) and np.all(table[:, 1:] > 0)
    assert table[2, 1] == largest
    assert np.all(table[:, 2] < table[:, 1])


def test_solve_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--i-range", "8", "--t", "1.5",
                     "--out", str(out)]) == 0
    fname = "solve_vg_i8_t1.5.csv"
    assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_converge_argument_gates(tmp_path, capsys):
    rc = main(["converge", "--i-range", "7", "--out", str(tmp_path)])
    assert rc == 2
    assert "error: converge needs at least 3 grid exponents" in capsys.readouterr().err
    rc = main(["converge", "--i-range", "7..9", "--model", "custom", "--gamma", "1",
               "--mu", "np.exp(-y)", "--out", str(tmp_path)])
    assert rc == 2
    assert "exact density" in capsys.readouterr().err


def test_converge_writes_table_and_slopes(tmp_path, capsys):
    rc = main(["converge", "--i-range", "7..9", "--t", "1", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "window-error slope vs sqrt(M)" in out

    lines = (tmp_path / "converge_vg.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "M,max_err_full_t1,max_err_window_t1"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert [r[0] for r in rows] == [128.0, 256.0, 512.0]
    window = [r[2] for r in rows]
    assert window[2] < window[0]

    man = json.loads((tmp_path / "converge_vg_manifest.json").read_text(encoding="utf-8"))
    fit = man["slopes"]["t=1"]
    assert fit["slope_vs_sqrt_m"] < 0
    assert 0.0 < fit["r_squared"] <= 1.0
    assert len(man["runs"]) == 3
    assert [e["i"] for e in man["runs"]] == [7, 8, 9]


def test_solve_names_each_time_by_its_shortest_round_trip_digits(tmp_path):
    rc = main(["solve", "--t", "1.0000001,1.0000002,1.5", "--i-range", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    man = json.loads((tmp_path / "solve_vg_manifest.json").read_text(encoding="utf-8"))
    files = [run["file"] for run in man["runs"]]
    assert files == ["solve_vg_i8_t1.0000001.csv", "solve_vg_i8_t1.0000002.csv",
                     "solve_vg_i8_t1.5.csv"]
    first, second = ((tmp_path / f).read_text(encoding="utf-8") for f in files[:2])
    assert first != second


def test_converge_keeps_close_times_apart(tmp_path, capsys):
    rc = main(["converge", "--i-range", "7..9", "--t", "1,1.0000001",
               "--out", str(tmp_path)])
    assert rc == 0
    header = (tmp_path / "converge_vg.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ("M,max_err_full_t1,max_err_window_t1,"
                      "max_err_full_t1.0000001,max_err_window_t1.0000001")
    man = json.loads((tmp_path / "converge_vg_manifest.json").read_text(encoding="utf-8"))
    assert list(man["slopes"]) == ["t=1", "t=1.0000001"]


def test_bench_writes_table_and_warns_on_few_reps(tmp_path):
    with pytest.warns(UserWarning, match="reps = 2 < 5"):
        rc = main(["bench", "--i-range", "7,8", "--reps", "2", "--t", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bench_vg.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "M,step1_s,step2_s,step3_s,total_s,total_per_mlog2m"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert [r[0] for r in rows] == [128.0, 256.0]
    for r in rows:
        assert all(v >= 0.0 for v in r[1:])
        assert r[5] == pytest.approx(r[4] / (r[0] * math.log2(r[0])), rel=1e-12)
    man = json.loads((tmp_path / "bench_vg_manifest.json").read_text(encoding="utf-8"))
    assert man["reps"] == 2 and man["t"] == 1.0
    assert [(r["i"], r["m"], r["m_low"], r["m_high"]) for r in man["runs"]] \
        == [(7, 128, 128, 128), (8, 256, 256, 256)]
    assert all(r["kernel"] == "es" and r["de_j_rule"] for r in man["runs"])
    assert man["normalized_spread"] >= 1.0


def test_bench_rejects_more_than_one_time(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["bench", "--t", "1,2", "--i-range", "7", "--out", str(out)])
    assert rc == 2
    assert "error: bench times one t, got t = 1, 2" in capsys.readouterr().err
    assert not out.exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    for name in ("frft-vs-direct-sum", "euler-even-vs-direct-sum", "nufft-vs-direct-sum",
                 "kernel-table-vs-quadrature", "de-ft-vs-closed-form",
                 "exponent-vg-closed-form", "exponent-nig-closed-form"):
        assert name in out


def test_selftest_reports_broken_component(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("table corrupted")

    monkeypatch.setattr(cli, "kernel_table", boom)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "selftest FAILED" in out
    assert "raised: table corrupted" in out


def test_main_reports_config_errors_on_stderr(tmp_path, capsys):
    rc = main(["solve", "--t", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schema_version=1\ncolor=red\n", encoding="utf-8")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_failed_solve_creates_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--t", "1,1", "--i-range", "7", "--out", str(out)])
    assert rc == 2
    assert "times must not repeat" in capsys.readouterr().err
    assert not out.exists()
    # a repeated grid exponent would write and list one CSV twice, and let
    # converge fit a slope to fewer distinct grids than it asks for
    for command, irange in (("solve", "7,7"), ("converge", "8,8,8"), ("converge", "8,8,9")):
        rc = main([command, "--i-range", irange, "--out", str(out)])
        assert rc == 2
        assert f"error: grid exponents must not repeat: ({irange.replace(',', ', ')})" \
            in capsys.readouterr().err
        assert not out.exists()
    # a non-finite window input is named, not reported as a derived step
    for flag, name in (("--xu", "x_u"), ("--d", "d")):
        rc = main(["solve", flag, "inf", "--i-range", "7", "--out", str(out)])
        assert rc == 2
        assert f"error: {name} must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()
    # so is an x_l so small that x_l**2 underflows in the h~ rule
    rc = main(["solve", "--xl", "1e-200", "--i-range", "7", "--out", str(out)])
    assert rc == 2
    assert "error: x_l = 1e-200 is out of range" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["solve", "--model", "custom", "--gamma", "1", "--mu", "np.exp(-y)*np.inf",
               "--i-range", "7", "--out", str(out)])
    assert rc == 2
    assert "error: [step 1] mu returned non-finite value inf" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["solve", "--model", "custom", "--gamma", "1", "--mu", "1j*np.exp(-y)",
               "--i-range", "7", "--out", str(out)])
    assert rc == 2
    assert "error: [step 1] mu must return real values: 1j at j=" in capsys.readouterr().err
    assert not out.exists()
    # a constant is not a function of y: its one value would broadcast
    rc = main(["solve", "--model", "custom", "--gamma", "1", "--mu", "1.0",
               "--i-range", "7", "--out", str(out)])
    assert rc == 2
    assert "error: [step 1] mu returned shape () for y of shape (" in capsys.readouterr().err
    assert not out.exists()
    # nu passed as mu, or a mu whose nu is not a Levy density at 0; at i = 7
    # and 14 e^-y/y^2 overflows at the smallest DE points, as nig's nu
    # K_1(y)/(pi y) does at gamma 2 (a --mu cannot call K_1)
    for gamma, mu, i in (("2", "np.exp(-y)/y", "7"), ("2", "np.exp(-y)/y**2", "7"),
                         ("1", "np.exp(-y)/y**2", "7"), ("2", "np.exp(-y)/y**2", "14"),
                         ("1", "np.exp(-y)/y**2", "14")):
        rc = main(["solve", "--model", "custom", "--gamma", gamma, "--mu", mu,
                   "--i-range", i, "--out", str(out)])
        assert rc == 2
        assert "error: [step 1] mu grows like y^" in capsys.readouterr().err
        assert not out.exists()
    # --gamma / --mu would otherwise be dropped silently for a built-in model
    rc = main(["solve", "--gamma", "2", "--mu", "np.exp(-3*y)", "--i-range", "7",
               "--out", str(out)])
    assert rc == 2
    assert "--gamma and --mu apply only to --model custom" in capsys.readouterr().err
    assert not out.exists()
    for command in ("solve", "converge", "bench"):   # x_l / x_u above 1/2
        rc = main([command, "--xl", "3", "--xu", "5", "--i-range", "7..9",
                   "--out", str(out)])
        assert rc == 2
        assert "x_l / x_u <= 1/2" in capsys.readouterr().err
        assert not out.exists()


def test_mu_expression_outside_the_whitelist_is_rejected(tmp_path, capsys):
    escape = "().__class__.__base__.__subclasses__().__len__() + 0*y"
    out = tmp_path / "out"
    rc = main(["solve", "--model", "custom", "--gamma", "1", "--mu", escape,
               "--i-range", "7", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "attribute '__len__' is not allowed" in err
    assert not out.exists()
    cfg = tmp_path / "escape.cfg"
    cfg.write_text(f"schema_version=1\nmodel=custom\ngamma=1\nmu={escape}\n",
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--i-range", "7", "--out", str(out)]) == 2
    assert "is not allowed" in capsys.readouterr().err
    for expr, what in (("__import__('os')", "call"), ("np.__dict__", "'__dict__'"),
                       ("y.real", "attribute 'real'"), ("[y][0]", "Subscript"),
                       ("'1' * y", "constant '1'"), ("np.sum(y, axis=0)", "keywords"),
                       ("math", "name 'math'"), ("lambda: y", "Lambda"),
                       ("y +", "does not parse")):
        with pytest.raises(ValueError, match=what):
            cli._build_model(RunConfig(model="custom", gamma=1, mu_expr=expr))


def test_mu_expression_cannot_reach_numpy_file_io(tmp_path, monkeypatch, capsys):
    # np.str_ builds a file name without a string constant; numpy names are
    # limited to ufuncs, pi, e, inf and where, so none of these compiles
    monkeypatch.chdir(tmp_path)
    for expr in ("np.exp(-y) + 0*np.size(np.save(np.str_(7), y))",
                 "np.exp(-y) + 0*np.size(np.load(np.str_(7)))",
                 "np.exp(-y) + 0*np.size(np.loadtxt(np.str_(7)))",
                 "np.exp(-y) + 0*np.size(np.fromfile(np.str_(7)))"):
        rc = main(["solve", "--model", "custom", "--gamma", "1", "--mu", expr,
                   "--i-range", "7", "--out", "out"])
        assert rc == 2, expr
        assert "is not allowed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [], expr


def test_mu_expression_inside_the_whitelist_evaluates():
    y = np.linspace(0.1, 3.0, 7)
    for expr, ref in (("np.exp(-y)", np.exp(-y)),
                      ("y**0.5*np.exp(-2*y)", y**0.5 * np.exp(-2 * y)),
                      ("np.where(y > 1, math.pi, -1.5e0)",
                       np.where(y > 1, math.pi, -1.5))):
        model = cli._build_model(RunConfig(model="custom", gamma=1, mu_expr=expr))
        assert np.array_equal(model.mu(y), ref)


def test_console_script_runs(tmp_path):
    exe = shutil.which("levyfourier")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "solve", "--i-range", "7", "--t", "1",
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "solve_vg_i7_t1.csv").exists()


def test_module_entry_point_runs(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    flags = ["solve", "--i-range", "7", "--t", "1", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-m", "levyfourier.cli", *flags],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    names = ("solve_vg_i7_t1.csv", "solve_vg_manifest.json")
    written = [(tmp_path / name).read_bytes() for name in names]
    assert main(flags) == 0
    assert [(tmp_path / name).read_bytes() for name in names] == written
    bad = subprocess.run([sys.executable, "-m", "levyfourier.cli", "solve", "--t", "-1",
                          "--i-range", "7", "--out", str(tmp_path / "bad")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert bad.returncode == 2 and bad.stderr.startswith("error: ")
    assert not (tmp_path / "bad").exists()
