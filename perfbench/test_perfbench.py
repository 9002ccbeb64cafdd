"""Tests of the benchmark itself: failure accounting, references, seeding and
the layer trace. Run with ``PYTHONPATH=src python -m pytest perfbench``."""
from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import levyfourier  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer, cross_module_calls  # noqa: E402
from levyfourier import exact_nig, exact_vg, solver  # noqa: E402

CALIB_OK = {"C": 1.0, "M": 1.0, "Y": 0.5}


@pytest.fixture(autouse=True)
def _cold_exponent_cache():
    yield
    levyfourier.clear_exponent_cache()


def _summary(wl, outcomes, trace=False, layers=None):
    part = {**run.record(wl, outcomes), **(layers or {}), "setup_s": 0.5,
            "probe_ms": [1.0, 1.0], "rss_mb": 100.0}
    return run.summarize([part], trace)


def test_failed_request_counts_in_error_rate_and_as_latency_miss(tmp_path):
    # C = NaN makes the CGMY jump density NaN everywhere, so Step 1 raises
    # whatever the solver does about singular nodes.
    broken = {"C": math.nan, "M": 1.0, "Y": 0.5}
    wl = workloads.CalibSweep([broken, CALIB_OK], tmp_path)
    outcomes = run.measure(wl, 0.0, 2)[None]
    assert [o["failure"] is not None for o in outcomes] == [True, False]
    assert "non-finite" in outcomes[0]["failure"]
    summary = _summary(wl, outcomes)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["notes"]["error_rate"][0] == 0.5
    assert summary["metrics"]["request_p90_ms"][0] == math.inf
    assert set(summary["metrics"]) == {name for name, _ in run.END_TO_END}
    line = json.loads(json.dumps(run.result_line(summary)))
    assert line["correct"] is False and set(line["metrics"]) == set(summary["metrics"])


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_singular_cgmy_request_is_counted_by_its_outcome(tmp_path):
    # Y = 1.5 (gamma = 2) at M = 2^13: the leftmost DE node underflows to
    # y = 0, where mu = y^(1-Y) is infinite, and Step 1 raises today. Once
    # the solver handles such nodes the request must pass its check instead;
    # either way it is counted, never dropped.
    wl = workloads.CalibSweep([{"C": 1.0, "M": 1.0, "Y": 1.5}], tmp_path)
    wl.i = 13
    outcome = run.attempt(wl, wl.pool[0])
    summary = _summary(wl, [outcome])
    assert summary["attempted"] == 1
    if outcome["failure"] is not None:
        assert "non-finite" in outcome["failure"]
        assert summary["failed"] == 1
        assert summary["metrics"]["request_p50_ms"][0] == math.inf
    else:
        assert summary["failed"] == 0 and len(outcome["errors"]) == wl.densities
        assert summary["metrics"]["request_p50_ms"][0] < math.inf


def test_density_past_tolerance_counts_as_failed(tmp_path):
    wl = workloads.CalibSweep([CALIB_OK], tmp_path)
    call = wl.call

    def perturbed(req):
        results = call(req)
        results[3].p[len(results[3].p) // 8] += 10 * wl.tolerance
        return results

    wl.call = perturbed
    outcome = run.attempt(wl, CALIB_OK)
    assert "1 of 8 densities miss the tolerance" in outcome["failure"]
    summary = _summary(wl, [outcome])
    assert summary["failed"] == 1 and summary["metrics"]["request_p50_ms"][0] == math.inf


@pytest.mark.parametrize("base, exact", [("vg", exact_vg), ("nig", exact_nig)])
def test_scaled_family_reduces_to_closed_form(base, exact):
    x = np.linspace(0.25, 6.0, 40)
    for t in (0.7, 1.0, 2.5):
        np.testing.assert_allclose(workloads.scaled_density(base, 1.0, 1.0, x, t),
                                   exact(x, t), rtol=1e-13)


def test_cli_batch_checks_csv_values_not_the_abs_err_column(tmp_path):
    wl = workloads.CliBatch([{"times": [1.25, 2.5, 3.0, 3.75]}], tmp_path)
    try:
        req = wl.pool[0]
        assert max(wl.errors(req, wl.call(req))) < wl.tolerance
        wl.call(req)
        path = tmp_path / "solve_vg_i12_t2.5.csv"
        lines = path.read_text().splitlines()
        mid = len(lines) // 8                      # a row with 2 <= |x| <= 5
        cols = lines[mid].split(",")
        cols[1] = repr(float(cols[1]) + 1e-6)      # p_num only; abs_err untouched
        lines[mid] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        assert max(wl.errors(req, 0)) > wl.tolerance
    finally:
        wl.close()


def test_inputs_and_accuracy_are_reproducible_from_the_seed(tmp_path):
    for name in inputs.WORKLOADS:
        assert inputs.generate(name, 7) == inputs.generate(name, 7)
        assert inputs.generate(name, 7) != inputs.generate(name, 8)
    pool = inputs.generate("calib-sweep", 7)[:3]
    digits = []
    for _ in range(2):
        wl = workloads.CalibSweep(pool, tmp_path)
        summary = _summary(wl, run.measure(wl, 0.0, 3)[None])
        digits.append((summary["metrics"]["accuracy_digits"][0], summary["notes"]["error_rate"][0]))
        levyfourier.clear_exponent_cache()
    assert digits[0] == digits[1] and digits[0][1] == 0


def test_trace_discovers_cross_module_calls_by_inspection(tmp_path, monkeypatch):
    workloads.CliBatch([], tmp_path).close()      # binds workloads.cli_main
    tracer = Tracer(levyfourier, [workloads])
    found = {(m.__name__.rsplit(".", 1)[-1], name): span.__wrapped__.__module__
             for m, name, _, span in tracer.targets}
    assert found[("solver", "_forward_stacked")] == "levyfourier.nufft"
    assert found[("solver", "_sources_stacked")] == "levyfourier.de_ft"
    assert found[("workloads", "cli_main")] == "levyfourier.cli"
    assert not any(isinstance(span.__wrapped__, type) for *_, span in tracer.targets)
    # A module the tracer has never seen is handled the same way.
    (tmp_path / "newcaller.py").write_text(
        "from levyfourier.de_ft import splice_plan, DeFtParams\n"
        "def plan(n, h):\n    return splice_plan(n, h)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("newcaller")
    assert [(n, layer) for n, _, layer in cross_module_calls(module, "levyfourier")] \
        == [("splice_plan", "de_ft")]


def test_traced_run_accounts_for_request_time_and_restores_the_package(tmp_path):
    original = solver._forward_stacked
    wl = workloads.CalibSweep(inputs.generate("calib-sweep", 1)[:2], tmp_path)
    tracer = Tracer(levyfourier, [workloads])
    outcomes, layers = run.measure_traced(wl, tracer, 0.0, 6)
    assert solver._forward_stacked is original and workloads.solve is solver.solve
    assert sum(layers["self_s"].values()) == pytest.approx(tracer.covered_s)
    assert tracer.covered_s <= layers["spans"]["request_s"]
    summary = _summary(wl, outcomes, trace=True, layers=layers)
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m: unit for m, (_, unit, _) in summary["metrics"].items()} \
        == {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert list(run.END_TO_END) == [(m["name"], m["unit"]) for m in contract["end_to_end"]]
    assert summary["metrics"]["nufft.calls"][0] > 0
    assert summary["metrics"]["trace.unattributed_ms"][0] >= 0
    layers["calls"].pop("nufft")
    with pytest.raises(RuntimeError, match="nufft"):
        _summary(wl, outcomes, trace=True, layers=layers)


def test_only_cli_batch_imports_the_cli(tmp_path):
    code = ("import pathlib, sys, workloads\n"
            "assert 'levyfourier.cli' not in sys.modules\n"
            f"workloads.CliBatch([], pathlib.Path({str(tmp_path)!r})).close()\n"
            "assert 'levyfourier.cli' in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(HERE.parent / "src")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_host_probe_is_positive():
    assert run.host_probe() > 0
