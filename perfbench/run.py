"""Benchmark of the levyfourier density solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cold-highres, term-structure, calib-sweep, cli-batch, or
``all``. A run starts WORKERS fresh processes one after another; each imports
the package from ``src/``, sets up, and then sends requests in a closed loop
(one client, one thread) for S / WORKERS seconds. Every density is checked
against an independent reference outside the timed region. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced, span-traced and tracemalloc-traced blocks and reports per-layer
metrics. The last line of standard output is one JSON object. See NOTES.md for
why the workloads and the worker split look the way they do.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import inputs  # noqa: E402  (standard library only)
from layers import LAYERS, Tracer  # noqa: E402

WORKERS = 3            # fresh processes per run; timings are medians over them
MIN_REQUESTS = 100     # per worker, so that >= 10 samples lie beyond its p90
BLOCK_S = 0.25         # length of one untraced / spans / tracemalloc block
RUN_LIMIT_S = 170.0    # a run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = (("densities_per_s", "1/s"), ("request_p50_ms", "ms"),
              ("request_p90_ms", "ms"), ("setup_s", "s"),
              ("accuracy_digits", "digits"), ("peak_rss_mb", "MB"))


def host_probe() -> float:
    """Median milliseconds of a fixed numpy kernel that does not use levyfourier."""
    import numpy as np
    x = np.random.default_rng(0).standard_normal(1 << 16) + 0j
    samples = []
    for _ in range(15):
        start = time.perf_counter()
        np.exp(np.fft.fft(x).imag * 1e-3).sum()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


class Spans:
    """Binds the tracer's wrappers, and records spans, during the timed call."""

    def __init__(self, tracer: Tracer, wl):
        self.tracer, self.wl = tracer, wl

    def __enter__(self):
        self.tracer.install()
        self.wl.wrap_mu = lambda fn: self.tracer.wrap("model.mu", fn)
        self.tracer.recording = True

    def __exit__(self, *exc):
        self.tracer.recording = False
        self.wl.wrap_mu = lambda fn: fn
        self.tracer.uninstall()


class Alloc:
    """tracemalloc peak of what each timed call allocates, in MB."""

    def __init__(self):
        self.peaks_mb = []

    def __enter__(self):
        tracemalloc.start()

    def __exit__(self, *exc):
        self.peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()


class Faults:
    """Minor page faults of this process during each timed call."""

    def __init__(self):
        self.counts = []

    def __enter__(self):
        self._before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def __exit__(self, *exc):
        self.counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self._before)


def timed_call(wl, req, probe=None) -> dict:
    """The timed part of one request, inside ``probe``."""
    out, failure = None, None
    with probe or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = wl.call(req)
        except Exception as exc:  # a request that raises is a failed request
            failure = f"raised {exc!r}"
        latency = time.perf_counter() - start
    return {"req": req, "out": out, "failure": failure, "latency": latency}


def check(wl, call: dict) -> dict:
    """The untimed check of a ``timed_call``."""
    failure, errors = call["failure"], []
    if failure is None:
        try:
            errors = wl.errors(call["req"], call["out"])
        except (ValueError, OSError) as exc:
            failure = f"check failed: {exc}"
        else:
            missed = sum(not e <= wl.tolerance for e in errors)
            if missed:
                failure = (f"{missed} of {len(errors)} densities miss the tolerance "
                           f"{wl.tolerance:g} (worst {max(errors):.3g})")
    return {"latency": call["latency"], "errors": errors, "failure": failure}


def attempt(wl, req, probe=None) -> dict:
    """One request: the timed call, then the untimed check."""
    return check(wl, timed_call(wl, req, probe))


def measure(wl, seconds: float, min_requests: int, modes=((None, None),)) -> dict:
    """Closed loop over the request pool for ``seconds``, at least
    ``min_requests`` requests and at least one pass over the pool. ``modes``
    is a rotation of (name, probe) run in blocks of BLOCK_S seconds."""
    by_mode = {name: [] for name, _ in modes}
    deadline = time.perf_counter() + seconds
    k = 0
    while (time.perf_counter() < deadline or k < max(min_requests, len(wl.pool))
           or any(not outcomes for outcomes in by_mode.values())):
        for name, probe in modes:
            block_end = time.perf_counter() + BLOCK_S
            while True:
                by_mode[name].append(attempt(wl, wl.pool[k % len(wl.pool)], probe))
                k += 1
                if len(modes) == 1 or time.perf_counter() >= block_end:
                    break
    return by_mode


def record(wl, outcomes, warm=()) -> dict:
    """Raw samples of measured requests; ``warm`` (the set-up requests) count
    as attempted and checked, but their latencies are not sampled. A failed
    request counts as missing any latency limit."""
    checked = [*warm, *outcomes]
    return {
        "latencies": [o["latency"] if o["failure"] is None else math.inf for o in outcomes],
        "request_s": sum(o["latency"] for o in outcomes),
        "densities": wl.densities * sum(o["failure"] is None for o in outcomes),
        "attempted": len(checked),
        "failures": [o["failure"] for o in checked if o["failure"]],
        "verified": sum(len(o["errors"]) for o in checked),
        "worst_error": max((e for o in checked for e in o["errors"]), default=0.0),
        "required_layers": list(wl.required_layers),
    }


def measure_traced(wl, tracer: Tracer, seconds: float, min_requests: int):
    """``measure`` in rotating untraced, span-traced and tracemalloc blocks;
    returns every outcome and the per-layer samples."""
    spans, alloc, faults = Spans(tracer, wl), Alloc(), Faults()
    by_mode = measure(wl, seconds, min_requests,
                      (("plain", faults), ("spans", spans), ("alloc", alloc)))
    rates = {mode: {key: record(wl, by_mode[mode])[key] for key in ("request_s", "densities")}
             for mode in ("plain", "spans")}
    return [o for mode in by_mode.values() for o in mode], {
        **rates, "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
        "exponent_cached": tracer.exponent_cached,
        "minor_faults": faults.counts, "alloc_mb": alloc.peaks_mb}


def worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh process: set up, measure, and return the raw samples. A
    traced run reports no percentiles, so it needs no minimum request count."""
    os.environ.update(THREAD_ENV)
    pool = inputs.generate(workload, seed)
    workdir = ROOT / f".perfbench-{os.getpid()}"
    start = time.perf_counter()
    import levyfourier
    import workloads
    wl = workloads.WORKLOADS[workload](pool, workdir)
    try:
        warm = [timed_call(wl, req) for req in wl.kinds()]
        setup_s = time.perf_counter() - start
        warm = [check(wl, call) for call in warm]
        probes = [host_probe()]
        if trace:
            outcomes, layers = measure_traced(wl, Tracer(levyfourier, [workloads]),
                                              seconds, 0)
        else:
            outcomes, layers = measure(wl, seconds, MIN_REQUESTS)[None], {}
        probes.append(host_probe())
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {**record(wl, outcomes, warm), **layers, "setup_s": setup_s, "probe_ms": probes,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(parts: list, trace: bool) -> dict:
    """Combine the workers' raw samples into the reported metrics.

    ``metrics`` and ``notes`` map each name to (value, unit, sample count);
    ``notes`` are printed but are not part of the JSON result. Each timing is
    the median over the workers of that worker's own value, so a host episode
    that slows one worker does not move it (NOTES.md)."""
    requests = sum(len(p["latencies"]) for p in parts)
    densities = sum(p["densities"] for p in parts)
    attempted = sum(p["attempted"] for p in parts)
    failures = [f for p in parts for f in p["failures"]]
    verified = sum(p["verified"] for p in parts)
    worst = max(p["worst_error"] for p in parts)
    probes = [x for p in parts for x in p["probe_ms"]]
    notes = {"error_rate": (len(failures) / attempted, "fraction", attempted),
             "host.probe_ms": (statistics.median(probes), "ms", len(probes))}
    if not trace:
        values = {
            "densities_per_s": (statistics.median(p["densities"] / p["request_s"]
                                                  for p in parts), densities),
            "request_p50_ms": (statistics.median(nearest_rank(p["latencies"], 0.5)
                                                 for p in parts) * 1e3, requests),
            "request_p90_ms": (statistics.median(nearest_rank(p["latencies"], 0.9)
                                                 for p in parts) * 1e3, requests),
            "setup_s": (statistics.median(p["setup_s"] for p in parts), len(parts)),
            "accuracy_digits": (-math.log10(worst) if worst > 0 else math.inf, verified),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in parts), len(parts)),
        }
        metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}
    else:
        metrics = _per_layer(parts)
        metrics["host.probe_ms"] = notes.pop("host.probe_ms")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "notes": notes, "failures": failures}


def _per_layer(parts: list) -> dict:
    span_d = sum(p["spans"]["densities"] for p in parts)
    span_s = sum(p["spans"]["request_s"] for p in parts)
    self_s = {layer: sum(p["self_s"].get(layer, 0.0) for p in parts) for layer in LAYERS}
    calls = {layer: sum(p["calls"].get(layer, 0) for p in parts) for layer in LAYERS}
    missing = sorted({layer for p in parts for layer in p["required_layers"]
                      if calls[layer] == 0})
    if missing:
        raise RuntimeError(f"layers that must run recorded no calls: {', '.join(missing)}")
    flags = [f for p in parts for f in p["exponent_cached"]]
    if not flags:
        raise RuntimeError("no SolveResult.timings['exponent_cached'] was observed")
    faults = [x for p in parts for x in p["minor_faults"]]
    alloc = [x for p in parts for x in p["alloc_mb"]]
    plain_rate = (sum(p["plain"]["densities"] for p in parts)
                  / sum(p["plain"]["request_s"] for p in parts))
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_s[layer] / span_d * 1e3, "ms", span_d)
        metrics[f"{layer}.calls"] = (calls[layer] / span_d, "count", span_d)
    metrics.update({
        "trace.unattributed_ms": ((span_s - sum(self_s.values())) / span_d * 1e3, "ms", span_d),
        "solver.exponent_hit_ratio": (sum(flags) / len(flags), "ratio", len(flags)),
        "request.peak_alloc_mb": (statistics.median(alloc), "MB", len(alloc)),
        "request.minor_faults": (statistics.fmean(faults), "count", len(faults)),
        "trace.overhead_pct": ((1 - (span_d / span_s) / plain_rate) * 100, "%", span_d),
    })
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workers of one workload, one after another, and summarize."""
    deadline = time.monotonic() + RUN_LIMIT_S
    parts = []
    for _ in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds / WORKERS), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **THREAD_ENV},
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return summarize(parts, trace)


def report(workload: str, summary: dict):
    print(f"== {workload}")
    for name, (value, unit, n) in {**summary["metrics"], **summary["notes"]}.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<8} n={n}")
    print(f"  attempted={summary['attempted']} failed={summary['failed']}")
    for reason in sorted(set(summary["failures"]))[:5]:
        print(f"  failure: {reason}")


def result_line(summary: dict) -> dict:
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in summary["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "levyfourier" / "__init__.py").is_file():
        print(f"error: no levyfourier package under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, summary)
            results[name] = result_line(summary)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
