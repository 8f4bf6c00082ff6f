"""Passes, verdict checks and metrics for one benchmark run.

Imported by ``run.py`` once the covpovm sources are on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

PASS_SECONDS = 15
SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it


class Pass:
    """One run over every case of a workload, in order, one at a time."""

    def __init__(self, cases, ctx):
        self.ctx = ctx
        self.case_ids = [case.case_id for case in cases]
        self.results, self.latencies, self.self_gaps = [], [], []
        tracer = ctx.tracer
        start = time.perf_counter()
        for case in cases:
            frame = tracer.begin_case(case.case_id) if tracer else None
            t0 = time.perf_counter()
            try:
                result = workloads.RUNNERS[case.kind](case, ctx)
            except Exception as exc:  # a failed case is counted, not fatal
                result = {"error": f"{type(exc).__name__}: {exc}"}
            self.latencies.append(time.perf_counter() - t0)
            if tracer:
                wall = tracer.end_case(frame)
                self.self_gaps.append(abs(tracer.case_self[case.case_id] - wall))
            self.results.append(result)
        self.wall = time.perf_counter() - start


def run_pass(cases, work_dir: Path, tracer=None) -> Pass:
    undo = tracing.install(tracer) if tracer else []
    try:
        return Pass(cases, workloads.Context(work_dir, tracer))
    finally:
        tracing.uninstall(undo)


class Verdicts:
    """Oracle outcome over every case run."""

    def __init__(self):
        self.attempted = self.failed = self.strengthened = 0
        self.reasons = []

    def judge(self, cases, run: Pass) -> None:
        for case, result in zip(cases, run.results):
            ok, stronger, reason = oracle.judge(case, result)
            self.attempted += 1
            self.strengthened += stronger
            if not ok:
                self.fail(case, reason)

    def compare(self, cases, untraced: Pass, traced: Pass) -> None:
        """Traced verdicts must equal untraced ones; self times must add up."""
        for case, a, b, gap in zip(cases, untraced.results, traced.results, traced.self_gaps):
            if a.get("fingerprint") != b.get("fingerprint"):
                self.fail(case, "traced verdict differs from untraced")
            if gap > 1e-6:
                self.fail(case, f"self times miss the case wall by {gap:.2e} s")

    def fail(self, case, reason: str) -> None:
        self.failed += 1
        self.reasons.append(f"{case.case_id}: {reason}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of imports plus input generation."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT,
                             timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return max(samples), 100.0
    return sorted(samples)[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def falsifier_stats(cases, run: Pass) -> tuple:
    """(witness_ratio, restarts_to_witness) over searches with a known witness."""
    searches = found = 0
    restarts = []
    for case, result in zip(cases, run.results):
        known = case.kind == "falsify" or (
            case.kind == "check_pic" and case.expect["status"] == oracle.NOT_PIC
            and case.expect["complement_dim"] >= 2)
        if not known:
            continue
        searches += 1
        fp = result.get("fingerprint", {})
        if fp.get("witness") or fp.get("status") == oracle.NOT_PIC:
            found += 1
            if "restart" in result.get("evidence", {}):
                restarts.append(result["evidence"]["restart"] + 1)
    ratio = found / searches if searches else 0.0
    return ratio, (statistics.mean(restarts) if restarts else 0.0)


def per_layer(cases, untraced: Pass, traced: Pass, strengthened: int) -> dict:
    tracer = traced.ctx.tracer
    out = {}
    for layer, attr, kind in tracing.TARGETS:
        name = f"{layer}.{attr}"
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        if kind != "count":
            out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    out[f"{tracing.CASE_SPAN}.self_s"] = (tracer.self_s.get(tracing.CASE_SPAN, 0.0), "s")
    ratio, restarts = falsifier_stats(cases, traced)
    out["povm.falsify.witness_ratio"] = (ratio, "ratio")
    out["povm.falsify.restarts_to_witness"] = (restarts, "count")
    stats = traced.ctx.cli_stats
    out["cli.json_bytes"] = (stats["json_bytes"], "B")
    out["cli.child_wall_s"] = (stats["child_wall_s"], "s")
    out["cli.nonzero_exits"] = (stats["nonzero_exits"], "count")
    out["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    out["oracle.strengthened"] = (strengthened, "count")
    return out


def end_to_end(setup_s: float, runs: list) -> tuple:
    latencies = [x for run in runs for x in run.latencies]
    results = [r for run in runs for r in run.results]
    tail_s, tail_pct = tail(latencies)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(run.wall for run in runs), "s"),
        "verdict_p50_s": (statistics.median(latencies), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "decided_ratio": (sum(map(workloads.decided, results)) / len(results), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    cases = {case_id: statistics.median(run.latencies[i] for run in runs)
             for i, case_id in enumerate(runs[0].case_ids)}
    return metrics, {"verdict_tail_percentile": tail_pct, "latency_samples": len(latencies),
                     "case_latency_s": cases}


def execute(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Run one workload; returns (result, info) as printed by ``run.py``."""
    work_dir = WORK_ROOT / f"{workload}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    verdicts = Verdicts()
    try:
        setup_s = measure_setup(workload, seed)
        cases = workloads.make_cases(workload, seed, work_dir)
        tracers = [None, tracing.Tracer()] if trace else [None] * max(1, seconds // PASS_SECONDS)
        runs = []
        for tracer in tracers:
            runs.append(run_pass(cases, work_dir, tracer))
            verdicts.judge(cases, runs[-1])  # while the pass's files still exist
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = {"workload": workload, "seed": seed, "passes": len(runs), **environment()}
    if trace:
        untraced, traced = runs
        verdicts.compare(cases, untraced, traced)
        metrics = per_layer(cases, untraced, traced, verdicts.strengthened)
        spans_file = WORK_ROOT / f"spans-{workload}-{seed}.json"
        spans_file.write_text(json.dumps(traced.ctx.tracer.spans))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, counts = end_to_end(setup_s, runs)
        info.update(counts)
    info.update(fail_ratio=verdicts.fail_ratio, strengthened=verdicts.strengthened,
                failures=verdicts.reasons[:20])
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info
