"""Tests of the benchmark itself: oracle, tracing and the metric contract.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# cheap cases of each workload, a few seconds in all
SMALL = {
    "wh_cli": {"wh3-construct", "wh3-analyze", "wh3-mixed-construct", "wh3-mixed-analyze"},
    "pic_search": {"falsify-d3-00", "codim1-d3-0", "codim1-d4-0", "cond2-d3", "quaternion3-0",
                   "dihedral3-0"},
    "rep_theory": {"exact-wh3", "exact-wh4", "exact-q8c3", "exact-cyclic6", "exact-diag3",
                   "isotypic-wh5", "isotypic-quat3"},
}


def small_cases(workload, work_dir, seed=3):
    cases = workloads.make_cases(workload, seed, work_dir)
    return [c for c in cases if c.case_id in SMALL[workload]]


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_pair(request, tmp_path_factory):
    work_dir = tmp_path_factory.mktemp(request.param)
    cases = small_cases(request.param, work_dir)
    untraced = harness.run_pass(cases, work_dir)
    traced = harness.run_pass(cases, work_dir, tracing.Tracer())
    verdicts = harness.Verdicts()
    verdicts.judge(cases, untraced)
    verdicts.judge(cases, traced)
    return request.param, cases, untraced, traced, verdicts


def test_small_cases_exist_and_pass(traced_pair):
    workload, cases, _, _, verdicts = traced_pair
    assert {c.case_id for c in cases} == SMALL[workload]
    assert verdicts.failed == 0, verdicts.reasons


def test_traced_and_untraced_fingerprints_agree(traced_pair):
    _, cases, untraced, traced, verdicts = traced_pair
    verdicts.compare(cases, untraced, traced)
    assert verdicts.failed == 0, verdicts.reasons
    assert [r["fingerprint"] for r in untraced.results] == [r["fingerprint"] for r in traced.results]


def test_self_times_add_up_to_case_wall(traced_pair):
    _, cases, _, traced, _ = traced_pair
    tracer = traced.ctx.tracer
    assert len(traced.self_gaps) == len(cases)
    assert max(traced.self_gaps) < 1e-6
    roots = [s for s in tracer.spans if s["name"] == tracing.CASE_SPAN]
    assert [s["case_id"] for s in roots] == [c.case_id for c in cases]
    for span in tracer.spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = tracer.spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["case_id"] == span["case_id"]


def test_wrappers_are_removed_after_a_traced_pass(traced_pair):
    from covpovm import linalg, povm

    assert not hasattr(povm.check_pic, "__wrapped__")
    assert not hasattr(povm.span_orthonormalize, "__wrapped__")
    assert not hasattr(linalg.OperatorSubspace.project, "__wrapped__")


def test_wrapping_reaches_names_bound_at_import():
    # povm imported span_orthonormalize from linalg; its calls must be seen
    from covpovm import povm

    effects, _, _ = workloads.planted_case(3, np.random.default_rng(0))
    observable = workloads._povm(effects)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        povm.operator_span(observable)
    finally:
        tracing.uninstall(undo)
    assert tracer.calls["povm.operator_span"] == 1
    assert tracer.calls["linalg.span_orthonormalize"] == 1
    assert tracer.calls["linalg.hs_inner"] > 0


def test_metric_names_match_benchmark_json(traced_pair):
    _, cases, untraced, traced, _ = traced_pair
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, _ = harness.end_to_end(0.5, [untraced])
    layers = harness.per_layer(cases, untraced, traced, 0)
    for printed, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {name: unit for name, (_, unit) in printed.items()} == \
            {m["name"]: m["unit"] for m in declared}


def _judged(cases, results):
    verdicts = harness.Verdicts()
    verdicts.judge(cases, SimpleNamespace(results=results))
    return verdicts


def test_corrupted_witness_or_flipped_verdict_raises_fail_ratio(tmp_path):
    cases = [c for c in workloads.make_cases("pic_search", 5, tmp_path)
             if c.case_id in ("codim1-d3-0", "cond2-d3", "quaternion3-0")]
    run = harness.run_pass(cases, tmp_path)
    assert _judged(cases, run.results).failed == 0

    bad = copy.deepcopy(run.results)
    psi, phi = bad[0]["evidence"]["witness"]
    v = np.random.default_rng(1).standard_normal(3) + 0j
    bad[0]["evidence"]["witness"] = (psi, v / np.linalg.norm(v))
    verdicts = _judged(cases, bad)
    assert verdicts.failed == 1 and verdicts.fail_ratio == pytest.approx(1 / 3)
    assert "escapes the span" in verdicts.reasons[0]

    flipped = copy.deepcopy(run.results)
    flipped[1]["fingerprint"]["status"] = oracle.PIC_CERTIFIED
    flipped[2]["fingerprint"]["status"] = oracle.PIC_UNFALSIFIED
    assert _judged(cases, flipped).failed == 2


def test_corrupted_phase_or_exactness_fails(tmp_path):
    cases = [c for c in workloads.make_cases("rep_theory", 5, tmp_path)
             if c.case_id in ("exact-q8c3", "exact-wh3")]
    run = harness.run_pass(cases, tmp_path)
    assert _judged(cases, run.results).failed == 0
    bad = copy.deepcopy(run.results)
    wh3, q8c3 = bad  # cases keep their generation order
    q8c3["evidence"]["phase"] = q8c3["evidence"]["phase"] * np.exp(0.1j * np.arange(24))
    wh3["fingerprint"]["exact"] = True
    assert _judged(cases, bad).failed == 2


def test_only_unfalsified_may_strengthen(tmp_path):
    case = next(c for c in workloads.make_cases("pic_search", 5, tmp_path)
                if c.case_id == "codim2-d4")
    certified = {"fingerprint": {"status": oracle.PIC_CERTIFIED, "complement_dim": 2}}
    assert oracle.judge(case, certified) == (True, True, None)
    v = np.eye(4)[0] + 0j
    bogus = {"fingerprint": {"status": oracle.NOT_PIC, "complement_dim": 2},
             "evidence": {"witness": (v, np.eye(4)[1] + 0j)}}
    assert oracle.judge(case, bogus)[0] is False
    assert _judged([case], [certified]).strengthened == 1


def test_inputs_follow_the_seed(tmp_path):
    def arrays(seed):
        return [c.inputs["effects"] for c in workloads.make_cases("pic_search", seed, tmp_path)]

    a, b, c = arrays(7), arrays(7), arrays(8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_tail_keeps_ten_samples_beyond():
    value, pct = harness.tail(list(range(1, 41)))
    assert value == 30 and pct == 75.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wh_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
