"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import analysis  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (19, 50.0),      # no percentile has 10 samples beyond it: the median stands in
    (20, 50.0),      # exactly 10 beyond the median
    (99, 50.0),      # 90th has 9 beyond
    (100, 90.0),
    (199, 90.0),     # 95th has 9 beyond
    (200, 95.0),
    (300, 95.0),     # 99th has 3 beyond
    (1000, 99.0),
    (10000, 99.9),
])
def test_pmax_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert analysis.pmax_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert analysis.percentile(values, 95.0) == 95
    assert analysis.percentile(values, 50.0) == 50
    assert analysis.percentile([7.0], 99.9) == 7.0


def _span(sid, parent, start, end, name="x", attrs=None):
    return {"name": name, "id": sid, "parent": parent, "pid": 1,
            "start": start, "end": end, "attrs": attrs or {}}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),       # overlaps span 2: 1..6 is covered once
        _span(4, 1, 9.0, 12.0),      # runs past its parent: only 9..10 counts
        _span(5, 2, 1.5, 2.5),       # grandchild: covered by its own parent
    ]
    selfs = analysis.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_covered_merges_touching_and_disjoint_intervals():
    assert analysis.covered(0.0, 10.0, []) == 0.0
    assert analysis.covered(0.0, 10.0, [(1, 2), (2, 3), (5, 6)]) == pytest.approx(3.0)
    assert analysis.covered(0.0, 10.0, [(-5, 20)]) == pytest.approx(10.0)


def test_checks_count_attempts_and_failures():
    checks = analysis.Checks()
    assert checks.check(True, "a")
    assert not checks.check(False, "b")
    checks.check(True, "c")
    checks.check(False, "d")
    assert (checks.attempted, checks.failed) == (4, 2)
    assert checks.failures == ["b", "d"]
    assert checks.fail_frac == pytest.approx(0.5)
    assert checks.pass_frac == pytest.approx(0.5)


def test_no_checks_counts_as_failure():
    assert analysis.Checks().fail_frac == 1.0


def test_layer_metrics_from_a_replicate_with_two_workers():
    counts = {"arrivals": 100, "delivered": 40, "failed": 5, "preempted": 3, "discarded": 0}
    spans = [
        _span(1, None, 0.0, 10.0, "cli.main"),
        _span(2, 1, 1.0, 9.0, "sim.replicate"),
        _span(3, 2, 1.5, 5.0, "sim.run", counts),
        _span(4, 2, 2.0, 8.0, "sim.run", counts),
    ]
    m = analysis.layer_metrics(spans)
    assert m["sim.replicate.self_s"] == pytest.approx(8.0 - 6.5)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["sim.run.self_s"] == pytest.approx(3.5 + 6.0)
    assert m["sim.run.calls"] == 2
    assert m["sim.run.ms_p50"] == pytest.approx(3500.0)
    assert m["sim.run.pmax_pct"] == 50.0
    assert m["sim.run.us_per_arrival"] == pytest.approx(1e6 * 9.5 / 200)
    assert m["sim.arrivals"] == 200 and m["sim.failed"] == 10
    assert m["shs.average_aoi.us_per_call"] == 0.0


def _report(stdout, code=0):
    return {"invocations": [{"argv": ["simulate"], "code": code, "stdout": stdout}],
            "replicates": []}


def test_steady_check_fails_on_the_criterion_7_gate(tmp_path):
    lines = [f"{label}: sim=1 meanfield=1 rel_error=+0.5000% half_width=0.1"
             for label in workloads.LABELS]
    lines[2] = "W-WP: sim=1 meanfield=1 rel_error=-3.0000% half_width=0.1"
    checks = analysis.Checks()
    workloads.check_outputs("steady", _report("\n".join(lines) + "\n", code=1),
                            str(tmp_path), checks)
    # exit code, then per pair: rel error, summary, per-device rows (no files here)
    assert checks.attempted == 1 + 3 * len(workloads.LABELS)
    assert "exit code 1: simulate" in checks.failures
    assert any("W-WP: sim vs mean field -3.0000" in f for f in checks.failures)
    assert not any("I-WP: sim vs mean field" in f for f in checks.failures)


def test_invocations_fill_in_seed_output_and_parallelism():
    argvs = workloads.invocations("ensemble", 42, "out", parallelism=1)
    assert argvs == [["reproduce", "accuracy", "--parallelism", "1",
                      "--seed", "42", "--out", "out"]]
    assert all("--parallelism" not in a for a in workloads.invocations("analytic", 1, "o"))
    assert workloads.uses_workers("steady") and not workloads.uses_workers("analytic")


def test_tracer_captures_worker_spans_under_replicate(tmp_path, monkeypatch):
    from aoi_csma import sim
    from aoi_csma.core import Policy, PolicyScheme, Scheme, SystemParams

    for name in tracer.LAYER_FUNCTIONS["sim"]:
        monkeypatch.setattr(sim, name, getattr(sim, name))
    t = tracer.Tracer(str(tmp_path))
    for name in tracer.LAYER_FUNCTIONS["sim"]:
        t.wrap(sim, f"sim.{name}", name)
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0,
                          n_devices=10, n_channels=2)
    config = sim.SimConfig(params=params, ps=PolicyScheme(Policy.W, Scheme.WP), seed=3,
                           stop_arrivals=200, warmup_fraction=0.1)
    pooled = sim.replicate(config, n_reps=4, parallelism=2)
    t.dump()

    spans = tracer.load_spans(str(tmp_path))
    (rep,) = [s for s in spans if s["name"] == "sim.replicate"]
    runs = [s for s in spans if s["name"] == "sim.run"]
    assert len(runs) == 4
    assert all(s["parent"] == rep["id"] and s["pid"] != os.getpid() for s in runs)
    assert all(rep["start"] <= s["start"] <= s["end"] <= rep["end"] for s in runs)
    assert len({s["id"] for s in spans}) == len(spans)
    assert sum(s["attrs"]["arrivals"] for s in runs) == sum(r.arrivals for r in pooled.results)


def test_benchmark_json_declares_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    declared = {m["name"] for m in doc["per_layer"]}
    extra = {"cli.csv_bytes", "trace.overhead_frac", "sim.replicate.speedup_2w"} | {
        f"sim.run.setup_ms.n{n}" for n in (10, 100, 1000)}
    assert declared == set(analysis.layer_metrics([])) | extra
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert doc["paths"] == ["perfbench"]


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steady",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
