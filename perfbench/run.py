"""Benchmark of the aoi-csma command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {steady,ensemble,analytic} \\
        --seed N --seconds S --trace {0,1}

Every job runs in a fresh interpreter (perfbench/job.py) that calls
``aoi_csma.cli.main`` with the argv of the workload, ``--seed N`` and an
``--out`` directory under perfbench/_work.  Replications use two worker
processes (``--parallelism 2``).

``--trace 0`` measures the end-to-end metrics: the job repeated for about
S seconds (at least three times) and nine set-up-only interpreters,
reporting medians.  ``--trace 1`` runs the job once untraced and once
traced, plus once at ``--parallelism 1`` when the workload uses workers and
a ``sim.run`` set-up probe, and reports the per-layer metrics.

Outputs of every job are checked.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the environment, the SHA-256 of every CSV written and
the failed checks.  The exit code is non-zero, with no result printed, when
the package cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import analysis
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

SETUP_SPAWNS = 9
MIN_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    """The package could not be run; no result is printed."""


def spawn(spec: dict, deadline: float) -> dict:
    """Run job.py with ``spec`` and return its report, with ``setup_s`` added."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"job did not finish in time: {spec['mode']}") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"job process failed with code {proc.returncode}:\n{err[-4000:]}")
    if err:
        sys.stderr.write(err)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["t_parsed"] - t_spawn
    return report


def csv_digest(out_dir: str) -> tuple[dict[str, str], int]:
    """SHA-256 of every CSV in out_dir, and their total size in bytes."""
    hashes, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            hashes[name] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return hashes, size


def peak_rss_mb(report: dict) -> float:
    """Peak RSS of the job process plus that of its largest worker times the pool size."""
    workers = workloads.PARALLELISM if report["maxrss_children_kb"] else 0
    return (report["maxrss_self_kb"] + workers * report["maxrss_children_kb"]) / 1024.0


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "git_commit": git_commit(), "seed": seed, "loadavg_1m": os.getloadavg()[0]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(workload, seed, work, deadline, checks, mode="run", parallelism=None):
    """Run the workload once in a fresh interpreter, check its outputs, and return
    (report, CSV hashes, CSV bytes)."""
    out_dir = tempfile.mkdtemp(prefix="out-", dir=work)
    spec = {"mode": mode, "trace_dir": work,
            "invocations": workloads.invocations(
                workload, seed, out_dir, parallelism or workloads.PARALLELISM)}
    report = spawn(spec, deadline)
    workloads.check_outputs(workload, report, out_dir, checks)
    hashes, size = csv_digest(out_dir)
    shutil.rmtree(out_dir)
    return report, hashes, size


def measure(workload: str, seed: int, seconds: float, work: str, checks) -> tuple[dict, dict]:
    """End-to-end metrics: medians over repeated jobs and over set-up spawns.

    A set-up-only interpreter follows each of the first SETUP_SPAWNS jobs,
    so set-up and jobs sample the same stretch of time.  The run stops
    before a further job would end after ``seconds``.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setup_spec = {"mode": "setup", "invocations": workloads.invocations(workload, seed, work)}

    def setup_sample() -> float:
        return spawn(setup_spec, deadline)["setup_s"]

    setup_sample()  # warm-up: compiles the package's bytecode
    setups, reports, hashes = [], [], []
    while True:
        t0 = time.monotonic()
        report, digest, _ = run_job(workload, seed, work, deadline, checks)
        reports.append(report)
        hashes.append(digest)
        if len(setups) < SETUP_SPAWNS:
            setups.append(setup_sample())
        step = time.monotonic() - t0
        if len(reports) >= MIN_REPEATS and time.monotonic() + step - start > seconds:
            break
    setups += [setup_sample() for _ in range(SETUP_SPAWNS - len(setups))]
    checks.check(all(h == hashes[0] for h in hashes),
                 "CSV bytes identical across repeats of the same seed")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "cpu_s": statistics.median(r["cpu_s"] for r in reports),
        "peak_rss_mb": statistics.median(peak_rss_mb(r) for r in reports),
        "setup_s": statistics.median(setups),
        "pass_frac": checks.pass_frac,
    }
    details = {"repeats": len(reports), "csv_sha256": hashes[0],
               "python": reports[0]["python"], "numpy": reports[0]["numpy"],
               "samples": {"wall_s": [r["wall_s"] for r in reports],
                           "cpu_s": [r["cpu_s"] for r in reports],
                           "setup_s": setups}}
    return metrics, details


def trace(workload: str, seed: int, work: str, checks) -> tuple[dict, dict]:
    """Per-layer metrics: one traced job against one untraced job, one job at
    parallelism 1 for the speed-up, and the sim.run set-up probe."""
    deadline = time.monotonic() + DEADLINE_S
    plain, hashes, _ = run_job(workload, seed, work, deadline, checks)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=work)
    traced, traced_hashes, size = run_job(workload, seed, trace_dir, deadline, checks,
                                          mode="trace")
    checks.check(traced_hashes == hashes, "CSV bytes identical with tracing on")
    spans = tracer.load_spans(trace_dir)
    metrics = analysis.layer_metrics(spans)
    metrics["cli.csv_bytes"] = size
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["sim.replicate.speedup_2w"] = 0.0
    if workloads.uses_workers(workload):
        serial, serial_hashes, _ = run_job(workload, seed, work, deadline, checks,
                                           parallelism=1)
        checks.check(serial_hashes == hashes, "CSV bytes identical at parallelism 1")
        metrics["sim.replicate.speedup_2w"] = serial["wall_s"] / plain["wall_s"]
    probe = spawn({"mode": "probe", "seed": seed, "invocations": []}, deadline)
    for n, ms in probe["setup_ms"].items():
        metrics[f"sim.run.setup_ms.n{n}"] = ms
    with open(os.path.join(WORK, f"trace-{workload}.jsonl"), "w") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in spans)
    details = {"csv_sha256": hashes, "python": plain["python"], "numpy": plain["numpy"],
               "wall_s_untraced": plain["wall_s"], "wall_s_traced": traced["wall_s"],
               "spans": len(spans)}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "aoi_csma", "cli.py")):
        print("error: no aoi_csma package under src/ in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = environment(args.seed)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    checks = analysis.Checks()
    try:
        if args.trace:
            metrics, details = trace(args.workload, args.seed, work, checks)
        else:
            metrics, details = measure(args.workload, args.seed, args.seconds, work, checks)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are not both declared "
              "and measured", file=sys.stderr)
        return 2
    for name, unit in units.items():
        print(f"{args.workload:9s} {name:36s} {metrics[name]:>14.6g} {unit}")
    env.update(workload=args.workload, trace=args.trace, fail_frac=checks.fail_frac,
               failed_checks=checks.failures, **details)
    print(json.dumps(env))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
