"""Run one benchmark job in a fresh interpreter and report it as one JSON line.

Usage: python3 perfbench/job.py '<spec as JSON>'

The spec holds ``mode`` and ``invocations`` (a list of argv lists for
``aoi_csma.cli.main``).  Every mode imports ``aoi_csma.cli`` and parses each
argv first, then records ``t_parsed`` (``time.monotonic``) so the caller can
measure set-up time from the moment it spawned this process.  Modes:

- ``setup``: stop there.
- ``run``: call ``cli.main`` on each argv with stdout captured, and report
  exit codes, stdout, wall time, CPU time and peak RSS of this process and
  its reaped workers.
- ``trace``: as ``run``, with the layers wrapped by :class:`tracer.Tracer`
  writing spans into ``trace_dir``.
- ``probe``: time ``sim.run`` with ``stop_arrivals=1`` at N = 10, 100, 1000.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

PROBE_POPULATIONS = (10, 100, 1000)
PROBE_REPEATS = 15


def _usage() -> tuple[float, int, int]:
    """CPU seconds of this process and its reaped children, and both peak RSS (KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss, kids.ru_maxrss


def _probe_setup_ms(seed: int) -> dict[str, float]:
    """Median time of a one-arrival W-WP run, which is almost all per-run set-up."""
    from aoi_csma import sim
    from aoi_csma.core import Policy, PolicyScheme, Scheme, SystemParams

    out = {}
    for n in PROBE_POPULATIONS:
        params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0,
                              n_devices=n, n_channels=n // 5)
        config = sim.SimConfig(params=params, ps=PolicyScheme(Policy.W, Scheme.WP),
                               seed=seed, stop_arrivals=1, warmup_fraction=0.0)
        sim.run(config)
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            sim.run(config)
            times.append(time.perf_counter() - start)
        out[str(n)] = 1e3 * statistics.median(times)
    return out


def _replicate_summary(pooled) -> dict:
    """What the output checks need from one sim.replicate call."""
    first = pooled.results[0]
    return {
        "n_devices": first.n_devices,
        "final_fractions": (None if first.trajectory_counts is None else
                            [r.trajectory_fractions[-1].tolist() for r in pooled.results]),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    from aoi_csma import cli

    parser = cli.build_parser()
    for argv in spec["invocations"]:
        parser.parse_args(argv)
    report = {"t_parsed": time.monotonic()}
    mode = spec["mode"]
    if mode == "probe":
        report["setup_ms"] = _probe_setup_ms(spec["seed"])
    if mode in ("setup", "probe"):
        print(json.dumps(report))
        return 0

    import numpy as np
    from aoi_csma import sim

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer(spec["trace_dir"])
        tracer.install()

    # Keep each pooled result for the output checks; this adds one call
    # per replicate call and no timing.
    pooled_results = []
    replicate = sim.replicate

    def keep_result(*args, **kwargs):
        pooled = replicate(*args, **kwargs)
        pooled_results.append(pooled)
        return pooled

    sim.replicate = keep_result

    invocations = []
    cpu0, _, _ = _usage()
    start = time.perf_counter()
    for argv in spec["invocations"]:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        invocations.append({"argv": argv, "code": code, "stdout": buffer.getvalue()})
    wall = time.perf_counter() - start
    cpu1, rss_self, rss_children = _usage()
    if tracer is not None:
        tracer.dump()

    report.update(
        wall_s=wall,
        cpu_s=cpu1 - cpu0,
        maxrss_self_kb=rss_self,
        maxrss_children_kb=rss_children,
        invocations=invocations,
        replicates=[_replicate_summary(p) for p in pooled_results],
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
