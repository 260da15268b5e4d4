"""Pure helpers that turn recorded spans and check outcomes into metrics.

A span is a dict with the keys ``name``, ``id``, ``parent`` (the id of the
span that was open when it started, or None), ``pid``, ``start`` and ``end``
(``time.perf_counter`` seconds, comparable across processes on Linux) and
``attrs`` (counts read from the call's result).
"""

from __future__ import annotations

import math
from collections import defaultdict

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def pmax_percentile(n: int) -> float:
    """Highest percentile in PERCENTILES with at least MIN_BEYOND of n samples above it.

    With fewer than 2 * MIN_BEYOND samples no percentile qualifies, and the
    median (50) is returned: the report then states the sample count, so a
    reader sees that no tail could be measured.
    """
    best = PERCENTILES[0]
    for pct in PERCENTILES:
        if n - _rank(pct, n) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children that overlap one another, such as replications running in two
    worker processes at once, are counted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(span["start"], span["end"], children[span["id"]])
        for span in spans
    }


class Checks:
    """Counts output checks attempted and remembers the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def pass_frac(self) -> float:
        return 1.0 - self.fail_frac


SIM_COUNTS = ("arrivals", "delivered", "failed", "preempted", "discarded")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    Per-call times are inclusive means.  A layer the job never calls reports
    0 for its times and counts.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    selfs = self_times(spans)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name[name]]

    def self_total(name):
        return sum((selfs[s["id"]] for s in by_name[name]), 0.0)

    def us_per_call(name):
        d = durations(name)
        return 1e6 * sum(d) / len(d) if d else 0.0

    def attr_total(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    runs_ms = [1e3 * d for d in durations("sim.run")]
    pct = pmax_percentile(len(runs_ms))
    arrivals = attr_total("sim.run", "arrivals")
    steps = attr_total("meanfield.integrate", "steps")
    integrate_s = sum(durations("meanfield.integrate"))

    metrics = {
        "sim.run.self_s": self_total("sim.run"),
        "sim.run.ms_p50": percentile(runs_ms, 50.0) if runs_ms else 0.0,
        "sim.run.ms_pmax": percentile(runs_ms, pct) if runs_ms else 0.0,
        "sim.run.pmax_pct": pct if runs_ms else 0.0,
        "sim.run.us_per_arrival": 1e3 * sum(runs_ms) / arrivals if arrivals else 0.0,
        "sim.replicate.self_s": self_total("sim.replicate"),
        "shs.average_aoi.us_per_call": us_per_call("shs.average_aoi"),
        "shs.build_chain.us_per_call": us_per_call("shs.build_chain"),
        "shs.stationary.us_per_call": us_per_call("shs.stationary"),
        "shs.solve_age_system.us_per_call": us_per_call("shs.solve_age_system"),
        "closedform.avg_aoi.us_per_call": us_per_call("closedform.avg_aoi"),
        "meanfield.equilibrium.us_per_call": us_per_call("meanfield.equilibrium"),
        "meanfield.integrate.steps_per_s": steps / integrate_s if integrate_s else 0.0,
        "cli.main.self_s": self_total("cli.main"),
        "sim.run.calls": len(runs_ms),
        "shs.solves": len(by_name["shs.solve_age_system"]),
        "meanfield.integrate.steps": steps,
    }
    for key in SIM_COUNTS:
        metrics[f"sim.{key}"] = attr_total("sim.run", key)
    return metrics
