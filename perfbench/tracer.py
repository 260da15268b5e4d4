"""Span recording around calls into the package's layers, from outside it.

The tracer replaces module attributes with wrappers, so every call that
goes through the module (``sim.run`` from ``sim._run_replication``,
``shs.stationary`` from ``shs.average_aoi``, ``closedform.avg_aoi`` from
``cli``) opens a span.  Nothing under ``src/`` changes.

Worker processes that ``sim.replicate`` forks inherit the wrappers and the
open-span stack, so their ``sim.run`` spans name the ``sim.replicate`` span
as parent.  A worker appends each span to ``spans-<pid>.jsonl`` in the trace
directory as it ends, because pool workers exit without running the
parent's cleanup; the parent writes its spans with :meth:`Tracer.dump` at
the end of the job.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time

# Public entry points of each layer.  The CSV-line helpers stay unwrapped, so
# formatting counts as cli.main self time.  core only validates and is not
# measured separately.
LAYER_FUNCTIONS = {
    "closedform": ("avg_aoi", "stationary", "preemption_gap"),
    "shs": ("average_aoi", "build_chain", "stationary", "solve_age_system"),
    "meanfield": ("equilibrium", "integrate", "aoi_at_equilibrium", "monotonicity_report"),
    "sim": ("run", "replicate"),
    "cli": ("main",),
}


def _sim_counts(result) -> dict:
    return {"arrivals": result.arrivals, "delivered": result.delivered,
            "failed": result.failed, "preempted": result.preempted,
            "discarded": result.discarded, "n_devices": result.n_devices}


def _integrate_counts(trajectory) -> dict:
    return {"steps": len(trajectory.times) - 1}


ATTRS = {"sim.run": _sim_counts, "meanfield.integrate": _integrate_counts}


class Tracer:
    """Keeps spans in memory and writes them out as JSON lines.

    Span ids are integers that start at pid * 10**9 in every process, so ids
    from forked workers never collide with the parent's.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.owner = os.getpid()
        self._start_process()
        os.register_at_fork(after_in_child=self._start_process)

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.in_worker = self.pid != self.owner
        self.spans = []
        self._ids = itertools.count(self.pid * 10**9)

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS."""
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"aoi_csma.{layer}")
            for name in names:
                self.wrap(module, f"{layer}.{name}", name)

    def wrap(self, module, span_name: str, attr: str) -> None:
        fn = getattr(module, attr)
        counts = ATTRS.get(span_name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = counts(result) if counts is not None and result is not None else None
                self.spans.append((span_name, sid, parent, start, end, attrs))
                if self.in_worker:
                    self.dump()

        setattr(module, attr, traced)

    def dump(self) -> None:
        """Append the spans recorded so far in this process to its own file."""
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for name, sid, parent, start, end, attrs in self.spans:
                fh.write(json.dumps({"name": name, "id": sid, "parent": parent,
                                     "pid": self.pid, "start": start, "end": end,
                                     "attrs": attrs or {}}) + "\n")
        self.spans = []


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans
