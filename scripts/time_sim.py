"""Same-process A/B timing of ``sim.run`` between two checkouts.

Usage: python3 scripts/time_sim.py PARENT_DIR CHANGE_DIR --shape {steady,ensemble}
[--rounds K], with K >= 2 (default 10).  Each checkout's ``src/aoi_csma``
is loaded in this one process under its own package name, so both sides
share the interpreter, numpy and the machine's state of the moment.  After
one untimed run of the first config on each side, a round runs the shape's
configs through each side's ``sim.run``, the change first in even rounds,
and times each side's whole pass with ``time.perf_counter``.  Every round
checks that both sides gave bit-identical ``avg_aoi_per_device`` for every
config, and stops the script naming the first config that differs.  Prints
one JSON object: each side's quartiles of the per-round times in seconds,
``ratio`` (the change's median over the parent's) and ``change_wins`` (the
rounds in which the change was faster).

The shapes are the simulator runs of two benchmark workloads, read from
their command lines in this repository's ``perfbench/workloads.py``, parsed
by each side's own ``cli``:

- ``steady``: one run per policy, the first replication of the ``steady``
  workload's ``simulate`` command;
- ``ensemble``: 40 replications of the largest population of the preset the
  ``ensemble`` workload reproduces.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("_time_sim_workloads",
                                               REPO / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
SEED = 1
ENSEMBLE_REPS = 40


def _steady(pkg, seed: int) -> list:
    # as cli's simulate command builds each policy's first replication
    args = pkg.cli.build_parser().parse_args(workloads.WORKLOADS["steady"][0])
    params = pkg.SystemParams(lam=args.lam, mu=args.mu, w=args.w, p=args.p,
                              gamma=args.n / args.m, n_devices=args.n, n_channels=args.m)
    return [pkg.sim.SimConfig(params=params, ps=pkg.PolicyScheme(policy, args.scheme[0]),
                              seed=seed, stop_arrivals=args.arrivals, stop_time=args.horizon,
                              warmup_fraction=args.warmup, sample_dt=args.sample_dt)
            for policy in args.policy]


def _ensemble(pkg, seed: int) -> list:
    # as cli's accuracy writer builds its largest population
    args = pkg.cli.build_parser().parse_args(workloads.WORKLOADS["ensemble"][0])
    rates = dict(pkg.cli.PRESETS[args.preset].params)
    n, pair, t_end = max(rates.pop("populations")), rates.pop("pair"), rates.pop("t_end")
    del rates["ode_dt"]
    params = pkg.SystemParams(**rates, n_devices=n, n_channels=int(round(n / rates["gamma"])))
    config = pkg.sim.SimConfig(params=params, ps=pair, seed=seed, stop_time=t_end,
                               warmup_fraction=0.0, sample_dt=args.sample_dt)
    return [replace(config, replication=j) for j in range(ENSEMBLE_REPS)]


SHAPES = {"steady": _steady, "ensemble": _ensemble}  # name -> (package, seed) -> configs


def load(checkout: str, name: str):
    """The ``aoi_csma`` package of ``checkout``, imported as ``name`` with ``sim`` and ``cli``."""
    root = Path(checkout).resolve() / "src" / "aoi_csma"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg  # the package's relative imports resolve through it
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")  # binds pkg.cli and pkg.sim
    return pkg


def _timed(run, configs) -> tuple[float, list]:
    gc.collect()
    start = time.perf_counter()
    results = [run(c) for c in configs]
    return time.perf_counter() - start, results


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return dict(zip(("q1", "median", "q3"), (round(x, 6) for x in q)))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--shape", required=True, choices=sorted(SHAPES))
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 2:  # the quartiles of each side need two rounds
        parser.error(f"--rounds must be at least 2, got {args.rounds}")
    sides = {side: load(checkout, f"_time_sim_{side}")
             for side, checkout in (("parent", args.parent_dir), ("change", args.change_dir))}
    configs = {side: SHAPES[args.shape](pkg, SEED) for side, pkg in sides.items()}
    for side, pkg in sides.items():  # untimed: first use of each side's code and numpy paths
        pkg.sim.run(configs[side][0])
    times: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(args.rounds):
        results = {}
        for side in (("change", "parent") if i % 2 == 0 else ("parent", "change")):
            elapsed, results[side] = _timed(sides[side].sim.run, configs[side])
            times[side].append(elapsed)
        for j, (a, b) in enumerate(zip(results["parent"], results["change"])):
            if not np.array_equal(a.avg_aoi_per_device, b.avg_aoi_per_device):
                sys.exit(f"round {i}, config {j}: avg_aoi_per_device differs "
                         "between parent and change")
        print(f"round {i}: parent {times['parent'][-1]:.4f} s, "
              f"change {times['change'][-1]:.4f} s", file=sys.stderr, flush=True)
    parent, change = (statistics.median(times[side]) for side in ("parent", "change"))
    print(json.dumps({
        "shape": args.shape, "rounds": args.rounds, "runs_per_round": len(configs["parent"]),
        "parent_s": _quartiles(times["parent"]), "change_s": _quartiles(times["change"]),
        "ratio": round(change / parent, 4),
        "change_wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
    }))


if __name__ == "__main__":
    main()
