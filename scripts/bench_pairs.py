"""Alternating parent/change pairs of the benchmark, summarised as a BENCH file holds them.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs K
--seconds S [--seed S0], with K >= 2.  Pair i runs ``perfbench/run.py
--workload W --seed S0+i --seconds S --trace 0`` in each checkout with that
checkout's own benchmark code, the change first in even pairs, writing no
bytecode (so each job compiles the package from source, as the benchmark's
measuring environment does).  Each pair goes to stderr as it ends.  Prints one JSON
object: ``pairs`` (each side's metrics, ``fail_frac`` and ``repeats``, and
whether their CSV SHA-256s matched) and ``summary`` (per metric: quartiles,
the change's wins and ties, and the median change against the parent's
interquartile range).  A run that fails stops the script with its side, seed
and the end of its stderr.  When the CSV SHA-256s of any pair differ, the
script exits 1 after printing the JSON, naming each such pair's seed and
the CSV files that differ in it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


STDERR_TAIL_LINES = 20


def run_side(side: str, checkout: str, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: its metrics and its environment line.

    A failing run ends the script, naming the side and the seed and printing
    the last lines of that run's stderr.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
        sys.exit(f"{side} run failed with code {proc.returncode} "
                 f"(checkout {checkout}, workload {workload}, seed {seed}); its stderr ends:\n{tail}")
    out = proc.stdout.strip().splitlines()
    return json.loads(out[-1])["metrics"], json.loads(out[-2])


def summarise(pairs: list[dict], name: str, lower_is_better: bool) -> dict:
    sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
    q = {side: statistics.quantiles(v, n=4, method="inclusive") for side, v in sides.items()}
    sign = 1 if lower_is_better else -1
    gains = [sign * (p - c) for p, c in zip(sides["parent"], sides["change"])]
    parent, change = q["parent"][1], q["change"][1]
    return {**{side: dict(zip(("q1", "median", "q3"), (round(x, 4) for x in v)))
               for side, v in q.items()},
            "change_wins": sum(g > 0 for g in gains), "ties": gains.count(0), "pairs": len(pairs),
            "median_change_frac": round((change - parent) / parent, 4) if parent else 0.0,
            "parent_iqr": round(q["parent"][2] - q["parent"][0], 4),
            "median_diff": round(sign * (parent - change), 4)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="at least 2")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 2:  # the quartiles of each side need two runs
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    pairs, changed = [], {}  # changed: seed -> the CSV files whose SHA-256s differ
    for i in range(args.pairs):
        order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        pair = {"seed": args.seed + i, "first": order[0], "parent": None, "change": None}
        digests = {}
        for side in order:
            metrics, env = run_side(side, checkouts[side], args.workload, pair["seed"],
                                    args.seconds)
            pair[side] = {name: round(m["value"], 4) for name, m in metrics.items()}
            pair[side].update(fail_frac=env["fail_frac"], repeats=env["repeats"])
            digests[side] = env["csv_sha256"]
        parent, change = digests["parent"], digests["change"]
        differ = sorted(name for name in parent.keys() | change.keys()
                        if parent.get(name) != change.get(name))
        pair["csv_sha256_identical"] = not differ
        if differ:
            changed[pair["seed"]] = differ
        pairs.append(pair)
        print(json.dumps(pair), file=sys.stderr, flush=True)
    summary = {name: summarise(pairs, name, how == "lower") for name, how in better.items()}
    print(json.dumps({"pairs": pairs, "summary": summary}, indent=1))
    if changed:
        sys.exit("CSV bytes differ between parent and change: " + "; ".join(
            f"seed {seed}: {', '.join(names)}" for seed, names in changed.items()))


if __name__ == "__main__":
    main()
