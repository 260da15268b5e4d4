"""The benchmark's workloads, as the argv a user would type, and their output checks.

Why these three (the full mapping of layer metrics to end-to-end metrics is
in README.md):

- ``steady``: the README and criterion-7 simulation at high contention (busy
  probability 0.87), all six policy/scheme pairs.  Nearly all of its time is
  the event loop of ``sim.run``.
- ``ensemble``: the criterion-8 figure preset, 300 short replications.
  Per-replication set-up, stream blocks, pickling and pool dispatch weigh
  far more here than in ``steady``.
- ``analytic``: the oracle cross-check, the mean-field presets, a long RK4
  trajectory and a monotonicity report.  It never calls the simulator, so a
  simulator change should not move it.
"""

from __future__ import annotations

import math
import os
import re

PARALLELISM = 2
LABELS = ("I-WP", "I-WOP", "W-WP", "W-WOP", "S-WP", "S-WOP")

# The meanfield subcommand needs the model parameters; these are README's.
_MF_PARAMS = ["--lambda", "0.8", "--mu", "1", "--w", "2", "--gamma", "5", "--p", "0.7"]
_STEADY_REPS = 2
_STEADY_ARRIVALS = 200_000

WORKLOADS = {
    "steady": [
        ["simulate", "--policy", "all", "--scheme", "all", "--lambda", "0.8", "--mu", "1",
         "--w", "2", "--p", "0.7", "--n", "1000", "--m", "200",
         "--arrivals", str(_STEADY_ARRIVALS), "--warmup", "0.2", "--reps", str(_STEADY_REPS),
         "--parallelism", str(PARALLELISM), "--compare"],
    ],
    "ensemble": [
        ["reproduce", "accuracy", "--parallelism", str(PARALLELISM)],
    ],
    "analytic": [
        ["crossvalidate", "--count", "1000"],
        ["reproduce", "param-sweeps"],
        ["reproduce", "aoi-vs-lambda"],
        ["meanfield", "--policy", "all", "--trajectory", "--t-end", "200", "--dt", "0.01",
         *_MF_PARAMS],
        ["meanfield", "--monotonicity", "lam=0.1:2:20", *_MF_PARAMS],
    ],
}

# Gates on the outputs.
STEADY_REL_ERROR_PCT = 3.0      # criterion 7: sim vs mean field
CROSSVALIDATE_MAX_DEV = 1e-9    # oracle vs closed forms
ENSEMBLE_Z = 5.0                # N=1000 mean X_I(10) vs ODE, in standard errors
SIMPLEX_TOL = 1e-9
CSV_SUM_TOL = 1e-8              # rows are printed with 9 significant digits


def uses_workers(workload: str) -> bool:
    return any("--parallelism" in argv for argv in WORKLOADS[workload])


def invocations(workload: str, seed: int, out_dir: str,
                parallelism: int = PARALLELISM) -> list[list[str]]:
    """The workload's argv lists with the seed, output directory and parallelism filled in."""
    result = []
    for argv in WORKLOADS[workload]:
        argv = list(argv)
        if "--parallelism" in argv:
            argv[argv.index("--parallelism") + 1] = str(parallelism)
        result.append(argv + ["--seed", str(seed), "--out", out_dir])
    return result


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    names = header.split(",")
    return [dict(zip(names, row.split(","))) for row in rows]


def _positive_finite(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0.0


def check_outputs(workload: str, report: dict, out_dir: str, checks) -> None:
    """Record every check of one job's outputs on ``checks`` (an analysis.Checks)."""
    stdout = "".join(inv["stdout"] for inv in report["invocations"])
    for inv in report["invocations"]:
        checks.check(inv["code"] == 0, f"exit code {inv['code']}: {' '.join(inv['argv'][:2])}")
    {"steady": _check_steady, "ensemble": _check_ensemble,
     "analytic": _check_analytic}[workload](report, stdout, out_dir, checks)


def _check_steady(report, stdout, out_dir, checks) -> None:
    rel = dict(re.findall(r"^(\S+): sim=\S+ meanfield=\S+ rel_error=([-+]?[\d.]+)%",
                          stdout, re.M))
    for label in LABELS:
        ok = label in rel and abs(float(rel[label])) < STEADY_REL_ERROR_PCT
        checks.check(ok, f"steady {label}: sim vs mean field {rel.get(label, 'missing')}%")
        path = os.path.join(out_dir, f"summary_{label}.csv")
        rows = read_csv(path) if os.path.exists(path) else []
        ok = len(rows) == 1 and rows[0]["arrivals"] == str(_STEADY_REPS * _STEADY_ARRIVALS)
        checks.check(ok, f"steady {label}: summary arrival count")
        path = os.path.join(out_dir, f"aoi_{label}.csv")
        rows = read_csv(path) if os.path.exists(path) else []
        ok = len(rows) == 1000 and all(_positive_finite(r["avg_aoi"]) for r in rows)
        checks.check(ok, f"steady {label}: per-device AoI rows")


def _check_ensemble(report, stdout, out_dir, checks) -> None:
    ode_path = os.path.join(out_dir, "accuracy_ode.csv")
    ode = read_csv(ode_path) if os.path.exists(ode_path) else []
    checks.check(len(ode) == 101 and float(ode[-1]["t"]) == 10.0, "ensemble: ODE rows")
    by_n = {r["n_devices"]: r for r in report["replicates"]}
    for n in (10, 100, 1000):
        path = os.path.join(out_dir, f"accuracy_N{n}.csv")
        rows = read_csv(path) if os.path.exists(path) else []
        ok = len(rows) == 101 and all(
            0.0 <= float(r["x_I"]) <= 1.0 and 0.0 <= float(r["mean_x_I"]) <= 1.0
            and abs(float(r["x_I"]) * n - round(float(r["x_I"]) * n)) < 1e-6
            for r in rows)
        checks.check(ok, f"ensemble N={n}: CSV fractions on the simplex")
        finals = (by_n.get(n) or {}).get("final_fractions") or []
        ok = len(finals) == 100 and all(
            min(f) >= 0.0 and abs(sum(f) - 1.0) < SIMPLEX_TOL for f in finals)
        checks.check(ok, f"ensemble N={n}: replication fractions on the simplex")
    finals = (by_n.get(1000) or {}).get("final_fractions") or []
    if len(finals) < 2 or not ode:
        checks.check(False, "ensemble N=1000: mean X_I(10) against the ODE")
        return
    x_i = [f[0] for f in finals]
    mean = sum(x_i) / len(x_i)
    var = sum((v - mean) ** 2 for v in x_i) / (len(x_i) - 1)
    stderr = math.sqrt(var / len(x_i))
    gap = abs(mean - float(ode[-1]["x_I"]))
    checks.check(gap <= ENSEMBLE_Z * stderr,
                 f"ensemble N=1000: |mean X_I(10) - ODE| = {gap:.3g} > {ENSEMBLE_Z} x {stderr:.3g}")


def _check_analytic(report, stdout, out_dir, checks) -> None:
    match = re.search(r"max_relative_deviation=(\S+)", stdout)
    ok = match is not None and float(match.group(1)) < CROSSVALIDATE_MAX_DEV
    checks.check(ok, f"crossvalidate deviation {match.group(1) if match else 'missing'}")
    for policy in "IWS":
        path = os.path.join(out_dir, f"trajectory_{policy}.csv")
        rows = read_csv(path) if os.path.exists(path) else []
        ok = len(rows) == 20001 and all(
            abs(float(r["x_I"]) + float(r["x_W"]) + float(r["x_S"]) - 1.0) < CSV_SUM_TOL
            for r in rows)
        checks.check(ok, f"meanfield trajectory {policy}: rows on the simplex")
    sweeps = {"param_sweep_mu.csv": 120, "param_sweep_w.csv": 120,
              "param_sweep_gamma.csv": 120, "param_sweep_p.csv": 120,
              "aoi_vs_lambda.csv": 240}
    for name, count in sweeps.items():
        path = os.path.join(out_dir, name)
        rows = read_csv(path) if os.path.exists(path) else []
        ok = len(rows) == count and all(_positive_finite(r["aoi"]) for r in rows)
        checks.check(ok, f"{name}: {count} positive AoI rows")
    verdicts = re.findall(r"^monotonicity \S+ d/dlam: (.*)$", stdout, re.M)
    checks.check(len(verdicts) == 6 and not any("mismatch" in v for v in verdicts),
                 "monotonicity in lambda: claimed signs match")
