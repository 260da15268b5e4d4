"""Command line front end: analytic tables, cross-validation, mean-field
sweeps, simulation runs, and figure-data reproduction presets.

Everything is emitted as CSV (comma separator, header row, 9-significant-
digit floats, LF line endings) either to stdout or into the --out directory;
plotting is left to external tools, with --gnuplot-script emitting a basic
script next to the data.  Identical command line and seed produce
byte-identical output.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure
(including partial row failures in sweeps), 3 threshold violation in
cross-validation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import closedform, meanfield, shs, sim
from .core import (
    AoiError,
    InvalidParameter,
    Policy,
    PolicyScheme,
    Scheme,
    StateFractions,
    SystemParams,
    parse_policy,
    parse_scheme,
)
from .meanfield import GridPointInvalid
from .sim import InvalidConfig, SimConfig

SEED_ENV_VAR = "AOI_DENSE_SEED"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NUMERICAL = 2
_EXIT_THRESHOLD = 3

_SWEEP_ALIASES = {"lambda": "lam", "lam": "lam", "mu": "mu", "w": "w",
                  "k": "k", "gamma": "gamma", "p": "p"}


class UsageError(AoiError):
    """Bad command line or config file content."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _trajectory_lines(times, states) -> list[str]:
    """Rows of a trajectory of (x_I, x_W, x_S), mean-field or empirical."""
    lines = ["t,x_I,x_W,x_S"]
    for t, (xi, xw, xs) in zip(times, states):
        lines.append(f"{_fmt(t)},{_fmt(xi)},{_fmt(xw)},{_fmt(xs)}")
    return lines


def _summary_lines(pooled: sim.PooledResult) -> list[str]:
    """Pooled mean and standard error, summed event counts, mean k estimate.

    A lone replication reports the standard error over its devices instead.
    """
    results = pooled.results
    stderr = pooled.stderr if pooled.n_reps > 1 else results[0].avg_aoi_stderr
    k_est = float(np.mean([r.effective_k_estimate for r in results]))
    counts = [str(sum(getattr(r, f) for r in results))
              for f in ("arrivals", "delivered", "failed", "preempted", "discarded")]
    return ["mean,stderr,arrivals,delivered,failed,preempted,discarded,k_estimate",
            ",".join([_fmt(pooled.mean_aoi), _fmt(stderr), *counts, _fmt(k_est)])]


# ---------------------------------------------------------------------------
# Reproduction presets: parameters exactly as printed in the figure captions.

@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    params: dict


PRESETS: dict[str, Preset] = {
    "aoi-vs-p": Preset(
        "aoi-vs-p",
        "average AoI versus p at a fixed stationary distribution",
        {"lam": 0.9, "mu": 1.0, "k": 2.0, "p_grid": (0.3, 1.0, 15)},
    ),
    "accuracy": Preset(
        "accuracy",
        "empirical measure trajectories against the mean-field ODE for growing populations",
        {"lam": 0.8, "mu": 1.0, "w": 2.0, "gamma": 5.0, "p": 0.7,
         "populations": (10, 100, 1000)},
    ),
    "aoi-vs-lambda": Preset(
        "aoi-vs-lambda",
        "mean-field average AoI versus the arrival rate",
        {"mu": 0.5, "w": 2.0, "gamma": 5.0, "p": 0.7},
    ),
    "param-sweeps": Preset(
        "param-sweeps",
        "mean-field average AoI versus mu, w, gamma, and p",
        {"lam": 0.8, "mu": 1.5, "w": 2.0, "gamma": 5.0, "p": 0.7},
    ),
    "single-device": Preset(
        "single-device",
        "single device desk check against the closed form",
        {"lam": 1.0, "mu": 1.0, "w": 1.0, "p": 1.0, "n": 1, "m": 1},
    ),
}


# ---------------------------------------------------------------------------
# Argument handling.

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--policy", default=None, help="I, W, S, or all")
    parser.add_argument("--scheme", default=None, help="wp, wop, or all")
    parser.add_argument("--lambda", dest="lam", type=float, default=None, help="arrival rate")
    parser.add_argument("--mu", type=float, default=None, help="service rate")
    parser.add_argument("--w", type=float, default=None, help="waiting (backoff) rate")
    parser.add_argument("--k", type=float, default=None, help="effective waiting rate (analytic mode)")
    parser.add_argument("--gamma", type=float, default=None, help="device-to-channel ratio N/M")
    parser.add_argument("--p", type=float, default=None, help="successful-transmission probability")
    parser.add_argument("--n", type=int, default=None, help="number of devices (simulation)")
    parser.add_argument("--m", type=int, default=None, help="number of channels (simulation)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (falls back to ${SEED_ENV_VAR}, then 1)")
    parser.add_argument("--arrivals", type=int, default=None, help="stop after this many arrivals")
    parser.add_argument("--horizon", type=float, default=None, help="stop at this simulated time")
    parser.add_argument("--warmup", type=float, default=None, help="warm-up fraction (default 0.1)")
    parser.add_argument("--reps", type=int, default=None, help="replication count")
    parser.add_argument("--sweep", default=None, help="<param>=<start:end:count> inclusive grid")
    parser.add_argument("--out", default=None, help="output directory for CSV files")
    parser.add_argument("--sample-dt", type=float, default=None,
                        help="empirical-measure sampling interval")
    parser.add_argument("--config", default=None, help="JSON file with flag defaults")
    parser.add_argument("--parallelism", type=int, default=None, help="worker processes for replications")
    parser.add_argument("--gnuplot-script", action="store_true", default=None,
                        help="emit a gnuplot script next to the CSV output")


def build_parser() -> _Parser:
    parser = _Parser(prog="aoi-csma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", parents=[], help="evaluate the closed forms")
    _add_common(p_an)
    p_an.add_argument("--p-grid", default=None,
                      help="start:end:count grid over p (same as --sweep p=...)")

    p_cv = sub.add_parser("crossvalidate", help="chain solver vs closed forms on a random grid")
    _add_common(p_cv)
    p_cv.add_argument("--count", type=int, default=None, help="number of random tuples (default 1000)")
    p_cv.add_argument("--selftest-perturb", type=float, default=None,
                      help="inject a deviation to verify the harness detects it")

    p_mf = sub.add_parser("meanfield", help="equilibria, trajectories, sweeps, monotonicity")
    _add_common(p_mf)
    p_mf.add_argument("--trajectory", action="store_true", default=None,
                      help="integrate the ODE and emit the trajectory")
    p_mf.add_argument("--t-end", type=float, default=None, help="integration horizon")
    p_mf.add_argument("--dt", type=float, default=None, help="integration step (default 0.01)")
    p_mf.add_argument("--x0", default=None, help="initial fractions i,w,s (default 1,0,0)")
    p_mf.add_argument("--monotonicity", default=None,
                      help="<param>=<start:end:count>: finite-difference sign report")

    p_sim = sub.add_parser("simulate", help="event-driven finite-N simulation")
    _add_common(p_sim)
    p_sim.add_argument("--compare", action="store_true", default=None,
                       help="print relative error against the mean-field AoI")

    p_rep = sub.add_parser("reproduce", help="figure-data reproduction presets")
    p_rep.add_argument("preset", choices=sorted(PRESETS), help="preset name")
    _add_common(p_rep)

    p_list = sub.add_parser("presets", help="describe the reproduction presets")
    p_list.add_argument("--out", default=None, help=argparse.SUPPRESS)
    return parser


def _merge_config_file(args: argparse.Namespace) -> None:
    """Fill unset flags from the JSON config file; flags keep priority."""
    if getattr(args, "config", None) is None:
        return
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {args.config}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object of flag values")
    for key, value in doc.items():
        # every dest is its flag name with "-" as "_", except --lambda's
        dest = "lam" if key == "lambda" else key.replace("-", "_")
        if not hasattr(args, dest):
            raise UsageError(f"config file key {key!r} does not match any flag")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return 1


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:end:count, got {text!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"malformed grid {text!r}") from None
    if count < 2 or not end > start:
        raise UsageError(f"grid must be strictly increasing with count >= 2, got {text!r}")
    return np.linspace(start, end, count)


def _parse_sweep(text: str, allowed: tuple[str, ...]) -> tuple[str, np.ndarray]:
    if "=" not in text:
        raise UsageError(f"sweep must be <param>=<start:end:count>, got {text!r}")
    name, grid_text = text.split("=", 1)
    key = _SWEEP_ALIASES.get(name.strip().lower())
    if key is None or key not in allowed:
        raise UsageError(f"cannot sweep {name!r}; choose from {', '.join(allowed)}")
    return key, _parse_grid(grid_text)


def _policies(args) -> list[Policy]:
    text = args.policy or "all"
    if text.lower() == "all":
        return [Policy.I, Policy.W, Policy.S]
    return [parse_policy(text)]


def _schemes(args) -> list[Scheme]:
    text = args.scheme or "all"
    if text.lower() == "all":
        return [Scheme.WP, Scheme.WOP]
    return [parse_scheme(text)]


def _combos(args) -> list[PolicyScheme]:
    return [PolicyScheme(pol, sch) for pol in _policies(args) for sch in _schemes(args)]


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-").replace("lam", "lambda") for n in missing)
        raise UsageError(f"missing required flags: {flags}")


def _mean_field_params(args) -> SystemParams:
    _require(args, "lam", "mu", "w", "gamma", "p")
    return SystemParams(lam=args.lam, mu=args.mu, w=args.w, p=args.p, gamma=args.gamma)


@dataclass
class _Output:
    """Collects named CSV documents; writes files under out_dir or to stdout."""

    out_dir: str | None
    gnuplot: bool = False
    documents: list[tuple[str, list[str]]] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)

    def add(self, name: str, lines: list[str]) -> None:
        self.documents.append((name, lines))

    def say(self, message: str) -> None:
        self.messages.append(message)

    def flush(self) -> None:
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            for name, lines in self.documents:
                path = os.path.join(self.out_dir, name)
                with open(path, "w", newline="\n") as fh:
                    fh.write("\n".join(lines) + "\n")
            if self.gnuplot and self.documents:
                with open(os.path.join(self.out_dir, "plot.gp"), "w", newline="\n") as fh:
                    fh.write(self._gnuplot_script())
        else:
            for i, (name, lines) in enumerate(self.documents):
                if len(self.documents) > 1:
                    sys.stdout.write(f"# {name}\n")
                sys.stdout.write("\n".join(lines) + "\n")
        for message in self.messages:
            sys.stdout.write(message + "\n")

    def _gnuplot_script(self) -> str:
        out = ["set datafile separator ','", "set key autotitle columnhead outside", ""]
        for name, lines in self.documents:
            header = lines[0].split(",")
            if header[:2] == ["policy", "scheme"] and "aoi" in header:
                xname = "value" if "value" in header else "p"
                xcol = header.index(xname) + 1
                ycol = header.index("aoi") + 1
                plots = []
                for ps in PolicyScheme.all_combinations():
                    cond = (f"(strcol(1) eq '{ps.policy.value}' && "
                            f"strcol(2) eq '{ps.scheme.value}')")
                    plots.append(f"'{name}' using {xcol}:({cond} ? column({ycol}) : NaN) "
                                 f"with linespoints title '{ps.label}'")
                out.append("plot " + ", \\\n     ".join(plots))
            elif header[0] == "t":
                cols = ", ".join(
                    f"'{name}' using 1:{i + 2} with lines" for i in range(len(header) - 1)
                )
                out.append(f"plot {cols}")
            out.append("pause -1")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Commands.

def _add_analytic(output: _Output, name: str, combos, points: list[dict]) -> int:
    """Closed-form AoI and preemption gap per (policy, scheme) and point.

    A point that fails gets the error's name in both value columns.
    """
    lines = ["policy,scheme,lambda,mu,k,p,aoi,gap"]
    failures = 0
    for ps in combos:
        for pt in points:
            prefix = (f"{ps.policy.value},{ps.scheme.value},{_fmt(pt['lam'])},"
                      f"{_fmt(pt['mu'])},{_fmt(pt['k'])},{_fmt(pt['p'])}")
            try:
                aoi = closedform.avg_aoi(ps, lam=pt["lam"], mu=pt["mu"], k=pt["k"], p=pt["p"])
                gap = closedform.preemption_gap(ps.policy, lam=pt["lam"], mu=pt["mu"],
                                                k=pt["k"], p=pt["p"])
                lines.append(f"{prefix},{_fmt(aoi.total)},{_fmt(gap)}")
            except AoiError as exc:
                failures += 1
                lines.append(f"{prefix},{type(exc).__name__},{type(exc).__name__}")
    output.add(name, lines)
    if failures:
        output.say(f"warning: {failures} grid point(s) failed")
        return _EXIT_NUMERICAL
    return _EXIT_OK


def _cmd_analytic(args, output: _Output) -> int:
    _require(args, "lam", "mu", "k")
    sweep_texts = [t for t in (args.sweep, f"p={args.p_grid}" if args.p_grid else None) if t]
    if len(sweep_texts) > 1:
        raise UsageError("give at most one of --sweep / --p-grid")
    base = {"lam": args.lam, "mu": args.mu, "k": args.k, "p": args.p}
    if sweep_texts:
        which, grid = _parse_sweep(sweep_texts[0], ("lam", "mu", "k", "p"))
        points = [dict(base, **{which: v}) for v in grid]
    else:
        _require(args, "p")
        points = [base]
    return _add_analytic(output, "analytic.csv", _combos(args), points)


def _cmd_crossvalidate(args, output: _Output) -> int:
    count = args.count if args.count is not None else 1000
    if count < 1:
        raise UsageError(f"--count must be >= 1, got {count}")
    seed = _resolve_seed(args)
    perturb = args.selftest_perturb or 0.0
    rng = np.random.default_rng(seed)
    tuples = np.empty((count, 4))
    for row in tuples:
        row[:3] = rng.uniform(0.1, 5.0, size=3)
        row[3] = rng.uniform(0.05, 1.0)
    lam, mu, k, p = tuples.T
    deviations = []
    for ps in PolicyScheme.all_combinations():
        via_chain = shs.average_aoi(ps, lam=lam, mu=mu, k=k, p=p)
        direct = np.array([closedform.avg_aoi(ps, lam=a, mu=b, k=c, p=d).total
                           for a, b, c, d in tuples]) + perturb
        with np.errstate(invalid="ignore"):  # an infinite perturbation gives inf/inf
            deviations.append(np.abs(via_chain - direct) / direct)
    # np.max propagates NaN, so a NaN deviation fails below
    worst = np.max(deviations)
    output.say(f"tuples={count} max_relative_deviation={worst:.3e} threshold=1e-09")
    if not worst < 1e-9:
        output.say("FAIL: chain solver and closed forms disagree")
        return _EXIT_THRESHOLD
    output.say("OK")
    return _EXIT_OK


def _equilibrium_lines(policies: list[Policy], params: SystemParams) -> list[str]:
    lines = ["policy,lambda,mu,w,gamma,p,x_I,x_W,x_S,k,delta,residual"]
    for pol in policies:
        eq = meanfield.equilibrium(pol, params)
        x = eq.x_star
        lines.append(",".join([
            pol.value, _fmt(params.lam), _fmt(params.mu), _fmt(params.w),
            _fmt(params.gamma), _fmt(params.p),
            _fmt(x.x_i), _fmt(x.x_w), _fmt(x.x_s),
            _fmt(eq.k_star), _fmt(eq.stability_margin), _fmt(eq.residual),
        ]))
    return lines


def _sweep_lines(combos: list[PolicyScheme], params: SystemParams,
                 which: str, grid: np.ndarray) -> list[str]:
    lines = ["policy,scheme,param,value,k,aoi"]
    name = "lambda" if which == "lam" else which
    for ps in combos:
        for value in grid:
            probe = meanfield.with_param(params, which, float(value))
            eq = meanfield.equilibrium(ps.policy, probe)
            aoi = closedform.avg_aoi(ps, lam=probe.lam, mu=probe.mu, k=eq.k_star, p=probe.p)
            lines.append(f"{ps.policy.value},{ps.scheme.value},{name},{_fmt(value)},"
                         f"{_fmt(eq.k_star)},{_fmt(aoi.total)}")
    return lines


def _cmd_meanfield(args, output: _Output) -> int:
    params = _mean_field_params(args)
    policies = _policies(args)
    wants = [bool(args.sweep), bool(args.trajectory), bool(args.monotonicity)]
    if sum(wants) > 1 and args.out is None:
        raise UsageError("multiple outputs requested; give --out")

    if args.sweep:
        which, grid = _parse_sweep(args.sweep, ("lam", "mu", "w", "gamma", "p"))
        output.add("sweep.csv", _sweep_lines(_combos(args), params, which, grid))
    if args.trajectory:
        t_end = args.t_end if args.t_end is not None else 200.0
        dt = args.dt if args.dt is not None else 0.01
        if args.x0 is not None:
            try:
                xi, xw, xs = (float(v) for v in args.x0.split(","))
            except ValueError:
                raise UsageError(f"--x0 must be i,w,s fractions, got {args.x0!r}") from None
            x0 = StateFractions(xi, xw, xs)
        else:
            x0 = StateFractions(1.0, 0.0, 0.0)
        for pol in policies:
            traj = meanfield.integrate(pol, params, x0, t_end=t_end, dt=dt)
            output.add(f"trajectory_{pol.value}.csv", _trajectory_lines(traj.times, traj.states))
    if args.monotonicity:
        which, grid = _parse_sweep(args.monotonicity, ("lam", "mu", "w", "gamma", "p"))
        for ps in _combos(args):
            report = meanfield.monotonicity_report(ps.policy, ps.scheme, params, which, grid)
            rows = [f"{which},{_fmt(v)},{_fmt(d)},{sign}"
                    for v, d, sign in zip(report.values, report.d_aoi, report.aoi_signs())]
            output.add(f"monotonicity_{ps.label}_{which}.csv", ["param,value,dAoI,sign", *rows])
            verdicts = " ".join(f"{k}={v}" for k, v in report.verdicts.items())
            output.say(f"monotonicity {ps.label} d/d{which}: {verdicts}")
    if not any(wants):
        output.add("equilibrium.csv", _equilibrium_lines(policies, params))
    return _EXIT_OK


def _cmd_simulate(args, output: _Output) -> int:
    _require(args, "lam", "mu", "w", "p", "n", "m")
    if args.gamma is None:
        if args.m == 0:
            raise UsageError("--m must be positive")
        gamma = args.n / args.m
    else:
        gamma = args.gamma
    params = SystemParams(lam=args.lam, mu=args.mu, w=args.w, p=args.p, gamma=gamma,
                          n_devices=args.n, n_channels=args.m)
    if args.arrivals is None and args.horizon is None:
        raise UsageError("give a stop criterion: --arrivals or --horizon")
    seed = _resolve_seed(args)
    reps = args.reps if args.reps is not None else 1
    parallelism = args.parallelism if args.parallelism is not None else 1
    combos = _combos(args)
    single = len(combos) == 1

    for ps in combos:
        config = SimConfig(
            params=params, ps=ps, seed=seed,
            stop_arrivals=args.arrivals, stop_time=args.horizon,
            warmup_fraction=args.warmup if args.warmup is not None else 0.1,
            sample_dt=args.sample_dt,
        )
        pooled = sim.replicate(config, n_reps=reps, parallelism=parallelism)
        first = pooled.results[0]
        tag = "" if single else f"_{ps.label}"
        output.add(f"summary{tag}.csv", _summary_lines(pooled))
        output.add(f"aoi{tag}.csv", ["device_id,avg_aoi"] + [
            f"{d},{_fmt(v)}" for d, v in enumerate(first.avg_aoi_per_device)])
        if args.sample_dt is not None:
            output.add(f"traj{tag}.csv",
                       _trajectory_lines(first.trajectory_times, first.trajectory_fractions))
        if args.compare:
            target = meanfield.aoi_at_equilibrium(ps, params)
            rel = (pooled.mean_aoi - target) / target
            output.say(f"{ps.label}: sim={_fmt(pooled.mean_aoi)} "
                       f"meanfield={_fmt(target)} rel_error={rel:+.4%} "
                       f"half_width={_fmt(pooled.half_width)}")
    return _EXIT_OK


def _cmd_reproduce(args, output: _Output) -> int:
    preset = PRESETS[args.preset]
    seed = _resolve_seed(args)
    pp = preset.params
    if args.preset == "aoi-vs-p":
        points = [dict(lam=pp["lam"], mu=pp["mu"], k=pp["k"], p=p)
                  for p in np.linspace(*pp["p_grid"])]
        return _add_analytic(output, "aoi_vs_p.csv", PolicyScheme.all_combinations(), points)

    if args.preset == "accuracy":
        reps = args.reps if args.reps is not None else 100
        parallelism = args.parallelism if args.parallelism is not None else 1
        sample_dt = args.sample_dt if args.sample_dt is not None else 0.1
        t_end = 10.0
        base = SystemParams(lam=pp["lam"], mu=pp["mu"], w=pp["w"], p=pp["p"], gamma=pp["gamma"])
        traj = meanfield.integrate(Policy.W, base, StateFractions(1.0, 0.0, 0.0),
                                   t_end=t_end, dt=0.01)
        stride = max(1, round(sample_dt / 0.01))
        output.add("accuracy_ode.csv",
                   _trajectory_lines(traj.times[::stride], traj.states[::stride]))
        for n in pp["populations"]:
            m = int(round(n / pp["gamma"]))
            params = SystemParams(lam=pp["lam"], mu=pp["mu"], w=pp["w"], p=pp["p"],
                                  gamma=pp["gamma"], n_devices=n, n_channels=m)
            config = SimConfig(params=params, ps=PolicyScheme(Policy.W, Scheme.WP),
                               seed=seed, stop_time=t_end, warmup_fraction=0.0,
                               sample_dt=sample_dt)
            pooled = sim.replicate(config, n_reps=reps, parallelism=parallelism)
            one = pooled.results[0]
            mean_xi = np.mean(
                [r.trajectory_fractions[:, 0] for r in pooled.results], axis=0
            )
            lines = ["t,x_I,mean_x_I"]
            for t, row, mx in zip(one.trajectory_times, one.trajectory_fractions, mean_xi):
                lines.append(f"{_fmt(t)},{_fmt(row[0])},{_fmt(mx)}")
            output.add(f"accuracy_N{n}.csv", lines)
        return _EXIT_OK

    if args.preset == "aoi-vs-lambda":
        params = SystemParams(lam=1.0, mu=pp["mu"], w=pp["w"], p=pp["p"], gamma=pp["gamma"])
        grid = np.linspace(0.1, 2.0, 40)
        output.add("aoi_vs_lambda.csv",
                   _sweep_lines(list(PolicyScheme.all_combinations()), params, "lam", grid))
        return _EXIT_OK

    if args.preset == "param-sweeps":
        params = SystemParams(lam=pp["lam"], mu=pp["mu"], w=pp["w"], p=pp["p"],
                              gamma=pp["gamma"])
        grids = {
            "mu": np.linspace(0.5, 3.0, 20),
            "w": np.linspace(0.5, 5.0, 20),
            "gamma": np.linspace(1.0, 10.0, 20),
            "p": np.linspace(0.3, 1.0, 20),
        }
        combos = list(PolicyScheme.all_combinations())
        for which, grid in grids.items():
            output.add(f"param_sweep_{which}.csv", _sweep_lines(combos, params, which, grid))
        return _EXIT_OK

    # single-device
    arrivals = args.arrivals if args.arrivals is not None else 200_000
    params = SystemParams(lam=pp["lam"], mu=pp["mu"], w=pp["w"], p=pp["p"], gamma=1.0,
                          n_devices=pp["n"], n_channels=pp["m"])
    ps = PolicyScheme(Policy.I, Scheme.WP)
    config = SimConfig(params=params, ps=ps, seed=seed, stop_arrivals=arrivals)
    pooled = sim.replicate(config, n_reps=1)
    expected = closedform.avg_aoi(ps, lam=pp["lam"], mu=pp["mu"], k=pp["w"], p=pp["p"]).total
    rel = (pooled.mean_aoi - expected) / expected
    output.add("single_device.csv", _summary_lines(pooled))
    output.say(f"single device: sim={_fmt(pooled.mean_aoi)} "
               f"closed_form={_fmt(expected)} rel_error={rel:+.4%}")
    return _EXIT_OK


def _cmd_presets(args, output: _Output) -> int:
    for preset in PRESETS.values():
        output.say(f"{preset.name}: {preset.description}")
        for key, value in preset.params.items():
            output.say(f"    {key} = {value}")
    return _EXIT_OK


_COMMANDS = {
    "analytic": _cmd_analytic,
    "crossvalidate": _cmd_crossvalidate,
    "meanfield": _cmd_meanfield,
    "simulate": _cmd_simulate,
    "reproduce": _cmd_reproduce,
    "presets": _cmd_presets,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config_file(args)
        output = _Output(out_dir=getattr(args, "out", None),
                         gnuplot=bool(getattr(args, "gnuplot_script", False)))
        code = _COMMANDS[args.command](args, output)
        output.flush()
        return code
    except (UsageError, InvalidParameter, InvalidConfig, GridPointInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except AoiError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
