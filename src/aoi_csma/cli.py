"""Command line front end: analytic tables, cross-validation, mean-field
sweeps, simulation runs, and figure-data reproduction presets.

Everything is emitted as CSV (comma separator, header row, 9-significant-
digit floats, LF line endings) either to stdout or into the --out directory;
plotting is left to external tools, with --gnuplot-script emitting a basic
script next to the data.  Identical command line and seed produce
byte-identical output.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure
(including partial row failures in sweeps, and a result that is not finite
in float64), 3 threshold violation in cross-validation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial

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
)
from .meanfield import GridPointInvalid
from .sim import InvalidConfig, SimConfig

SEED_ENV_VAR = "AOI_DENSE_SEED"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NUMERICAL = 2
_EXIT_THRESHOLD = 3

_MAX_GRID = 1_000_000  # points per grid, as meanfield bounds its steps and sim its samples

class UsageError(AoiError):
    """Bad command line or config file content."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _csv(lines: list[str]) -> str:
    """A document's text: its lines, each ended by LF."""
    return "\n".join(lines) + "\n"


def _rows(template: str, *columns) -> list[str]:
    """``template % row`` per row of the equal-length columns (arrays or sequences),
    one ``%`` per 1024-row block on Python values, so no list of every value
    is held.  ``%.9g`` gives ``_fmt``'s text; no value's text may hold a LF."""
    rows = []
    for start in range(0, len(columns[0]), 1024):
        block = [c[start:start + 1024] for c in columns]
        cells = [None] * (len(block) * len(block[0]))
        for j, values in enumerate(block):
            cells[j::len(block)] = values.tolist() if isinstance(values, np.ndarray) else values
        rows += ("\n".join([template] * len(block[0])) % tuple(cells)).split("\n")
    return rows


def _trajectory_csv(column: list[str], states) -> str:
    """The CSV text of a trajectory of (x_I, x_W, x_S), mean-field or empirical.

    ``column`` is the sample times as ``_rows("%.9g", times)`` gives them, so
    trajectories with the same times format them once.  The settled tail,
    the rows after the last change of state, each equal to the row before
    with every component positive (so equal means the same bits), joins its
    times with that one state's text; the rows before it go through ``_rows``.
    """
    states = np.asarray(states, dtype=float).reshape(-1, 3)
    repeats = ((states[1:] == states[:-1]) & (states[1:] > 0.0)).all(axis=1)
    end = 1 + int(np.flatnonzero(np.append(True, ~repeats))[-1])  # the tail's first row
    text = _csv(["t,x_I,x_W,x_S", *_rows("%s,%.9g,%.9g,%.9g", column[:end], *states[:end].T)])
    if end >= len(states):
        return text
    tail = ",%.9g,%.9g,%.9g\n" % tuple(states[end].tolist())
    return "".join([text, tail.join(column[end:]), tail])


def _aoi_lines(avg_aoi_per_device: np.ndarray) -> list[str]:
    """One row per device of its average AoI."""
    return ["device_id,avg_aoi"] + _rows("%d,%.9g", range(len(avg_aoi_per_device)),
                                         avg_aoi_per_device)


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
# Argument handling.

class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag is named in full, never by a prefix
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        """With --config, the file's values, converted like flag text, are
        set on the parsed namespace and args are parsed into it again.  A flag
        beats the file and the file beats the built-in default; the parser
        itself is left as it was, so it can parse the next command line."""
        parsed, extras = super().parse_known_args(args, namespace)
        if "--config" not in self._option_string_actions or parsed.config is None:
            return parsed, extras
        vars(parsed).update(_config_values(self, parsed.config))
        return super().parse_known_args(args, parsed)


def _config_values(parser: _Parser, path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object of flag values")
    defaults = {}
    for key, value in doc.items():
        action = parser._option_string_actions.get("--" + key)
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"config file key {key!r} does not match any flag")
        switch = action.nargs == 0
        if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config file key {key!r} takes "
                             + ("true or false" if switch else "a string or a number"))
        try:
            defaults[action.dest] = value if switch else parser._get_value(action, str(value))
        except argparse.ArgumentError as exc:
            parser.error(str(exc))
    return defaults


def _fractions(text: str) -> StateFractions:
    try:
        xi, xw, xs = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be i,w,s fractions, got {text!r}") from None
    return StateFractions(xi, xw, xs)


def _members(enum):
    """An argparse type: a member's value in any case to a one-member tuple,
    or ``all`` to every member in declaration order."""
    def parse(text: str) -> tuple:
        if text.lower() == "all":
            return tuple(enum)
        try:
            return (enum(text.upper()),)
        except ValueError:
            names = ", ".join(member.value for member in enum)
            raise argparse.ArgumentTypeError(
                f"expected one of {names} or all, got {text!r}") from None
    return parse


# Every flag once.  A subcommand takes only the flags its command reads.
_FLAGS = {
    "policy": dict(type=_members(Policy), default="all", help="I, W, S, or all"),
    "scheme": dict(type=_members(Scheme), default="all", help="wp, wop, or all"),
    "lambda": dict(dest="lam", type=float, help="arrival rate"),
    "mu": dict(type=float, help="service rate"),
    "w": dict(type=float, help="waiting (backoff) rate"),
    "k": dict(type=float, help="effective waiting rate"),
    "gamma": dict(type=float, help="device-to-channel ratio N/M"),
    "p": dict(type=float, help="successful-transmission probability"),
    "n": dict(type=int, help="number of devices"),
    "m": dict(type=int, help="number of channels"),
    "sweep": dict(help="<param>=<start:end:count> inclusive grid"),
    "count": dict(type=int, default=1000, help="number of random tuples"),
    "trajectory": dict(action="store_true", help="integrate the ODE and emit the trajectory"),
    "t-end": dict(type=float, default=200.0, help="integration horizon"),
    "dt": dict(type=float, default=0.01, help="integration step"),
    "x0": dict(type=_fractions, default="1,0,0", help="initial fractions i,w,s"),
    "monotonicity": dict(help="<param>=<start:end:count>: finite-difference sign report"),
    "arrivals": dict(type=int, help="stop after this many arrivals"),
    "horizon": dict(type=float, help="stop at this simulated time"),
    "warmup": dict(type=float, default=0.1, help="warm-up fraction"),
    "reps": dict(type=int, default=1, help="replication count"),
    "parallelism": dict(type=int, default=1, help="worker processes for replications"),
    "sample-dt": dict(type=float, help="empirical-measure sampling interval"),
    "compare": dict(action="store_true", help="print relative error against the mean-field AoI"),
    "seed": dict(type=int, help=f"RNG seed (falls back to ${SEED_ENV_VAR}, then 1)"),
    "out": dict(help="output directory for CSV files"),
    "config": dict(help="JSON file whose keys are this command's long flags"),
    "gnuplot-script": dict(action="store_true",
                           help="emit a gnuplot script next to the CSV output"),
}

# Each flag's dest, and each model field a flag sets, -> that flag, so that
# messages name what the user typed ("stop_time" -> "horizon").
_FLAG_OF_FIELD = {
    **{spec.get("dest", name.replace("-", "_")): name for name, spec in _FLAGS.items()},
    "n_devices": "n", "n_channels": "m", "stop_arrivals": "arrivals", "stop_time": "horizon",
    "warmup_fraction": "warmup", "n_reps": "reps",
}

def _resolve_seed(args: argparse.Namespace) -> int:
    """The seed from --seed (or --config), else the environment, else 1."""
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return 1
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {env!r}") from None
        source = "$" + SEED_ENV_VAR
    if seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:end:count, got {text!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"malformed grid {text!r}") from None
    if not (np.isfinite(start) and np.isfinite(end)):
        raise UsageError(f"grid ends must be finite, got {text!r}")
    if count < 2 or not end > start:
        raise UsageError(f"grid must be strictly increasing with count >= 2, got {text!r}")
    if count > _MAX_GRID:
        raise UsageError(f"grid must have at most {_MAX_GRID} points, got {text!r}")
    return np.linspace(start, end, count)


def _parse_sweep(text: str, allowed: tuple[str, ...]) -> tuple[str, np.ndarray]:
    if "=" not in text:
        raise UsageError(f"sweep must be <param>=<start:end:count>, got {text!r}")
    name, grid_text = text.split("=", 1)
    key = name.strip().lower()
    which = next((d for d in allowed if key in (d, _FLAG_OF_FIELD[d])), None)
    if which is None:
        raise UsageError(f"cannot sweep {name!r}; choose from {', '.join(allowed)}")
    return which, _parse_grid(grid_text)


def _combos(args) -> list[PolicyScheme]:
    return [PolicyScheme(pol, sch) for pol in args.policy for sch in args.scheme]


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + _FLAG_OF_FIELD[n] for n in missing)
        raise UsageError(f"missing required flags: {flags}")


def _mean_field_params(args) -> SystemParams:
    _require(args, "lam", "mu", "w", "gamma", "p")
    return SystemParams(lam=args.lam, mu=args.mu, w=args.w, p=args.p, gamma=args.gamma)


@dataclass
class _Output:
    """Collects named CSV documents; writes files under out_dir or to stdout.

    A document is held as its whole text, one string, not as a list of lines.
    """

    out_dir: str | None
    gnuplot: bool = False
    documents: list[tuple[str, str, str | None]] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.gnuplot and self.out_dir is None:
            raise UsageError("--gnuplot-script needs --out")
        if self.out_dir and os.path.exists(self.out_dir) and not os.path.isdir(self.out_dir):
            raise UsageError(f"--out must name a directory, got the file {self.out_dir}")

    def add(self, name: str, text: str, x: str | None = None) -> None:
        """``text`` is the CSV with a header, each line ended by LF; ``x`` names
        the column --gnuplot-script plots the document against."""
        self.documents.append((name, text, x))

    def say(self, message: str) -> None:
        self.messages.append(message)

    def flush(self) -> None:
        if self.out_dir is not None:
            try:
                if self.documents:
                    os.makedirs(self.out_dir, exist_ok=True)
                for name, text, _ in self.documents:
                    path = os.path.join(self.out_dir, name)
                    with open(path, "w", newline="\n") as fh:
                        fh.write(text)
                if self.gnuplot and (script := self._gnuplot_script()) is not None:
                    with open(os.path.join(self.out_dir, "plot.gp"), "w", newline="\n") as fh:
                        fh.write(script)
            except OSError as exc:  # a file on the --out path, a full disk
                raise UsageError(f"cannot write {self.out_dir}: {exc.strerror or exc}") from None
        else:
            for name, text, _ in self.documents:
                if len(self.documents) > 1:
                    sys.stdout.write(f"# {name}\n")
                sys.stdout.write(text)
        for message in self.messages:
            sys.stdout.write(message + "\n")

    def _gnuplot_script(self) -> str | None:
        """One plot per document added with an x column; None when there is none."""
        plots = []
        for name, text, x in self.documents:
            if x is None:
                continue
            header = text[:text.index("\n")].split(",")
            xcol = header.index(x) + 1
            if "aoi" in header:  # one curve per (policy, scheme)
                ycol = header.index("aoi") + 1
                curves = []
                for ps in PolicyScheme.all_combinations():
                    cond = (f"(strcol(1) eq '{ps.policy.value}' && "
                            f"strcol(2) eq '{ps.scheme.value}')")
                    curves.append(f"'{name}' using {xcol}:({cond} ? column({ycol}) : NaN) "
                                  f"with linespoints title '{ps.label}'")
                plots.append("plot " + ", \\\n     ".join(curves))
            else:  # a trajectory: one line per column besides x
                plots.append("plot " + ", ".join(
                    f"'{name}' using {xcol}:{i} with lines"
                    for i in range(1, len(header) + 1) if i != xcol))
        head = ["set datafile separator ','", "set key autotitle columnhead outside", ""]
        return "\n".join(head + [f"{plot}\npause -1" for plot in plots]) + "\n" if plots else None


# ---------------------------------------------------------------------------
# Commands.

def _add_analytic(output: _Output, name: str, combos, points: list[dict], x: str) -> int:
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
                lines.append(f"{prefix},{_fmt(aoi)},{_fmt(gap)}")
            except AoiError as exc:
                failures += 1
                lines.append(f"{prefix},{type(exc).__name__},{type(exc).__name__}")
    output.add(name, _csv(lines), x)
    if failures:
        output.say(f"warning: {failures} grid point(s) failed")
        return _EXIT_NUMERICAL
    return _EXIT_OK


def _cmd_analytic(args, output: _Output) -> int:
    names = ("lam", "mu", "k", "p")
    which, grid = _parse_sweep(args.sweep, names) if args.sweep is not None else (None, None)
    _require(args, *(n for n in names if n != which))
    base = {n: getattr(args, n) for n in names}
    points = [base] if which is None else [dict(base, **{which: v}) for v in grid]
    x = "p" if which is None else _FLAG_OF_FIELD[which]  # the swept column
    return _add_analytic(output, "analytic.csv", _combos(args), points, x)


def _cmd_crossvalidate(args, output: _Output) -> int:
    count = args.count
    if count < 1:
        raise UsageError(f"--count must be >= 1, got {count}")
    if count > _MAX_GRID:
        raise UsageError(f"--count must be at most {_MAX_GRID}, got {count}")
    rng = np.random.default_rng(_resolve_seed(args))
    tuples = rng.uniform([0.1, 0.1, 0.1, 0.05], [5.0, 5.0, 5.0, 1.0], size=(count, 4))
    lam, mu, k, p = tuples.T
    deviations = []
    for ps in PolicyScheme.all_combinations():
        via_chain = shs.average_aoi(ps, lam=lam, mu=mu, k=k, p=p)
        direct = closedform.avg_aoi(ps, lam=lam, mu=mu, k=k, p=p)
        with np.errstate(invalid="ignore"):  # an infinite closed form gives inf/inf
            deviations.append(np.abs(via_chain - direct) / direct)
    # np.max propagates NaN, so a NaN deviation fails below
    worst = np.max(deviations)
    output.say(f"tuples={count} max_relative_deviation={worst:.3e} threshold=1e-09")
    if not worst < 1e-9:
        output.say("FAIL: chain solver and closed forms disagree")
        return _EXIT_THRESHOLD
    output.say("OK")
    return _EXIT_OK


def _equilibrium_lines(policies: tuple[Policy, ...], params: SystemParams) -> list[str]:
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
    name = _FLAG_OF_FIELD[which]
    values = [float(value) for value in grid]
    for ps, (*_, k, aoi) in zip(combos, meanfield.aoi_along(combos, params, which, values)):
        lines += _rows(f"{ps.policy.value},{ps.scheme.value},{name},%.9g,%.9g,%.9g",
                       values, k, aoi)
    return lines


def _cmd_meanfield(args, output: _Output) -> int:
    params = _mean_field_params(args)
    wants = [args.sweep is not None, args.trajectory, args.monotonicity is not None]
    if sum(wants) > 1 and args.out is None:
        raise UsageError("multiple outputs requested; give --out")

    if args.sweep is not None:
        which, grid = _parse_sweep(args.sweep, meanfield.SWEEPABLE)
        output.add("sweep.csv", _csv(_sweep_lines(_combos(args), params, which, grid)), "value")
    if args.trajectory:
        column = None  # every policy's trajectory has the same sample times
        for pol in args.policy:
            traj = meanfield.integrate(pol, params, args.x0, t_end=args.t_end, dt=args.dt)
            column = column or _rows("%.9g", traj.times)
            output.add(f"trajectory_{pol.value}.csv", _trajectory_csv(column, traj.states), "t")
    if args.monotonicity is not None:
        which, grid = _parse_sweep(args.monotonicity, meanfield.SWEEPABLE)
        combos = _combos(args)
        for ps, report in zip(combos, meanfield.monotonicity_report(combos, params, which, grid)):
            rows = _rows(f"{which},%.9g,%.9g,%d", grid, report.d_aoi, report.aoi_signs())
            output.add(f"monotonicity_{ps.label}_{which}.csv",
                       _csv(["param,value,dAoI,sign", *rows]))
            verdicts = " ".join(f"{k}={v}" for k, v in report.verdicts.items())
            output.say(f"monotonicity {ps.label} d/d{which}: {verdicts}")
    if not any(wants):
        output.add("equilibrium.csv", _csv(_equilibrium_lines(args.policy, params)))
    return _EXIT_OK


def _cmd_simulate(args, output: _Output) -> int:
    _require(args, "lam", "mu", "w", "p", "n", "m")
    if args.m == 0:
        raise UsageError("--m must be positive")
    params = SystemParams(lam=args.lam, mu=args.mu, w=args.w, p=args.p, gamma=args.n / args.m,
                          n_devices=args.n, n_channels=args.m)
    if args.arrivals is None and args.horizon is None:
        raise UsageError("give a stop criterion: --arrivals or --horizon")
    if args.arrivals is not None and args.horizon is not None:
        raise UsageError("give one stop criterion, not both: --arrivals or --horizon")
    seed = _resolve_seed(args)
    combos = _combos(args)
    single = len(combos) == 1
    # p = 0 has no mean-field AoI: find out before any replication runs
    targets = {ps: meanfield.aoi_at_equilibrium(ps, params) for ps in combos if args.compare}

    # one run per policy serves both schemes, and so does its trajectory's text
    for policy in args.policy:
        config = SimConfig(
            params=params, ps=PolicyScheme(policy, args.scheme[0]), seed=seed,
            stop_arrivals=args.arrivals, stop_time=args.horizon,
            warmup_fraction=args.warmup, sample_dt=args.sample_dt,
        )
        run = sim.replicate(config, n_reps=args.reps, parallelism=args.parallelism)
        one = run.results[0]
        traj = None if args.sample_dt is None else _trajectory_csv(
            _rows("%.9g", one.trajectory_times), one.trajectory_fractions)
        for scheme in args.scheme:
            ps = PolicyScheme(policy, scheme)
            pooled = run.as_scheme(scheme)
            tag = "" if single else f"_{ps.label}"
            output.add(f"summary{tag}.csv", _csv(_summary_lines(pooled)))
            output.add(f"aoi{tag}.csv", _csv(_aoi_lines(pooled.results[0].avg_aoi_per_device)))
            if traj is not None:
                output.add(f"traj{tag}.csv", traj, "t")
            if args.compare:
                target = targets[ps]
                rel = (pooled.mean_aoi - target) / target
                output.say(f"{ps.label}: sim={_fmt(pooled.mean_aoi)} "
                           f"meanfield={_fmt(target)} rel_error={rel:+.4%} "
                           f"half_width={_fmt(pooled.half_width)}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Reproduction presets.  A writer takes the parsed flags, the output and its entry's
# params as keywords; a `<param>_grid` is (start, end, count) for np.linspace.

def _write_aoi_vs_p(args, output: _Output, *, lam, mu, k, p_grid) -> int:
    points = [dict(lam=lam, mu=mu, k=k, p=p) for p in np.linspace(*p_grid)]
    return _add_analytic(output, "aoi_vs_p.csv", PolicyScheme.all_combinations(), points, "p")


def _write_sweeps(csv_name: str, args, output: _Output, **params) -> int:
    """Mean-field AoI of the six pairs along each grid, the other params held;
    one CSV per grid, named ``csv_name.format(param)``."""
    fixed = {key: value for key, value in params.items() if not key.endswith("_grid")}
    for key, grid in params.items():
        if key.endswith("_grid"):
            which = key.removesuffix("_grid")
            base = SystemParams(**{**fixed, which: grid[0]})  # _sweep_lines sets each grid value
            output.add(csv_name.format(which), _csv(_sweep_lines(
                list(PolicyScheme.all_combinations()), base, which, np.linspace(*grid))), "value")
    return _EXIT_OK


def _write_accuracy(args, output: _Output, *, populations, t_end, ode_dt, pair, **rates) -> int:
    seed = _resolve_seed(args)
    configs = [SimConfig(params=SystemParams(**rates, n_devices=n,
                                             n_channels=int(round(n / rates["gamma"]))),
                         ps=pair, seed=seed, stop_time=t_end, warmup_fraction=0.0,
                         sample_dt=args.sample_dt)
               for n in populations]  # checks sample_dt before the stride does
    stride = round(args.sample_dt / ode_dt)  # the ODE rows shared with the populations
    if stride < 1 or abs(args.sample_dt / ode_dt - stride) > 1e-9:
        raise UsageError(f"--sample-dt must be a whole multiple of the ODE step {ode_dt}, "
                         f"got {args.sample_dt}")
    traj = meanfield.integrate(pair.policy, SystemParams(**rates), StateFractions(1.0, 0.0, 0.0),
                               t_end=t_end, dt=ode_dt)  # every simulated device starts idle
    output.add("accuracy_ode.csv",
               _trajectory_csv(_rows("%.9g", traj.times[::stride]), traj.states[::stride]), "t")
    for n, config in zip(populations, configs):
        pooled = sim.replicate(config, n_reps=args.reps, parallelism=args.parallelism)
        one = pooled.results[0]
        mean_xi = np.mean([r.trajectory_fractions[:, 0] for r in pooled.results], axis=0)
        output.add(f"accuracy_N{n}.csv", _csv(["t,x_I,mean_x_I"] + _rows(
            "%.9g,%.9g,%.9g", one.trajectory_times, one.trajectory_fractions[:, 0], mean_xi)), "t")
    return _EXIT_OK


def _write_single_device(args, output: _Output, *, lam, mu, w, p, gamma, n, m, pair,
                         warmup) -> int:
    params = SystemParams(lam=lam, mu=mu, w=w, p=p, gamma=gamma, n_devices=n, n_channels=m)
    config = SimConfig(params=params, ps=pair, seed=_resolve_seed(args),
                       stop_arrivals=args.arrivals, warmup_fraction=warmup)
    pooled = sim.replicate(config, n_reps=1)
    # a lone device always finds its channel free, so its waiting rate is w
    expected = closedform.avg_aoi(pair, lam=lam, mu=mu, k=w, p=p)
    rel = (pooled.mean_aoi - expected) / expected
    output.add("single_device.csv", _csv(_summary_lines(pooled)))
    output.say(f"single device: sim={_fmt(pooled.mean_aoi)} "
               f"closed_form={_fmt(expected)} rel_error={rel:+.4%}")
    return _EXIT_OK


@dataclass(frozen=True)
class Preset:
    description: str
    params: dict  # every value the writer reads, the figure captions' where they give one
    flags: dict  # each flag the writer reads besides seed/out/config -> its default
    write: Callable[..., int]

    def run(self, args, output: _Output) -> int:
        return self.write(args, output, **self.params)


PRESETS: dict[str, Preset] = {
    "aoi-vs-p": Preset(
        "average AoI versus p at a fixed stationary distribution",
        {"lam": 0.9, "mu": 1.0, "k": 2.0, "p_grid": (0.3, 1.0, 15)},
        {"gnuplot-script": False}, _write_aoi_vs_p),
    "accuracy": Preset(
        "empirical measure trajectories against the mean-field ODE for growing populations",
        {"lam": 0.8, "mu": 1.0, "w": 2.0, "gamma": 5.0, "p": 0.7, "populations": (10, 100, 1000),
         "t_end": 10.0, "ode_dt": 0.01, "pair": PolicyScheme(Policy.W, Scheme.WP)},
        {"reps": 100, "parallelism": 1, "sample-dt": 0.1, "gnuplot-script": False},
        _write_accuracy),
    "aoi-vs-lambda": Preset(
        "mean-field average AoI versus the arrival rate",
        {"mu": 0.5, "w": 2.0, "gamma": 5.0, "p": 0.7, "lam_grid": (0.1, 2.0, 40)},
        {"gnuplot-script": False}, partial(_write_sweeps, "aoi_vs_lambda.csv")),
    "param-sweeps": Preset(
        "mean-field average AoI versus mu, w, gamma, and p",
        {"lam": 0.8, "mu": 1.5, "w": 2.0, "gamma": 5.0, "p": 0.7, "mu_grid": (0.5, 3.0, 20),
         "w_grid": (0.5, 5.0, 20), "gamma_grid": (1.0, 10.0, 20), "p_grid": (0.3, 1.0, 20)},
        {"gnuplot-script": False}, partial(_write_sweeps, "param_sweep_{}.csv")),
    "single-device": Preset(
        "single device desk check against the closed form",
        {"lam": 1.0, "mu": 1.0, "w": 1.0, "p": 1.0, "n": 1, "m": 1, "gamma": 1.0,
         "pair": PolicyScheme(Policy.I, Scheme.WP), "warmup": 0.1},
        {"arrivals": 200_000}, _write_single_device),
}


def _cmd_presets(args, output: _Output) -> int:
    for name, preset in PRESETS.items():
        output.say(f"{name}: {preset.description}")
        for key, value in preset.params.items():
            if key.endswith("_grid"):
                value = "%g:%g:%d" % value
            output.say(f"    {key} = {getattr(value, 'label', value)}")
        for flag, default in preset.flags.items():
            output.say(f"    --{flag} (default {default})")
    return _EXIT_OK


# subcommand: (help, its flags besides seed/out/config, the handler main calls as run)
_SUBCOMMANDS = {
    "analytic": ("evaluate the closed forms",
                 "policy scheme lambda mu k p sweep gnuplot-script", _cmd_analytic),
    "crossvalidate": ("chain solver vs closed forms on a random grid", "count",
                      _cmd_crossvalidate),
    "meanfield": ("equilibria, trajectories, sweeps, monotonicity",
                  "policy scheme lambda mu w gamma p sweep trajectory t-end dt x0 "
                  "monotonicity gnuplot-script", _cmd_meanfield),
    "simulate": ("event-driven finite-N simulation",
                 "policy scheme lambda mu w p n m arrivals horizon warmup reps parallelism "
                 "sample-dt compare gnuplot-script", _cmd_simulate),
}


def _add_command(sub, command: str, help_text: str, flags: dict,
                 run: Callable[..., int]) -> None:
    """A subcommand taking seed, out, config and flags: name -> default (None: _FLAGS's)."""
    p_cmd = sub.add_parser(command, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_cmd.set_defaults(run=run)
    for name, default in [*flags.items(), ("seed", None), ("out", None), ("config", None)]:
        spec = _FLAGS[name] if default is None else dict(_FLAGS[name], default=default)
        p_cmd.add_argument("--" + name, **spec)


def build_parser() -> _Parser:
    parser = _Parser(prog="aoi-csma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names, run) in _SUBCOMMANDS.items():
        _add_command(sub, command, help_text, dict.fromkeys(names.split()), run)
    presets = sub.add_parser("reproduce", help="figure-data reproduction presets")
    presets = presets.add_subparsers(dest="preset", required=True)
    for name, preset in PRESETS.items():
        _add_command(presets, name, preset.description, preset.flags, preset.run)
    sub.add_parser("presets", help="describe the reproduction presets").set_defaults(
        run=_cmd_presets)
    return parser


def _as_typed(exc: AoiError) -> AoiError:
    """``exc``, naming the flag that sets its field where it names a field."""
    field = getattr(exc, "field", None)
    if field not in _FLAG_OF_FIELD:
        return exc
    return type(exc)(*("--" + _FLAG_OF_FIELD[field] if arg == field else arg
                       for arg in exc.args))


# One tree serves every call of main in a process: parsing leaves it unchanged.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        output = _Output(out_dir=getattr(args, "out", None),
                         gnuplot=bool(getattr(args, "gnuplot_script", False)))
        code = args.run(args, output)
        output.flush()
        return code
    except (UsageError, InvalidParameter, InvalidConfig, GridPointInvalid) as exc:
        print(f"error: {_as_typed(exc)}", file=sys.stderr)
        return _EXIT_USAGE
    except AoiError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
