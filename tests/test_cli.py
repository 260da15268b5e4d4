"""Tests for the command-line front end: exit codes, CSV output, determinism."""

import argparse
import hashlib
import json
import math
import os
import re
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_csma import cli, closedform, shs, sim
from aoi_csma import meanfield as mf
from aoi_csma.cli import (PRESETS, _aoi_lines, _fmt, _rows, _trajectory_csv, build_parser,
                          main)
from aoi_csma.core import Policy, PolicyScheme, Scheme, StateFractions, SystemParams

MF_ARGS = ["--lambda", "0.8", "--mu", "1", "--w", "2", "--gamma", "5", "--p", "0.7"]
ANALYTIC_POINT = ["--lambda", "1", "--mu", "1", "--k", "1", "--p", "1"]
SIM_POINT = ["--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7", "--n", "10", "--m", "2",
             "--arrivals", "100"]
SIM_N20 = ["simulate", "--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7",
           "--n", "20", "--m", "4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytic_single_point(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--policy", "I", "--scheme", "wp",
                           "--lambda", "1", "--mu", "1", "--k", "1", "--p", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "policy,scheme,lambda,mu,k,p,aoi,gap"
    assert lines[1] == "I,WP,1,1,1,1,2.75,0.75"


def test_analytic_p_grid_reproduces_figure_rows(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--policy", "all", "--scheme", "all",
                           "--lambda", "0.9", "--mu", "1", "--k", "2",
                           "--sweep", "p=0.3:1.0:15")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6 * 15


def test_analytic_grid_with_zero_p_flags_partial_failure(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--policy", "I", "--scheme", "wp",
                           "--lambda", "1", "--mu", "1", "--k", "1",
                           "--sweep", "p=0.0:1.0:3")
    assert code == 2
    rows = out.strip().splitlines()
    assert any("DivergentAoi" in row for row in rows)
    assert any(row.endswith("2.75,0.75") for row in rows)


@pytest.mark.parametrize("bad", [["--lambda", "nan"], ["--mu", "inf"], ["--p", "nan"]])
def test_analytic_non_finite_input_flags_every_row(capsys, bad):
    code, out, _ = run_cli(capsys, "analytic", *ANALYTIC_POINT, *bad)  # the last value wins
    assert code == 2
    rows = out.splitlines()[1:7]
    assert len(rows) == 6 and all(row.endswith(",InvalidParameter,InvalidParameter")
                                  for row in rows)
    assert out.endswith("warning: 6 grid point(s) failed\n")


def test_analytic_negative_p_is_invalid_like_p_above_one(capsys):
    for p in ("-0.5", "1.5"):
        code, out, _ = run_cli(capsys, "analytic", *ANALYTIC_POINT, f"--p={p}")
        assert code == 2
        rows = out.splitlines()[1:7]
        assert len(rows) == 6 and all(row.endswith(",InvalidParameter,InvalidParameter")
                                      for row in rows)


def test_analytic_missing_flags_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "analytic", "--policy", "I")
    assert code == 1
    assert "missing required flags: --lambda, --mu, --k, --p" in err
    # every point flag but the swept one is required
    code, out, err = run_cli(capsys, "analytic", "--lambda", "1", "--mu", "1", "--k", "2",
                             "--sweep", "mu=1:2:3")
    assert (code, out, err) == (1, "", "error: missing required flags: --p\n")
    code, out, _ = run_cli(capsys, "analytic", "--mu", "1", "--k", "2", "--p", "1",
                           "--sweep", "lambda=1:2:3")
    assert code == 0 and len(out.splitlines()) == 1 + 6 * 3


def test_lambda_sweep_takes_the_flag_name_and_writes_it(tmp_path, capsys):
    # the sweep key and the param column use the flag name, not the dest "lam"
    for key in ("lambda", "lam"):
        out_dir = tmp_path / key
        code, _, _ = run_cli(capsys, "meanfield", "--policy", "W", "--scheme", "wp",
                             "--lambda", "0.8", "--mu", "1", "--w", "2", "--gamma", "5",
                             "--p", "0.7", "--sweep", f"{key}=0.5:1:2", "--out", str(out_dir))
        assert code == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2:4] for row in rows] == [["lambda", "0.5"], ["lambda", "1"]]


def test_bad_sweep_syntax_is_usage_error(capsys):
    for sweep, message in [
        ("p=1:0:5", "grid must be strictly increasing with count >= 2, got '1:0:5'"),
        ("nope=0:1:5", "cannot sweep 'nope'; choose from lam, mu, k, p"),
        ("p=0:1", "grid must be start:end:count, got '0:1'"),
        ("p=0:1:x", "malformed grid '0:1:x'"),
        ("p", "sweep must be <param>=<start:end:count>, got 'p'"),
        ("p=0.1:1:1000001", "grid must have at most 1000000 points, got '0.1:1:1000001'"),
        ("p=0.1:inf:3", "grid ends must be finite, got '0.1:inf:3'"),
        ("", "sweep must be <param>=<start:end:count>, got ''"),
    ]:
        code, out, err = run_cli(capsys, "analytic", "--lambda", "1", "--mu", "1", "--k", "1",
                                 "--sweep", sweep)
        assert (code, out, err) == (1, "", f"error: {message}\n"), sweep


def test_crossvalidate_passes_and_detects_injected_error(capsys, monkeypatch):
    avg_aoi = closedform.avg_aoi

    def perturb_closed_form(delta):
        monkeypatch.setattr(closedform, "avg_aoi",
                            lambda *args, **kwargs: avg_aoi(*args, **kwargs) + delta)

    code, out, _ = run_cli(capsys, "crossvalidate", "--count", "40", "--seed", "5")
    assert code == 0
    assert "max_relative_deviation" in out and "OK" in out
    perturb_closed_form(1e-6)
    code, out, _ = run_cli(capsys, "crossvalidate", "--count", "5", "--seed", "5")
    assert code == 3
    assert "FAIL" in out
    code, _, _ = run_cli(capsys, "crossvalidate", "--count", "0")
    assert code == 1
    # a NaN or infinite deviation must fail, not be skipped by the maximum
    for bad in (math.nan, math.inf):
        perturb_closed_form(bad)
        code, out, _ = run_cli(capsys, "crossvalidate", "--count", "5", "--seed", "5")
        assert code == 3
        assert "max_relative_deviation=nan" in out and "FAIL" in out


def test_crossvalidate_count_above_the_grid_cap_is_usage_error(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a refused count must not reach the solver")

    monkeypatch.setattr(shs, "average_aoi", no_solve)
    code, _, err = run_cli(capsys, "crossvalidate", "--count", "1000001")
    assert code == 1
    assert "--count must be at most 1000000, got 1000001" in err


@pytest.mark.parametrize("argv, stdout", [
    (("--count", "1000", "--seed", "7"),
     "tuples=1000 max_relative_deviation=1.630e-14 threshold=1e-09\nOK\n"),
    (("--count", "40", "--seed", "5"),
     "tuples=40 max_relative_deviation=3.014e-14 threshold=1e-09\nOK\n"),
])
def test_crossvalidate_stdout_is_pinned(capsys, argv, stdout):
    code, out, _ = run_cli(capsys, "crossvalidate", *argv)
    assert code == 0
    assert out == stdout


def test_meanfield_equilibrium_row(capsys):
    code, out, _ = run_cli(capsys, "meanfield", "--policy", "W", "--lambda", "0.8",
                           "--mu", "1", "--w", "2", "--gamma", "5", "--p", "0.7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("policy,lambda,mu,w,gamma,p,x_I,x_W,x_S,k,delta,residual")
    fields = lines[1].split(",")
    assert fields[0] == "W"
    assert float(fields[8]) == pytest.approx(0.174143, abs=1e-5)
    assert float(fields[9]) == pytest.approx(0.258570, abs=1e-5)


def test_meanfield_sweep_and_monotonicity(tmp_path, capsys):
    out_dir = tmp_path / "mf"
    code, out, _ = run_cli(capsys, "meanfield", "--lambda", "0.8", "--mu", "1.5",
                           "--w", "2", "--gamma", "5", "--p", "0.7",
                           "--sweep", "mu=0.5:3:5",
                           "--monotonicity", "w=1:3:4",
                           "--out", str(out_dir))
    assert code == 0
    sweep = (out_dir / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "policy,scheme,param,value,k,aoi"
    assert len(sweep) == 1 + 6 * 5
    mono = (out_dir / "monotonicity_I-WP_w.csv").read_text().splitlines()
    assert mono[0] == "param,value,dAoI,sign"
    assert "monotonicity I-WP d/dw" in out


def test_meanfield_sweep_through_p_zero_is_numerical_failure(capsys):
    code, _, err = run_cli(capsys, "meanfield", "--policy", "I", "--lambda", "0.8",
                           "--mu", "1", "--w", "2", "--gamma", "5", "--p", "0.7",
                           "--sweep", "p=0.0:1.0:3")
    assert (code, err) == (2, "numerical failure: p = 0.0: no packet is ever delivered\n")


@pytest.mark.parametrize("extra, code, message", [
    (["--policy", "W", "--sweep", "p=0.0:1.0:3"], 1,
     "error: invalid parameter '--p': must be positive under policy (W)"),
    (["--monotonicity", "p=0.5:1:3"], 1, "error: p = 1.0 + step exceeds 1"),
])
def test_failing_grid_reports_its_first_failing_point(capsys, extra, code, message):
    # a whole grid is evaluated at once, but fails as the first failing point does alone
    assert run_cli(capsys, "meanfield", *MF_ARGS, *extra) == (code, "", message + "\n")


def test_a_grid_is_checked_whole_before_any_point_is_evaluated(capsys):
    # p = 1.5 is refused as a parameter before p = 0 reaches policy (W)'s radical
    assert run_cli(capsys, "meanfield", "--policy", "W", "--sweep", "p=0:1.5:4", *MF_ARGS) == (
        1, "", "error: invalid parameter '--p': must lie in [0, 1], got 1.5\n")


@pytest.mark.parametrize("extreme", ["1e-200", "1e200"])
def test_analytic_rates_at_the_float_extremes_fail_row_by_row(capsys, extreme):
    # the products of the rates underflow to 0 or overflow to inf; no row is
    # nan and nothing but the rows' own failures is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analytic", "--lambda", extreme, "--mu", extreme,
                                 "--k", extreme, "--p", "0.5")
    rows = out.splitlines()[1:]
    assert (code, err, len(rows)) == (2, "", 7)
    assert all(row.endswith(",DivergentAoi") for row in rows[:6]), rows
    assert rows[6].startswith("warning: ")


@pytest.mark.parametrize("argv", [
    ["meanfield", "--sweep", "lam=1e-310:2e-310:3", *MF_ARGS],
    ["meanfield", *MF_ARGS, "--lambda", "1e-310"],
    [*SIM_N20, "--lambda", "1e-310", "--arrivals", "10", "--compare"],
])
def test_equilibrium_that_is_not_finite_is_numerical_failure(capsys, monkeypatch, argv):
    # at lam = 1e-310 the ratio x_I = mu * x_S / lam overflows; simulate finds
    # out before any replication runs
    def no_replication(*args, **kwargs):
        raise AssertionError("sim.replicate called")

    monkeypatch.setattr(sim, "replicate", no_replication)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, *argv) == (2, "", "numerical failure: x* or k* is not finite at "
                                          "lam=1e-310, mu=1.0, w=2.0, gamma=5.0, p=0.7\n")


@pytest.mark.parametrize("flag, value, message", [
    # b * b overflows, so the discriminant and both roots are nan
    ("--lambda", "1e200", "x* or k* is not finite at "
                          "lam=1e+200, mu=1.0, w=2.0, gamma=5.0, p=0.7"),
    # lam * mu_term / w is lost to underflow or rounding: the smaller root is 1
    ("--mu", "1e-310", "no equilibrium root with busy probability in (0, 1) at "
                       "lam=0.8, mu=1e-310, w=2.0, gamma=5.0, p=0.7"),
    ("--w", "1e300", "no equilibrium root with busy probability in (0, 1) at "
                     "lam=0.8, mu=1.0, w=1e+300, gamma=5.0, p=0.7"),
    ("--p", "1e-310", "no equilibrium root with busy probability in (0, 1) at "
                      "lam=0.8, mu=1.0, w=2.0, gamma=5.0, p=1e-310"),
])
def test_equilibrium_without_a_root_names_its_point(capsys, flag, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "meanfield", *MF_ARGS, flag, value) == (
            2, "", f"numerical failure: {message}\n")


def test_monotonicity_difference_that_is_not_finite_is_numerical_failure(tmp_path, capsys):
    # steps near 1e-304 divide AoI differences near 1e296: the quotients overflow
    out = tmp_path / "mono"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "meanfield", "--monotonicity", "lam=1e-300:1e-299:3", *MF_ARGS,
                       "--out", str(out)) == (
            2, "", "numerical failure: a finite difference is not finite at lam=1e-300\n")
    assert not out.exists()


def test_meanfield_trajectory_leaving_the_channel_bound_is_numerical_failure(capsys):
    code, _, err = run_cli(capsys, "meanfield", "--policy", "W", *MF_ARGS,
                           "--trajectory", "--x0", "0,0,1")
    assert (code, err) == (2, "numerical failure: gamma * x_s = 5.0 > 1 during integration\n")


@pytest.mark.parametrize("extra, message", [
    (["--trajectory", "--x0", "0.5,0.5"],
     "argument --x0: must be i,w,s fractions, got '0.5,0.5'"),
    (["--sweep", "p=0.3:1:3", "--trajectory"], "multiple outputs requested; give --out"),
    (["--sweep", ""], "sweep must be <param>=<start:end:count>, got ''"),
    (["--monotonicity", ""], "sweep must be <param>=<start:end:count>, got ''"),
])
def test_meanfield_usage_errors(capsys, extra, message):
    code, out, err = run_cli(capsys, "meanfield", *MF_ARGS, *extra)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_meanfield_trajectory(tmp_path, capsys):
    out_dir = tmp_path / "traj"
    code, _, _ = run_cli(capsys, "meanfield", "--policy", "W", "--lambda", "0.8",
                         "--mu", "1", "--w", "2", "--gamma", "5", "--p", "0.7",
                         "--trajectory", "--t-end", "1.0", "--dt", "0.01",
                         "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "trajectory_W.csv").read_text().splitlines()
    assert lines[0] == "t,x_I,x_W,x_S"
    assert lines[1].startswith("0,1,0,0")


def test_simulate_writes_csvs_and_is_byte_deterministic(tmp_path, capsys):
    args = ["simulate", "--policy", "W", "--scheme", "wp", "--lambda", "0.8",
            "--mu", "1", "--w", "2", "--p", "0.7", "--n", "20", "--m", "4",
            "--arrivals", "1000", "--seed", "9", "--reps", "2", "--sample-dt", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
    for name in ("summary.csv", "aoi.csv", "traj.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = (out_a / "summary.csv").read_text().splitlines()
    assert summary[0] == "mean,stderr,arrivals,delivered,failed,preempted,discarded,k_estimate"


def test_simulate_error_in_worker_prints_as_in_process(capsys):
    # one arrival leaves no time after warm-up, which only sim.run can find
    argv = ["simulate", "--policy", "W", "--scheme", "wp", "--lambda", "0.8", "--mu", "1",
            "--w", "2", "--p", "0.7", "--n", "10", "--m", "2", "--arrivals", "1",
            "--reps", "2"]
    code_1, _, err_1 = run_cli(capsys, *argv, "--parallelism", "1")
    code_2, _, err_2 = run_cli(capsys, *argv, "--parallelism", "2")
    assert code_1 == code_2 == 1
    assert err_1 == err_2 == "error: horizon too short: no time left after warm-up\n"


def test_simulate_bad_input_is_refused_before_any_replication(capsys, monkeypatch):
    def no_replication(*args, **kwargs):
        raise AssertionError("sim.replicate called")

    monkeypatch.setattr(sim, "replicate", no_replication)
    for argv, code, message in [
        (["--n", "0", "--m", "4", "--arrivals", "10"], 1,
         "error: invalid parameter '--n': must be a positive integer, got 0\n"),
        (["--n", "20", "--m", "4", "--arrivals", "10", "--seed", "18446744073709551617"], 1,
         "error: --seed must lie in [0, 2**64), got 18446744073709551617\n"),
        # p = 0 has no mean-field AoI to compare with
        (["--n", "20", "--m", "4", "--arrivals", "10", "--p", "0", "--policy", "w", "--compare"],
         1, "error: invalid parameter '--p': must be positive under policy (W)\n"),
        (["--n", "20", "--m", "4", "--arrivals", "10", "--p", "0", "--policy", "i", "--compare"],
         2, "numerical failure: p = 0.0: no packet is ever delivered\n"),
    ]:
        got = run_cli(capsys, "simulate", "--lambda", "0.8", "--mu", "1", "--w", "2",
                      "--p", "0.7", *argv)
        assert got == (code, "", message), argv


def test_simulate_all_pairs_match_the_single_pair_commands(tmp_path, capsys, monkeypatch):
    """--scheme all runs once per policy, and writes and prints what six single runs do."""
    argv = [*SIM_N20, "--arrivals", "600", "--reps", "2", "--sample-dt", "5", "--seed", "17",
            "--compare"]
    calls = []
    replicate = sim.replicate

    def counted(*args, **kwargs):
        calls.append(args[0].ps)
        return replicate(*args, **kwargs)

    monkeypatch.setattr(sim, "replicate", counted)
    code, together, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "all"))
    assert code == 0
    assert [ps.policy for ps in calls] == list(Policy)
    calls.clear()
    apart = []
    for ps in PolicyScheme.all_combinations():
        one = tmp_path / ps.label
        code, out, _ = run_cli(capsys, *argv, "--policy", ps.policy.value,
                               "--scheme", ps.scheme.value, "--out", str(one))
        assert code == 0
        apart.append(out)
        for name in ("summary", "aoi", "traj"):
            assert (tmp_path / "all" / f"{name}_{ps.label}.csv").read_bytes() == \
                (one / f"{name}.csv").read_bytes(), (ps.label, name)
    assert len(calls) == 6
    assert together == "".join(apart)


def test_simulate_formats_each_policys_trajectory_once(tmp_path, capsys, monkeypatch):
    # both schemes of a policy read one simulated run, so they share its text
    calls = []
    trajectory_csv = cli._trajectory_csv

    def counted(*args):
        calls.append(args)
        return trajectory_csv(*args)

    monkeypatch.setattr(cli, "_trajectory_csv", counted)
    argv = [*SIM_N20, "--arrivals", "200", "--sample-dt", "5", "--out", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == 3
    for pol in Policy:
        assert ((tmp_path / f"traj_{pol.value}-WP.csv").read_bytes()
                == (tmp_path / f"traj_{pol.value}-WOP.csv").read_bytes())


def test_simulate_missing_channels_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--policy", "W", "--scheme", "wp",
                           "--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7",
                           "--n", "20", "--arrivals", "1000")
    assert code == 1
    assert "--m" in err
    code, out, err = run_cli(capsys, *SIM_N20, "--m", "0", "--arrivals", "1000")
    assert (code, out, err) == (1, "", "error: --m must be positive\n")


@pytest.mark.parametrize("stop, message", [
    (["--horizon", "inf"], "error: --horizon must be positive and finite, got inf\n"),
    (["--arrivals", "1"], "error: horizon too short: no time left after warm-up\n"),
    (["--arrivals", "100", "--sample-dt", "inf"],
     "error: --sample-dt must be positive and finite, got inf\n"),
    # too many samples: refused before the first one, for either kind of horizon
    (["--horizon", "1", "--sample-dt", "1e-17"],
     "error: --sample-dt asks for more than 10000000 samples over the horizon, got 1e-17\n"),
    (["--horizon", "1000", "--sample-dt", "1e-5"],
     "error: --sample-dt asks for more than 10000000 samples over the horizon, got 1e-05\n"),
    (["--arrivals", "100", "--sample-dt", "1e-300"],
     "error: --sample-dt asks for more than 10000000 samples over the horizon, got 1e-300\n"),
    ([], "error: give a stop criterion: --arrivals or --horizon\n"),
    # each error names the flag the user typed, not the model's field
    (["--arrivals", "100", "--horizon", "5"],
     "error: give one stop criterion, not both: --arrivals or --horizon\n"),
    (["--arrivals", "0"], "error: --arrivals must be an integer >= 1, got 0\n"),
    (["--arrivals", "100", "--warmup", "0.7"], "error: --warmup must lie in [0, 0.5], got 0.7\n"),
    (["--arrivals", "100", "--lambda", "-1"],
     "error: invalid parameter '--lambda': must be a positive finite number, got -1.0\n"),
    (["--arrivals", "100", "--n", "0"],
     "error: invalid parameter '--n': must be a positive integer, got 0\n"),
    (["--arrivals", "100", "--reps", "0"], "error: --reps must be >= 1, got 0\n"),
])
def test_simulate_unusable_horizon_is_usage_error(capsys, stop, message):
    code, out, err = run_cli(capsys, "simulate", "--lambda", "0.8", "--mu", "1", "--w", "2",
                             "--p", "0.7", "--n", "4", "--m", "2", *stop)
    assert code == 1 and out == ""
    assert err == message


@pytest.mark.parametrize("argv", [
    ["meanfield", *MF_ARGS, "--trajectory", "--t-end", "inf"],
    ["meanfield", *MF_ARGS, "--trajectory", "--t-end", "nan"],
    ["meanfield", *MF_ARGS, "--trajectory", "--dt", "nan"],
    ["reproduce", "accuracy", "--sample-dt", "inf"],
    ["reproduce", "accuracy", "--sample-dt", "nan"],
])
def test_non_finite_time_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "must be positive and finite" in err


def test_trajectory_step_count_is_bounded(capsys):
    """A horizon of too many steps is refused before the step list is built."""
    code, out, err = run_cli(capsys, "meanfield", *MF_ARGS, "--trajectory", "--t-end", "1e300")
    assert code == 1 and out == ""
    assert err.startswith("error: invalid parameter '--t-end': ")


def test_out_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code, out, err = run_cli(capsys, "analytic", *ANALYTIC_POINT, "--out", str(afile))
    assert (code, out) == (1, "")
    assert err == f"error: --out must name a directory, got the file {afile}\n"
    # refused before any work
    monkeypatch.setattr(closedform, "avg_aoi", None)
    assert run_cli(capsys, "analytic", *ANALYTIC_POINT, "--out", str(afile))[0] == 1
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "analytic", *ANALYTIC_POINT, "--out", str(afile / "sub"))
    assert (code, out, err) == (1, "", f"error: cannot write {afile / 'sub'}: Not a directory\n")
    assert afile.read_text() == "kept\n"


def test_out_directory_is_created_only_when_a_file_is_written(tmp_path, capsys):
    out_dir = tmp_path / "cv"
    code, out, _ = run_cli(capsys, "crossvalidate", "--count", "3", "--out", str(out_dir))
    assert code == 0 and out.endswith("OK\n")
    assert not out_dir.exists()
    assert run_cli(capsys, "analytic", *ANALYTIC_POINT, "--out", str(out_dir))[0] == 0
    assert os.listdir(out_dir) == ["analytic.csv"]


def test_seed_falls_back_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("AOI_DENSE_SEED", "77")
    code, out_env, _ = run_cli(capsys, "crossvalidate", "--count", "3")
    assert code == 0
    monkeypatch.delenv("AOI_DENSE_SEED")
    code, out_flag, _ = run_cli(capsys, "crossvalidate", "--count", "3", "--seed", "77")
    assert out_env == out_flag
    monkeypatch.setenv("AOI_DENSE_SEED", "not-a-number")
    assert run_cli(capsys, "crossvalidate", "--count", "3")[0] == 1


def test_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": -2}))
    for argv in (["crossvalidate", "--count", "3", "--seed", "-1"],
                 ["crossvalidate", "--count", "3", "--config", str(config)],
                 [*SIM_N20, "--arrivals", "10", "--seed", "-1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: --seed must be a non-negative integer, got -")
    monkeypatch.setenv("AOI_DENSE_SEED", "-3")
    code, _, err = run_cli(capsys, "crossvalidate", "--count", "3")
    assert (code, err) == (1, "error: $AOI_DENSE_SEED must be a non-negative integer, got -3\n")


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"lambda": 1.0, "mu": 1.0, "k": 1.0, "p": 1.0,
                                  "policy": "I", "scheme": "wp"}))
    code, out, _ = run_cli(capsys, "analytic", "--config", str(config))
    assert code == 0
    assert out.strip().splitlines()[1] == "I,WP,1,1,1,1,2.75,0.75"
    # a flag beats the file value
    code, out, _ = run_cli(capsys, "analytic", "--config", str(config), "--p", "0.5")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[5] == "0.5"
    config.write_text(json.dumps({"bogus": 1}))
    assert run_cli(capsys, "analytic", "--config", str(config))[0] == 1
    # a file that cannot be read or parsed
    config.write_text("{")
    for path in (config, tmp_path / "missing.json"):
        code, out, err = run_cli(capsys, "analytic", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read config file {path}: ")


def test_parse_policy_and_scheme(tmp_path, capsys):
    """--policy and --scheme take a name in any case or all, in a flag or a config file."""
    for flag, text in (("--policy", "X"), ("--scheme", "np")):
        code, out, err = run_cli(capsys, "analytic", *ANALYTIC_POINT, flag, text)
        assert code == 1 and out == ""
        assert err.startswith(f"error: argument {flag}: ")
    code, out, _ = run_cli(capsys, "analytic", *ANALYTIC_POINT, "--policy", "s", "--scheme", "WOP")
    assert code == 0
    assert [row.split(",")[:2] for row in out.splitlines()[1:]] == [["S", "WOP"]]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"policy": "w"}))
    code, out, _ = run_cli(capsys, "analytic", *ANALYTIC_POINT, "--config", str(config))
    assert code == 0
    assert [row.split(",")[:2] for row in out.splitlines()[1:]] == [["W", "WP"], ["W", "WOP"]]


@pytest.mark.parametrize("command, doc, message", [
    (["crossvalidate"], {"count": "x"}, "argument --count: invalid int value: 'x'"),
    (["crossvalidate"], {"count": 2.5}, "argument --count: invalid int value: '2.5'"),
    # an internal dest and a positional are not flags
    (["analytic", *ANALYTIC_POINT], {"lam": 1}, "config file key 'lam' does not match any flag"),
    (["analytic", *ANALYTIC_POINT], {"command": "simulate"},
     "config file key 'command' does not match any flag"),
    (["reproduce", "aoi-vs-p"], {"preset": "accuracy"},
     "config file key 'preset' does not match any flag"),
    (["analytic", *ANALYTIC_POINT], {"gnuplot-script": "yes"},
     "config file key 'gnuplot-script' takes true or false"),
    (["analytic", *ANALYTIC_POINT], {"lambda": True},
     "config file key 'lambda' takes a string or a number"),
    (["analytic", *ANALYTIC_POINT], {"out": None}, "config file key 'out' takes a string or a number"),
    (["crossvalidate"], [1, 2], "config file must hold a JSON object of flag values"),
    # a file value is checked even where a flag overrides it
    (["crossvalidate", "--count", "5"], {"count": "x"}, "argument --count: invalid int value: 'x'"),
])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, command, doc, message):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *command, "--config", str(config))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_config_values_are_converted_like_flag_text(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"count": "5", "seed": "3"}))
    from_file = run_cli(capsys, "crossvalidate", "--config", str(config))
    assert from_file == run_cli(capsys, "crossvalidate", "--count", "5", "--seed", "3")
    assert from_file[0] == 0 and from_file[1].startswith("tuples=5 ")


def test_config_values_do_not_carry_into_the_next_command(tmp_path, capsys):
    # main parses every command line of a process with one parser
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"count": 5, "seed": 3}))
    assert run_cli(capsys, "crossvalidate", "--config", str(config))[1].startswith("tuples=5 ")
    code, out, _ = run_cli(capsys, "crossvalidate", "--seed", "3")
    assert code == 0 and out.startswith("tuples=1000 ")
    config.write_text(json.dumps({"lambda": 1, "mu": 1, "k": 1, "p": 1}))
    assert run_cli(capsys, "analytic", "--config", str(config))[0] == 0
    assert run_cli(capsys, "analytic") == (
        1, "", "error: missing required flags: --lambda, --mu, --k, --p\n")


# A valid flag text for every long flag: by flag, else by argument type.
_FLAG_TEXT = {"--policy": "S", "--scheme": "wop", "--sweep": "p=0.3:1:8",
              "--monotonicity": "w=1:3:4", "--x0": "0.5,0.25,0.25", "--out": "results"}
_TYPE_TEXT = {float: "0.25", int: "3"}


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _command_parsers():
    """(argv, parser) of every subcommand, with each reproduce preset as its own."""
    for command, sub in _subparsers(build_parser()).items():
        if command == "reproduce":
            for preset, preset_parser in _subparsers(sub).items():
                yield [command, preset], preset_parser
        else:
            yield [command], sub


def test_every_long_flag_is_a_config_key(tmp_path):
    """The config file {K: V} parses to the same Namespace as the flag --K V."""
    config = tmp_path / "run.json"
    checked = 0
    for argv, sub in _command_parsers():
        command = " ".join(argv)
        defaults = build_parser().parse_args(argv)
        for action in sub._actions:
            flags = [s for s in action.option_strings if s.startswith("--")]
            if not flags or action.dest in ("help", "config"):
                continue
            flag = flags[0]
            if action.nargs == 0:  # a switch: true in the file, bare on the command line
                value, flag_argv = True, [flag]
            else:
                text = _FLAG_TEXT.get(flag) or _TYPE_TEXT[action.type]
                value = json.loads(text) if action.type in (int, float) else text
                flag_argv = [flag, text]
            config.write_text(json.dumps({flag[2:]: value}))
            from_file = build_parser().parse_args([*argv, "--config", str(config)])
            from_flag = build_parser().parse_args([*argv, *flag_argv, "--config", str(config)])
            assert from_file == from_flag, (command, flag)
            assert getattr(from_file, action.dest) != getattr(defaults, action.dest)
            checked += 1
    assert checked == 65


@pytest.mark.parametrize("argv", [
    ["reproduce", "aoi-vs-p", "--lambda", "5"],
    ["simulate", *SIM_POINT, "--sweep", "p=0.1:1:3"],
    ["simulate", *SIM_POINT, "--gamma", "5"],
    ["crossvalidate", "--policy", "S"],
    ["presets", "--out", "listing"],
    # a prefix of a flag name is not that flag
    ["analytic", "--lam", "1", "--mu", "1", "--k", "1", "--p", "1", "--pol", "I", "--sch", "wp"],
    # a preset takes only the flags its writer reads
    ["reproduce", "aoi-vs-p", "--reps", "5"],
    ["reproduce", "single-device", "--parallelism", "2"],
    ["reproduce", "param-sweeps", "--arrivals", "1"],
])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def test_benchmark_command_lines_parse():
    """Every argv the benchmark runs, with its --seed and --out, is accepted."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))
    parsed = [build_parser().parse_args(argv)
              for name in workloads["WORKLOADS"]
              for argv in workloads["invocations"](name, 1, "out")]
    assert parsed and all(args.seed == 1 and args.out == "out" for args in parsed)


def test_gnuplot_script_emitted(tmp_path, capsys):
    out_dir = tmp_path / "plots"
    code, _, _ = run_cli(capsys, "reproduce", "aoi-vs-p", "--out", str(out_dir),
                         "--gnuplot-script")
    assert code == 0
    script = (out_dir / "plot.gp").read_text()
    assert "aoi_vs_p.csv" in script
    assert script.count("'aoi_vs_p.csv' using 6:") == 6  # against p
    # a swept analytic table is plotted against the swept column, lambda here
    out_dir = tmp_path / "lam"
    code, _, _ = run_cli(capsys, "analytic", "--lambda", "1", "--mu", "1", "--k", "2",
                         "--p", "0.7", "--sweep", "lam=0.2:2:4", "--out", str(out_dir),
                         "--gnuplot-script")
    assert code == 0
    assert (out_dir / "plot.gp").read_text().count("'analytic.csv' using 3:") == 6
    # a summary and per-device AoI have nothing to plot, so no script is written
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(capsys, "simulate", "--policy", "W", "--scheme", "wp", *SIM_POINT,
                         "--out", str(out_dir), "--gnuplot-script")
    assert code == 0
    assert sorted(os.listdir(out_dir)) == ["aoi.csv", "summary.csv"]
    # without --out there is nowhere to write the script
    for argv in (["analytic", *ANALYTIC_POINT], ["reproduce", "aoi-vs-p"]):
        code, out, err = run_cli(capsys, *argv, "--gnuplot-script")
        assert (code, out, err) == (1, "", "error: --gnuplot-script needs --out\n")


def test_preset_parameters_match_the_figure_captions():
    assert PRESETS["aoi-vs-p"].params == {
        "lam": 0.9, "mu": 1.0, "k": 2.0, "p_grid": (0.3, 1.0, 15)}
    assert PRESETS["accuracy"].params == {
        "lam": 0.8, "mu": 1.0, "w": 2.0, "gamma": 5.0, "p": 0.7,
        "populations": (10, 100, 1000), "t_end": 10.0, "ode_dt": 0.01,
        "pair": PolicyScheme(Policy.W, Scheme.WP)}
    assert PRESETS["aoi-vs-lambda"].params == {
        "mu": 0.5, "w": 2.0, "gamma": 5.0, "p": 0.7, "lam_grid": (0.1, 2.0, 40)}
    assert PRESETS["param-sweeps"].params == {
        "lam": 0.8, "mu": 1.5, "w": 2.0, "gamma": 5.0, "p": 0.7,
        "mu_grid": (0.5, 3.0, 20), "w_grid": (0.5, 5.0, 20),
        "gamma_grid": (1.0, 10.0, 20), "p_grid": (0.3, 1.0, 20)}
    assert PRESETS["single-device"].params == {
        "lam": 1.0, "mu": 1.0, "w": 1.0, "p": 1.0, "n": 1, "m": 1, "gamma": 1.0,
        "pair": PolicyScheme(Policy.I, Scheme.WP), "warmup": 0.1}
    assert {name: preset.flags for name, preset in PRESETS.items()} == {
        "aoi-vs-p": {"gnuplot-script": False},
        "accuracy": {"reps": 100, "parallelism": 1, "sample-dt": 0.1, "gnuplot-script": False},
        "aoi-vs-lambda": {"gnuplot-script": False},
        "param-sweeps": {"gnuplot-script": False},
        "single-device": {"arrivals": 200_000},
    }


def test_reproduce_reads_its_grid_from_the_preset(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(PRESETS["aoi-vs-lambda"].params, "lam_grid", (0.1, 2.0, 3))
    out_dir = tmp_path / "lam"
    assert run_cli(capsys, "reproduce", "aoi-vs-lambda", "--out", str(out_dir))[0] == 0
    lines = (out_dir / "aoi_vs_lambda.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 3
    assert [row.split(",")[3] for row in lines[1:4]] == ["0.1", "1.05", "2"]


def test_reproduce_single_device_prints_relative_error(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "single-device",
                           "--arrivals", "20000", "--seed", "4")
    assert code == 0
    assert "closed_form=2.75" in out
    assert "rel_error=" in out


def test_reproduce_accuracy_small_scale(tmp_path, capsys):
    out_dir = tmp_path / "acc"
    code, _, _ = run_cli(capsys, "reproduce", "accuracy", "--reps", "3",
                         "--seed", "2", "--out", str(out_dir))
    assert code == 0
    ode = (out_dir / "accuracy_ode.csv").read_text().splitlines()
    for n in (10, 100, 1000):
        lines = (out_dir / f"accuracy_N{n}.csv").read_text().splitlines()
        assert lines[0] == "t,x_I,mean_x_I"
        # the populations are sampled at the ODE's rows
        assert [row.split(",")[0] for row in lines] == ["t"] + [row.split(",")[0]
                                                                for row in ode[1:]]
    # a sampling interval off the ODE step's grid would misalign the two
    for sample_dt in ("0.015", "0.001"):
        code, out, err = run_cli(capsys, "reproduce", "accuracy", "--reps", "1",
                                 "--sample-dt", sample_dt, "--out", str(tmp_path / sample_dt))
        assert code == 1 and out == ""
        assert err == ("error: --sample-dt must be a whole multiple of the ODE step 0.01, "
                       f"got {sample_dt}\n")
        assert not (tmp_path / sample_dt).exists()
    code, _, err = run_cli(capsys, "reproduce", "accuracy", "--reps", "2", "--parallelism", "0",
                           "--out", str(tmp_path / "zero"))
    assert code == 1
    assert "parallelism must be >= 1" in err


def test_reproduce_param_sweeps(tmp_path, capsys):
    out_dir = tmp_path / "sweeps"
    code, _, _ = run_cli(capsys, "reproduce", "param-sweeps", "--out", str(out_dir))
    assert code == 0
    for which in ("mu", "w", "gamma", "p"):
        lines = (out_dir / f"param_sweep_{which}.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 20


def test_sweeps_build_each_grid_point_once(tmp_path, capsys, monkeypatch):
    calls = {"with_param": 0, "_radical": 0}
    for name in calls:
        def counted(*args, _fn=getattr(mf, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mf, name, counted)
    assert run_cli(capsys, "reproduce", "param-sweeps", "--out", str(tmp_path))[0] == 0
    # 4 grids of 20 points: each point built once for all six pairs, and
    # each grid solved once per policy
    assert calls == {"with_param": 4 * 20, "_radical": 4 * 3}


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    for name in PRESETS:
        assert name in out
    # every value a preset reads, grids as start:end:count, and its flags
    for line in ("    lam_grid = 0.1:2:40", "    gamma_grid = 1:10:20", "    ode_dt = 0.01",
                 "    pair = W-WP", "    pair = I-WP", "    --sample-dt (default 0.1)",
                 "    warmup = 0.1", "    --arrivals (default 200000)"):
        assert line + "\n" in out


def test_simulate_csv_serialization(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(capsys, "simulate", "--policy", "W", "--scheme", "wp",
                         "--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7",
                         "--n", "5", "--m", "1", "--arrivals", "500", "--seed", "1",
                         "--sample-dt", "1", "--out", str(out_dir))
    assert code == 0
    aoi_lines = (out_dir / "aoi.csv").read_text().splitlines()
    assert aoi_lines[0] == "device_id,avg_aoi"
    assert len(aoi_lines) == 6
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "mean,stderr,arrivals,delivered,failed,preempted,discarded,k_estimate"
    assert len(summary) == 2
    traj = (out_dir / "traj.csv").read_text().splitlines()
    assert traj[0] == "t,x_I,x_W,x_S"


def test_csv_rows_format_each_field_like_fmt():
    # Rows are built from Python floats with one "%" per row; each field is
    # the text _fmt gives the value, numpy scalars and edge values included.
    values = [-0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324, 0.1, 1 / 3, 123456789.5,
              np.float64(2.5e-7), np.float32(0.1), np.int64(3)]
    states = [[values[i - 1], values[i - 2], values[i - 3]] for i in range(len(values))]
    lines = _trajectory_csv(_rows("%.9g", values), states).split("\n")
    assert lines[0] == "t,x_I,x_W,x_S" and lines.pop() == ""
    assert lines[1:] == [",".join(_fmt(v) for v in (t, *row)) for t, row in zip(values, states)]
    avgs = np.array(values, dtype=float)
    assert _aoi_lines(avgs) == ["device_id,avg_aoi"] + [f"{d},{_fmt(v)}"
                                                        for d, v in enumerate(avgs)]


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, math.inf, -math.inf, math.nan,
                1e308, -1e308, 1.7976931348623157e308]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)), min_size=1, max_size=40),
       st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40),
       st.lists(st.text(st.characters(blacklist_characters="\n")), min_size=1, max_size=40),
       st.integers(1000, 2100))
def test_rows_formats_each_field_like_fmt(floats, ints, texts, n):
    # every value repeated cyclically to n rows, so one or two 1024-row
    # block boundaries are crossed
    xs = np.resize(np.array(floats + _EDGE_FLOATS, dtype=float), n)
    assert _rows("%.9g", xs) == [_fmt(x) for x in xs]
    assert _rows("%.9g", xs.tolist()) == [_fmt(x) for x in xs]
    ks = np.resize(np.array(ints, dtype=np.int64), n)
    assert _rows("%d", ks) == [str(k) for k in ks.tolist()]
    labels = [texts[i % len(texts)] for i in range(n)]
    assert _rows("%s,%.9g,%d", labels, xs, ks) == [
        f"{s},{_fmt(x)},{k}" for s, x, k in zip(labels, xs, ks.tolist())]


def test_csv_rows_reuse_a_repeated_state_only_when_its_bits_repeat():
    # A state equal to the row before reuses that row's text, but only when
    # equal means the same bits: 0.0 == -0.0 prints differently, and NaN
    # never equals itself.
    nan = math.nan
    states = [[0.25, 0.5, 0.25], [0.25, 0.5, 0.25], [0.25, 0.5, 0.25],
              [0.5, 0.5, 0.0], [0.5, 0.5, -0.0], [0.5, 0.5, 0.0],
              [-0.0, 0.5, 0.5], [0.0, 0.5, 0.5],
              [nan, 0.5, 0.5], [nan, 0.5, 0.5], [0.5, nan, nan], [0.5, nan, nan],
              [0.1, 0.2, 0.7], [0.1, 0.2, 0.7]]
    times = [0.01 * i for i in range(len(states))]
    lines = _trajectory_csv(_rows("%.9g", times), states).splitlines()
    assert lines[1:] == [",".join(_fmt(v) for v in (t, *row)) for t, row in zip(times, states)]
    assert lines[4].endswith(",0") and lines[5].endswith(",-0")
    # runs long enough to be formatted as times after a fixed state text,
    # one of them across a 1024-row stretch boundary
    states = [row for row in states for _ in range(20)] + [[0.3, 0.3, 0.4]] * 1100
    times = [0.01 * i for i in range(len(states))]
    text = _trajectory_csv(_rows("%.9g", times), states)
    assert text.split("\n")[1:] == [",".join(_fmt(v) for v in (t, *row))
                                    for t, row in zip(times, states)] + [""]
    # one row; every row repeating the first, so the settled tail starts at
    # row 1; and a constant state with a zero component, which never settles
    for states in ([[0.2, 0.3, 0.5]], [[0.2, 0.3, 0.5]] * 30, [[0.5, 0.5, 0.0]] * 30):
        times = [0.01 * i for i in range(len(states))]
        text = _trajectory_csv(_rows("%.9g", times), states)
        assert text.split("\n") == ["t,x_I,x_W,x_S"] + [
            ",".join(_fmt(v) for v in (t, *row)) for t, row in zip(times, states)] + [""]


def test_meanfield_csv_serialization_formats(tmp_path, capsys):
    out_dir = tmp_path / "mf"
    code, _, _ = run_cli(capsys, "meanfield", "--policy", "W", *MF_ARGS, "--trajectory",
                         "--t-end", "0.05", "--dt", "0.01", "--out", str(out_dir))
    assert code == 0
    traj = mf.integrate(Policy.W, SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0),
                        StateFractions(1.0, 0.0, 0.0), t_end=0.05, dt=0.01)
    lines = (out_dir / "trajectory_W.csv").read_text().splitlines()
    assert lines[0] == "t,x_I,x_W,x_S"
    assert len(lines) == 2 + len(traj.times) - 1
    code, _, _ = run_cli(capsys, "meanfield", "--policy", "I", "--scheme", "wp", *MF_ARGS,
                         "--monotonicity", "w=1:3:4", "--out", str(out_dir))
    assert code == 0
    rlines = (out_dir / "monotonicity_I-WP_w.csv").read_text().splitlines()
    assert rlines[0] == "param,value,dAoI,sign"
    assert len(rlines) == 1 + 4
    assert all(row.startswith("w,") for row in rlines[1:])
    assert all(row.endswith(",-1") for row in rlines[1:])  # AoI falls with w


# Small fixed commands and the SHA-256 of every CSV they write, so that a
# refactor has to keep the output bytes.
PINNED_COMMANDS = {
    "analytic": ["analytic", "--lambda", "0.9", "--mu", "1", "--k", "2",
                 "--sweep", "p=0.3:1.0:15"],
    "aoi-vs-p": ["reproduce", "aoi-vs-p"],
    "trajectory": ["meanfield", *MF_ARGS, "--trajectory", "--t-end", "1"],
    "monotonicity": ["meanfield", *MF_ARGS, "--monotonicity", "w=1:3:4"],
    "simulate": ["simulate", "--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7",
                 "--n", "20", "--m", "4", "--arrivals", "1000", "--reps", "2",
                 "--sample-dt", "5", "--seed", "9", "--compare"],
    "single-device": ["reproduce", "single-device", "--arrivals", "20000", "--seed", "4"],
    "horizon": ["simulate", "--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7",
                "--n", "20", "--m", "4", "--horizon", "400", "--warmup", "0.2", "--reps", "2",
                "--sample-dt", "10", "--seed", "11"],
    # mu*p + mu*(1-p) != mu here, so the I-row residual moves with a 1-ulp
    # change in how the service-exit rate is formed
    "equilibrium": ["meanfield", "--lambda", "0.8", "--mu", "1.5", "--w", "2", "--gamma", "5",
                    "--p", "0.3"],
    "aoi-vs-lambda": ["reproduce", "aoi-vs-lambda"],
    "param-sweeps": ["reproduce", "param-sweeps"],
    "accuracy": ["reproduce", "accuracy", "--reps", "2", "--seed", "2"],
    # no warm-up: statistics begin before the first event
    "warmup0-arrivals": [*SIM_N20, "--arrivals", "1000", "--warmup", "0", "--reps", "2",
                         "--seed", "13"],
    "warmup0-horizon": [*SIM_N20, "--horizon", "200", "--warmup", "0", "--reps", "2",
                        "--sample-dt", "10", "--seed", "17"],
    # long enough to reach the fixed point and its repeated rows; the second
    # runs in the same process with other sample times
    "trajectory-settled": ["meanfield", "--policy", "all", *MF_ARGS, "--trajectory",
                           "--t-end", "200", "--dt", "0.01"],
    "trajectory-coarse": ["meanfield", "--policy", "all", *MF_ARGS, "--trajectory",
                          "--t-end", "50", "--dt", "0.02"],
}
PINNED_SHA256 = {
    "analytic/analytic.csv": "876b637490b19675a5bc685bcb70a8198136da40fba38ca52c62fe1365de53e3",
    "aoi-vs-p/aoi_vs_p.csv": "876b637490b19675a5bc685bcb70a8198136da40fba38ca52c62fe1365de53e3",
    "trajectory/trajectory_I.csv": "574627e6f2a7148105b8ab1ce155ba542b86e36de0d1d5206092aebffa342aac",
    "trajectory/trajectory_S.csv": "502c1c33ad4221d87de2e8d44e9b6de32d16d65a15829de957bfd5219a7db6a5",
    "trajectory/trajectory_W.csv": "3e5b9d9ade7900c6c785b97d0a14c88c5400bb13f6be3c53c34b3ba605926fd1",
    "monotonicity/monotonicity_I-WOP_w.csv": "e8497cd67594186eac864002c613a23afbf6656126cf61f45f2527114958b9e7",
    "monotonicity/monotonicity_I-WP_w.csv": "91f774cc99face7a56cab60428806a54164077e57840dd81d32b8328ecf7a0a4",
    "monotonicity/monotonicity_S-WOP_w.csv": "51d74c15f6cbf49d41e89be4aa3cf9a2ad26e068fc12b66f1bc40821bdfd685b",
    "monotonicity/monotonicity_S-WP_w.csv": "2a764b9c2935d72bffe64245dc1aa1bbd4c0b219574b3d2263ff9cc82ec27007",
    "monotonicity/monotonicity_W-WOP_w.csv": "c845c6d9984524a77aa5a7179bea331eddc381165054a2bc42e84d4c98dbc206",
    "monotonicity/monotonicity_W-WP_w.csv": "755edbae2d89e5548a30b782408073df7e4358916bdd0f108e8fa24355af68e4",
    "simulate/aoi_I-WOP.csv": "47524cbb660d7fb876cf0ac9655918438578cc20513253849018f3320f2da286",
    "simulate/aoi_I-WP.csv": "7d4aa39aff8b8a2d863f3ffc1e3b2ec9f9003d0a8b47c1dcbc0cc1d72ff1112e",
    "simulate/aoi_S-WOP.csv": "325f7b2acf1506777875be2f5d5f6721565bee8fe965d7eb5dcb4948c27cf6c9",
    "simulate/aoi_S-WP.csv": "436b6ca75c3dfac2199d98b965549436a0e328a361d75b98b4183836bfafd687",
    "simulate/aoi_W-WOP.csv": "d614bcdd065eed7cb597d59e3a40ea4e00c9bd0902317d042e9c707794fdb88e",
    "simulate/aoi_W-WP.csv": "ee5ac9bb5617475a1ced07e481e166bb2069451a73bb3ddd0cadc972b7471b93",
    "simulate/summary_I-WOP.csv": "361e333e84b6c1bc93f6f4f320a7bcf9d3af94fbbb920a3ceb69d3ee6ba1c634",
    "simulate/summary_I-WP.csv": "5bab1fe5a9a477405f52e8765fc9be29673b202ce08ea5c96c256e3b00cb5416",
    "simulate/summary_S-WOP.csv": "b84965b4ad590fe7fac25a4a14bbf130ea25b011b9a4635d407f80dc7b6dbc3a",
    "simulate/summary_S-WP.csv": "7e6848d22c34b95e973053b48e96fd9efada686778c2d24738629f3b785f98d3",
    "simulate/summary_W-WOP.csv": "993e0c9a856f6de8d46a7cb7a55097d120b0679d1160261e60377055d0512903",
    "simulate/summary_W-WP.csv": "f74fc821b9ca76af580d28661fdf98513adda78fe23e63ea19686c5bc07bcfc3",
    "simulate/traj_I-WOP.csv": "9624a34111d6d94379a6829601f42a0bd72b3f8720b1305d3788b44140ce87c2",
    "simulate/traj_I-WP.csv": "9624a34111d6d94379a6829601f42a0bd72b3f8720b1305d3788b44140ce87c2",
    "simulate/traj_S-WOP.csv": "b266cb58e0d2d3a3d5b823291aa4935e2613eac821e4a6a2d7b4b152008804aa",
    "simulate/traj_S-WP.csv": "b266cb58e0d2d3a3d5b823291aa4935e2613eac821e4a6a2d7b4b152008804aa",
    "simulate/traj_W-WOP.csv": "37b9bbdfe46ae4cc6b9c732be63a75c6a331a68a89c9d5498b3098d7e68c75e8",
    "simulate/traj_W-WP.csv": "37b9bbdfe46ae4cc6b9c732be63a75c6a331a68a89c9d5498b3098d7e68c75e8",
    "single-device/single_device.csv": "5e432638cf04d8d2d68779ab666e22da71abbb83fa42e0dc109f33a33f8166f0",
    "horizon/aoi_I-WOP.csv": "8dd60d9f497931e692b8393f24740b240b80540cf714766e2c235ac84a543c47",
    "horizon/aoi_I-WP.csv": "b1f9800adc0a1c59f7e015cf31d2b61557dbcc3560a0b46af3f022336679b1bc",
    "horizon/aoi_S-WOP.csv": "10bf339dc9850021f3f65929cf8b4368c4809dc5d56a10948dfe48648a2a4eb9",
    "horizon/aoi_S-WP.csv": "6e5c9821b742dcf02f92cdcd5cd60b2750f0c87a38a75b5225d26894d9793715",
    "horizon/aoi_W-WOP.csv": "c8e689634ac911d9705f0bd25a4f151d4cf96b6d9fe34e366cf26b8e438a92d6",
    "horizon/aoi_W-WP.csv": "fe61afd32e8c4f432d924c345632ce53b169aeb54d507461d340848ce23d2f06",
    "horizon/summary_I-WOP.csv": "5d66aaba8d8e26b0273507b7e49f68857eb77aa749ce17f0912b6940fc7f27a0",
    "horizon/summary_I-WP.csv": "8b58bac2acff7aee6ca2905c892c4a09e0331336c1a29983a161741206d4631e",
    "horizon/summary_S-WOP.csv": "d170d7a54c4f020a30368d91d683d2175a9f24d8c29565769c76484d2db4f607",
    "horizon/summary_S-WP.csv": "e5465e9e8507141e9c324e26cdaea225bd4ad4a9cf570b8760e1185374424d57",
    "horizon/summary_W-WOP.csv": "1f9a908c6d3d436f43547022ad77a31b9aac38cbae8a9857d44d8161dc45b914",
    "horizon/summary_W-WP.csv": "01ed04020f6ecd3546487d407de2e51672f384b5486cdfaa54b0f92ad17dda02",
    "horizon/traj_I-WOP.csv": "c528cc145c51b7ea84f34a12ac6d4f82bbde6443d502c93ac9af9ee45b5343b0",
    "horizon/traj_I-WP.csv": "c528cc145c51b7ea84f34a12ac6d4f82bbde6443d502c93ac9af9ee45b5343b0",
    "horizon/traj_S-WOP.csv": "1258525e512702278fd6093dad6062f0955dc2cb30f08f3fb0f7c54a405d7047",
    "horizon/traj_S-WP.csv": "1258525e512702278fd6093dad6062f0955dc2cb30f08f3fb0f7c54a405d7047",
    "horizon/traj_W-WOP.csv": "4048b75b011ad080dcdae6711946e48ba6fc690a8a48687943396ff284235fb2",
    "horizon/traj_W-WP.csv": "4048b75b011ad080dcdae6711946e48ba6fc690a8a48687943396ff284235fb2",
    "accuracy/accuracy_N10.csv": "5b3745bea7f6dcc80ce9c8f1d69cd47523be0d92abc79146357758b15c824fdd",
    "accuracy/accuracy_N100.csv": "bd3aba59af81f796176d1625f5e1d2b15bc1a22629fd998ee5fd75f231642b8d",
    "accuracy/accuracy_N1000.csv": "71de183fa5a4207d0bf4deee8090019cf2219d659a2b4985ebb3f8ab8a91e483",
    "accuracy/accuracy_ode.csv": "6329349836d50b134a7396cd4dc171e079b73564f91e52d66b43e741edd19edf",
    "equilibrium/equilibrium.csv": "1d804b96c7c8a66a84eef7c6a5602cb350e1e966927e427045918744553cad74",
    "aoi-vs-lambda/aoi_vs_lambda.csv": "ab8bf500c02ae4a6e86cfa0de18ba08c3533c3e73134de00064e125f553b24db",
    "param-sweeps/param_sweep_gamma.csv": "e1ff9cc2b067b63f826518891a06a15225deedfc4e1603f8f94c18b8c64beb4c",
    "param-sweeps/param_sweep_mu.csv": "c7425e3c2bf1d2d7e2cee426a2ba3b4973dfc0257cd73634257edf411c13f4b0",
    "param-sweeps/param_sweep_p.csv": "70536b5546cd7d1f3136335eadf9d07ab4a5d8434d5ac6be98f0b6d882fac309",
    "param-sweeps/param_sweep_w.csv": "51662e858f402f5fe06d959fa659aed1af6b8191a6eb404e495d0e7c52c21814",
    "warmup0-arrivals/aoi_I-WOP.csv": "85d254c8bda1cc636ebad3de3f18c1dadb9b0266197a24c146335f74a3fe4761",
    "warmup0-arrivals/aoi_I-WP.csv": "a9a156ee042cc5830c0d4c5425b9ef5f2cd1d179e05ec063c6003b9b57eec879",
    "warmup0-arrivals/aoi_S-WOP.csv": "7f20b875203434778f40edaf6478ff3fe2c41e7f5f2878b8279d09882f026064",
    "warmup0-arrivals/aoi_S-WP.csv": "b687c347e171d3b4130375585f3645e2d4ad05d50d134c8d1720ea59437f4431",
    "warmup0-arrivals/aoi_W-WOP.csv": "f55a9763fe7a413e29113710dff996c560615d353a56e1f9e347e6cc5f0d5b2b",
    "warmup0-arrivals/aoi_W-WP.csv": "d112547ddf1975a8e1325eebecaa056faf51bee2531297886d88fb542a0e9e16",
    "warmup0-arrivals/summary_I-WOP.csv": "be3ede6f0d7c712008f85825f7d45781b785b1f98372b085033a861e80b86cdd",
    "warmup0-arrivals/summary_I-WP.csv": "1d9fb8beb16c41a3a01cb47d6bd53f1e165107eb46b04220cc1b05e346459d21",
    "warmup0-arrivals/summary_S-WOP.csv": "2b93ac1a53ec12fa122a856f592c4e4e291fcd5b7bbb4a5792dea60c26d5fd99",
    "warmup0-arrivals/summary_S-WP.csv": "c0aa2f6283a6129e2c36645b24f183b6349786fe1172045021c5373d90b77fd6",
    "warmup0-arrivals/summary_W-WOP.csv": "43ebac65c283bef09cc8f2674129ac832b4c11d90c471ea6bc0745c054962074",
    "warmup0-arrivals/summary_W-WP.csv": "de58f4ad5400bc0cb326032a6c5239eb06ffe6dee89b4815a8e5e8e6ff6bcbb1",
    "warmup0-horizon/aoi_I-WOP.csv": "707dc793e47af74f149d7bbc7e364f475028a6f678c9b80ce533243b5f39e55c",
    "warmup0-horizon/aoi_I-WP.csv": "2040096a086ede71aa96df610cc2825f178e87c59fa116ba3d663d7494837883",
    "warmup0-horizon/aoi_S-WOP.csv": "9fbbe17145a9c163be18633b01c2490955f0a9716110b0200bea7532f6daf084",
    "warmup0-horizon/aoi_S-WP.csv": "cae35018f5c11453c1b496224b324fb06860d11232b6733a539fc805598fe57a",
    "warmup0-horizon/aoi_W-WOP.csv": "2129e4824e7a3e24dd2a912bb47b325a1f361057bb13e4d9c3966a00d5aade89",
    "warmup0-horizon/aoi_W-WP.csv": "0b40d77568fc3fbb25f141bcc0072b7aed381d5dd1e4650dadda8d8fbbead529",
    "warmup0-horizon/summary_I-WOP.csv": "12d934f56b2338f53aa9d1e2f77e9c4557632a205c5ab7a4e025f8f8d27641ee",
    "warmup0-horizon/summary_I-WP.csv": "2ad732ae5586fc5d4e18d4d763c5a67a66974e391c02e748f1bb2359fe7c2385",
    "warmup0-horizon/summary_S-WOP.csv": "1d1ee9e275a3000235d345b96657a5a876ce79c5549ff3cb1599af8b74dfb4ee",
    "warmup0-horizon/summary_S-WP.csv": "a103892b8cbfef954b7cb3dfa9836505581591aa1c4931259d190df065abe431",
    "warmup0-horizon/summary_W-WOP.csv": "1c2785d0891a1c547bfd597c85b70459285bc0ebdc9a8b6e3e91a1e453423b6d",
    "warmup0-horizon/summary_W-WP.csv": "cd35918bb6739b228b500749e75e26d988a89916c16642d0d7c7aa32b7904fa1",
    "warmup0-horizon/traj_I-WOP.csv": "439d5700378d1bf6de9cf2d569a7f20705590cbb8ca7c43fe6b322c814be25ad",
    "warmup0-horizon/traj_I-WP.csv": "439d5700378d1bf6de9cf2d569a7f20705590cbb8ca7c43fe6b322c814be25ad",
    "warmup0-horizon/traj_S-WOP.csv": "17fa4bc86209fdd6e36393317f9e71ffcd40f48717231da869f9e490da1d1d2e",
    "warmup0-horizon/traj_S-WP.csv": "17fa4bc86209fdd6e36393317f9e71ffcd40f48717231da869f9e490da1d1d2e",
    "warmup0-horizon/traj_W-WOP.csv": "e5017a27248f0768e7e76bf40d684067865094313775e5c447ecd1ec8bf657ca",
    "warmup0-horizon/traj_W-WP.csv": "e5017a27248f0768e7e76bf40d684067865094313775e5c447ecd1ec8bf657ca",
    "trajectory-settled/trajectory_I.csv": "a0b560891a8984d8bed42544586ec2bd18dcec30d242553e9ddfa6cd42c2819d",
    "trajectory-settled/trajectory_S.csv": "601c72309b35f270b9a5cb1bb34521e82e1d1280e9e2b1bc26535936ab059509",
    "trajectory-settled/trajectory_W.csv": "7387eb55c0cf284e35d639d22d34317f1bad9c6e109abf0a2524b88f0ac61d7f",
    "trajectory-coarse/trajectory_I.csv": "3a62a56fe0212e3a45683e679b07f3185ea1a599edfaed321c20b9cc4f37f523",
    "trajectory-coarse/trajectory_S.csv": "8eaf210419f220785da7df4e7ce6196eb58e9397e6260a8d3740023b0227f249",
    "trajectory-coarse/trajectory_W.csv": "6eb124d1e64a9ecf03dca3288604f72822501764d4cceef0cfff93e44c42a799",
}


def test_csv_bytes_are_pinned(tmp_path, capsys):
    digests = {}
    for key, argv in PINNED_COMMANDS.items():
        out_dir = tmp_path / key
        assert run_cli(capsys, *argv, "--out", str(out_dir))[0] == 0
        for name in os.listdir(out_dir):
            digests[f"{key}/{name}"] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    assert digests == PINNED_SHA256


def test_simulate_compare_prints_one_line_per_pair(tmp_path, capsys):
    """The pinned simulate run's --compare lines, in the form the benchmark parses."""
    code, out, _ = run_cli(capsys, *PINNED_COMMANDS["simulate"], "--out", str(tmp_path))
    assert code == 0
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0, n_devices=20, n_channels=4)
    pattern = re.compile(r"^(\S+): sim=\S+ meanfield=(\S+) rel_error=([-+]?[\d.]+)%")
    pairs = PolicyScheme.all_combinations()
    matches = [pattern.match(line) for line in out.splitlines()]
    assert [m and m[1] for m in matches] == [ps.label for ps in pairs]
    for ps, m in zip(pairs, matches):
        assert m[2] == _fmt(mf.aoi_at_equilibrium(ps, params))
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5c5451a3e80f23a7207a7d472bc7ede8db142cfc44fa6eba9c6aa82cc8c59816")


def test_simulate_compare_claims_no_interval_from_one_replication(tmp_path, capsys):
    """One replication has no spread over replications, so its half-width is
    nan, while the summary's stderr is still the spread over its devices."""
    code, out, _ = run_cli(capsys, *SIM_N20, "--policy", "W", "--scheme", "wp",
                           "--arrivals", "1000", "--reps", "1", "--seed", "9", "--compare",
                           "--out", str(tmp_path))
    assert code == 0
    assert re.fullmatch(r"W-WP: sim=\S+ meanfield=\S+ rel_error=[-+][\d.]+% half_width=nan\n",
                        out)
    header, row = (tmp_path / "summary.csv").read_text().splitlines()
    stderr = float(row.split(",")[header.split(",").index("stderr")])
    assert math.isfinite(stderr) and stderr > 0.0


# meanfield --monotonicity at README's FIG5 point on criterion 11's grids:
# the verdict lines, and the SHA-256 of the whole stdout (six CSVs per grid).
FIG5_ARGS = ["--lambda", "0.8", "--mu", "1.5", "--w", "2", "--gamma", "5", "--p", "0.7"]
PINNED_MONOTONICITY_SHA256 = {
    "lam=0.1:2:20": "15d55c9c628784edb9e223c417081a2e1c0c552c22b7a8dc3dc94c9f0de039c1",
    "mu=0.5:3:20": "81658986ec8779ed838afa731970400396439a59b758935a4083fcdab46ce4fb",
    "w=0.5:5:20": "8f4d53eb28a2ef4b88ce9aac16e4b10d586cc0ce27955549fe86eeb30879dca8",
    "gamma=1:10:20": "2cecfa6083f11fdf130fe3b094ba0817dc864e58cba1e68d32dbb08d355dad29",
    "p=0.3:0.99:20": "f4f0d6b09cd9757cd8bcf76513c97103c89f2f13bb81ce392df7805bb6b8a48c",
}
PINNED_VERDICTS = """\
monotonicity I-WP d/dlam: x_i=match x_w=match x_s=match aoi=report
monotonicity I-WOP d/dlam: x_i=match x_w=match x_s=match aoi=report
monotonicity W-WP d/dlam: x_i=match x_w=match x_s=match aoi=report
monotonicity W-WOP d/dlam: x_i=match x_w=match x_s=match aoi=report
monotonicity S-WP d/dlam: x_i=match x_w=match x_s=match aoi=report
monotonicity S-WOP d/dlam: x_i=match x_w=match x_s=match aoi=report
monotonicity I-WP d/dmu: x_i=match x_w=report x_s=match aoi=match
monotonicity I-WOP d/dmu: x_i=match x_w=report x_s=match aoi=match
monotonicity W-WP d/dmu: x_i=match x_w=report x_s=match aoi=report
monotonicity W-WOP d/dmu: x_i=match x_w=report x_s=match aoi=report
monotonicity S-WP d/dmu: x_i=match x_w=report x_s=match aoi=match
monotonicity S-WOP d/dmu: x_i=match x_w=report x_s=match aoi=match
monotonicity I-WP d/dw: x_i=match x_w=match x_s=match aoi=match
monotonicity I-WOP d/dw: x_i=match x_w=match x_s=match aoi=match
monotonicity W-WP d/dw: x_i=match x_w=match x_s=match aoi=report
monotonicity W-WOP d/dw: x_i=match x_w=match x_s=match aoi=report
monotonicity S-WP d/dw: x_i=match x_w=match x_s=match aoi=match
monotonicity S-WOP d/dw: x_i=match x_w=match x_s=match aoi=match
monotonicity I-WP d/dgamma: x_i=match x_w=match x_s=match aoi=match
monotonicity I-WOP d/dgamma: x_i=match x_w=match x_s=match aoi=match
monotonicity W-WP d/dgamma: x_i=match x_w=match x_s=match aoi=report
monotonicity W-WOP d/dgamma: x_i=match x_w=match x_s=match aoi=report
monotonicity S-WP d/dgamma: x_i=match x_w=match x_s=match aoi=match
monotonicity S-WOP d/dgamma: x_i=match x_w=match x_s=match aoi=match
monotonicity I-WP d/dp: x_i=match x_w=match x_s=match aoi=match
monotonicity I-WOP d/dp: x_i=match x_w=match x_s=match aoi=match
monotonicity W-WP d/dp: x_i=match x_w=match x_s=match aoi=report
monotonicity W-WOP d/dp: x_i=match x_w=match x_s=match aoi=report
monotonicity S-WP d/dp: x_i=match x_w=report x_s=match aoi=match
monotonicity S-WOP d/dp: x_i=match x_w=report x_s=match aoi=match
"""


def test_monotonicity_verdicts_are_pinned(capsys):
    digests, verdicts = {}, []
    for grid in PINNED_MONOTONICITY_SHA256:
        code, out, _ = run_cli(capsys, "meanfield", *FIG5_ARGS, "--monotonicity", grid)
        assert code == 0
        digests[grid] = hashlib.sha256(out.encode()).hexdigest()
        verdicts += [line for line in out.splitlines() if line.startswith("monotonicity ")]
    assert "\n".join(verdicts) + "\n" == PINNED_VERDICTS
    assert digests == PINNED_MONOTONICITY_SHA256
