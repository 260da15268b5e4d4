"""Tests for the command-line front end: exit codes, CSV output, determinism."""

import hashlib
import json
import os

import argparse

import pytest

from aoi_csma import meanfield as mf
from aoi_csma.cli import PRESETS, _merge_config_file, build_parser, main
from aoi_csma.core import Policy, StateFractions, SystemParams

MF_ARGS = ["--lambda", "0.8", "--mu", "1", "--w", "2", "--gamma", "5", "--p", "0.7"]


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
                           "--p-grid", "0.3:1.0:15")
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


def test_analytic_missing_flags_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "analytic", "--policy", "I")
    assert code == 1
    assert "missing required flags" in err


def test_bad_sweep_syntax_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "analytic", "--lambda", "1", "--mu", "1", "--k", "1",
                         "--sweep", "p=1:0:5")
    assert code == 1
    code, _, _ = run_cli(capsys, "analytic", "--lambda", "1", "--mu", "1", "--k", "1",
                         "--sweep", "nope=0:1:5")
    assert code == 1


def test_crossvalidate_passes_and_detects_injected_error(capsys):
    code, out, _ = run_cli(capsys, "crossvalidate", "--count", "40", "--seed", "5")
    assert code == 0
    assert "max_relative_deviation" in out and "OK" in out
    code, out, _ = run_cli(capsys, "crossvalidate", "--count", "5", "--seed", "5",
                           "--selftest-perturb", "1e-6")
    assert code == 3
    assert "FAIL" in out
    code, _, _ = run_cli(capsys, "crossvalidate", "--count", "0")
    assert code == 1
    # a NaN or infinite deviation must fail, not be skipped by the maximum
    for bad in ("nan", "inf"):
        code, out, _ = run_cli(capsys, "crossvalidate", "--count", "5", "--seed", "5",
                               "--selftest-perturb", bad)
        assert code == 3
        assert "max_relative_deviation=nan" in out and "FAIL" in out


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
    assert code == 2
    assert "numerical failure" in err


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
    argv = ["simulate", "--policy", "W", "--scheme", "wp", "--lambda", "-1", "--mu", "1",
            "--w", "2", "--p", "0.7", "--n", "10", "--m", "2", "--arrivals", "100",
            "--reps", "2"]
    code_1, _, err_1 = run_cli(capsys, *argv, "--parallelism", "1")
    code_2, _, err_2 = run_cli(capsys, *argv, "--parallelism", "2")
    assert code_1 == code_2 == 1
    assert err_1 == err_2
    assert err_1.startswith("error: invalid parameter 'lam': ")


def test_simulate_missing_channels_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--policy", "W", "--scheme", "wp",
                           "--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7",
                           "--n", "20", "--arrivals", "1000")
    assert code == 1
    assert "--m" in err


def test_seed_falls_back_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("AOI_DENSE_SEED", "77")
    code, out_env, _ = run_cli(capsys, "crossvalidate", "--count", "3")
    assert code == 0
    monkeypatch.delenv("AOI_DENSE_SEED")
    code, out_flag, _ = run_cli(capsys, "crossvalidate", "--count", "3", "--seed", "77")
    assert out_env == out_flag
    monkeypatch.setenv("AOI_DENSE_SEED", "not-a-number")
    assert run_cli(capsys, "crossvalidate", "--count", "3")[0] == 1


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
    config.write_text(json.dumps({"selftest-perturb": 1e-6}))
    code, out, _ = run_cli(capsys, "crossvalidate", "--count", "5", "--config", str(config))
    assert code == 3 and "FAIL" in out


def test_every_long_flag_is_a_config_key(tmp_path):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    config = tmp_path / "run.json"
    checked = 0
    for command, sub in subparsers.choices.items():
        if "--config" not in sub._option_string_actions:
            continue
        argv = [command] + (["aoi-vs-p"] if command == "reproduce" else [])
        for action in sub._actions:
            flags = [s for s in action.option_strings if s.startswith("--")]
            if not flags or action.dest in ("help", "config"):
                continue
            config.write_text(json.dumps({flags[0][2:]: "value"}))
            args = parser.parse_args([*argv, "--config", str(config)])
            _merge_config_file(args)
            assert getattr(args, action.dest) == "value", (command, flags[0])
            checked += 1
    assert checked > 5 * 20


def test_gnuplot_script_emitted(tmp_path, capsys):
    out_dir = tmp_path / "plots"
    code, _, _ = run_cli(capsys, "reproduce", "aoi-vs-p", "--out", str(out_dir),
                         "--gnuplot-script")
    assert code == 0
    script = (out_dir / "plot.gp").read_text()
    assert "aoi_vs_p.csv" in script


def test_preset_parameters_match_the_figure_captions():
    assert PRESETS["aoi-vs-p"].params == {
        "lam": 0.9, "mu": 1.0, "k": 2.0, "p_grid": (0.3, 1.0, 15)}
    assert PRESETS["accuracy"].params == {
        "lam": 0.8, "mu": 1.0, "w": 2.0, "gamma": 5.0, "p": 0.7,
        "populations": (10, 100, 1000)}
    assert PRESETS["aoi-vs-lambda"].params == {
        "mu": 0.5, "w": 2.0, "gamma": 5.0, "p": 0.7}
    assert PRESETS["param-sweeps"].params == {
        "lam": 0.8, "mu": 1.5, "w": 2.0, "gamma": 5.0, "p": 0.7}
    assert PRESETS["single-device"].params == {
        "lam": 1.0, "mu": 1.0, "w": 1.0, "p": 1.0, "n": 1, "m": 1}


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
    for n in (10, 100, 1000):
        lines = (out_dir / f"accuracy_N{n}.csv").read_text().splitlines()
        assert lines[0] == "t,x_I,mean_x_I"
    assert (out_dir / "accuracy_ode.csv").exists()
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


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    for name in PRESETS:
        assert name in out


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
                 "--p-grid", "0.3:1.0:15"],
    "aoi-vs-p": ["reproduce", "aoi-vs-p"],
    "trajectory": ["meanfield", *MF_ARGS, "--trajectory", "--t-end", "1"],
    "monotonicity": ["meanfield", *MF_ARGS, "--monotonicity", "w=1:3:4"],
    "simulate": ["simulate", "--lambda", "0.8", "--mu", "1", "--w", "2", "--p", "0.7",
                 "--n", "20", "--m", "4", "--arrivals", "1000", "--reps", "2",
                 "--sample-dt", "5", "--seed", "9"],
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
    "equilibrium/equilibrium.csv": "1d804b96c7c8a66a84eef7c6a5602cb350e1e966927e427045918744553cad74",
    "aoi-vs-lambda/aoi_vs_lambda.csv": "ab8bf500c02ae4a6e86cfa0de18ba08c3533c3e73134de00064e125f553b24db",
    "param-sweeps/param_sweep_gamma.csv": "e1ff9cc2b067b63f826518891a06a15225deedfc4e1603f8f94c18b8c64beb4c",
    "param-sweeps/param_sweep_mu.csv": "c7425e3c2bf1d2d7e2cee426a2ba3b4973dfc0257cd73634257edf411c13f4b0",
    "param-sweeps/param_sweep_p.csv": "70536b5546cd7d1f3136335eadf9d07ab4a5d8434d5ac6be98f0b6d882fac309",
    "param-sweeps/param_sweep_w.csv": "51662e858f402f5fe06d959fa659aed1af6b8191a6eb404e495d0e7c52c21814",
}


def test_csv_bytes_are_pinned(tmp_path, capsys):
    digests = {}
    for key, argv in PINNED_COMMANDS.items():
        out_dir = tmp_path / key
        assert run_cli(capsys, *argv, "--out", str(out_dir))[0] == 0
        for name in os.listdir(out_dir):
            digests[f"{key}/{name}"] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    assert digests == PINNED_SHA256
