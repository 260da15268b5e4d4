"""Tests for the tooling under ``scripts/``: figure reproduction, benchmark
pairs and the in-process simulator timer."""

import json
import os
import runpy
import subprocess
import sys
from dataclasses import replace
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def test_reproduce_figures_script_writes_every_preset(tmp_path, capsys, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path), "--reps", "2"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(script), run_name="__main__")
    assert exited.value.code == 0
    assert {d.name: sorted(os.listdir(d)) for d in tmp_path.iterdir()} == {
        "accuracy": ["accuracy_N10.csv", "accuracy_N100.csv", "accuracy_N1000.csv",
                     "accuracy_ode.csv", "plot.gp"],
        "aoi-vs-lambda": ["aoi_vs_lambda.csv", "plot.gp"],
        "aoi-vs-p": ["aoi_vs_p.csv", "plot.gp"],
        "param-sweeps": ["param_sweep_gamma.csv", "param_sweep_mu.csv", "param_sweep_p.csv",
                         "param_sweep_w.csv", "plot.gp"],
        "single-device": ["single_device.csv"],
    }


def test_bench_pairs_refuses_fewer_than_two_pairs(tmp_path, capsys, monkeypatch):
    # the quartiles of each side need two runs, so one pair is refused before it runs
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path), str(tmp_path),
                                      "--workload", "analytic", "--pairs", "1", "--seconds", "1"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(script), run_name="__main__")
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith("error: --pairs must be at least 2, got 1\n")


def test_bench_pairs_names_the_csv_files_that_differ(tmp_path, capsys, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    spec = spec_from_file_location("bench_pairs", script)
    bench_pairs = module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    same = {"a.csv": "1", "b.csv": "2"}
    digests = {  # (side, seed) -> the run's CSV SHA-256s
        ("change", 8): {"a.csv": "1", "b.csv": "3"},
        ("parent", 9): {"a.csv": "0", "b.csv": "2", "c.csv": "4"},
    }

    def run_side(side, checkout, workload, seed, seconds):
        return ({"wall_s": {"value": 1.0}},
                {"fail_frac": 0.0, "repeats": 3, "csv_sha256": digests.get((side, seed), same)})

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path), str(tmp_path), "--workload",
                                      "analytic", "--pairs", "3", "--seconds", "1", "--seed", "7"])
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main()
    # a message as the exit code: the interpreter prints it and exits with status 1
    assert exited.value.code == ("CSV bytes differ between parent and change: "
                                 "seed 8: b.csv; seed 9: a.csv, c.csv")
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert [p["csv_sha256_identical"] for p in pairs] == [True, False, False]


@pytest.fixture
def time_sim():
    """``scripts/time_sim.py`` as a module; the packages it loads are dropped afterwards."""
    spec = spec_from_file_location("time_sim", REPO / "scripts" / "time_sim.py")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.startswith("_time_sim_")]:
        del sys.modules[name]


def _tiny_shape(time_sim, change_seed_offset=0):
    """Two short runs; the change side's seed is moved by ``change_seed_offset``."""
    def tiny(pkg, seed):
        params = pkg.SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0,
                                  n_devices=10, n_channels=2)
        if pkg.__name__ == "_time_sim_change":
            seed += change_seed_offset
        config = pkg.sim.SimConfig(params=params, ps=pkg.PolicyScheme(pkg.Policy.S, pkg.Scheme.WP),
                                   seed=seed, stop_arrivals=300)
        return [config, replace(config, replication=1)]
    return tiny


def test_time_sim_times_a_checkout_against_itself(time_sim, capsys):
    time_sim.SHAPES["tiny"] = _tiny_shape(time_sim)
    time_sim.main([str(REPO), str(REPO), "--shape", "tiny", "--rounds", "3"])
    # each side is its own copy of the package, loaded from the checkout
    sims = [sys.modules[f"_time_sim_{side}"].sim for side in ("parent", "change")]
    assert sims[0] is not sims[1] and sims[0].run is not sims[1].run
    assert {Path(s.__file__) for s in sims} == {REPO / "src" / "aoi_csma" / "sim.py"}
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["shape"], report["rounds"], report["runs_per_round"]) == ("tiny", 3, 2)
    assert report["parent_s"]["median"] > 0.0 and report["change_s"]["median"] > 0.0
    assert report["ratio"] > 0.0 and 0 <= report["change_wins"] <= 3
    assert captured.err.count("round ") == 3


def test_time_sim_shapes_follow_the_benchmark_workloads(time_sim):
    """The shapes are built, not run: from the workloads' command lines and
    the ``accuracy`` preset, so they move when a workload does."""
    pkg = time_sim.load(str(REPO), "_time_sim_shapes")
    steady = time_sim.SHAPES["steady"](pkg, time_sim.SEED)
    assert [c.ps for c in steady] == [pkg.PolicyScheme(policy, pkg.Scheme.WP)
                                      for policy in pkg.Policy]
    assert {(c.params.n_devices, c.params.n_channels, c.stop_arrivals, c.warmup_fraction)
            for c in steady} == {(1000, 200, time_sim.workloads._STEADY_ARRIVALS, 0.2)}
    ensemble = time_sim.SHAPES["ensemble"](pkg, time_sim.SEED)
    preset = pkg.cli.PRESETS["accuracy"].params
    assert [c.replication for c in ensemble] == list(range(time_sim.ENSEMBLE_REPS))
    assert {(c.params.n_devices, c.params.gamma, c.ps, c.stop_time, c.sample_dt)
            for c in ensemble} == {(1000, preset["gamma"], preset["pair"], preset["t_end"], 0.1)}


def test_time_sim_stops_where_the_sides_draw_differently(time_sim, capsys):
    time_sim.SHAPES["tiny"] = _tiny_shape(time_sim, change_seed_offset=1)
    with pytest.raises(SystemExit) as exited:
        time_sim.main([str(REPO), str(REPO), "--shape", "tiny", "--rounds", "3"])
    assert exited.value.code == ("round 0, config 0: avg_aoi_per_device differs "
                                 "between parent and change")
    assert capsys.readouterr().out == ""
