"""Tests for the event-driven simulator: correctness, determinism, statistics."""

import hashlib
import heapq
import math
import os
import pickle
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from aoi_csma import closedform as cf
from aoi_csma import meanfield as mf
from aoi_csma import shs, sim
from aoi_csma.core import (SERVICE, InvalidParameter, Policy, PolicyScheme, Scheme, StateFractions,
                           SystemParams)

FIG3 = dict(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0)

I_WP = PolicyScheme(Policy.I, Scheme.WP)
W_WP = PolicyScheme(Policy.W, Scheme.WP)


def _params(n, m, **over):
    base = dict(FIG3)
    base.update(over)
    return SystemParams(n_devices=n, n_channels=m, **base)


def _single_device_params():
    return SystemParams(lam=1.0, mu=1.0, w=1.0, p=1.0, gamma=1.0, n_devices=1, n_channels=1)


def test_config_validation():
    good = sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1, stop_arrivals=100)
    sim.run(good)  # should not raise
    with pytest.raises(sim.InvalidConfig):
        sim.run(sim.SimConfig(params=SystemParams(**FIG3), ps=W_WP, seed=1, stop_arrivals=10))
    with pytest.raises(InvalidParameter):  # refused when the params are built
        bad = SystemParams(lam=1, mu=1, w=1, p=1, gamma=1, n_devices=0, n_channels=1)
        sim.run(sim.SimConfig(params=bad, ps=W_WP, seed=1, stop_arrivals=10))
    with pytest.raises(sim.InvalidConfig):
        sim.run(sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1))
    with pytest.raises(sim.InvalidConfig):
        sim.run(sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1,
                              stop_arrivals=10, stop_time=1.0))
    with pytest.raises(sim.InvalidConfig):
        sim.run(sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1,
                              stop_arrivals=10, warmup_fraction=0.6))
    with pytest.raises(sim.InvalidConfig):
        sim.run(sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1,
                              stop_arrivals=10, sample_dt=-1.0))
    with pytest.raises(sim.InvalidConfig, match="positive and finite"):  # only t = 0 sampled
        sim.run(sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1,
                              stop_arrivals=10, sample_dt=math.inf))
    with pytest.raises(sim.InvalidConfig, match="positive and finite"):  # would never end
        sim.run(sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1, stop_time=math.inf))
    # more than 10^7 samples, over a time or an arrival horizon
    for stop in (dict(stop_time=1.0, sample_dt=1e-17), dict(stop_time=1000.0, sample_dt=1e-5),
                 dict(stop_arrivals=100, sample_dt=1e-300)):
        with pytest.raises(sim.InvalidConfig, match="more than 10000000 samples"):
            sim.run(sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1, **stop))
    for stop_arrivals in (50.5, 0):  # np.partition needs an integer index
        with pytest.raises(sim.InvalidConfig, match="stop_arrivals must be an integer >= 1"):
            sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1, stop_arrivals=stop_arrivals)
    # the arrival pass keeps only the times near its order statistics: no cap
    sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1, stop_arrivals=10**7 + 1)
    with pytest.raises(sim.InvalidConfig):
        sim.replicate(good, n_reps=0)


def test_invalid_config_survives_pickling():
    # errors raised in replicate's worker processes reach the caller pickled
    for exc in (sim.InvalidConfig("must be positive and finite, got inf", "stop_time"),
                sim.InvalidConfig("horizon too short: no time left after warm-up")):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is sim.InvalidConfig
        assert (str(copy), copy.field) == (str(exc), exc.field)


def test_channel_accounting_mismatch_is_raised():
    # a free channel holds -1.0 and a busy one its occupant's completion time
    sim._check_channels([-1.0, 2.5, 0.0], 2)
    with pytest.raises(sim.ChannelAccounting, match="2 channels busy but 1 devices in service"):
        sim._check_channels([-1.0, 2.5, 0.0], 1)


def test_seed_outside_uint64_is_refused():
    # a seed is one uint64 of the Philox key, so 2**64 + 1 would alias seed 1
    for seed in (-1, 1 << 64, (1 << 64) + 1):
        with pytest.raises(sim.InvalidConfig, match=r"seed must lie in \[0, 2\*\*64\)"):
            sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=seed, stop_arrivals=10)
    top = sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=(1 << 64) - 1, stop_arrivals=10)
    assert sim.run(top).arrivals == 10


def test_stream_key_takes_integers_in_range():
    # (seed, (replication << 3) | purpose) is two uint64s: a float seed would be
    # truncated to seed 1, and replication 2**61 would not fit
    good = sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1, stop_arrivals=10)
    replication = r"replication must be an integer in \[0, 2\*\*61\)"
    for field, value, message in [("seed", 1.5, "seed must be an integer, got 1.5"),
                                  ("replication", 1.5, replication),
                                  ("replication", -1, replication),
                                  ("replication", 1 << 61, replication)]:
        with pytest.raises(sim.InvalidConfig, match=message):
            replace(good, **{field: value})
    assert sim.run(replace(good, replication=(1 << 61) - 1)).arrivals == 10


def test_replicate_checks_every_replication_before_any_runs(monkeypatch):
    def no_run(config):
        raise AssertionError("sim.run called")

    monkeypatch.setattr(sim, "run", no_run)
    last = sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=1, stop_arrivals=10,
                         replication=(1 << 61) - 1)
    for parallelism in (1, 2):
        with pytest.raises(sim.InvalidConfig, match=r"2\*\*61\), got 2305843009213693952"):
            sim.replicate(last, n_reps=2, parallelism=parallelism)


def test_single_device_matches_closed_form():
    """One device's simulated AoI is within 2 % of the closed form.

    About 0.2 % of seeds would fail this with correct code.  Over 100 other
    seeds the relative error was -0.14 % with standard deviation 0.64 %
    (largest 1.8 %, none failed); a normal model puts 2.1e-3 beyond 2 %.
    """
    # one device always senses an idle channel, so k = w and the
    # closed form at lam = mu = k = p = 1 gives 2.75
    config = sim.SimConfig(params=_single_device_params(), ps=I_WP, seed=42,
                           stop_arrivals=30_000)
    result = sim.run(config)
    assert result.avg_aoi_mean == pytest.approx(2.75, rel=0.02)
    assert result.failed == 0 and result.discarded == 0
    assert result.preempted > 0
    assert result.arrivals == 30_000


def test_single_device_failure_branch_z_against_closed_form():
    """Over the six pairs at N = M = 1 and p < 1, the largest |z| of the
    pooled AoI against its closed form is below 4.5.

    Each z is the gap over the standard error of 40 replications, a Student
    t on 39 degrees of freedom, which passes 4.5 with probability 6.0e-5 on
    each side, so alpha <= 12 * 6.0e-5 = 3.6e-4 over the six pairs.  Each
    policy is simulated once and its two schemes read from that run with
    ``as_scheme``.  Over seeds 100-259 (960 z's) the z's were 0.02 on average
    with spread 1.026, as t on 39 degrees of freedom predicts (1.027), and
    the largest |z| was 3.63.  The six z's of one seed are correlated (0.73
    on average: a seed's three runs draw from the same streams, and each run
    serves both schemes), so 20 seeds measure the
    spread poorly: windows of 20 of these seeds gave 0.72 to 1.26.
    """
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=1.0, n_devices=1, n_channels=1)
    z = {}
    for policy in Policy:
        config = sim.SimConfig(params=params, ps=PolicyScheme(policy, Scheme.WP), seed=1,
                               stop_arrivals=5_000)
        run = sim.replicate(config, n_reps=40)
        assert all(r.failed > 0 for r in run.results)
        for scheme in Scheme:
            ps = PolicyScheme(policy, scheme)
            pooled = run.as_scheme(scheme)
            # a lone device always finds its channel free, so its access rate is w
            expected = cf.avg_aoi(ps, lam=0.8, mu=1.0, k=2.0, p=0.7)
            z[ps.label] = (pooled.mean_aoi - expected) / pooled.stderr
    assert len(z) == 6
    assert max(map(abs, z.values())) < 4.5, z


def test_run_is_deterministic():
    config = sim.SimConfig(params=_params(20, 4), ps=W_WP, seed=7, stop_arrivals=2000)
    a, b = sim.run(config), sim.run(config)
    assert np.array_equal(a.avg_aoi_per_device, b.avg_aoi_per_device)
    assert a.end_time == b.end_time
    assert (a.delivered, a.failed, a.preempted, a.discarded) == \
           (b.delivered, b.failed, b.preempted, b.discarded)


def test_replicate_parallelism_is_bitwise_identical():
    config = sim.SimConfig(params=_params(20, 4), ps=W_WP, seed=3, stop_arrivals=1500)
    serial = sim.replicate(config, n_reps=4, parallelism=1)
    parallel = sim.replicate(config, n_reps=4, parallelism=2)
    assert serial.mean_aoi == parallel.mean_aoi
    assert serial.stderr == parallel.stderr
    for r_s, r_p in zip(serial.results, parallel.results):
        assert np.array_equal(r_s.avg_aoi_per_device, r_p.avg_aoi_per_device)


def test_runs_in_threads_match_sequential_runs():
    # Each thread cuts its stream blocks through its own buffers, so runs in
    # concurrent threads draw what they draw alone.  A short switch interval
    # lets a thread lose the interpreter between copying a block and slicing
    # its rows.
    configs = [sim.SimConfig(params=_params(1000, 200), ps=W_WP, seed=seed, stop_time=10.0)
               for seed in range(21, 29)]
    counters = ("arrivals", "delivered", "failed", "preempted", "discarded", "replaced", "held")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(sim.run, configs))
    finally:
        sys.setswitchinterval(interval)
    for config, got in zip(configs, threaded):
        want = sim.run(config)
        assert np.array_equal(got.avg_aoi_per_device, want.avg_aoi_per_device)
        assert np.array_equal(got.other_avg_aoi_per_device, want.other_avg_aoi_per_device)
        assert [getattr(got, c) for c in counters] == [getattr(want, c) for c in counters]


def test_replicate_starts_no_more_workers_than_replications(monkeypatch):
    """Under fork a pool starts all its workers at once, so a parallelism far
    above the replication count or the CPU count must not reach the pool."""
    seen = []
    cpus = [2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus[0])), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus[0])

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", SerialPool)
    config = sim.SimConfig(params=_params(20, 4), ps=W_WP, seed=3, stop_arrivals=200)
    capped = sim.replicate(config, n_reps=2, parallelism=5000)
    assert seen == [2]
    serial = sim.replicate(config, n_reps=2, parallelism=1)
    assert seen == [2]  # a single worker runs in this process
    assert capped.mean_aoi == serial.mean_aoi and capped.stderr == serial.stderr
    # 5000 replications stand in for 5000 runs: one result, handed back each time
    first = serial.results[0]
    monkeypatch.setattr(sim, "run", lambda config: first)
    sim.replicate(config, n_reps=5000, parallelism=5000)
    assert seen == [2, 2]
    cpus[0] = 1  # one CPU runs in this process
    sim.replicate(config, n_reps=5000, parallelism=5000)
    assert seen == [2, 2]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity: the CPU count
    cpus[0] = 3
    sim.replicate(config, n_reps=5000, parallelism=5000)
    assert seen == [2, 2, 3]


def test_policies_collapse_with_error_free_channels():
    # with p = 1 the failure branch is never taken, so all three policies
    # see identical event sequences under the same seed
    results = []
    for policy in Policy:
        params = _params(50, 10, p=1.0)
        config = sim.SimConfig(params=params, ps=PolicyScheme(policy, Scheme.WP),
                               seed=11, stop_arrivals=5000)
        results.append(sim.run(config))
    for other in results[1:]:
        assert np.array_equal(results[0].avg_aoi_per_device, other.avg_aoi_per_device)
        assert results[0].delivered == other.delivered
        assert results[0].end_time == other.end_time
    assert results[0].failed == 0


def test_trajectory_is_an_empirical_measure():
    params = _params(10, 2)
    config = sim.SimConfig(params=params, ps=W_WP, seed=5, stop_time=20.0,
                           warmup_fraction=0.0, sample_dt=0.5)
    result = sim.run(config)
    times, fractions = result.trajectory_times, result.trajectory_fractions
    assert times[0] == 0.0
    assert fractions[0] == pytest.approx([1.0, 0.0, 0.0])  # all devices start idle
    counts = fractions * 10
    assert np.abs(counts - np.round(counts)).max() < 1e-9  # multiples of 1/N
    assert np.abs(fractions.sum(axis=1) - 1.0).max() < 1e-12
    # at most all channels busy
    assert (fractions[:, 2] * 10).max() <= 2


def test_the_sample_at_t0_counts_an_arrival_at_t0(monkeypatch):
    # device 0's first arrival draw is exactly 0.0, so it arrives at t = 0;
    # the t = 0 sample counts it, as every later sample counts its events
    exponential = sim._exponential

    def first_arrival_at_t0(rate):
        sample = exponential(rate)
        if rate != FIG3["lam"]:
            return sample
        calls = []

        def draw(gen, shape):
            out = sample(gen, shape)
            if not calls:
                out[0, 0, 0] = 0.0
            calls.append(shape)
            return out
        return draw

    monkeypatch.setattr(sim, "_exponential", first_arrival_at_t0)
    config = sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=5, stop_time=3.0,
                           warmup_fraction=0.0, sample_dt=1.0)
    result = sim.run(config)
    assert result.trajectory_times[0] == 0.0
    assert result.trajectory_counts[0].tolist() == [9, 1, 0]


@pytest.mark.parametrize("c", [2.0, 0.25, 1024.0])
def test_scaling_the_rates_by_a_power_of_two_scales_every_time_exactly(c):
    # Multiplying lam, mu and w (or k) by c scales every time in the model by
    # 1/c.  numpy draws an exponential as its scale times a standard draw, and
    # a power-of-two factor commutes with rounding, so every AoI is exactly
    # 1/c times its unscaled value, every k estimate exactly c times, and the
    # counts are the same.  shs.stationary is the exception: its normalization
    # row of ones is not scaled with the rates, so the solve may pivot in
    # another order and round pi differently.  The chain's age solve is
    # checked on the unscaled pi.
    lam, mu, w, p = 0.8, 1.0, 2.0, 0.7
    params = SystemParams(lam=lam, mu=mu, w=w, p=p, gamma=5.0)
    scaled = replace(params, lam=c * lam, mu=c * mu, w=c * w)
    k = mf.equilibrium(Policy.W, params).k_star
    for ps in PolicyScheme.all_combinations():
        rates = dict(lam=lam, mu=mu, k=k, p=p)
        fast_rates = dict(lam=c * lam, mu=c * mu, k=c * k, p=p)
        assert cf.avg_aoi(ps, **fast_rates) == cf.avg_aoi(ps, **rates) / c
        pi = shs.stationary(shs.build_chain(ps, **rates))
        fast_chain = shs.build_chain(ps, **fast_rates)
        assert shs.solve_age_system(fast_chain, pi).avg_aoi == shs.average_aoi(ps, **rates) / c
        assert mf.aoi_at_equilibrium(ps, scaled) == mf.aoi_at_equilibrium(ps, params) / c
    events = attrgetter("arrivals", "delivered", "failed", "preempted", "discarded", "replaced",
                        "held")
    for n, m in ((1, 1), (10, 2), (200, 40)):
        params = SystemParams(lam=lam, mu=mu, w=w, p=p, gamma=n / m, n_devices=n, n_channels=m)
        scaled = replace(params, lam=c * lam, mu=c * mu, w=c * w)
        for ps in PolicyScheme.all_combinations():
            for stop, fast_stop in ((dict(stop_arrivals=400),) * 2,
                                    (dict(stop_time=10.0), dict(stop_time=10.0 / c))):
                base = sim.run(sim.SimConfig(params=params, ps=ps, seed=n, warmup_fraction=0.2,
                                             sample_dt=1.0, **stop))
                fast = sim.run(sim.SimConfig(params=scaled, ps=ps, seed=n, warmup_fraction=0.2,
                                             sample_dt=1.0 / c, **fast_stop))
                assert np.array_equal(fast.avg_aoi_per_device, base.avg_aoi_per_device / c)
                assert np.array_equal(fast.other_avg_aoi_per_device,
                                      base.other_avg_aoi_per_device / c)
                assert fast.effective_k_estimate == c * base.effective_k_estimate
                assert np.array_equal(fast.trajectory_times, base.trajectory_times / c)
                assert np.array_equal(fast.trajectory_counts, base.trajectory_counts)
                assert events(fast) == events(base)


def test_trajectory_requires_sample_dt():
    config = sim.SimConfig(params=_params(10, 2), ps=W_WP, seed=5, stop_time=5.0)
    result = sim.run(config)
    assert result.trajectory_times is None and result.trajectory_fractions is None


def test_aoi_accounting_basics():
    config = sim.SimConfig(params=_params(30, 6), ps=W_WP, seed=9, stop_arrivals=4000)
    result = sim.run(config)
    assert (result.avg_aoi_per_device > 0).all()
    assert result.delivered > 0
    assert result.failed > 0  # p = 0.7 must produce failures
    assert result.measured_time > 0
    assert 0.0 < result.effective_k_estimate <= FIG3["w"]
    assert result.arrivals >= result.preempted + result.discarded


def test_warmup_boundary_no_event_reaches():
    # no arrival in [0, 1] for these seeds, so the boundary t = 0.5 is applied
    # after the event loop and the AoI is t itself, averaged over [0.5, 1]
    params = replace(_single_device_params(), lam=0.001)
    for seed in (1, 2, 3, 5):
        result = sim.run(sim.SimConfig(params=params, ps=I_WP, seed=seed, stop_time=1.0,
                                       warmup_fraction=0.5))
        assert (result.arrivals, result.measured_time, result.avg_aoi_mean) == (0, 0.5, 0.75)


def test_effective_k_estimate_tracks_mean_field():
    """N = 300's time-averaged access rate is within 5 % of the mean field's k*.

    About 0.8 % of seeds would fail this with correct code.  Over 40 other
    seeds the relative error was +0.26 % with standard deviation 1.87 %
    (largest 4.6 %, none failed); a normal model puts 8.1e-3 beyond 5 %.
    """
    params = _params(300, 60)
    config = sim.SimConfig(params=params, ps=W_WP, seed=17, stop_arrivals=40_000,
                           warmup_fraction=0.2)
    result = sim.run(config)
    k_star = mf.equilibrium(Policy.W, params).k_star
    assert result.effective_k_estimate == pytest.approx(k_star, rel=0.05)


def test_single_run_near_mean_field_prediction():
    """One N = 1000 run's mean AoI is within 3 % of the mean field's.

    About 3e-4 of seeds would fail this with correct code.  Over 30 other
    seeds the relative error was -0.38 % with standard deviation 0.75 %
    (largest 1.7 %, none failed); a normal model puts 2.5e-4 beyond 3 %.
    """
    params = _params(1000, 200)
    config = sim.SimConfig(params=params, ps=W_WP, seed=99, stop_arrivals=100_000,
                           warmup_fraction=0.2)
    result = sim.run(config)
    target = mf.aoi_at_equilibrium(W_WP, params)
    assert result.avg_aoi_mean == pytest.approx(target, rel=0.03)


def test_preemption_reduces_aoi_in_simulation():
    """WP beats WOP for every policy at N = 1000.

    The false-failure probability is negligible: the gaps sit 25 to 36
    pooled standard errors above zero, against a gate of 2.
    """
    # WP beats WOP for every policy, significant at two pooled standard errors;
    # one run per policy gives both schemes
    params = _params(1000, 200)
    for policy in Policy:
        config = sim.SimConfig(params=params, ps=PolicyScheme(policy, Scheme.WP),
                               seed=31, stop_arrivals=30_000, warmup_fraction=0.2)
        run = sim.replicate(config, n_reps=20, parallelism=2)
        pooled = {scheme: run.as_scheme(scheme) for scheme in Scheme}
        gap = pooled[Scheme.WOP].mean_aoi - pooled[Scheme.WP].mean_aoi
        noise = np.hypot(pooled[Scheme.WP].stderr, pooled[Scheme.WOP].stderr)
        assert gap > 2.0 * noise, (policy, gap, noise)


@pytest.mark.parametrize("horizon", [dict(stop_arrivals=4_000), dict(stop_time=25.0)],
                         ids=["arrivals", "time"])
@pytest.mark.parametrize("n,m", [(1, 1), (10, 2), (200, 40)])
@pytest.mark.parametrize("policy", list(Policy))
def test_preemption_never_raises_a_device_aoi(policy, n, m, horizon):
    """On one run, every device's WP average AoI is at most its WOP average.

    The false-failure probability is 0: the claim holds on every sample
    path.  At every delivery the WP stamp is at or after the WOP stamp, so
    each WP sawtooth lies on or below the WOP one, and IEEE rounding is
    monotone, so the computed averages keep the order.  The two views also
    share every count but the in-service arrivals' name, and the trajectory.
    """
    config = sim.SimConfig(params=_params(n, m, gamma=n / m),
                           ps=PolicyScheme(policy, Scheme.WOP), seed=5,
                           warmup_fraction=0.2, sample_dt=1.0, **horizon)
    wop = sim.run(config)
    wp = wop.as_scheme(Scheme.WP)
    assert (wp.scheme, wop.scheme) == (Scheme.WP, Scheme.WOP)
    assert np.all(wp.avg_aoi_per_device <= wop.avg_aoi_per_device)
    assert wp.avg_aoi_mean <= wop.avg_aoi_mean
    for name in ("arrivals", "delivered", "failed", "replaced", "held", "effective_k_estimate",
                 "measured_time", "end_time", "trajectory_times", "trajectory_counts"):
        assert getattr(wp, name) is getattr(wop, name), name
    assert wp.preempted == wop.discarded
    assert wp.discarded == wop.preempted == 0
    assert wp.as_scheme(Scheme.WOP).avg_aoi_per_device is wop.avg_aoi_per_device


def test_half_width_shrinks_with_replications():
    """Four times the replications halve the half-width, within 30 %.

    About 2 % of seeds would fail this with correct code: the 25
    replications are the first 25 of the 100, and under a normal model the
    ratio lies inside the gate with probability about 0.98.
    """
    params = _params(20, 4)
    config = sim.SimConfig(params=params, ps=W_WP, seed=13, stop_arrivals=2000)
    few = sim.replicate(config, n_reps=25, parallelism=2)
    many = sim.replicate(config, n_reps=100, parallelism=2)
    ratio = few.half_width / many.half_width
    assert 2.0 * 0.7 < ratio < 2.0 * 1.3


def test_ensemble_mean_tracks_the_ode():
    """The mean of 400 N = 100 trajectories of x_I stays within 0.01 of the ODE.

    The false-failure probability is negligible.  Over 25 other seeds the
    worst gap was 0.0035 on average with standard deviation 0.0012 (largest
    0.0069, none failed), 5.5 standard deviations below the gate.
    """
    params = _params(100, 20)
    config = sim.SimConfig(params=params, ps=W_WP, seed=2, stop_time=10.0,
                           warmup_fraction=0.0, sample_dt=1.0)
    pooled = sim.replicate(config, n_reps=400, parallelism=2)
    mean_traj = np.mean([r.trajectory_fractions for r in pooled.results], axis=0)
    times = pooled.results[0].trajectory_times
    ode = mf.integrate(Policy.W, SystemParams(**FIG3), StateFractions(1.0, 0.0, 0.0),
                       t_end=10.0, dt=0.01)
    ode_at = {round(t, 6): row for t, row in zip(ode.times, ode.states)}
    worst = max(abs(mean_traj[i][0] - ode_at[round(t, 6)][0])
                for i, t in enumerate(times))
    assert worst < 0.01


# Raw results of sim.run pinned bit for bit.  Runs cycle through the eight
# combinations of horizon (arrivals or time), warm-up (0 or 0.2) and
# sampling (off or on).  Each digest covers per-device AoI, mean, stderr,
# the five counts, end and measured time, and the trajectory;
# effective_k_estimate is compared to 1e-12 relative, because it is a long
# float sum whose last bits depend on how its intervals are grouped.
_HORIZONS = [(h, warm, dt) for h in ("arrivals", "time") for warm in (0.0, 0.2)
             for dt in (None, 1.25)]


def _pin_configs(n, m):
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=n / m, n_devices=n, n_channels=m)
    for i, ps in enumerate(PolicyScheme.all_combinations()):
        horizon, warm, dt = _HORIZONS[(6 * n + i) % 8]
        stop = dict(stop_arrivals=1000 + 40 * n) if horizon == "arrivals" else dict(stop_time=150.0)
        yield sim.SimConfig(params=params, ps=ps, seed=n + i, warmup_fraction=warm,
                            sample_dt=dt, **stop)


def _final_arrival_configs():
    # the last (stop_arrivals-th) arrival meets an idle device in the
    # first run and a device in service in the other two
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0, n_devices=10, n_channels=2)
    for scheme, seed, stop in ((Scheme.WP, 4, 37), (Scheme.WP, 3, 101), (Scheme.WOP, 3, 101)):
        yield sim.SimConfig(params=params, ps=PolicyScheme(Policy.S, scheme), seed=seed,
                            stop_arrivals=stop, warmup_fraction=0.2, sample_dt=0.5)


def _digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(r.avg_aoi_per_device.tobytes())
        h.update(repr((r.avg_aoi_mean, r.avg_aoi_stderr, r.arrivals, r.delivered, r.failed,
                       r.preempted, r.discarded, r.end_time, r.measured_time)).encode())
        for traj in (r.trajectory_times, r.trajectory_counts):
            h.update(b"-" if traj is None else traj.tobytes())
    return h.hexdigest()


_PINNED_RUNS = {
    "n1": (
        list(_pin_configs(1, 1)),
        "0b2b4189274a6064d847d917f430ece639d8ee2e0adfdc59be80ce1fc81dfb9f",
        (1.2292894502957137, 1.2038060845625171, 1.1245693368176757,
         1.1490429671452675, 1.1453911072106377, 1.1119575149973127)),
    "n4": (
        list(_pin_configs(4, 1)),
        "288d00fe9682b46432809c64ff4f559f4149aa87026c9cb9d9a309d5bedc52c9",
        (0.3687511682244038, 0.3741806869387678, 0.31301852930602814,
         0.28773366757272045, 0.2633888816043535, 0.2254657117402954)),
    "n10": (
        list(_pin_configs(10, 2)),
        "df14d8e303da16478459bc0795e163b07524557e621b81199d7a25bd67c4b3f1",
        (0.25409415905870136, 0.2707150758112422, 0.2352643197179063,
         0.24514667713990845, 0.2020650123445562, 0.18672324941256857)),
    "n30": (
        list(_pin_configs(30, 6)),
        "7e58fd4ea60d1f5082f20fb21c760a165dc814dd7bc55acebd1d940991484341",
        (0.29818389604550544, 0.2715951142729467, 0.26536999382925486,
         0.25038400301965114, 0.200737736159305, 0.2109517707988915)),
    "n200": (
        list(_pin_configs(200, 40)),
        "5473ed403aec7760248cd8bc9756402f972cc5d72d63c8eefafa2545ebf2acb0",
        (0.29294431954408884, 0.31463802404684227, 0.2555966674772643,
         0.25649172956029465, 0.1932081162809547, 0.1918269865315998)),
    "final-arrival": (
        list(_final_arrival_configs()),
        "a5a5c66d42872e47d4aa2920f941789201da72480c8f1c6cffcac1dca4493dd5",
        (0.2664655788179835, 0.25571024847472823, 0.25571024847472823)),
}


@pytest.mark.parametrize("key", _PINNED_RUNS)
def test_raw_results_are_pinned(key):
    configs, digest, k_values = _PINNED_RUNS[key]
    results = [sim.run(config) for config in configs]
    assert _digest(results) == digest
    assert [r.effective_k_estimate for r in results] == pytest.approx(k_values, rel=1e-12)


@pytest.mark.parametrize("key", _PINNED_RUNS)
def test_the_other_schemes_run_gives_the_pinned_results(key):
    # a run of the other scheme, viewed as the pinned one, is the pinned run
    # bit for bit: both schemes share one trajectory
    configs, digest, _ = _PINNED_RUNS[key]
    other = {Scheme.WP: Scheme.WOP, Scheme.WOP: Scheme.WP}
    results = [sim.run(replace(c, ps=PolicyScheme(c.ps.policy, other[c.ps.scheme])))
               .as_scheme(c.ps.scheme) for c in configs]
    assert _digest(results) == digest


_SAMPLERS = {
    "exponential": lambda gen, shape: gen.exponential(0.5, shape),
    "integers": lambda gen, shape: gen.integers(0, 7, shape, dtype=np.int64),
    "random": lambda gen, shape: gen.random(shape),
}


def test_stream_hands_device_d_row_d_of_each_block():
    # Randomness contract: whatever order the devices read in, device d gets
    # row d of consecutive (n, 64) blocks of its (seed, replication,
    # purpose) Philox stream, as the Python numbers ``tolist`` makes, for
    # each sampler ``run`` uses.
    n, counts = 3, (200, 70, 131)
    config = sim.SimConfig(params=_params(n, 1, gamma=3.0), ps=W_WP, seed=11, replication=5,
                           stop_arrivals=1)
    order = [d for d, count in enumerate(counts) for _ in range(count)]
    random.Random(0).shuffle(order)
    for name, sample in _SAMPLERS.items():
        stream = sim._Stream(config, sim._P_SUCCESS, sample)
        got = [[] for _ in range(n)]
        for d in order:
            q = stream.draws[d]
            got[d].append(q.pop() if q else stream.refill(d))

        for d, want in enumerate(_reference_rows(config, sim._P_SUCCESS, sample, counts)):
            assert got[d] == want, name
            assert [type(draw) for draw in got[d]] == [type(draw) for draw in want], name


def _reference_rows(config, purpose, sample, counts):
    """Each device's first ``counts[d]`` draws of ``config``'s ``purpose``
    stream, built by hand from its Philox generator: row d of consecutive
    (n, 64) blocks, as the Python numbers ``tolist`` makes."""
    key = np.array([config.seed, (config.replication << 3) | purpose], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    blocks = [sample(gen, (len(counts), 64)).tolist() for _ in range(-(-max(counts) // 64))]
    return [[draw for block in blocks for draw in block[d]][:count]
            for d, count in enumerate(counts)]


def test_streams_sharing_a_cut_buffer_keep_their_own_rows():
    # Streams of one dtype cut their blocks through one reused buffer per n.
    # Drawn in turn, with devices still reading rows of earlier blocks, each
    # device still gets its own rows: a row is a copy, not a view of the
    # buffer that the next cut overwrites.
    # (purpose, draws per device), at n = 3, 5 and 3
    streams = [(sim._P_SUCCESS, (200, 70, 131)), (sim._P_SUCCESS, (90, 150, 7, 64, 129)),
               (sim._P_BACKOFF, (65, 190, 100))]
    configs = [sim.SimConfig(params=_params(len(counts), 1, gamma=float(len(counts))), ps=W_WP,
                             seed=11, replication=5, stop_arrivals=1) for _, counts in streams]
    order = [(i, d) for i, (_, counts) in enumerate(streams) for d, count in enumerate(counts)
             for _ in range(count)]
    random.Random(1).shuffle(order)
    for name, sample in _SAMPLERS.items():
        cut = [sim._Stream(config, purpose, sample)
               for config, (purpose, _) in zip(configs, streams)]
        got = [[[] for _ in counts] for _, counts in streams]
        for i, d in order:
            q = cut[i].draws[d]
            got[i][d].append(q.pop() if q else cut[i].refill(d))
        for config, (purpose, counts), rows in zip(configs, streams, got):
            assert rows == _reference_rows(config, purpose, sample, counts), (name, counts)


def test_cutting_a_block_makes_no_block_sized_temporary():
    # Once a buffer for its dtype and n exists, cutting a block costs numpy's
    # block (512 kB at n = 1000) and the n rows (about 579 kB), no more.
    n = 1000
    config = sim.SimConfig(params=_params(n, 200), ps=W_WP, seed=3, stop_arrivals=1)
    sim._Stream(config, sim._P_BACKOFF, _SAMPLERS["exponential"]).refill(0)
    stream = sim._Stream(config, sim._P_SERVICE, _SAMPLERS["exponential"])
    tracemalloc.start()
    try:
        stream.refill(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20


def test_stream_frees_blocks_every_device_has_left():
    # With every device moving through the blocks in step, a block is freed
    # as soon as the last device takes its row: traced memory stays flat.
    n = 1000
    config = sim.SimConfig(params=_params(n, 200), ps=W_WP, seed=3, stop_arrivals=1)
    stream = sim._Stream(config, sim._P_BACKOFF, _SAMPLERS["exponential"])

    def next_block():
        for d in range(n):
            stream.refill(d)

    tracemalloc.start()
    try:
        for _ in range(4):
            next_block()
        at_4 = tracemalloc.get_traced_memory()[0]
        for _ in range(36):
            next_block()
        at_40 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert at_40 - at_4 < 64 * 1024


def test_stream_keeps_only_the_rows_no_device_has_taken():
    # Device 0 stays on block 0 while the others take 20 blocks: each of
    # those blocks keeps device 0's row, not the 512 kB of the whole block.
    n = 1000
    config = sim.SimConfig(params=_params(n, 200), ps=W_WP, seed=3, stop_arrivals=1)
    stream = sim._Stream(config, sim._P_BACKOFF, _SAMPLERS["exponential"])

    def next_block():
        for d in range(1, n):
            stream.refill(d)

    tracemalloc.start()
    try:
        next_block()  # so the rows the devices hold are traced at both ends
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            next_block()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20
    assert stream.draws[0] and len(stream._blocks) == 21


def _arrival_rank_times(config, ranks, n_blocks):
    """The ``ranks``-th smallest arrival times of ``n_blocks`` blocks of
    ``config``'s arrival stream, all held at once."""
    n = config.params.n_devices
    key = np.array([config.seed, config.replication << 3], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    draws = gen.exponential(1.0 / config.params.lam, (n_blocks, n, 64))
    times = np.cumsum(draws.transpose(1, 0, 2).reshape(n, -1), axis=1)
    in_order = np.sort(times, axis=None)
    assert in_order[max(ranks) - 1] < times[:, -1].min()  # every arrival up to it drawn
    return [float(in_order[a - 1]) if a else 0.0 for a in ranks]


@pytest.mark.parametrize("warmup", [0.0, 0.2, 0.5])
@pytest.mark.parametrize("stop_arrivals", [1, 2, 50, 900])
@pytest.mark.parametrize("n", [1, 7, 200])
def test_arrival_horizon_is_exact(n, stop_arrivals, warmup):
    # The pass gives the exact order statistics of all devices' arrival
    # times, including a warm-up that ends at the horizon's own arrival.
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=float(n), n_devices=n,
                          n_channels=1)
    config = sim.SimConfig(params=params, ps=W_WP, seed=5, replication=2,
                           stop_arrivals=stop_arrivals, warmup_fraction=warmup)
    want = _arrival_rank_times(config, [math.ceil(warmup * stop_arrivals), stop_arrivals], 20)
    assert list(sim._arrival_horizon(config)) == want


@pytest.mark.parametrize("rounds", ["one-call", "top-up"])
@pytest.mark.parametrize("n, stop", [(1, dict(stop_arrivals=500)), (7, dict(stop_arrivals=900)),
                                     (7, dict(stop_time=150.0))])
def test_arrival_times_are_one_draw_at_a_time(rounds, n, stop, monkeypatch):
    # Randomness contract: device d's arrival times sum row d of successive
    # (n, 64) blocks of the arrival stream, one draw at a time.  An arrival
    # horizon's pass draws a tenth of each horizon in one round of blocks,
    # the whole horizon only in several.  The run counts every arrival up to
    # the end.
    if rounds == "one-call":
        stop = {key: value // 10 for key, value in stop.items()}
    sizes = []
    draw_blocks = sim._Stream.blocks

    def recording_blocks(stream, k):
        sizes.append(k)
        return draw_blocks(stream, k)

    monkeypatch.setattr(sim._Stream, "blocks", recording_blocks)
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=float(n), n_devices=n,
                          n_channels=1)
    config = sim.SimConfig(params=params, ps=W_WP, seed=5, replication=2, warmup_fraction=0.2,
                           **stop)

    key = np.array([5, (2 << 3) | 0], dtype=np.uint64)  # replication 2, arrival purpose
    gen = np.random.Generator(np.random.Philox(key=key))
    blocks = [gen.exponential(scale=1.0 / 0.8, size=(n, 64)).tolist() for _ in range(20)]
    expected = []
    for d in range(n):
        t, times = 0.0, []
        for block in blocks:
            for draw in block[d]:
                t += draw
                times.append(t)
        expected.append(times)
    in_order = sorted(t for times in expected for t in times)
    if "stop_time" in stop:
        t_stop = stop["stop_time"]
    else:
        t_warm, t_stop = sim._arrival_horizon(config)
        a_stop = stop["stop_arrivals"]
        assert t_stop == in_order[a_stop - 1]
        assert t_warm == in_order[math.ceil(0.2 * a_stop) - 1]
        assert (len(sizes) == 1) == (rounds == "one-call")
    assert t_stop < min(times[-1] for times in expected)  # the reference covers the horizon
    horizon_sizes = sizes.copy()
    sizes.clear()
    assert sim.run(config).arrivals == sum(t <= t_stop for t in in_order)
    # the run repeats an arrival horizon's pass, then draws one block at a time
    k = len(horizon_sizes)
    assert sizes[:k] == horizon_sizes and set(sizes[k:]) == {1}


@pytest.mark.parametrize("p", [0.7, 1.0])
@pytest.mark.parametrize("ps", PolicyScheme.all_combinations(), ids=lambda ps: ps.label)
def test_events_follow_the_shs_chain_edges(ps, p, monkeypatch):
    """Each event moves its device along an edge of the device's SHS chain.

    With N = M = 1 the channel is free at every backoff expiry, so every
    event is one pending event replaced by the device's next one, and the
    kinds of the two are the device's state before and after.  The chain's
    lam-rate self-loops (replacement while waiting, preemption in service)
    are arrivals the simulator applies without an event.
    """
    moves = []

    def recording_heapreplace(heap, item):
        moves.append((heap[0][2], item[2]))
        return heapq.heapreplace(heap, item)

    monkeypatch.setattr(sim, "heapreplace", recording_heapreplace)
    lam, mu, w = 0.8, 1.0, 2.0
    params = SystemParams(lam=lam, mu=mu, w=w, p=p, gamma=1.0, n_devices=1, n_channels=1)
    result = sim.run(sim.SimConfig(params=params, ps=ps, seed=3, stop_arrivals=3000))
    chain = shs.build_chain(ps, lam=lam, mu=mu, k=w, p=p)
    edges = {(tr.from_state, tr.to_state) for tr in chain.transitions
             if not (tr.from_state == tr.to_state and tr.rate == lam)}
    assert set(moves) == edges
    assert sum(src == SERVICE for src, _ in moves) == result.delivered + result.failed


@pytest.mark.parametrize("p", [0.7, 1.0])
@pytest.mark.parametrize("n", [1, 4, 10, 30, 200])
def test_every_arrival_is_accounted_for(n, p):
    # Every arrival up to the end is delivered, lost to a failure under
    # policy I, preempted, discarded, replaced while waiting, or still held.
    m = max(1, n // 5)
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=p, gamma=n / m, n_devices=n, n_channels=m)
    for ps in PolicyScheme.all_combinations():
        # 64 arrivals use a device's whole first block at N = 1, so the run
        # draws the second block to find the next arrival past the horizon
        for stop in (dict(stop_arrivals=20 * n + 200), dict(stop_time=25.0),
                     dict(stop_arrivals=64)):
            r = sim.run(sim.SimConfig(params=params, ps=ps, seed=n, **stop))
            dropped = r.failed if ps.policy is Policy.I else 0
            assert r.arrivals == (r.delivered + dropped + r.preempted + r.discarded
                                  + r.replaced + r.held), (ps.label, stop)
            assert 0 <= r.held <= n


def _traced_peak(config):
    tracemalloc.start()
    try:
        sim.run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_memory_per_sample_is_flat():
    # A sampled trajectory costs its 32 bytes per sample (one time and three
    # counts), not a Python object per sample.
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=1.0, n_devices=1, n_channels=1)

    def traced_peak(stop_time):
        return _traced_peak(sim.SimConfig(params=params, ps=W_WP, seed=1, stop_time=stop_time,
                                          sample_dt=0.1))

    traced_peak(1000.0)  # warm-up
    slope = (traced_peak(3000.0) - traced_peak(1000.0)) / 20_000
    assert slope < 64


def test_time_horizon_memory_does_not_grow_with_its_arrivals():
    # A time horizon draws each arrival when its device reaches it, so ten
    # times the arrivals (16k against 160k) leave the traced peak flat.
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=10.0, n_devices=10, n_channels=1)

    def traced_peak(stop_time):
        return _traced_peak(sim.SimConfig(params=params, ps=W_WP, seed=1, stop_time=stop_time))

    traced_peak(2000.0)  # warm-up
    assert traced_peak(20_000.0) - traced_peak(2000.0) < 512 * 1024


def test_arrival_horizon_memory_does_not_grow_with_its_arrivals():
    # The arrival pass keeps a bounded round of blocks and the times near its
    # two order statistics, so ten times the arrivals leave its peak flat.
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0, n_devices=10, n_channels=2)

    def traced_peak(stop_arrivals):
        config = sim.SimConfig(params=params, ps=W_WP, seed=1, stop_arrivals=stop_arrivals,
                               warmup_fraction=0.2)
        tracemalloc.start()
        try:
            sim._arrival_horizon(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(10**4)  # warm-up
    assert traced_peak(10**6) < 2 * traced_peak(10**5)
