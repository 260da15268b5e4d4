"""Tests for the event-driven simulator: correctness, determinism, statistics."""

import numpy as np
import pytest

from aoi_csma import closedform as cf
from aoi_csma import meanfield as mf
from aoi_csma import sim
from aoi_csma.core import Policy, PolicyScheme, Scheme, StateFractions, SystemParams

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
    with pytest.raises(sim.InvalidConfig):
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
    with pytest.raises(sim.InvalidConfig):
        sim.replicate(good, n_reps=0)


def test_single_device_matches_closed_form():
    # one device always senses an idle channel, so k = w and the
    # closed form at lam = mu = k = p = 1 gives 2.75
    config = sim.SimConfig(params=_single_device_params(), ps=I_WP, seed=42,
                           stop_arrivals=30_000)
    result = sim.run(config)
    assert result.avg_aoi_mean == pytest.approx(2.75, rel=0.02)
    assert result.failed == 0 and result.discarded == 0
    assert result.preempted > 0
    assert result.arrivals == 30_000


@pytest.mark.parametrize("ps", PolicyScheme.all_combinations(), ids=lambda ps: ps.label)
def test_single_device_failure_branch_matches_closed_form(ps):
    # with N = M = 1 the channel is always free, so k = w stays exact at
    # p < 1, where every failure goes through the policy's branch
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=1.0, n_devices=1, n_channels=1)
    config = sim.SimConfig(params=params, ps=ps, seed=1, stop_arrivals=5_000)
    pooled = sim.replicate(config, n_reps=8)
    expected = cf.avg_aoi(ps, lam=0.8, mu=1.0, k=2.0, p=0.7).total
    assert abs(pooled.mean_aoi - expected) < 5.0 * pooled.stderr
    assert all(r.failed > 0 for r in pooled.results)


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


def test_effective_k_estimate_tracks_mean_field():
    params = _params(300, 60)
    config = sim.SimConfig(params=params, ps=W_WP, seed=17, stop_arrivals=40_000,
                           warmup_fraction=0.2)
    result = sim.run(config)
    k_star = mf.equilibrium(Policy.W, params).k_star
    assert result.effective_k_estimate == pytest.approx(k_star, rel=0.05)


def test_single_run_near_mean_field_prediction():
    params = _params(1000, 200)
    config = sim.SimConfig(params=params, ps=W_WP, seed=99, stop_arrivals=100_000,
                           warmup_fraction=0.2)
    result = sim.run(config)
    target = mf.aoi_at_equilibrium(W_WP, params)
    assert result.avg_aoi_mean == pytest.approx(target, rel=0.03)


def test_preemption_reduces_aoi_in_simulation():
    # WP beats WOP for every policy, significant at two pooled standard errors
    params = _params(1000, 200)
    for policy in Policy:
        pooled = {}
        for scheme in Scheme:
            config = sim.SimConfig(params=params, ps=PolicyScheme(policy, scheme),
                                   seed=31, stop_arrivals=30_000, warmup_fraction=0.2)
            pooled[scheme] = sim.replicate(config, n_reps=20, parallelism=2)
        gap = pooled[Scheme.WOP].mean_aoi - pooled[Scheme.WP].mean_aoi
        noise = np.hypot(pooled[Scheme.WP].stderr, pooled[Scheme.WOP].stderr)
        assert gap > 2.0 * noise, (policy, gap, noise)


def test_half_width_shrinks_with_replications():
    params = _params(20, 4)
    config = sim.SimConfig(params=params, ps=W_WP, seed=13, stop_arrivals=2000)
    few = sim.replicate(config, n_reps=25, parallelism=2)
    many = sim.replicate(config, n_reps=100, parallelism=2)
    ratio = few.half_width / many.half_width
    assert 2.0 * 0.7 < ratio < 2.0 * 1.3


def test_ensemble_mean_tracks_the_ode():
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
