"""Tests for the mean-field ODE, equilibria, and monotonicity machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_csma import closedform as cf
from aoi_csma import meanfield as mf
from aoi_csma.core import (
    InfeasibleOccupancy,
    InvalidParameter,
    Policy,
    PolicyScheme,
    Scheme,
    StateFractions,
    SystemParams,
)

FIG3 = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0)
FIG5 = SystemParams(lam=0.8, mu=1.5, w=2.0, p=0.7, gamma=5.0)

param_sets = st.builds(
    SystemParams,
    lam=st.floats(0.1, 5.0),
    mu=st.floats(0.1, 5.0),
    w=st.floats(0.1, 5.0),
    p=st.floats(0.05, 1.0),
    gamma=st.floats(0.2, 10.0),
)


def _feasible_point(params: SystemParams, u: tuple[float, float, float]) -> StateFractions:
    """Map three uniforms onto the simplex with x_s inside the feasible wedge."""
    raw = np.array([u[0], u[1], u[2] / max(1.0, params.gamma)]) + 1e-9
    raw /= raw.sum()
    if params.gamma * raw[2] >= 1.0:
        raw[2] = 0.99 / params.gamma
        raw[:2] *= (1.0 - raw[2]) / raw[:2].sum()
    return StateFractions(*raw)


def test_drift_examples():
    d = mf.drift(Policy.W, FIG3, StateFractions(1.0, 0.0, 0.0))
    assert d == pytest.approx([-0.8, 0.8, 0.0], abs=0)
    d = mf.drift(Policy.I, FIG3, StateFractions(1.0, 0.0, 0.0))
    assert d == pytest.approx([-0.8, 0.8, 0.0], abs=0)
    eq = mf.equilibrium(Policy.W, FIG3)
    assert np.abs(mf.drift(Policy.W, FIG3, eq.x_star)).max() < 1e-12


def test_drift_rejects_infeasible_occupancy():
    with pytest.raises(InfeasibleOccupancy):
        mf.drift(Policy.W, FIG3, StateFractions(0.5, 0.29, 0.21))  # gamma*x_s > 1


@given(params=param_sets, u=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=150)
def test_drift_components_sum_to_zero_exactly(params, u):
    x = _feasible_point(params, u)
    for policy in Policy:
        d = mf.drift(policy, params, x)
        assert d.sum() == 0.0  # exact in floating point, by construction


def test_equilibrium_reference_values():
    eq = mf.equilibrium(Policy.W, FIG3)
    assert eq.x_star.x_s == pytest.approx(0.174143, abs=1e-5)
    assert eq.x_star.x_i == pytest.approx(0.152375, abs=1e-5)
    assert eq.x_star.x_w == pytest.approx(0.673485, abs=1e-5)
    assert eq.k_star == pytest.approx(0.258570, abs=1e-5)
    assert eq.residual < 1e-10
    assert eq.stability_margin > 0


def test_equilibrium_matches_fixed_point_bisection():
    # independent oracle: bisect the fixed-point residual on [0, 1/gamma)
    lam, mu, w, gamma, p = 0.8, 1.0, 2.0, 5.0, 0.7

    def residual(x):
        k = w * (1.0 - gamma * x)
        return x - lam * k / ((lam + mu * p) * k + lam * mu)

    lo, hi = 0.0, 1.0 / gamma - 1e-15
    assert residual(lo) < 0 < residual(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert mf.equilibrium(Policy.W, FIG3).x_star.x_s == pytest.approx(lo, abs=1e-10)


def test_policy_w_at_p_one_equals_policy_i():
    params = SystemParams(lam=1.3, mu=0.9, w=2.4, p=1.0, gamma=3.0)
    eq_w = mf.equilibrium(Policy.W, params)
    eq_i = mf.equilibrium(Policy.I, params)
    assert eq_w.x_star == eq_i.x_star
    assert eq_w.k_star == eq_i.k_star


def test_policy_s_holds_channels_longer_than_w():
    assert (mf.equilibrium(Policy.S, FIG3).x_star.x_s
            > mf.equilibrium(Policy.W, FIG3).x_star.x_s)


@given(params=param_sets)
@settings(max_examples=150, deadline=None)
def test_equilibrium_invariants(params, ):
    for policy in Policy:
        eq = mf.equilibrium(policy, params)
        x = eq.x_star
        assert 0.0 < x.x_s < 1.0 / params.gamma
        assert x.x_i > 0 and x.x_w > 0
        assert x.x_i + x.x_w + x.x_s == pytest.approx(1.0, abs=1e-12)
        assert eq.residual < 1e-10
        assert eq.stability_margin > 0
        # the larger quadratic root must be infeasible (uniqueness)
        p_eff = 1.0 if policy is Policy.I else params.p
        mu_term = params.mu * params.p if policy is Policy.S else params.mu
        a = params.w * params.gamma * (params.lam + params.mu * p_eff)
        b = params.w * (params.lam + params.mu * p_eff + params.lam * params.gamma) + params.lam * mu_term
        c = params.lam * params.w
        other = (b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert not (0.0 <= other < 1.0 / params.gamma)
        # fixed-point residuals of the ratio equations
        k = eq.k_star
        mu_i = params.mu * p_eff
        mu_w = params.mu * params.p if policy is Policy.S else params.mu
        assert abs(x.x_i - (mu_i / params.lam) * x.x_s) < 1e-12
        assert abs(x.x_w - mu_w * x.x_s / k) < 1e-12


def test_equilibrium_requires_positive_p_under_feedback():
    params = SystemParams(lam=1, mu=1, w=1, p=0.0, gamma=1.0)
    mf.equilibrium(Policy.I, params)  # policy (I) is p-independent
    with pytest.raises(InvalidParameter):
        mf.equilibrium(Policy.W, params)
    with pytest.raises(InvalidParameter):
        mf.equilibrium(Policy.S, params)


def test_integrate_reaches_equilibrium():
    eq = mf.equilibrium(Policy.W, FIG3)
    traj = mf.integrate(Policy.W, FIG3, StateFractions(1.0, 0.0, 0.0), t_end=200.0, dt=0.01)
    assert np.abs(traj.states[-1] - eq.x_star.as_tuple()).max() < 1e-6
    assert traj.max_simplex_correction < 1e-9
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(200.0)


def test_integrate_fixed_point_is_constant():
    eq = mf.equilibrium(Policy.W, FIG3)
    traj = mf.integrate(Policy.W, FIG3, eq.x_star, t_end=10.0, dt=0.01)
    assert np.abs(traj.states - traj.states[0]).max() < 1e-9


def test_integrate_rejects_bad_inputs():
    with pytest.raises(InvalidParameter):
        mf.integrate(Policy.I, FIG3, StateFractions(0.6, 0.6, 0.0), t_end=1.0)
    with pytest.raises(InvalidParameter):
        mf.integrate(Policy.I, FIG3, StateFractions(1.0, 0.0, 0.0), t_end=1.0, dt=0.0)


def test_trajectory_points_stay_on_simplex():
    traj = mf.integrate(Policy.S, FIG3, StateFractions(0.2, 0.78, 0.02), t_end=50.0, dt=0.01)
    sums = traj.states.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    assert traj.states.min() > -1e-9


def test_aoi_at_equilibrium_composition():
    ps = PolicyScheme(Policy.W, Scheme.WP)
    eq = mf.equilibrium(Policy.W, FIG3)
    expected = cf.avg_aoi(ps, lam=FIG3.lam, mu=FIG3.mu, k=eq.k_star, p=FIG3.p).total
    assert mf.aoi_at_equilibrium(ps, FIG3) == expected


def test_aoi_at_equilibrium_full_collapse_at_p_one():
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=1.0, gamma=5.0)
    a_i = mf.aoi_at_equilibrium(PolicyScheme(Policy.I, Scheme.WP), params)
    a_s = mf.aoi_at_equilibrium(PolicyScheme(Policy.S, Scheme.WP), params)
    assert a_i == pytest.approx(a_s, abs=1e-12)


def test_policy_s_wp_smallest_at_reference_point():
    totals = {ps.label: mf.aoi_at_equilibrium(ps, FIG5)
              for ps in PolicyScheme.all_combinations()}
    assert min(totals, key=totals.get) == "S-WP"


def test_monotonicity_policy_i_is_p_independent():
    report = mf.monotonicity_report(Policy.I, Scheme.WP, FIG3, "p",
                                    np.linspace(0.3, 0.9, 10))
    assert report.x_claims == {"x_i": 0, "x_w": 0, "x_s": 0}
    assert report.verdicts["x_i"] == "match"
    assert report.verdicts["x_w"] == "match"
    assert report.verdicts["x_s"] == "match"
    # AoI itself still falls with p under policy (I)
    assert report.verdicts["aoi"] == "match"


def test_monotonicity_asserted_signs_match_for_i_and_s():
    grids = {"lam": np.linspace(0.1, 2.0, 8), "mu": np.linspace(0.5, 3.0, 8),
             "w": np.linspace(0.5, 5.0, 8), "gamma": np.linspace(1.0, 10.0, 8),
             "p": np.linspace(0.3, 0.99, 8)}
    for policy in (Policy.I, Policy.S):
        for which, grid in grids.items():
            report = mf.monotonicity_report(policy, Scheme.WP, FIG5, which, grid)
            assert report.all_claims_match(), (policy, which, report.verdicts)


def test_monotonicity_policy_w_is_reported_not_asserted():
    report = mf.monotonicity_report(Policy.W, Scheme.WP, FIG3, "mu",
                                    np.linspace(0.5, 3.0, 8))
    assert report.aoi_claim is None
    assert report.verdicts["aoi"] == "report"
    assert report.verdicts["x_w"] == "report"  # sign of dx_w/dmu is an open question


def test_monotonicity_grid_validation():
    with pytest.raises(mf.GridPointInvalid):
        mf.monotonicity_report(Policy.I, Scheme.WP, FIG3, "p", [0.5, 1.0])
    with pytest.raises(mf.GridPointInvalid):
        mf.monotonicity_report(Policy.I, Scheme.WP, FIG3, "mu", [0.0, 1.0])
    with pytest.raises(mf.GridPointInvalid):
        mf.monotonicity_report(Policy.I, Scheme.WP, FIG3, "bogus", [1.0])
