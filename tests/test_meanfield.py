"""Tests for the mean-field ODE, equilibria, and monotonicity machinery."""

import hashlib
import math

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
I_WP = PolicyScheme(Policy.I, Scheme.WP)
W_WP = PolicyScheme(Policy.W, Scheme.WP)

param_sets = st.builds(
    SystemParams,
    lam=st.floats(0.1, 5.0),
    mu=st.floats(0.1, 5.0),
    w=st.floats(0.1, 5.0),
    p=st.floats(0.05, 1.0),
    gamma=st.floats(0.2, 10.0),
)

# busy probability above 0.99 for most draws, where the equilibrium takes 1 - y
# from the root product
saturated_sets = st.builds(
    SystemParams,
    lam=st.floats(2.0, 5.0),
    mu=st.floats(0.05, 0.2),
    w=st.floats(3.0, 5.0),
    p=st.floats(0.05, 1.0),
    gamma=st.floats(5.0, 10.0),
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


@given(points=st.lists(st.one_of(param_sets, saturated_sets), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_array_equilibria_give_the_scalar_values_bit_for_bit(points):
    rates = np.array([(q.lam, q.mu, q.w, q.gamma, q.p) for q in points]).T
    for policy in Policy:
        scalars = [mf.equilibrium(policy, q) for q in points]
        x_i, x_w, x_s, k = mf._radical(policy, *rates)
        assert k.tobytes() == np.array([eq.k_star for eq in scalars]).tobytes()
        assert np.column_stack((x_i, x_w, x_s)).tobytes() == np.array(
            [eq.x_star.as_tuple() for eq in scalars]).tobytes()


def test_saturated_points_take_the_root_product_branch():
    # the points test_array_equilibria_give_the_scalar_values_bit_for_bit
    # draws to reach 1 - y < 0.01 do reach it
    for policy in Policy:
        eq = mf.equilibrium(policy, SystemParams(lam=3.0, mu=0.1, w=4.0, p=0.5, gamma=8.0))
        assert 1.0 - 8.0 * eq.x_star.x_s < 0.01


def test_equilibrium_requires_positive_p_under_feedback():
    params = SystemParams(lam=1, mu=1, w=1, p=0.0, gamma=1.0)
    mf.equilibrium(Policy.I, params)  # policy (I) is p-independent
    with pytest.raises(InvalidParameter):
        mf.equilibrium(Policy.W, params)
    with pytest.raises(InvalidParameter):
        mf.equilibrium(Policy.S, params)


def test_equilibrium_fixed_point_check_catches_a_wrong_root(monkeypatch):
    # A mistranscribed radical still gives a root in (0, 1), and ``residual``
    # cannot see it: the drift at x* is zero by construction for any x_s.
    # Only the fixed-point check on x_s does.
    sqrt = np.sqrt
    monkeypatch.setattr(mf.np, "sqrt", lambda v: 1.01 * sqrt(v))
    for policy in Policy:
        with pytest.raises(mf.NoFeasibleRoot, match="fixed-point residual .* too large"):
            mf.equilibrium(policy, FIG3)


def test_equilibrium_refuses_a_root_outside_the_unit_interval(monkeypatch):
    # A radical of the wrong sign and ten times too large puts the smaller
    # root below 0.  The discriminant itself cannot go negative, since the
    # quadratic is negative at y = 1.
    sqrt = np.sqrt
    monkeypatch.setattr(mf.np, "sqrt", lambda v: -10 * sqrt(v))
    for policy in Policy:
        with pytest.raises(mf.NoFeasibleRoot, match="no equilibrium root with busy probability"):
            mf.equilibrium(policy, FIG3)


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


# Trajectories that reach the step map's fixed point: (policy, params,
# start (None: the equilibrium), t_end, dt) and the SHA-256 of their times
# and states as computed step by step.  Every max_simplex_correction is 0.0.
_PINNED_INTEGRATE = {
    "I": ((Policy.I, FIG3, (1.0, 0.0, 0.0), 200.0, 0.01),
          "54169221c84d84d68de6cc4d6290fcca598905358dc649034e13e38663563585",
          "c2a082aaa2d19ef20fc9ca81fb81aa049c74aaa38b8b001f4368fe159de97821"),
    "W": ((Policy.W, FIG3, (1.0, 0.0, 0.0), 200.0, 0.01),
          "54169221c84d84d68de6cc4d6290fcca598905358dc649034e13e38663563585",
          "62814e016a93a77b86ed9aad9a9545959569c4e429091373a5fcf0fbcc0d25ef"),
    "S": ((Policy.S, FIG3, (1.0, 0.0, 0.0), 200.0, 0.01),
          "54169221c84d84d68de6cc4d6290fcca598905358dc649034e13e38663563585",
          "56ad501ce95f1a5f6265fea1c3fad16dd0e25602d835fbd55d95cc0fe514d655"),
    "W-partial-last-step": ((Policy.W, FIG3, (1.0, 0.0, 0.0), 200.005, 0.01),
                            "8b7b1f7bb01134cb63f284ae0aa96c806df486d2286f4bb6c704339e71da5be9",
                            "45550e9cf350f6dac20eead98910988a3a3f44e58b6b4eb8f605e68c8d03f5bf"),
    "W-from-equilibrium": ((Policy.W, FIG3, None, 200.0, 0.01),
                           "54169221c84d84d68de6cc4d6290fcca598905358dc649034e13e38663563585",
                           "c94643e679c0db1d2db467d06d356fc6c66cede19a2254939ece21c06866032d"),
    "S-dt-0.003": ((Policy.S, FIG3, (0.2, 0.78, 0.02), 200.0, 0.003),
                   "c0c5949feab80890d1b7de77372d5c4a9247228ea6b3667518206e645900f02c",
                   "5f8e92797496c6cab71f521560ae7a7ffe1bf923933cbe904314891c00e3a218"),
    # the last, partial step moves x_s by one ulp off the full step's fixed point
    "S-partial-step-moves": ((Policy.S, SystemParams(lam=0.8, mu=2.0, w=3.0, p=0.7, gamma=10.0),
                              None, 1.05, 0.1),
                             "f1235a1b5634c8b3ecabc2ec9c481380574ef2c9ffd786d2a1c1713295ae9ac2",
                             "7abfab63cb3437d081e6d12053b64c7d4b78f1fa17383f615938998be1c9afe1"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_INTEGRATE))
def test_integrate_bytes_are_pinned_through_the_fixed_point(case):
    (policy, params, start, t_end, dt), *expected = _PINNED_INTEGRATE[case]
    x0 = mf.equilibrium(policy, params).x_star if start is None else StateFractions(*start)
    traj = mf.integrate(policy, params, x0, t_end=t_end, dt=dt)
    assert [hashlib.sha256(data).hexdigest()
            for data in (traj.times.tobytes(), traj.states.tobytes())] == expected
    assert repr(traj.max_simplex_correction) == "0.0"


def test_integrate_rejects_bad_inputs():
    with pytest.raises(InvalidParameter):
        mf.integrate(Policy.I, FIG3, StateFractions(0.6, 0.6, 0.0), t_end=1.0)
    with pytest.raises(InvalidParameter):
        mf.integrate(Policy.I, FIG3, StateFractions(1.0, 0.0, 0.0), t_end=1.0, dt=0.0)
    for t_end, dt in ((math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(InvalidParameter, match="positive and finite"):
            mf.integrate(Policy.I, FIG3, StateFractions(1.0, 0.0, 0.0), t_end=t_end, dt=dt)


def test_integrate_rejects_infeasible_occupancy():
    with pytest.raises(InfeasibleOccupancy, match="during integration"):
        mf.integrate(Policy.W, FIG3, StateFractions(0.0, 0.0, 1.0), t_end=1.0)


def test_step_too_large_names_the_deviation():
    # At dt = 2 the first step keeps the component sum near 1 but drives a
    # component far below 0; the message reports how far, and when.
    with pytest.raises(mf.StepTooLarge) as err:
        mf.integrate(Policy.W, FIG3, StateFractions(1.0, 0.0, 0.0), t_end=20.0, dt=2.0)
    assert str(err.value) == ("state left the simplex by 4687.650133333334 at t=2.0; "
                              "use a smaller dt")


def test_integrate_puts_a_start_off_the_simplex_back_on_it():
    # the start sums to 1 - 1e-10, within the 1e-9 the start may be off; the
    # first step carries the deficit, is renormalized and records it
    traj = mf.integrate(Policy.W, FIG3, StateFractions(1.0 - 1e-10, 0.0, 0.0), t_end=1.0)
    assert traj.max_simplex_correction == pytest.approx(1e-10, rel=1e-6)
    assert np.abs(traj.states[1:].sum(axis=1) - 1.0).max() < 1e-15


def test_trajectory_points_stay_on_simplex():
    traj = mf.integrate(Policy.S, FIG3, StateFractions(0.2, 0.78, 0.02), t_end=50.0, dt=0.01)
    sums = traj.states.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    assert traj.states.min() > -1e-9


def test_aoi_at_equilibrium_composition():
    ps = PolicyScheme(Policy.W, Scheme.WP)
    eq = mf.equilibrium(Policy.W, FIG3)
    expected = cf.avg_aoi(ps, lam=FIG3.lam, mu=FIG3.mu, k=eq.k_star, p=FIG3.p)
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
    report, = mf.monotonicity_report([I_WP], FIG3, "p", np.linspace(0.3, 0.9, 10))
    assert not report.d_x.any()  # x* does not depend on p at all
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
            pair = PolicyScheme(policy, Scheme.WP)
            report, = mf.monotonicity_report([pair], FIG5, which, grid)
            assert "mismatch" not in report.verdicts.values(), (policy, which, report.verdicts)


def test_monotonicity_policy_w_is_reported_not_asserted():
    report, = mf.monotonicity_report([W_WP], FIG3, "mu", np.linspace(0.5, 3.0, 8))
    assert report.verdicts["aoi"] == "report"
    assert report.verdicts["x_w"] == "report"  # sign of dx_w/dmu is an open question
    for which in mf.SWEEPABLE:  # no AoI sign is claimed for (W) along any parameter
        report, = mf.monotonicity_report([W_WP], FIG3, which, [0.6, 0.9])
        assert report.verdicts["aoi"] == "report"


def test_aoi_rises_in_lambda_without_preemption_where_w_over_mu_is_large():
    """Where the mean-field AoI is not monotone in lambda: at mu=0.05, w=50,
    gamma=3, p=0.9, going from lambda=0.025 to 0.045, the three WOP curves
    rise (by 2.544 %, 2.357 % and 2.777 % for I, W and S) and the three WP
    curves fall (by 6.95-7.73 %)."""
    pairs = list(PolicyScheme.all_combinations())
    base = SystemParams(lam=0.025, mu=0.05, w=50.0, gamma=3.0, p=0.9)
    for ps, rows in zip(pairs, mf.aoi_along(pairs, base, "lam", [0.025, 0.045])):
        low, high = rows[4]
        change = high / low - 1.0
        if ps.scheme is Scheme.WOP:
            assert change > 0.02, (ps.label, change)
        else:
            assert change < -0.06, (ps.label, change)


def test_monotonicity_grid_validation():
    with pytest.raises(mf.GridPointInvalid):
        mf.monotonicity_report([I_WP], FIG3, "p", [0.5, 1.0])
    with pytest.raises(mf.GridPointInvalid):
        mf.monotonicity_report([I_WP], FIG3, "mu", [0.0, 1.0])
    with pytest.raises(mf.GridPointInvalid):
        mf.monotonicity_report([I_WP], FIG3, "bogus", [1.0])
    with pytest.raises(mf.GridPointInvalid, match="empty grid"):
        mf.monotonicity_report([I_WP], FIG3, "p", [])
