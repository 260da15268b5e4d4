"""Tests for the shared domain types and parameter validation."""

import math

import pytest
from hypothesis import given, strategies as st

from aoi_csma.core import (
    InfeasibleOccupancy,
    InvalidParameter,
    Policy,
    PolicyScheme,
    Scheme,
    StateFractions,
    SystemParams,
    effective_waiting_rate,
    parse_policy,
    parse_scheme,
    validate,
)


def test_validate_accepts_reference_parameters():
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0,
                          n_devices=100, n_channels=20)
    assert validate(params) is params


@pytest.mark.parametrize("field,params", [
    ("lam", SystemParams(lam=0.0, mu=1, w=1, p=1, gamma=1)),
    ("lam", SystemParams(lam=-0.1, mu=1, w=1, p=1, gamma=1)),
    ("mu", SystemParams(lam=1, mu=0, w=1, p=1, gamma=1)),
    ("w", SystemParams(lam=1, mu=1, w=-2, p=1, gamma=1)),
    ("gamma", SystemParams(lam=1, mu=1, w=1, p=1, gamma=0)),
    ("p", SystemParams(lam=1, mu=1, w=1, p=1.2, gamma=1)),
    ("p", SystemParams(lam=1, mu=1, w=1, p=-0.01, gamma=1)),
    ("lam", SystemParams(lam=math.inf, mu=1, w=1, p=1, gamma=1)),
    ("n_devices", SystemParams(lam=1, mu=1, w=1, p=1, gamma=1, n_devices=0, n_channels=1)),
])
def test_validate_names_the_violated_field(field, params):
    with pytest.raises(InvalidParameter) as exc:
        validate(params)
    assert exc.value.field == field


def test_validate_rejects_gamma_population_mismatch():
    params = SystemParams(lam=1, mu=1, w=1, p=1, gamma=5.0, n_devices=100, n_channels=21)
    with pytest.raises(InvalidParameter) as exc:
        validate(params)
    assert exc.value.field == "gamma"


def test_validate_accepts_p_zero():
    # p = 0 is a valid parameter record; only AoI evaluation diverges there.
    validate(SystemParams(lam=1, mu=1, w=1, p=0.0, gamma=1))


def test_policy_scheme_combinations():
    combos = PolicyScheme.all_combinations()
    assert len(combos) == 6
    assert len(set(combos)) == 6
    assert {ps.label for ps in combos} == {
        "I-WP", "I-WOP", "W-WP", "W-WOP", "S-WP", "S-WOP",
    }


def test_parse_policy_and_scheme():
    assert parse_policy("i") is Policy.I
    assert parse_scheme("wop") is Scheme.WOP
    with pytest.raises(InvalidParameter):
        parse_policy("X")
    with pytest.raises(InvalidParameter):
        parse_scheme("np")


def test_effective_waiting_rate_examples():
    assert effective_waiting_rate(2.0, 5.0, 0.0) == 2.0
    # equilibrium service fraction of the reference parameter set
    assert effective_waiting_rate(2.0, 5.0, 0.174143) == pytest.approx(0.258570, abs=1e-9)
    with pytest.raises(InfeasibleOccupancy):
        effective_waiting_rate(2.0, 5.0, 0.2)  # gamma * x_s == 1
    with pytest.raises(InfeasibleOccupancy):
        effective_waiting_rate(2.0, 5.0, 0.25)
    with pytest.raises(InvalidParameter):
        effective_waiting_rate(2.0, 5.0, -0.01)


@given(
    w=st.floats(0.1, 10.0),
    gamma=st.floats(0.1, 10.0),
    # Kept clear of 1: gamma * (x / gamma) rounds to exactly 1.0 for some
    # x just below 1 (gamma=0.75, x=0.9999999999999999), which is infeasible.
    x1=st.floats(0.0, 0.999999),
    x2=st.floats(0.0, 0.999999),
)
def test_effective_waiting_rate_decreases_in_occupancy(w, gamma, x1, x2):
    lo, hi = sorted((x1, x2))
    lo_s, hi_s = lo / gamma, hi / gamma  # scale into the feasible range
    k_lo = effective_waiting_rate(w, gamma, lo_s)
    k_hi = effective_waiting_rate(w, gamma, hi_s)
    assert 0.0 < k_hi <= k_lo <= w
    if hi - lo > 1e-9:  # a resolvable gap, not a rounding artifact
        assert k_hi < k_lo


@given(
    w=st.floats(0.1, 10.0),
    g1=st.floats(0.1, 10.0),
    g2=st.floats(0.1, 10.0),
    u=st.floats(1e-6, 0.99),
)
def test_effective_waiting_rate_decreases_in_gamma(w, g1, g2, u):
    g_lo, g_hi = sorted((g1, g2))
    x_s = u / g_hi  # feasible for both ratios
    k_lo = effective_waiting_rate(w, g_lo, x_s)
    k_hi = effective_waiting_rate(w, g_hi, x_s)
    assert k_hi <= k_lo
    if (g_hi - g_lo) * x_s > 1e-9:
        assert k_hi < k_lo


def test_state_fractions_simplex_check():
    assert StateFractions(0.2, 0.3, 0.5).on_simplex()
    assert not StateFractions(0.2, 0.3, 0.6).on_simplex()
    assert not StateFractions(-0.1, 0.6, 0.5).on_simplex()
