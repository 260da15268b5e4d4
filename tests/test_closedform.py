"""Tests for the closed-form AoI expressions, stationary laws, and gaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_csma import closedform as cf
from aoi_csma.core import InvalidParameter, Policy, PolicyScheme, Scheme

I_WP = PolicyScheme(Policy.I, Scheme.WP)
I_WOP = PolicyScheme(Policy.I, Scheme.WOP)
W_WP = PolicyScheme(Policy.W, Scheme.WP)
S_WP = PolicyScheme(Policy.S, Scheme.WP)

rates = st.floats(0.1, 5.0)
probs = st.floats(0.05, 1.0)


def test_reference_values_at_unit_rates():
    assert cf.avg_aoi(I_WP, lam=1, mu=1, k=1, p=1) == pytest.approx(2.75, abs=1e-12)
    assert cf.avg_aoi(I_WOP, lam=1, mu=1, k=1, p=1) == pytest.approx(3.5, abs=1e-12)
    # at p=1 the three policies coincide
    assert cf.avg_aoi(S_WP, lam=1, mu=1, k=1, p=1) == pytest.approx(2.75, abs=1e-12)


def test_hand_derived_values_with_losses():
    # unit rates, p = 1/2, expanded by hand from the printed expressions
    assert cf.avg_aoi(I_WP, lam=1, mu=1, k=1, p=0.5) == pytest.approx(
        3 / 0.5 + 3 / 4 - 1, abs=1e-12)
    assert cf.avg_aoi(W_WP, lam=1, mu=1, k=1, p=0.5) == pytest.approx(
        (0.5 + 2) / 0.5 + 3 / 3.5 - 3 / 2.5, abs=1e-12)
    assert cf.avg_aoi(S_WP, lam=1, mu=1, k=1, p=0.5) == pytest.approx(
        4 + 2.5 / 3 - 2.5 / 2, abs=1e-12)


@given(lam=rates, mu=rates, k=rates, p=probs)
def test_breakdown_terms_sum_to_total(lam, mu, k, p):
    for ps in PolicyScheme.all_combinations():
        assert cf.avg_aoi(ps, lam=lam, mu=mu, k=k, p=p) > 0


@given(st.lists(st.tuples(rates, rates, rates, probs), min_size=1, max_size=40))
def test_arrays_give_the_scalar_values_bit_for_bit(tuples):
    lam, mu, k, p = np.array(tuples).T
    for ps in PolicyScheme.all_combinations():
        scalars = [cf.avg_aoi(ps, lam=a, mu=b, k=c, p=d) for a, b, c, d in tuples]
        assert cf.avg_aoi(ps, lam=lam, mu=mu, k=k, p=p).tobytes() == np.array(scalars).tobytes()


def test_arrays_raise_what_their_first_bad_point_raises():
    ones = np.ones(3)
    with pytest.raises(InvalidParameter, match=r"'p': must lie in \(0, 1\], got 1.5"):
        cf.avg_aoi(W_WP, lam=ones, mu=ones, k=np.array([1.0, 1.0, -1.0]),
                   p=np.array([0.5, 1.5, 0.5]))
    with pytest.raises(cf.DivergentAoi, match=r"^p = 0.0: no packet is ever delivered$"):
        cf.avg_aoi(W_WP, lam=ones, mu=1.0, k=np.array([1.0, 1.0, -1.0]), p=np.array([0.0, 1.5, 1]))
    assert cf.avg_aoi(I_WP, lam=ones, mu=1, k=1, p=1).tolist() == [2.75] * 3


def test_stationary_examples():
    # policy (I) is p-independent
    pi = cf.stationary(Policy.I, lam=1, mu=1, k=1, p=0.3)
    assert pi.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    pi_w = cf.stationary(Policy.W, lam=1, mu=1, k=1, p=0.5)
    assert pi_w.as_tuple() == pytest.approx((0.2, 0.4, 0.4), abs=1e-15)
    pi_s = cf.stationary(Policy.S, lam=1, mu=1, k=1, p=0.5)
    assert pi_s.as_tuple() == pytest.approx((0.25, 0.25, 0.5), abs=1e-15)


@given(lam=rates, mu=rates, k=rates, p=probs)
def test_stationary_is_a_distribution(lam, mu, k, p):
    for policy in Policy:
        pi = cf.stationary(policy, lam=lam, mu=mu, k=k, p=p)
        assert min(pi.as_tuple()) > 0
        assert sum(pi.as_tuple()) == pytest.approx(1.0, abs=1e-12)


def test_preemption_gap_examples():
    assert cf.preemption_gap(Policy.I, lam=1, mu=1, k=1, p=0.7) == pytest.approx(0.75, abs=1e-12)
    assert cf.preemption_gap(Policy.S, lam=1, mu=1, k=1, p=1) == pytest.approx(0.75, abs=1e-12)
    w_gap = cf.preemption_gap(Policy.W, lam=1, mu=1, k=1, p=0.5)
    w_diff = (cf.avg_aoi(PolicyScheme(Policy.W, Scheme.WOP), lam=1, mu=1, k=1, p=0.5)
              - cf.avg_aoi(W_WP, lam=1, mu=1, k=1, p=0.5))
    assert w_gap == pytest.approx(w_diff, abs=1e-12)


@given(lam=rates, mu=rates, k=rates, p=probs)
def test_gap_equals_scheme_difference_and_is_positive(lam, mu, k, p):
    for policy in Policy:
        gap = cf.preemption_gap(policy, lam=lam, mu=mu, k=k, p=p)
        diff = (cf.avg_aoi(PolicyScheme(policy, Scheme.WOP), lam=lam, mu=mu, k=k, p=p)
                - cf.avg_aoi(PolicyScheme(policy, Scheme.WP), lam=lam, mu=mu, k=k, p=p))
        assert gap > 0
        assert gap == pytest.approx(diff, abs=1e-12)


@given(lam=rates, mu=rates, k=rates)
def test_policies_collapse_at_p_one(lam, mu, k):
    for scheme in Scheme:
        totals = [cf.avg_aoi(PolicyScheme(policy, scheme), lam=lam, mu=mu, k=k, p=1.0)
                  for policy in Policy]
        assert abs(totals[0] - totals[1]) < 1e-12
        assert abs(totals[0] - totals[2]) < 1e-12


def test_monotone_decreasing_in_k():
    grid = np.linspace(0.1, 8.0, 120)
    for policy in (Policy.I, Policy.S):
        for scheme in Scheme:
            ps = PolicyScheme(policy, scheme)
            vals = [cf.avg_aoi(ps, lam=0.9, mu=1.0, k=k, p=0.6) for k in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))
    # policy (W) has no such guarantee in the analysis: computed and reported only
    for scheme in Scheme:
        ps = PolicyScheme(Policy.W, scheme)
        vals = [cf.avg_aoi(ps, lam=0.9, mu=1.0, k=k, p=0.6) for k in grid]
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        print(f"W-{scheme.value} AoI decreasing in k on this grid: {decreasing}")


def test_monotone_decreasing_in_p_at_fixed_k():
    grid = np.linspace(0.3, 1.0, 60)
    for ps in PolicyScheme.all_combinations():
        vals = [cf.avg_aoi(ps, lam=0.9, mu=1.0, k=2.0, p=p) for p in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_divergent_and_invalid_inputs():
    with pytest.raises(cf.DivergentAoi):
        cf.avg_aoi(I_WP, lam=1, mu=1, k=1, p=0.0)
    with pytest.raises(cf.DivergentAoi):
        cf.avg_aoi(I_WP, lam=0.0, mu=1, k=1, p=0.5)
    with pytest.raises(cf.DivergentAoi):
        cf.preemption_gap(Policy.S, lam=1, mu=1, k=0.0, p=0.5)
    with pytest.raises(InvalidParameter):
        cf.avg_aoi(I_WP, lam=1, mu=1, k=1, p=1.5)
    # a negative input is out of the domain, not a divergence, and is named
    for name in ("lam", "mu", "k", "p"):
        args = dict(dict(lam=1, mu=1, k=1, p=0.5), **{name: -0.5})
        with pytest.raises(InvalidParameter) as exc:
            cf.avg_aoi(W_WP, **args)
        assert exc.value.field == name
        with pytest.raises(InvalidParameter) as exc:
            cf.preemption_gap(Policy.S, **args)
        assert exc.value.field == name
    # a non-finite input is refused, not carried into a nan or inf AoI
    for bad in (dict(lam=math.nan), dict(mu=math.inf), dict(k=-math.inf), dict(p=math.nan)):
        args = dict(dict(lam=1, mu=1, k=1, p=0.5), **bad)
        with pytest.raises(InvalidParameter, match="must be a positive finite number"):
            cf.avg_aoi(W_WP, **args)
        with pytest.raises(InvalidParameter, match="must be a positive finite number"):
            cf.preemption_gap(Policy.W, **args)


@pytest.mark.parametrize("extreme", [1e-200, 1e200])
def test_values_that_are_not_finite_raise_divergent_aoi(extreme):
    # rates in their domain can still overflow or underflow float64: near 0
    # the products lam*k vanish, near 1e200 they overflow.  A float raises
    # for its point, an array names its first failing point.
    point = dict(lam=extreme, mu=extreme, k=extreme, p=0.5)
    grid = dict(point, **{name: np.array([1.0, extreme]) for name in ("lam", "mu", "k")})
    at = f" is not finite at lam={extreme!r}, mu={extreme!r}, k={extreme!r}, p=0.5"
    for rates in (point, grid):
        with pytest.raises(cf.DivergentAoi) as exc:
            cf.avg_aoi(W_WP, **rates)
        assert str(exc.value) == "average AoI" + at
        for policy in Policy:
            with pytest.raises(cf.DivergentAoi) as exc:
                cf.preemption_gap(policy, **rates)
            assert str(exc.value) == "preemption gap" + at
