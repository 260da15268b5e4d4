"""Tests for the generic chain solver and the six device chains."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_csma import closedform as cf
from aoi_csma import shs
from aoi_csma.core import Policy, PolicyScheme, Scheme

I_WP = PolicyScheme(Policy.I, Scheme.WP)
I_WOP = PolicyScheme(Policy.I, Scheme.WOP)
W_WP = PolicyScheme(Policy.W, Scheme.WP)
W_WOP = PolicyScheme(Policy.W, Scheme.WOP)
S_WP = PolicyScheme(Policy.S, Scheme.WP)

rates = st.floats(0.1, 5.0)
probs = st.floats(0.05, 1.0)


def _edges(chain):
    return {(t.from_state, t.to_state, t.rate) for t in chain.transitions}


def test_build_chain_matches_the_transition_table():
    chain = shs.build_chain(I_WP, lam=1.0, mu=1.0, k=1.0, p=0.5)
    assert chain.n_states == 3 and chain.age_dim == 2
    assert len(chain.transitions) == 6
    # the two state-2 -> state-0 edges (delivery and failure) are parallel
    # with distinct reset maps, so the distinct (from, to, rate) set has 5 entries
    assert _edges(chain) == {
        (0, 1, 1.0),   # arrival into waiting
        (1, 2, 1.0),   # service entry at rate k
        (1, 1, 1.0),   # waiting replacement
        (2, 0, 0.5),   # delivery (mu*p) and failure (mu*(1-p)) coincide at p=1/2
        (2, 2, 1.0),   # in-service preemption (WP only)
    }
    delivery = [t for t in chain.transitions if t.from_state == 2 and t.to_state == 0
                and np.array_equal(t.reset, [[0, 0], [1, 0]])]
    assert len(delivery) == 1 and delivery[0].rate == 0.5
    failure = [t for t in chain.transitions if t.from_state == 2 and t.to_state == 0
               and np.array_equal(t.reset, np.eye(2))]
    assert len(failure) == 1 and failure[0].rate == 0.5
    assert np.array_equal(chain.growth, [[1, 0], [1, 1], [1, 1]])


def test_failure_edge_target_depends_on_policy():
    for ps, target in ((I_WP, 0), (W_WP, 1), (S_WP, 2)):
        chain = shs.build_chain(ps, lam=1.0, mu=1.0, k=1.0, p=0.5)
        failure = [t for t in chain.transitions
                   if t.from_state == 2 and t.rate == pytest.approx(0.5)
                   and np.array_equal(t.reset, np.eye(2))]
        assert len(failure) == 1
        assert failure[0].to_state == target


def test_edge_counts_per_scheme_and_error_free_channels():
    assert len(shs.build_chain(I_WP, lam=1, mu=1, k=1, p=0.5).transitions) == 6
    assert len(shs.build_chain(I_WP, lam=1, mu=1, k=1, p=1.0).transitions) == 5
    assert len(shs.build_chain(W_WOP, lam=1, mu=1, k=1, p=0.5).transitions) == 5
    assert len(shs.build_chain(W_WOP, lam=1, mu=1, k=1, p=1.0).transitions) == 4


def test_build_chain_rejects_degenerate_rates():
    with pytest.raises(shs.DegenerateRate):
        shs.build_chain(I_WP, lam=1, mu=1, k=1, p=0.0)
    with pytest.raises(shs.DegenerateRate):
        shs.build_chain(I_WP, lam=1, mu=1, k=1, p=1.5)
    with pytest.raises(shs.DegenerateRate):
        shs.build_chain(I_WP, lam=-1, mu=1, k=1, p=0.5)


def test_stationary_symmetric_rates():
    chain = shs.build_chain(I_WP, lam=1, mu=1, k=1, p=1)
    assert shs.stationary(chain) == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-14)


@given(lam=rates, mu=rates, k=rates, p=probs)
@settings(max_examples=60)
def test_stationary_matches_closed_forms_and_schemes_agree(lam, mu, k, p):
    for policy in Policy:
        pi_wp = shs.stationary(shs.build_chain(PolicyScheme(policy, Scheme.WP),
                                               lam=lam, mu=mu, k=k, p=p))
        pi_wop = shs.stationary(shs.build_chain(PolicyScheme(policy, Scheme.WOP),
                                                lam=lam, mu=mu, k=k, p=p))
        expected = cf.stationary(policy, lam=lam, mu=mu, k=k, p=p).as_tuple()
        assert pi_wp == pytest.approx(expected, abs=1e-12)
        assert pi_wop == pytest.approx(list(pi_wp), abs=1e-15)


def test_stationary_not_irreducible():
    chain = shs.ShsChain(
        n_states=3, age_dim=2,
        transitions=(shs.Transition(0, 1, 1.0, np.eye(2)),),  # state 2 unreachable
        growth=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]),
    )
    with pytest.raises(shs.NotIrreducible):
        shs.stationary(chain)


_GROW = np.array([[1.0, 0.0], [1.0, 1.0]])
_RESET = np.array([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("growth, transitions, message", [
    (np.ones((3, 2)), (), r"growth must have shape \(2, 2\)"),
    (np.array([[1.0, 0.5], [1.0, 1.0]]), (), "growth entries must be 0 or 1"),
    (np.array([[1.0, 0.0], [0.0, 1.0]]), (), "the receiver age z_0 must grow"),
    (_GROW, (shs.Transition(0, 2, 1.0, _RESET),), "transition 0->2 out of range"),
    (_GROW, (shs.Transition(0, 1, 1.0, np.eye(3)),), "reset matrix shape mismatch"),
    (_GROW, (shs.Transition(0, 1, 1.0, 0.5 * _RESET),), "reset entries must be 0 or 1"),
])
def test_chain_construction_refuses_malformed_input(growth, transitions, message):
    with pytest.raises(ValueError, match=message):
        shs.ShsChain(n_states=2, age_dim=2, transitions=transitions, growth=growth)


def test_age_solution_reference_values():
    chain = shs.build_chain(I_WP, lam=1, mu=1, k=1, p=1)
    sol = shs.solve_age_system(chain, shs.stationary(chain))
    assert sol.avg_aoi == pytest.approx(2.75, abs=1e-12)
    assert (sol.v >= 0).all()

    chain = shs.build_chain(I_WOP, lam=1, mu=1, k=1, p=1)
    sol = shs.solve_age_system(chain, shs.stationary(chain))
    assert sol.avg_aoi == pytest.approx(3.5, abs=1e-12)


def test_age_system_refuses_a_mis_shaped_pi():
    chain = shs.build_chain(I_WP, lam=1, mu=1, k=1, p=1)
    with pytest.raises(ValueError, match=r"pi must have shape \(3,\), got \(2,\)"):
        shs.solve_age_system(chain, np.array([0.5, 0.5]))


def test_age_system_refuses_a_negative_or_nan_solution():
    # v is linear in pi, so a negated pi gives negated ages, and a NaN in pi
    # leaves a non-finite solution that the residual check refuses
    chain = shs.build_chain(I_WP, lam=1, mu=1, k=1, p=1)
    pi = shs.stationary(chain)
    with pytest.raises(shs.NegativeSolution, match="age system produced negative entries"):
        shs.solve_age_system(chain, -pi)
    pi[1] = np.nan
    with pytest.raises(shs.SingularAgeSystem, match="age balance solve left residual"):
        shs.solve_age_system(chain, pi)


def test_age_system_singular_for_unreachable_states():
    # states 1 and 2 carry no transitions at all: their balance rows vanish
    chain = shs.ShsChain(
        n_states=3, age_dim=2,
        transitions=(shs.Transition(0, 0, 1.0, np.array([[0.0, 0.0], [1.0, 0.0]])),),
        growth=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
    )
    with pytest.raises(shs.SingularAgeSystem):
        shs.solve_age_system(chain, np.array([1.0, 0.0, 0.0]))


def test_average_aoi_collapse_and_divergence():
    assert shs.average_aoi(S_WP, lam=1, mu=1, k=1, p=1) == pytest.approx(2.75, abs=1e-12)
    with pytest.raises(shs.DegenerateRate):
        shs.average_aoi(I_WP, lam=1, mu=1, k=1, p=0.0)


@given(lam=rates, mu=rates, k=rates, p=probs)
@settings(max_examples=60)
def test_oracle_matches_closed_forms(lam, mu, k, p):
    for ps in PolicyScheme.all_combinations():
        via_chain = shs.average_aoi(ps, lam=lam, mu=mu, k=k, p=p)
        direct = cf.avg_aoi(ps, lam=lam, mu=mu, k=k, p=p)
        assert abs(via_chain - direct) / direct < 1e-9


@pytest.mark.parametrize("scale", [1e8, 1e12])
def test_oracle_matches_closed_forms_at_large_rates(scale):
    # the balance residual pi @ q grows with the rates, so the irreducibility
    # check must gauge it relative to them, not against an absolute 1e-9
    rates = dict(lam=0.3 * scale, mu=1.7 * scale, k=0.9 * scale, p=0.7)
    for ps in PolicyScheme.all_combinations():
        via_chain = shs.average_aoi(ps, **rates)
        direct = cf.avg_aoi(ps, **rates)
        assert abs(via_chain - direct) / direct < 1e-9


def test_cross_check_at_figure_parameters():
    via_chain = shs.average_aoi(W_WP, lam=0.9, mu=1.0, k=2.0, p=0.6)
    direct = cf.avg_aoi(W_WP, lam=0.9, mu=1.0, k=2.0, p=0.6)
    assert abs(via_chain - direct) / direct < 1e-9


def test_hand_written_fixture_solves_to_renewal_value():
    # one state, delivery-at-arrival self-transition at rate 2: average AoI 2/rate
    deliver = np.array([[0.0, 0.0], [1.0, 0.0]])  # z0' = z1, z1' = 0
    chain = shs.ShsChain(n_states=1, age_dim=2, growth=np.array([[1.0, 1.0]]),
                         transitions=(shs.Transition(0, 0, 2.0, deliver),))
    assert chain.n_states == 1 and chain.age_dim == 2
    pi = shs.stationary(chain)
    assert pi == pytest.approx([1.0])
    sol = shs.solve_age_system(chain, pi)
    assert sol.avg_aoi == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Batched solves: array rates are solved as one stack, bit for bit like scalars.

def _grid(count, seed=515):
    rng = np.random.default_rng(seed)
    lam, mu, k = rng.uniform(0.1, 5.0, size=(3, count))
    return lam, mu, k, rng.uniform(0.05, 1.0, size=count)


@pytest.mark.parametrize("ps", PolicyScheme.all_combinations(), ids=lambda ps: ps.label)
@pytest.mark.parametrize("lossless", [False, True], ids=["p<1", "p=1"])
def test_batched_solve_equals_scalar_solves_exactly(ps, lossless):
    count = 100 if lossless else 500
    lam, mu, k, p = _grid(count)
    if lossless:
        p = np.ones(count)
    chain = shs.build_chain(ps, lam=lam, mu=mu, k=k, p=p)
    assert chain.batch_shape == (count,)
    pi = shs.stationary(chain)
    sol = shs.solve_age_system(chain, pi)
    aoi = shs.average_aoi(ps, lam=lam, mu=mu, k=k, p=p)
    assert pi.shape == (count, 3) and sol.v.shape == (count, 3, 2) and aoi.shape == (count,)
    assert np.array_equal(sol.avg_aoi, aoi)
    for i in range(count):
        one = shs.build_chain(ps, lam=lam[i], mu=mu[i], k=k[i], p=p[i])
        one_pi = shs.stationary(one)
        assert np.array_equal(pi[i], one_pi)
        assert np.array_equal(sol.v[i], shs.solve_age_system(one, one_pi).v)
        assert aoi[i] == shs.average_aoi(ps, lam=lam[i], mu=mu[i], k=k[i], p=p[i])


def test_batch_axes_lead_and_keep_their_shape():
    lam, mu, k, p = (x.reshape(4, 5) for x in _grid(20))
    aoi = shs.average_aoi(W_WP, lam=lam, mu=mu, k=k, p=p)
    flat = shs.average_aoi(W_WP, lam=lam.ravel(), mu=mu.ravel(), k=k.ravel(), p=p.ravel())
    assert aoi.shape == (4, 5)
    assert np.array_equal(aoi.ravel(), flat)
    chain = shs.build_chain(W_WP, lam=lam, mu=mu, k=k, p=p)
    pi = shs.stationary(chain)
    sol = shs.solve_age_system(chain, pi)
    assert pi.shape == (4, 5, 3) and sol.v.shape == (4, 5, 3, 2)


def test_scalar_calls_return_float():
    assert type(shs.average_aoi(I_WP, lam=1.0, mu=1.0, k=1.0, p=0.5)) is float
    assert type(shs.average_aoi(I_WP, lam=1, mu=1, k=1, p=1)) is float
    chain = shs.build_chain(I_WOP, lam=1.3, mu=0.7, k=2.1, p=0.4)
    assert chain.batch_shape == ()
    assert type(shs.solve_age_system(chain, shs.stationary(chain)).avg_aoi) is float


def test_batch_rejects_degenerate_entries():
    lam, mu, k, p = _grid(8)
    with pytest.raises(shs.DegenerateRate, match=r"batch index \(3,\)"):
        shs.average_aoi(I_WP, lam=lam, mu=mu, k=k, p=np.where(np.arange(8) == 3, 0.0, p))
    with pytest.raises(shs.DegenerateRate, match="mixes p = 1"):
        shs.average_aoi(S_WP, lam=lam, mu=mu, k=k, p=np.where(np.arange(8) == 5, 1.0, p))
    with pytest.raises(shs.DegenerateRate, match=r"batch index \(6,\)"):
        shs.average_aoi(W_WOP, lam=np.where(np.arange(8) == 6, -1.0, lam), mu=mu, k=k, p=p)
    with pytest.raises(shs.DegenerateRate, match=r"has rate inf at batch index \(1,\)"):
        shs.average_aoi(I_WP, lam=np.array([1.0, np.inf]), mu=1, k=1, p=0.5)


# ---------------------------------------------------------------------------
# A chain's operators, against an assembly entry by entry.

def _reference_operators(chain):
    """Generator and age operator summed entry by entry, batch axes leading."""
    n, m, batch = chain.n_states, chain.age_dim, chain.batch_shape
    q = np.zeros((n, n) + batch)
    for tr in chain.transitions:
        if tr.from_state != tr.to_state:
            q[tr.from_state, tr.to_state] += tr.rate
    d = np.arange(n)
    q[d, d] -= q.sum(axis=1)
    a = np.zeros((n * m, n * m) + batch)
    out_rate = np.zeros((n,) + batch)
    for tr in chain.transitions:
        out_rate[tr.from_state] += tr.rate
    for s in range(n):
        for j in range(m):
            a[s * m + j, s * m + j] += out_rate[s]
    for tr in chain.transitions:
        src, dst = tr.from_state, tr.to_state
        for j in range(m):
            for i in range(m):
                if tr.reset[i, j] != 0.0:
                    a[dst * m + j, src * m + i] -= tr.rate * tr.reset[i, j]
    return np.moveaxis(q, (0, 1), (-2, -1)), np.moveaxis(a, (0, 1), (-2, -1))


def _hand_built_chains():
    rng = np.random.default_rng(32)
    lam, mu, _, _ = _grid(6)
    # age_dim 1: a self-loop that resets the age and one that keeps it
    yield pytest.param(shs.ShsChain(
        n_states=2, age_dim=1, growth=np.ones((2, 1)), transitions=(
            shs.Transition(0, 1, 1.5, np.zeros((1, 1))),
            shs.Transition(1, 0, mu, np.ones((1, 1))),
            shs.Transition(1, 1, 0.4, np.zeros((1, 1))),
            shs.Transition(0, 0, lam, np.ones((1, 1))),
        )), id="age_dim-1")
    # age_dim 3: parallel edges, self-loops on the diagonal, float and array rates
    resets = rng.integers(0, 2, size=(7, 3, 3)).astype(float)
    resets[3] = np.eye(3)
    ends = ((0, 1), (0, 1), (1, 2), (2, 2), (2, 0), (2, 0), (1, 1))
    rates = (lam, 0.8, mu, 1.1, lam * mu, 2.5, mu)
    yield pytest.param(shs.ShsChain(
        n_states=3, age_dim=3, growth=np.array([[1.0, 0, 0], [1, 1, 0], [1, 1, 1]]),
        transitions=tuple(shs.Transition(f, t, r, reset)
                          for (f, t), r, reset in zip(ends, rates, resets))), id="age_dim-3")


def _device_chains():
    lam, mu, k, p = _grid(50)
    for ps in PolicyScheme.all_combinations():
        yield pytest.param(shs.build_chain(ps, lam=1.3, mu=0.7, k=2.1, p=0.4),
                           id=f"{ps.label}-floats")
        yield pytest.param(shs.build_chain(ps, lam=2, mu=1, k=3, p=1), id=f"{ps.label}-ints")
        yield pytest.param(shs.build_chain(ps, lam=lam, mu=mu, k=k, p=p), id=f"{ps.label}-arrays")
    lam, mu, k = (x.reshape(5, 10) for x in (lam, mu, k))
    yield pytest.param(shs.build_chain(W_WP, lam=lam, mu=mu, k=k, p=np.ones((5, 10))),
                       id="W-WP-2d-lossless")


@pytest.mark.parametrize("chain", [*_device_chains(), *_hand_built_chains()])
def test_chain_operators_equal_a_reference_assembly(chain):
    n, m, batch = chain.n_states, chain.age_dim, chain.batch_shape
    generator, age_operator = _reference_operators(chain)
    assert chain.generator.shape == batch + (n, n)
    assert chain.age_operator.shape == batch + (n * m, n * m)
    assert np.array_equal(chain.generator, generator)
    assert np.array_equal(chain.age_operator, age_operator)
