"""Generic stochastic-hybrid-system solver for average AoI.

A chain couples a finite CTMC with a continuous age vector z that grows at
binary per-state rates and is reset linearly (z' = z @ A) on transitions.
Unlike an ordinary CTMC the chain may carry self-transitions and parallel
edges: they do not move the discrete state but do reset z, so they are
excluded from the stationary balance yet appear on both sides of the age
linear system.

The six policy/scheme device chains are built here from their transition
tables; solving them is the independent oracle against the closed forms in
:mod:`aoi_csma.closedform`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import FAILURE_TARGET, IDLE, SERVICE, WAITING, AoiError, PolicyScheme, Scheme


class DegenerateRate(AoiError):
    """A constructed transition rate is not strictly positive."""


class NotIrreducible(AoiError):
    """The balance equations are singular beyond the normalization redundancy."""


class SingularAgeSystem(AoiError):
    """The age linear system has no unique solution."""


class NegativeSolution(AoiError):
    """The age system solved to a negative correlation entry (malformed chain)."""


@dataclass(frozen=True)
class Transition:
    """Directed edge with a positive rate and a binary reset matrix (z' = z @ reset)."""

    from_state: int
    to_state: int
    rate: float
    reset: np.ndarray


@dataclass(frozen=True)
class ShsChain:
    """States, transitions and per-state age growth vectors of one chain."""

    n_states: int
    age_dim: int
    transitions: tuple[Transition, ...]
    growth: np.ndarray

    def __post_init__(self):
        growth = np.asarray(self.growth, dtype=float)
        if growth.shape != (self.n_states, self.age_dim):
            raise ValueError(f"growth must have shape ({self.n_states}, {self.age_dim})")
        if not np.isin(growth, (0.0, 1.0)).all():
            raise ValueError("growth entries must be 0 or 1")
        if not (growth[:, 0] == 1.0).all():
            raise ValueError("the receiver age z_0 must grow at unit rate in every state")
        object.__setattr__(self, "growth", growth)
        for tr in self.transitions:
            if not (0 <= tr.from_state < self.n_states and 0 <= tr.to_state < self.n_states):
                raise ValueError(f"transition {tr.from_state}->{tr.to_state} out of range")
            if not tr.rate > 0:
                raise DegenerateRate(
                    f"transition {tr.from_state}->{tr.to_state} has rate {tr.rate}"
                )
            reset = np.asarray(tr.reset, dtype=float)
            if reset.shape != (self.age_dim, self.age_dim):
                raise ValueError("reset matrix shape mismatch")
            if not np.isin(reset, (0.0, 1.0)).all():
                raise ValueError("reset entries must be 0 or 1")
            object.__setattr__(tr, "reset", reset)


@dataclass(frozen=True)
class AgeSolution:
    """Stationary distribution, correlation matrix v, and the average AoI sum(v[:, 0])."""

    pi: np.ndarray
    v: np.ndarray
    avg_aoi: float


# Reset matrices of the device chains (age vector [z0, z1], row convention).
_KEEP_RECEIVER = np.array([[1.0, 0.0], [0.0, 0.0]])   # z0' = z0, z1' = 0 (fresh packet)
_IDENTITY = np.eye(2)                                  # nothing resets
_DELIVER = np.array([[0.0, 0.0], [1.0, 0.0]])          # z0' = z1, z1' = 0


def build_chain(ps: PolicyScheme, lam: float, mu: float, k: float, p: float) -> ShsChain:
    """Device chain for one (policy, scheme): 3 states, age vector [z0, z1].

    States are the device states of :mod:`aoi_csma.core`.  Edges: arrival
    into waiting, waiting replacement (self-loop), service entry, successful
    delivery (rate mu*p, resets z0 to the delivered packet age), failed
    delivery (rate mu*(1-p), into ``FAILURE_TARGET[policy]``, dropped when
    p = 1), and under WP the in-service preemption self-loop (rate lam).
    """
    if not 0.0 < p <= 1.0:
        raise DegenerateRate(f"p = {p} outside (0, 1]")
    transitions = [
        Transition(IDLE, WAITING, lam, _KEEP_RECEIVER),
        Transition(WAITING, SERVICE, k, _IDENTITY),
        Transition(WAITING, WAITING, lam, _KEEP_RECEIVER),
        Transition(SERVICE, IDLE, mu * p, _DELIVER),
    ]
    if p < 1.0:
        transitions.append(
            Transition(SERVICE, FAILURE_TARGET[ps.policy], mu * (1.0 - p), _IDENTITY))
    if ps.scheme is Scheme.WP:
        transitions.append(Transition(SERVICE, SERVICE, lam, _KEEP_RECEIVER))
    growth = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    return ShsChain(n_states=3, age_dim=2, transitions=tuple(transitions), growth=growth)


def stationary(chain: ShsChain) -> np.ndarray:
    """Stationary distribution of the discrete chain, by dense direct solve.

    Self-transitions leave the discrete state unchanged and are excluded from
    the generator.  Raises :class:`NotIrreducible` when the balance system is
    singular beyond the one redundant equation.
    """
    n = chain.n_states
    q = np.zeros((n, n))
    for tr in chain.transitions:
        if tr.from_state != tr.to_state:
            q[tr.from_state, tr.to_state] += tr.rate
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    # pi @ q = 0 with sum(pi) = 1: replace one balance column by normalization.
    m = q.T.copy()
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        raise NotIrreducible("balance equations are singular") from None
    if not np.allclose(pi @ q, 0.0, atol=1e-9) or (pi < -1e-12).any():
        raise NotIrreducible("no valid stationary distribution (chain not irreducible)")
    return pi


def solve_age_system(chain: ShsChain, pi: np.ndarray) -> AgeSolution:
    """Solve the age balance for v and return the average AoI sum(v[:, 0]).

    For every state q:  v_q * (total outgoing rate, self-loops included)
    equals b_q * pi_q plus, over all incoming edges l (self-loops included),
    rate_l * v_from(l) @ A_l.
    """
    n, m = chain.n_states, chain.age_dim
    pi = np.asarray(pi, dtype=float)
    size = n * m
    a = np.zeros((size, size))
    rhs = (chain.growth * pi[:, None]).reshape(size)

    out_rate = np.zeros(n)
    for tr in chain.transitions:
        out_rate[tr.from_state] += tr.rate
    for q in range(n):
        for j in range(m):
            a[q * m + j, q * m + j] += out_rate[q]
    for tr in chain.transitions:
        src, dst = tr.from_state, tr.to_state
        for j in range(m):
            for i in range(m):
                if tr.reset[i, j] != 0.0:
                    a[dst * m + j, src * m + i] -= tr.rate * tr.reset[i, j]

    try:
        flat = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularAgeSystem("age balance system is singular") from None
    residual = np.abs(a @ flat - rhs).max()
    if not np.isfinite(flat).all() or residual > 1e-8 * max(1.0, np.abs(flat).max()):
        raise SingularAgeSystem(f"age balance solve left residual {residual}")
    v = flat.reshape(n, m)
    if (v < -1e-9).any():
        raise NegativeSolution(f"age system produced negative entries: {v.min()}")
    return AgeSolution(pi=pi, v=v, avg_aoi=float(v[:, 0].sum()))


def average_aoi(ps: PolicyScheme, lam: float, mu: float, k: float, p: float) -> float:
    """Average AoI of one (policy, scheme) via the chain solver (oracle path)."""
    chain = build_chain(ps, lam=lam, mu=mu, k=k, p=p)
    pi = stationary(chain)
    return solve_age_system(chain, pi).avg_aoi


# ---------------------------------------------------------------------------
# Structured text representation (JSON), so tests can load written fixtures.

def chain_to_dict(chain: ShsChain) -> dict:
    return {
        "states": chain.n_states,
        "transitions": [
            {
                "from": tr.from_state,
                "to": tr.to_state,
                "rate": tr.rate,
                "reset": tr.reset.astype(int).tolist(),
            }
            for tr in chain.transitions
        ],
        "growth": chain.growth.astype(int).tolist(),
    }


def chain_from_dict(doc: dict) -> ShsChain:
    growth = np.asarray(doc["growth"], dtype=float)
    transitions = tuple(
        Transition(
            from_state=int(t["from"]),
            to_state=int(t["to"]),
            rate=float(t["rate"]),
            reset=np.asarray(t["reset"], dtype=float),
        )
        for t in doc["transitions"]
    )
    return ShsChain(
        n_states=int(doc["states"]),
        age_dim=growth.shape[1],
        transitions=transitions,
        growth=growth,
    )


def load_chain(text: str) -> ShsChain:
    """Parse a chain from its JSON document form."""
    return chain_from_dict(json.loads(text))


def dump_chain(chain: ShsChain) -> str:
    return json.dumps(chain_to_dict(chain), indent=2)
