"""Generic stochastic-hybrid-system solver for average AoI.

A chain couples a finite CTMC with a continuous age vector z that grows at
binary per-state rates and is reset linearly (z' = z @ A) on transitions.
Unlike an ordinary CTMC the chain may carry self-transitions and parallel
edges: they do not move the discrete state but do reset z, so they are
excluded from the stationary balance yet appear on both sides of the age
linear system.

Rates may be floats or arrays.  The chain's batch shape is the broadcast
of the rate shapes, and every array the solvers return leads with those
batch axes.  A whole batch of parameter tuples is assembled with the same
float operations as one tuple and solved by one stacked
``np.linalg.solve``, so each entry equals its scalar solve bit for bit.
Floats give batch shape ``()``.

The six policy/scheme device chains are built here from their transition
tables; solving them is the independent oracle against the closed forms in
:mod:`aoi_csma.closedform`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


def _worst(score) -> tuple[int, ...]:
    """Batch index of the largest entry of ``score``; NaN counts as largest."""
    score = np.asarray(score)
    return tuple(int(i) for i in np.unravel_index(np.argmax(score), score.shape))


def _at(index: tuple[int, ...]) -> str:
    return f" at batch index {index}" if index else ""


def _is_binary(x: np.ndarray) -> bool:
    return bool(((x == 0.0) | (x == 1.0)).all())


@dataclass(frozen=True)
class Transition:
    """Directed edge with a positive rate and a binary reset matrix (z' = z @ reset).

    ``rate`` is a float or an array of per-batch-entry rates.
    """

    from_state: int
    to_state: int
    rate: float | np.ndarray
    reset: np.ndarray


@dataclass(frozen=True)
class ShsChain:
    """States, transitions and per-state age growth vectors of one chain.

    ``batch_shape`` is the broadcast of the transition rate shapes.
    """

    n_states: int
    age_dim: int
    transitions: tuple[Transition, ...]
    growth: np.ndarray
    batch_shape: tuple[int, ...] = field(init=False, default=())

    def __post_init__(self):
        growth = np.asarray(self.growth, dtype=float)
        if growth.shape != (self.n_states, self.age_dim):
            raise ValueError(f"growth must have shape ({self.n_states}, {self.age_dim})")
        if not _is_binary(growth):
            raise ValueError("growth entries must be 0 or 1")
        if not (growth[:, 0] == 1.0).all():
            raise ValueError("the receiver age z_0 must grow at unit rate in every state")
        object.__setattr__(self, "growth", growth)
        for tr in self.transitions:
            if not (0 <= tr.from_state < self.n_states and 0 <= tr.to_state < self.n_states):
                raise ValueError(f"transition {tr.from_state}->{tr.to_state} out of range")
            rate = np.asarray(tr.rate, dtype=float)
            if not (rate > 0).all():
                i = _worst(-rate)
                raise DegenerateRate(
                    f"transition {tr.from_state}->{tr.to_state} has rate {rate[i]}{_at(i)}"
                )
            reset = np.asarray(tr.reset, dtype=float)
            if reset.shape != (self.age_dim, self.age_dim):
                raise ValueError("reset matrix shape mismatch")
            object.__setattr__(tr, "reset", reset)
        if not _is_binary(np.array([tr.reset for tr in self.transitions])):
            raise ValueError("reset entries must be 0 or 1")
        object.__setattr__(self, "batch_shape", np.broadcast_shapes(
            *(np.shape(tr.rate) for tr in self.transitions)))


@dataclass(frozen=True)
class AgeSolution:
    """Stationary distribution, correlation matrix v, and the average AoI sum(v[..., 0]).

    ``pi``, ``v`` and ``avg_aoi`` lead with the chain's batch axes;
    ``avg_aoi`` is a float for batch shape ``()``.
    """

    pi: np.ndarray
    v: np.ndarray
    avg_aoi: float | np.ndarray


# Reset matrices of the device chains (age vector [z0, z1], row convention).
_KEEP_RECEIVER = np.array([[1.0, 0.0], [0.0, 0.0]])   # z0' = z0, z1' = 0 (fresh packet)
_IDENTITY = np.eye(2)                                  # nothing resets
_DELIVER = np.array([[0.0, 0.0], [1.0, 0.0]])          # z0' = z1, z1' = 0


def build_chain(ps: PolicyScheme, lam, mu, k, p) -> ShsChain:
    """Device chain for one (policy, scheme): 3 states, age vector [z0, z1].

    States are the device states of :mod:`aoi_csma.core`.  Edges: arrival
    into waiting, waiting replacement (self-loop), service entry, successful
    delivery (rate mu*p, resets z0 to the delivered packet age), failed
    delivery (rate mu*(1-p), into ``FAILURE_TARGET[policy]``, dropped when
    p = 1), and under WP the in-service preemption self-loop (rate lam).

    The parameters are floats or arrays of one shape.  A batch mixing
    p = 1 with p < 1 is rejected: its failure edge would have rate 0 for
    some entries.
    """
    p_arr = np.asarray(p, dtype=float)
    valid = (p_arr > 0.0) & (p_arr <= 1.0)
    if not valid.all():
        i = _worst(np.where(valid, -np.inf, np.abs(p_arr - 0.5)))
        raise DegenerateRate(f"p = {p_arr[i]} outside (0, 1]{_at(i)}")
    lossy = p_arr < 1.0
    has_failure_edge = lossy.all()
    if not has_failure_edge and lossy.any():
        raise DegenerateRate(
            f"batch mixes p = 1 with p < 1{_at(_worst(~lossy))}: the failure edge would "
            "have rate 0 for the p = 1 entries"
        )
    transitions = [
        Transition(IDLE, WAITING, lam, _KEEP_RECEIVER),
        Transition(WAITING, SERVICE, k, _IDENTITY),
        Transition(WAITING, WAITING, lam, _KEEP_RECEIVER),
        Transition(SERVICE, IDLE, mu * p, _DELIVER),
    ]
    if has_failure_edge:
        transitions.append(
            Transition(SERVICE, FAILURE_TARGET[ps.policy], mu * (1.0 - p), _IDENTITY))
    if ps.scheme is Scheme.WP:
        transitions.append(Transition(SERVICE, SERVICE, lam, _KEEP_RECEIVER))
    growth = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    return ShsChain(n_states=3, age_dim=2, transitions=tuple(transitions), growth=growth)


def _batch_first(x: np.ndarray) -> np.ndarray:
    """View of a ``(rows, cols) + batch`` array as ``batch + (rows, cols)``."""
    return x.transpose(*range(2, x.ndim), 0, 1)


def _singular_at(m: np.ndarray) -> str:
    """Locate a singular matrix of a stack, for the error message."""
    return _at(_worst(np.linalg.det(m) == 0.0))


# The generator and the age matrix are assembled with the batch axes trailing,
# so that ``x[row, col]`` is a plain float for batch shape () and a contiguous
# vector otherwise; the solves see the same arrays with the batch axes leading.

def stationary(chain: ShsChain) -> np.ndarray:
    """Stationary distribution of the discrete chain, by dense direct solve.

    Self-transitions leave the discrete state unchanged and are excluded from
    the generator.  Returns shape ``batch_shape + (n_states,)``.  Raises
    :class:`NotIrreducible` when the balance system of any batch entry is
    singular beyond the one redundant equation.
    """
    n = chain.n_states
    q = np.zeros((n, n) + chain.batch_shape)
    for tr in chain.transitions:
        if tr.from_state != tr.to_state:
            q[tr.from_state, tr.to_state] += tr.rate
    d = np.arange(n)
    q[d, d] -= q.sum(axis=1)
    # pi @ q = 0 with sum(pi) = 1: replace one balance column by normalization.
    m = _batch_first(q.swapaxes(0, 1)).copy()
    m[..., -1, :] = 1.0
    rhs = np.zeros(chain.batch_shape + (n, 1))
    rhs[..., -1, 0] = 1.0
    try:
        pi = np.linalg.solve(m, rhs)[..., 0]
    except np.linalg.LinAlgError:
        raise NotIrreducible(f"balance equations are singular{_singular_at(m)}") from None
    residual = np.abs(pi[..., None, :] @ _batch_first(q)).max(axis=(-2, -1))
    low = pi.min(axis=-1)
    if not ((residual <= 1e-9).all() and (low >= -1e-12).all()):
        i = _worst(np.maximum(residual / 1e-9, -low / 1e-12))
        raise NotIrreducible(
            "no valid stationary distribution (chain not irreducible): balance residual "
            f"{residual[i]:.3e}, smallest pi {low[i]:.3e}{_at(i)}"
        )
    return pi


def solve_age_system(chain: ShsChain, pi: np.ndarray) -> AgeSolution:
    """Solve the age balance for v and return the average AoI sum(v[..., 0]).

    For every state q:  v_q * (total outgoing rate, self-loops included)
    equals b_q * pi_q plus, over all incoming edges l (self-loops included),
    rate_l * v_from(l) @ A_l.  ``pi`` has shape ``batch_shape + (n_states,)``.
    """
    n, m = chain.n_states, chain.age_dim
    batch = chain.batch_shape
    pi = np.asarray(pi, dtype=float)
    if pi.shape != batch + (n,):
        raise ValueError(f"pi must have shape {batch + (n,)}, got {pi.shape}")
    size = n * m
    a = np.zeros((size, size) + batch)
    rhs = (chain.growth * pi[..., :, None]).reshape(batch + (size, 1))

    out_rate = np.zeros((n,) + batch)
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

    a = _batch_first(a)
    try:
        flat = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularAgeSystem(f"age balance system is singular{_singular_at(a)}") from None
    residual = np.abs(a @ flat - rhs).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(flat).max(axis=(-2, -1)))
    finite = np.isfinite(flat).all(axis=(-2, -1))
    if not finite.all() or (residual > 1e-8 * scale).any():
        i = _worst(np.where(finite, residual / scale, np.inf))
        raise SingularAgeSystem(f"age balance solve left residual {residual[i]}{_at(i)}")
    v = flat.reshape(batch + (n, m))
    low = v.min(axis=(-2, -1))
    if (low < -1e-9).any():
        i = _worst(-low)
        raise NegativeSolution(f"age system produced negative entries: {low[i]}{_at(i)}")
    avg = v[..., 0].sum(axis=-1)
    return AgeSolution(pi=pi, v=v, avg_aoi=float(avg) if avg.ndim == 0 else avg)


def average_aoi(ps: PolicyScheme, lam, mu, k, p) -> float | np.ndarray:
    """Average AoI of one (policy, scheme) via the chain solver (oracle path).

    Floats give a float; arrays of one shape give an array of that shape,
    solved as one batch.
    """
    chain = build_chain(ps, lam=lam, mu=mu, k=k, p=p)
    pi = stationary(chain)
    return solve_age_system(chain, pi).avg_aoi


# ---------------------------------------------------------------------------
# Structured text representation (JSON), so tests can load written fixtures.

def chain_to_dict(chain: ShsChain) -> dict:
    if chain.batch_shape:
        raise ValueError("only a chain with scalar rates has a document form")
    return {
        "states": chain.n_states,
        "transitions": [
            {
                "from": tr.from_state,
                "to": tr.to_state,
                "rate": float(tr.rate),
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
