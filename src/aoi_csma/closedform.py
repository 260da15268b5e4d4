"""Closed-form average AoI, stationary distributions, and preemption gaps.

Each of the six (policy, scheme) combinations has an explicit average-AoI
expression in terms of (lam, mu, k, p), valid under a given stationary
distribution with effective waiting rate k.  The expressions are coded
term by term following their printed grouping (base + coupling + correction)
so that individual terms stay testable; ``AoiBreakdown`` exposes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AoiError, InvalidParameter, Policy, PolicyScheme, Scheme, StateFractions


class DivergentAoi(AoiError):
    """The average AoI is infinite (p = 0 or a rate is nonpositive)."""


@dataclass(frozen=True)
class AoiBreakdown:
    """Average AoI split into the additive terms of its closed form.

    ``total`` equals the sum of ``terms`` values to within roundoff; the
    correction term is negative, the others positive.
    """

    total: float
    terms: dict[str, float]


def _check_rates(lam: float, mu: float, k: float, p: float) -> None:
    if p > 1.0:
        raise InvalidParameter("p", f"must lie in (0, 1], got {p!r}")
    if p <= 0.0:
        raise DivergentAoi(f"p = {p}: no packet is ever delivered")
    for name, value in (("lam", lam), ("mu", mu), ("k", k)):
        if value <= 0.0:
            raise DivergentAoi(f"{name} = {value}: rate must be positive")


def avg_aoi(ps: PolicyScheme, lam: float, mu: float, k: float, p: float) -> AoiBreakdown:
    """Average AoI for one (policy, scheme) at effective waiting rate k."""
    _check_rates(lam, mu, k, p)
    pol, sch = ps.policy, ps.scheme

    if pol is Policy.I:
        base = (1.0 / lam + 1.0 / k + 1.0 / mu) / p
        correction = -(lam + k + mu) / (lam * k + k * mu + lam * mu)
        if sch is Scheme.WP:
            coupling = (lam + k + mu) / ((lam + mu) * (lam + k))
        else:
            coupling = 1.0 / mu + 1.0 / (lam + k)
    elif pol is Policy.W:
        base = (p / lam + 1.0 / k + 1.0 / mu) / p
        correction = -(lam + k + mu) / (lam * k + lam * mu + k * mu * p)
        if sch is Scheme.WP:
            coupling = (lam + k + mu) / ((lam + mu) * (k + lam) - k * mu * (1.0 - p))
        else:
            coupling = (lam + k + mu) / (mu * (k * p + lam))
    else:  # Policy.S: every occurrence of the service rate carries the factor p
        correction = -(lam + k + mu * p) / (lam * k + (k + lam) * mu * p)
        if sch is Scheme.WP:
            base = 1.0 / lam + 1.0 / k + 1.0 / (mu * p)
            coupling = (mu * p + k + lam) / ((lam + mu * p) * (lam + k))
        else:
            base = 1.0 / lam + 1.0 / k + 2.0 / (mu * p)
            coupling = 1.0 / (lam + k)

    terms = {"base": base, "coupling": coupling, "correction": correction}
    return AoiBreakdown(total=base + coupling + correction, terms=terms)


def stationary(policy: Policy, lam: float, mu: float, k: float, p: float) -> StateFractions:
    """Stationary distribution of the per-device chain (identical for WP and WOP)."""
    _check_rates(lam, mu, k, p)
    if policy is Policy.I:
        weights = (k * mu, lam * mu, k * lam)
    elif policy is Policy.W:
        weights = (k * mu * p, lam * mu, k * lam)
    else:
        weights = (k * mu * p, lam * mu * p, k * lam)
    total = weights[0] + weights[1] + weights[2]
    return StateFractions(weights[0] / total, weights[1] / total, weights[2] / total)


def preemption_gap(policy: Policy, lam: float, mu: float, k: float, p: float) -> float:
    """Closed-form positive difference avg_aoi(WOP) - avg_aoi(WP) for one policy.

    Only the coupling terms differ between the schemes, so the gap is a single
    positive fraction: lam*(lam+k+mu) over mu*(lam+mu)*(lam+k) for the
    no-feedback policy, with mu*p in place of mu under the channel-holding
    policy, and lam*(lam+k+mu)*(k+lam) over the product of the two coupling
    denominators under the re-contending policy.
    """
    _check_rates(lam, mu, k, p)
    if policy is Policy.I:
        return lam * (lam + k + mu) / (mu * (lam + mu) * (lam + k))
    if policy is Policy.W:
        d = (lam + mu) * (k + lam) - k * mu * (1.0 - p)
        return lam * (lam + k + mu) * (k + lam) / (mu * (k * p + lam) * d)
    mup = mu * p
    return lam * (lam + k + mup) / (mup * (lam + mup) * (lam + k))
