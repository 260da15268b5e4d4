"""Closed-form average AoI, stationary distributions, and preemption gaps.

Each of the six (policy, scheme) combinations has an explicit average-AoI
expression in terms of (lam, mu, k, p), valid under a given stationary
distribution with effective waiting rate k.  The expressions are coded
term by term following their printed grouping (base + coupling + correction).
``avg_aoi`` and ``preemption_gap`` take float or array rates, as
``shs.average_aoi`` does, and evaluate them as float64 arrays: numpy's
float64 arithmetic rounds as Python's does, so an array gives, element by
element, the floats the scalar calls give.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (AoiError, InvalidParameter, Policy, PolicyScheme, Scheme, StateFractions,
                   service_rates)


class DivergentAoi(AoiError):
    """The average AoI is infinite (p = 0 or a rate is zero), or a value is
    not finite in float64 (rates near the float extremes overflow or
    underflow)."""


def _check_rates(lam, mu, k, p) -> None:
    """Raise for a rate out of its domain; arrays raise what their first bad point raises."""
    if isinstance(lam + mu + k + p, np.ndarray):  # at least one rate is an array
        rates = np.array(np.broadcast_arrays(lam, mu, k, p), dtype=float).reshape(4, -1)
        good = np.isfinite(rates).all(axis=0) & (rates > 0.0).all(axis=0) & (rates[3] <= 1.0)
        if not good.all():
            _check_rates(*rates[:, np.argmin(good)].tolist())
        return
    for name, value in (("lam", lam), ("mu", mu), ("k", k), ("p", p)):
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidParameter(name, f"must be a positive finite number, got {value!r}")
    if p > 1.0:
        raise InvalidParameter("p", f"must lie in (0, 1], got {p!r}")
    if p == 0.0:
        raise DivergentAoi(f"p = {p}: no packet is ever delivered")
    for name, value in (("lam", lam), ("mu", mu), ("k", k)):
        if value == 0.0:
            raise DivergentAoi(f"{name} = {value}: rate must be positive")


def refuse(error: type[Exception], good, message: str, point: dict, value=None) -> None:
    """Raise ``error(f"{message} at name=value, ...")`` at the first point, in C
    order, where ``good`` is False: each ``point`` entry is broadcast to its
    shape, and ``value`` at that point fills the message's braces."""
    if not good.all():
        at = np.argmin(np.ravel(good))
        if value is not None:
            message = message.format(np.ravel(value)[at])
        raise error(f"{message} at " + ", ".join(
            f"{name}={float(np.broadcast_to(v, np.shape(good)).flat[at])!r}"
            for name, v in point.items()))


def _finite(what: str, value: np.ndarray, lam, mu, k, p) -> float | np.ndarray:
    """``value``, a float where it is 0-d; raises DivergentAoi at its first
    point that is not finite."""
    refuse(DivergentAoi, np.isfinite(value), f"{what} is not finite",
           dict(lam=lam, mu=mu, k=k, p=p))
    return value if np.ndim(value) else float(value)


def avg_aoi(ps: PolicyScheme, lam, mu, k, p) -> float | np.ndarray:
    """Average AoI for one (policy, scheme) at effective waiting rate k.

    Floats give a float; arrays (broadcast together) give an array.  Raises
    DivergentAoi where the value is not finite.
    """
    _check_rates(lam, mu, k, p)
    # [()] makes a float a float64 scalar, cheaper per operation than a 0-d array
    lam, mu, k, p = (np.asarray(v, dtype=float)[()] for v in (lam, mu, k, p))
    pol, sch = ps.policy, ps.scheme
    with np.errstate(all="ignore"):
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
        aoi = base + coupling + correction
    return _finite("average AoI", aoi, lam, mu, k, p)


def stationary(policy: Policy, lam: float, mu: float, k: float, p: float) -> StateFractions:
    """Stationary distribution of the per-device chain (identical for WP and WOP)."""
    _check_rates(lam, mu, k, p)
    to_idle, _, out = service_rates(policy, mu, p)
    weights = (k * to_idle, lam * out, k * lam)
    total = weights[0] + weights[1] + weights[2]
    return StateFractions(weights[0] / total, weights[1] / total, weights[2] / total)


def preemption_gap(policy: Policy, lam: float, mu: float, k: float, p: float) -> float:
    """Closed-form positive difference avg_aoi(WOP) - avg_aoi(WP) for one policy.

    Only the coupling terms differ between the schemes, so the gap is a single
    positive fraction: lam*(lam+k+mu) over mu*(lam+mu)*(lam+k) for the
    no-feedback policy, with mu*p in place of mu under the channel-holding
    policy, and lam*(lam+k+mu)*(k+lam) over the product of the two coupling
    denominators under the re-contending policy.  Takes and gives floats or
    arrays as ``avg_aoi`` does, and raises DivergentAoi where the gap is not
    finite.
    """
    _check_rates(lam, mu, k, p)
    lam, mu, k, p = (np.asarray(v, dtype=float)[()] for v in (lam, mu, k, p))
    with np.errstate(all="ignore"):
        if policy is Policy.I:
            gap = lam * (lam + k + mu) / (mu * (lam + mu) * (lam + k))
        elif policy is Policy.W:
            d = (lam + mu) * (k + lam) - k * mu * (1.0 - p)
            gap = lam * (lam + k + mu) * (k + lam) / (mu * (k * p + lam) * d)
        else:
            mup = mu * p
            gap = lam * (lam + k + mup) / (mup * (lam + mup) * (lam + k))
    return _finite("preemption gap", gap, lam, mu, k, p)
