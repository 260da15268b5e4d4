"""Domain types and parameter validation shared by every other module.

A system is described by scalar rates (arrival ``lam``, service ``mu``,
waiting ``w``), a per-transmission success probability ``p``, and the
device-to-channel ratio ``gamma = N / M``.  The finite population sizes
``n_devices`` / ``n_channels`` are only needed by the simulator; the
analytical and mean-field paths work from ``gamma`` alone.

All types here are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class AoiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(AoiError):
    """A parameter violates its domain; ``field`` names the offender."""

    def __init__(self, field: str, message: str = ""):
        # both arguments go to ``args``, so a pickled copy (an error raised in
        # a worker process) is rebuilt with the same field and message
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        field, message = self.args
        return f"invalid parameter {field!r}" + (f": {message}" if message else "")


class InfeasibleOccupancy(AoiError):
    """Channel occupancy gamma * x_S exceeded 1."""


class Policy(str, Enum):
    """Post-transmission behaviour: no feedback (I), or on failure re-contend (W) / hold the channel (S)."""

    I = "I"
    W = "W"
    S = "S"


class Scheme(str, Enum):
    """Packet management in service: preempt on new arrival (WP) or discard the arrival (WOP)."""

    WP = "WP"
    WOP = "WOP"


# Device states, shared by the SHS device chains and the simulator.
IDLE, WAITING, SERVICE = 0, 1, 2

# The one decision the policies differ in: the state a device enters after a
# failed transmission (drop the packet, re-contend with it, or retransmit on
# the held channel).
FAILURE_TARGET = {Policy.I: IDLE, Policy.W: WAITING, Policy.S: SERVICE}


@dataclass(frozen=True)
class PolicyScheme:
    """One of the six analyzed (policy, scheme) combinations."""

    policy: Policy
    scheme: Scheme

    @property
    def label(self) -> str:
        return f"{self.policy.value}-{self.scheme.value}"

    @staticmethod
    def all_combinations() -> tuple["PolicyScheme", ...]:
        return tuple(PolicyScheme(pol, sch) for pol in Policy for sch in Scheme)


def parse_policy(text: str) -> Policy:
    try:
        return Policy(text.upper())
    except ValueError:
        raise InvalidParameter("policy", f"expected one of I/W/S, got {text!r}") from None


def parse_scheme(text: str) -> Scheme:
    try:
        return Scheme(text.upper())
    except ValueError:
        raise InvalidParameter("scheme", f"expected one of WP/WOP, got {text!r}") from None


@dataclass(frozen=True)
class SystemParams:
    """Scalar rates and population parameters of one system instance.

    ``lam``, ``mu`` and ``w`` are rates of exponential clocks (arrivals,
    service completions, backoff expiries), ``p`` the success probability of
    a completed transmission, and ``gamma`` the device-to-channel ratio.
    ``n_devices`` / ``n_channels`` are set only for finite-population
    simulation and must then satisfy ``gamma == n_devices / n_channels``.
    """

    lam: float
    mu: float
    w: float
    p: float
    gamma: float
    n_devices: int | None = None
    n_channels: int | None = None


def validate(params: SystemParams) -> SystemParams:
    """Check every invariant of ``params``; return it unchanged if all hold.

    Raises :class:`InvalidParameter` naming the violated field.  ``p == 0``
    is accepted here; operations that divide by ``p`` flag it themselves.
    """
    for field in ("lam", "mu", "w", "gamma"):
        value = getattr(params, field)
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise InvalidParameter(field, f"must be a positive finite number, got {value!r}")
    if not (isinstance(params.p, (int, float)) and 0.0 <= params.p <= 1.0):
        raise InvalidParameter("p", f"must lie in [0, 1], got {params.p!r}")
    for field in ("n_devices", "n_channels"):
        value = getattr(params, field)
        if value is not None and (not isinstance(value, int) or value < 1):
            raise InvalidParameter(field, f"must be a positive integer, got {value!r}")
    if params.n_devices is not None and params.n_channels is not None:
        if params.gamma != params.n_devices / params.n_channels:
            raise InvalidParameter(
                "gamma",
                f"gamma={params.gamma!r} but n_devices/n_channels="
                f"{params.n_devices}/{params.n_channels}"
            )
    return params


@dataclass(frozen=True)
class StateFractions:
    """A point on the 3-simplex: fractions of devices in Idle/Waiting/Service.

    Serves as the empirical measure of a finite population (entries are then
    multiples of 1/N), as the continuous mean-field state, and as the
    stationary distribution of one device's chain.
    """

    x_i: float
    x_w: float
    x_s: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x_i, self.x_w, self.x_s)

    def on_simplex(self, tol: float = 1e-12) -> bool:
        return (
            self.x_i >= -tol and self.x_w >= -tol and self.x_s >= -tol
            and abs(self.x_i + self.x_w + self.x_s - 1.0) <= tol
        )
