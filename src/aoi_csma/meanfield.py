"""Mean-field limit of the device population: ODE, equilibria, monotonicity.

As the population grows with the device-to-channel ratio gamma held fixed,
the empirical measure follows a three-dimensional ODE whose drift couples
devices only through the channel-busy probability gamma * x_s.  The
equilibrium has a closed-form radical per policy; its service fraction
feeds the effective waiting rate k* into the closed-form AoI expressions.

Monotonicity of the equilibrium and of the AoI in the system parameters is
verified numerically by central finite differences against the claimed
signs; claims the analysis leaves open are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import closedform
from .core import (
    FAILURE_TARGET,
    IDLE,
    WAITING,
    AoiError,
    InfeasibleOccupancy,
    InvalidParameter,
    Policy,
    PolicyScheme,
    Scheme,
    StateFractions,
    SystemParams,
    validate,
)


class NoFeasibleRoot(AoiError):
    """No equilibrium root in [0, 1/gamma); indicates a transcription bug."""


class GridPointInvalid(AoiError):
    """A sweep grid point (or its finite-difference stencil) leaves the valid range."""


class StepTooLarge(AoiError):
    """An integration step left the simplex by more than 1e-3; use a smaller dt."""


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of the mean-field ODE with its derived quantities.

    ``residual`` is the maximum absolute drift component at the fixed point;
    ``stability_margin`` is the exponential decay rate
    min(lam, w*(1 - gamma*x_s), w*gamma*x_w) of the linearized dynamics.
    """

    x_star: StateFractions
    k_star: float
    residual: float
    stability_margin: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the mean-field ODE.

    ``states`` has one row (x_i, x_w, x_s) per sample instant;
    ``max_simplex_correction`` records the largest renormalization the
    integrator had to apply to keep the running state on the simplex.
    """

    times: np.ndarray
    states: np.ndarray
    max_simplex_correction: float

    @property
    def final(self) -> StateFractions:
        x = self.states[-1]
        return StateFractions(float(x[0]), float(x[1]), float(x[2]))


def _flow_rates(policy: Policy, mu: float, p: float) -> tuple[float, float]:
    """Per-x_s outflow rates of the service state: (to idle, to waiting)."""
    target = FAILURE_TARGET[policy]
    if target == IDLE:
        return mu, 0.0
    if target == WAITING:
        return mu * p, mu * (1.0 - p)
    return mu * p, 0.0


def drift(policy: Policy, params: SystemParams, x: StateFractions) -> np.ndarray:
    """Right-hand side of the mean-field ODE at x.

    The service component is defined as the exact negation of the other two,
    so the three components sum to zero in floating point, not just in exact
    arithmetic.
    """
    if params.gamma * x.x_s > 1.0:
        raise InfeasibleOccupancy(f"gamma * x_s = {params.gamma * x.x_s} > 1")
    succ, fail = _flow_rates(policy, params.mu, params.p)
    arrivals = params.lam * x.x_i
    access = params.w * (1.0 - params.gamma * x.x_s) * x.x_w
    d_i = succ * x.x_s - arrivals
    d_w = (arrivals - access) + fail * x.x_s
    return np.array([d_i, d_w, -(d_i + d_w)])


def equilibrium(policy: Policy, params: SystemParams) -> Equilibrium:
    """Unique feasible fixed point of the mean-field ODE, from its radical.

    Solved in the busy probability y = gamma * x_s, whose quadratic
    A*y^2 - B*y + lam*gamma has value -lam*mu_term/w at y = 1, so exactly one
    root lies in (0, 1).  The smaller root comes from the product-of-roots
    form (no cancellation); near saturation, 1 - y is recovered from the
    root-product identity A*(1 - y_minus)*(y_plus - 1) = lam*mu_term/w so
    that k keeps full relative precision.  A residual guard on the
    fixed-point equation catches transcription errors.
    """
    validate(params)
    lam, mu, w, gamma, p = params.lam, params.mu, params.w, params.gamma, params.p
    if policy is not Policy.I and not p > 0.0:
        raise InvalidParameter("p", f"must be positive under policy ({policy.value})")

    p_eff = 1.0 if policy is Policy.I else p          # service-exit total uses mu*p_eff
    mu_term = mu * p if policy is Policy.S else mu    # the lam*mu coefficient
    a = lam + mu * p_eff
    b = a + lam * mu_term / w + lam * gamma
    c = lam * gamma
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoFeasibleRoot(f"negative discriminant {disc}")
    sqrt_disc = math.sqrt(disc)
    y_minus = 2.0 * c / (b + sqrt_disc)
    y_plus = (b + sqrt_disc) / (2.0 * a)
    if not 0.0 < y_minus < 1.0 <= y_plus:
        raise NoFeasibleRoot("no equilibrium root with busy probability in (0, 1)")
    one_minus_y = 1.0 - y_minus
    if one_minus_y < 0.01:
        one_minus_y = lam * mu_term / (w * a * (y_plus - 1.0))

    x_s = y_minus / gamma
    k = w * one_minus_y
    fixed_point = lam * k / (a * k + lam * mu_term)
    if abs(x_s - fixed_point) > 1e-9:
        raise NoFeasibleRoot(f"fixed-point residual {abs(x_s - fixed_point)} too large")

    x_i = (mu * p_eff / lam) * x_s
    x_w = mu_term * x_s / k
    x_star = StateFractions(x_i, x_w, x_s)
    residual = float(np.abs(drift(policy, params, x_star)).max())
    margin = min(lam, k, w * gamma * x_w)
    return Equilibrium(x_star=x_star, k_star=k, residual=residual, stability_margin=margin)


def integrate(
    policy: Policy,
    params: SystemParams,
    x0: StateFractions,
    t_end: float,
    dt: float = 0.01,
) -> Trajectory:
    """Classical fixed-step 4th-order integration of the mean-field ODE.

    Samples every dt.  The state is renormalized onto the simplex whenever
    roundoff pushes the component sum off by more than 1e-12; the largest
    such correction is recorded on the trajectory.
    """
    validate(params)
    if dt <= 0.0:
        raise InvalidParameter("dt", "must be positive")
    if t_end <= 0.0:
        raise InvalidParameter("t_end", "must be positive")
    if not x0.on_simplex(1e-9):
        raise InvalidParameter("x0", f"not on the simplex: {x0}")
    # plain Python floats throughout: numpy scalars leaking in from array
    # sources slow the step loop several-fold
    lam, w, gamma = float(params.lam), float(params.w), float(params.gamma)
    succ, fail = _flow_rates(policy, float(params.mu), float(params.p))
    dt = float(dt)

    n_full = int(t_end / dt)
    h_last = t_end - n_full * dt
    steps = [dt] * n_full + ([h_last] if h_last > 1e-12 * t_end else [])

    xi, xw, xs = float(x0.x_i), float(x0.x_w), float(x0.x_s)
    times = [0.0]
    points = [(xi, xw, xs)]
    max_corr = 0.0
    t = 0.0
    for h in steps:
        # RK4 stages inlined; this loop dominates long integrations
        if gamma * xs > 1.0:
            raise InfeasibleOccupancy(f"gamma * x_s = {gamma * xs} > 1 during integration")
        a = lam * xi
        k1i = succ * xs - a
        k1w = (a - w * (1.0 - gamma * xs) * xw) + fail * xs
        k1s = -(k1i + k1w)
        half = 0.5 * h
        yi, yw, ys = xi + half * k1i, xw + half * k1w, xs + half * k1s
        a = lam * yi
        k2i = succ * ys - a
        k2w = (a - w * (1.0 - gamma * ys) * yw) + fail * ys
        k2s = -(k2i + k2w)
        yi, yw, ys = xi + half * k2i, xw + half * k2w, xs + half * k2s
        a = lam * yi
        k3i = succ * ys - a
        k3w = (a - w * (1.0 - gamma * ys) * yw) + fail * ys
        k3s = -(k3i + k3w)
        yi, yw, ys = xi + h * k3i, xw + h * k3w, xs + h * k3s
        a = lam * yi
        k4i = succ * ys - a
        k4w = (a - w * (1.0 - gamma * ys) * yw) + fail * ys
        k4s = -(k4i + k4w)
        sixth = h / 6.0
        xi += sixth * (k1i + 2.0 * (k2i + k3i) + k4i)
        xw += sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
        xs += sixth * (k1s + 2.0 * (k2s + k3s) + k4s)
        t += h
        total = xi + xw + xs
        deviation = max(abs(total - 1.0), -min(xi, xw, xs, 0.0))
        if deviation > 1e-3:
            raise StepTooLarge(
                f"state left the simplex by {deviation} at t={t}; use a smaller dt"
            )
        if abs(total - 1.0) > 1e-12:
            max_corr = max(max_corr, abs(total - 1.0))
            xi /= total
            xw /= total
            xs /= total
        times.append(t)
        points.append((xi, xw, xs))
    return Trajectory(
        times=np.array(times),
        states=np.array(points),
        max_simplex_correction=max_corr,
    )


def aoi_at_equilibrium(ps: PolicyScheme, params: SystemParams) -> float:
    """Average AoI in the mean-field limit: closed form evaluated at k*."""
    eq = equilibrium(ps.policy, params)
    return closedform.avg_aoi(ps, lam=params.lam, mu=params.mu, k=eq.k_star, p=params.p).total


# ---------------------------------------------------------------------------
# Numerical monotonicity verification.

_SWEEPABLE = ("lam", "mu", "w", "gamma", "p")

# Claimed derivative signs of the equilibrium fractions (+1 increasing,
# -1 decreasing, 0 unchanged, None left open by the analysis).  The w and
# gamma rows follow the fixed-point derivation: x_s solves x = F(x, w) with
# F increasing in w and decreasing in x and gamma, so x_s rises with w and
# falls with gamma (even though the busy probability gamma*x_s rises with
# gamma, which is what drives the AoI signs).
_X_CLAIMS: dict[tuple[str, str], dict[str, int | None]] = {
    ("*", "lam"): {"x_i": -1, "x_w": +1, "x_s": +1},
    ("*", "mu"): {"x_i": +1, "x_w": None, "x_s": -1},
    ("*", "w"): {"x_i": +1, "x_w": -1, "x_s": +1},
    ("*", "gamma"): {"x_i": -1, "x_w": +1, "x_s": -1},
    ("I", "p"): {"x_i": 0, "x_w": 0, "x_s": 0},
    ("W", "p"): {"x_i": +1, "x_w": -1, "x_s": -1},
    ("S", "p"): {"x_i": +1, "x_w": None, "x_s": -1},
}

# Claimed AoI signs in the mean-field limit: proved for policies (I) and (S)
# only; policy (W) and the arrival rate are left to numerical reporting.
_AOI_CLAIMS: dict[str, int | None] = {"lam": None, "mu": -1, "w": -1, "p": -1, "gamma": +1}

_ZERO_TOL = 1e-9
_REL_STEP = 1e-4  # central-difference half-width, relative to the grid value


def _sign(value: float) -> int:
    if abs(value) <= _ZERO_TOL:
        return 0
    return 1 if value > 0 else -1


def claimed_x_signs(policy: Policy, which: str) -> dict[str, int | None]:
    key = (policy.value, which) if (policy.value, which) in _X_CLAIMS else ("*", which)
    return dict(_X_CLAIMS[key])


def claimed_aoi_sign(policy: Policy, which: str) -> int | None:
    if policy is Policy.W:
        return None
    return _AOI_CLAIMS[which]


@dataclass(frozen=True)
class MonotonicityReport:
    """Central finite-difference signs along one parameter grid.

    ``d_x`` holds the derivative estimates of (x_i, x_w, x_s) per grid point,
    ``d_aoi`` those of the mean-field AoI.  ``verdicts`` compares observed
    signs against the claims: "match", "mismatch", or "report" where no sign
    is claimed.
    """

    policy: Policy
    scheme: Scheme
    which: str
    values: np.ndarray
    d_x: np.ndarray
    d_aoi: np.ndarray
    x_claims: dict[str, int | None]
    aoi_claim: int | None
    verdicts: dict[str, str]

    def aoi_signs(self) -> list[int]:
        return [_sign(d) for d in self.d_aoi]

    def all_claims_match(self) -> bool:
        return all(v != "mismatch" for v in self.verdicts.values())


def with_param(params: SystemParams, which: str, value: float) -> SystemParams:
    """Copy of ``params`` with one mean-field parameter replaced (drops N, M)."""
    return replace(params, n_devices=None, n_channels=None, **{which: value})


def monotonicity_report(
    policy: Policy,
    scheme: Scheme,
    params: SystemParams,
    which: str,
    grid,
) -> MonotonicityReport:
    """Finite-difference signs of x* and the mean-field AoI along ``grid``.

    ``which`` selects the swept parameter; every other parameter is held at
    its value in ``params``.  Raises :class:`GridPointInvalid` when a grid
    point or its central-difference stencil leaves the valid range.
    """
    if which not in _SWEEPABLE:
        raise GridPointInvalid(f"unknown sweep parameter {which!r}")
    ps = PolicyScheme(policy, scheme)
    values = np.asarray(list(grid), dtype=float)
    if values.size == 0:
        raise GridPointInvalid("empty grid")

    d_x = np.empty((values.size, 3))
    d_aoi = np.empty(values.size)
    for idx, value in enumerate(values):
        h = _REL_STEP * abs(value)
        lo, hi = value - h, value + h
        if not (h > 0 and lo > 0):
            raise GridPointInvalid(f"{which} = {value} too close to zero for step {h}")
        if which == "p" and hi > 1.0:
            raise GridPointInvalid(f"p = {value} + step exceeds 1")
        per_point = []
        for v in (lo, hi):
            probe = with_param(params, which, v)
            eq = equilibrium(policy, probe)
            aoi = closedform.avg_aoi(ps, lam=probe.lam, mu=probe.mu, k=eq.k_star, p=probe.p)
            per_point.append((eq.x_star, aoi.total))
        (x_lo, aoi_lo), (x_hi, aoi_hi) = per_point
        scale = 2.0 * h
        d_x[idx] = [
            (x_hi.x_i - x_lo.x_i) / scale,
            (x_hi.x_w - x_lo.x_w) / scale,
            (x_hi.x_s - x_lo.x_s) / scale,
        ]
        d_aoi[idx] = (aoi_hi - aoi_lo) / scale

    x_claims = claimed_x_signs(policy, which)
    aoi_claim = claimed_aoi_sign(policy, which)
    estimates = {"x_i": d_x[:, 0], "x_w": d_x[:, 1], "x_s": d_x[:, 2], "aoi": d_aoi}
    verdicts: dict[str, str] = {}
    for quantity, claim in {**x_claims, "aoi": aoi_claim}.items():
        if claim is None:
            verdicts[quantity] = "report"
        else:
            matched = all(_sign(d) == claim for d in estimates[quantity])
            verdicts[quantity] = "match" if matched else "mismatch"

    return MonotonicityReport(
        policy=policy,
        scheme=scheme,
        which=which,
        values=values,
        d_x=d_x,
        d_aoi=d_aoi,
        x_claims=x_claims,
        aoi_claim=aoi_claim,
        verdicts=verdicts,
    )
