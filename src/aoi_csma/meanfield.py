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
    StateFractions,
    SystemParams,
)


class NoFeasibleRoot(AoiError):
    """No finite equilibrium root in [0, 1/gamma): a transcription bug, or
    rates near the float extremes."""


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


def _drift(policy: Policy, params: SystemParams):
    """The mean-field drift as a function of (x_i, x_w, x_s) to three floats.

    The rates are taken as plain Python floats once: numpy scalars leaking in
    from array sources slow the RK4 loop several-fold.  The service component
    is the exact negation of the other two, so the three components sum to
    zero in floating point, not just in exact arithmetic.
    """
    lam, mu, w, p, gamma = map(float, (params.lam, params.mu, params.w, params.p, params.gamma))
    target = FAILURE_TARGET[policy]
    succ = mu if target == IDLE else mu * p              # service -> idle, per x_s
    fail = mu * (1.0 - p) if target == WAITING else 0.0  # service -> waiting, per x_s

    def rates(xi: float, xw: float, xs: float) -> tuple[float, float, float]:
        arrivals = lam * xi
        d_i = succ * xs - arrivals
        d_w = (arrivals - w * (1.0 - gamma * xs) * xw) + fail * xs
        return d_i, d_w, -(d_i + d_w)

    return rates


def drift(policy: Policy, params: SystemParams, x: StateFractions) -> np.ndarray:
    """Right-hand side of the mean-field ODE at x; its components sum to 0.0."""
    if params.gamma * x.x_s > 1.0:
        raise InfeasibleOccupancy(f"gamma * x_s = {params.gamma * x.x_s} > 1")
    return np.array(_drift(policy, params)(x.x_i, x.x_w, x.x_s))


def _refuse(good, message: str, point: dict, value=None) -> None:
    """Raise NoFeasibleRoot with ``message`` at the first point where ``good``
    is False, with ``value`` at that point in the message's braces."""
    if not good.all():
        if value is not None:
            message = message.format(np.ravel(value)[np.argmin(np.ravel(good))])
        raise NoFeasibleRoot(f"{message} at {closedform._first_failing(good, **point)}")


def _radical(policy: Policy, lam, mu, w, gamma, p):
    """(x_i, x_w, x_s, k*) of the equilibrium from its radical, for float64
    arrays of one shape (a single point is 0-d arrays).

    Solved in the busy probability y = gamma * x_s, whose quadratic
    A*y^2 - B*y + lam*gamma has value -lam*mu_term/w at y = 1, so exactly one
    root lies in (0, 1).  The smaller root comes from the product-of-roots
    form (no cancellation); near saturation, 1 - y is recovered from the
    root-product identity A*(1 - y_minus)*(y_plus - 1) = lam*mu_term/w so
    that k keeps full relative precision.  A residual guard on the
    fixed-point equation catches transcription errors.  The arithmetic is
    numpy's, which rounds as Python's does, with its warnings off.  Every
    check covers every point, and each NoFeasibleRoot names the first point
    that fails it; a discriminant, root, x* or k* that is not finite (rates
    near the float extremes) fails first.
    """
    if policy is not Policy.I and not (p > 0.0).all():
        raise InvalidParameter("p", f"must be positive under policy ({policy.value})")
    with np.errstate(all="ignore"):
        p_eff = 1.0 if policy is Policy.I else p          # service-exit total uses mu*p_eff
        mu_term = mu * p if policy is Policy.S else mu    # the lam*mu coefficient
        a = lam + mu * p_eff
        b = a + lam * mu_term / w + lam * gamma
        c = lam * gamma
        disc = b * b - 4.0 * a * c
        sqrt_disc = np.sqrt(disc)
        y_minus = 2.0 * c / (b + sqrt_disc)
        y_plus = (b + sqrt_disc) / (2.0 * a)
        one_minus_y = 1.0 - y_minus
        one_minus_y = np.where(one_minus_y < 0.01,
                               lam * mu_term / (w * a * (y_plus - 1.0)), one_minus_y)
        x_s = y_minus / gamma
        k = w * one_minus_y
        residual = np.abs(x_s - lam * k / (a * k + lam * mu_term))
        roots = np.array(((mu * p_eff / lam) * x_s, mu_term * x_s / k, x_s, k))
    point = dict(lam=lam, mu=mu, w=w, gamma=gamma, p=p)
    _refuse(~(disc < 0.0), "negative discriminant {}", point, disc)
    # a discriminant or root that is not finite makes y_plus or x_s not finite
    _refuse(np.isfinite(roots).all(axis=0) & np.isfinite(y_plus), "x* or k* is not finite", point)
    _refuse((0.0 < y_minus) & (y_minus < 1.0) & (1.0 <= y_plus),
            "no equilibrium root with busy probability in (0, 1)", point)
    _refuse(residual <= 1e-9, "fixed-point residual {} too large", point, residual)
    return roots


def equilibrium(policy: Policy, params: SystemParams) -> Equilibrium:
    """Unique feasible fixed point of the mean-field ODE, from its radical (``_radical``)."""
    rates = (params.lam, params.mu, params.w, params.gamma, params.p)
    x_i, x_w, x_s, k = map(float, _radical(policy, *(np.array(v, dtype=float) for v in rates)))
    x_star = StateFractions(x_i, x_w, x_s)
    residual = float(np.abs(drift(policy, params, x_star)).max())
    margin = min(params.lam, k, params.w * params.gamma * x_w)
    return Equilibrium(x_star=x_star, k_star=k, residual=residual, stability_margin=margin)


_MAX_STEPS = 10_000_000  # bounds the samples kept; 500 times the longest run the package makes


def integrate(
    policy: Policy,
    params: SystemParams,
    x0: StateFractions,
    t_end: float,
    dt: float = 0.01,
) -> Trajectory:
    """Classical fixed-step 4th-order integration of the mean-field ODE.

    Samples every dt, with a final partial step up to t_end.  The state is
    renormalized onto the simplex whenever roundoff pushes the component sum
    off by more than 1e-12; the largest such correction is recorded on the
    trajectory.  Each RK4 step, full or partial, runs in the loop body on
    plain floats, calling ``_drift``'s rates four times.

    The trajectory settles on the equilibrium, where in floating point a
    full step reaches a state it maps to itself bit for bit.  Once a full
    step returns its own state, every later full step would compute the same
    numbers again, so the full steps stop there: the remaining rows repeat
    the state (one numpy fill), and a final partial step is computed.  Equal
    counts as identical only when every component is positive, which rules
    out -0.0 == 0.0 and NaN.  The sample times do not depend on the states:
    they are one left-to-right accumulate of the steps, bit for bit what
    ``t += h`` per step gives.
    """
    if not 0.0 < dt < math.inf:
        raise InvalidParameter("dt", "must be positive and finite")
    if not 0.0 < t_end < math.inf:
        raise InvalidParameter("t_end", "must be positive and finite")
    if t_end / dt > _MAX_STEPS:
        raise InvalidParameter("t_end", f"t_end / dt = {t_end / dt:g} steps exceed {_MAX_STEPS}")
    if not x0.on_simplex(1e-9):
        raise InvalidParameter("x0", f"not on the simplex: {x0}")
    rates = _drift(policy, params)
    gamma, dt = float(params.gamma), float(dt)
    n_full = int(t_end / dt)
    h_last = t_end - n_full * dt
    partial = h_last > 1e-12 * t_end
    max_corr = 0.0

    times = np.add.accumulate(np.r_[0.0, np.full(n_full, dt), [h_last] * partial])
    xi, xw, xs = float(x0.x_i), float(x0.x_w), float(x0.x_s)
    points = [(xi, xw, xs)]  # computed states; a settled stretch is filled in below
    for h, first, n_steps in ((dt, 0, n_full), (h_last, n_full, int(partial))):
        half, sixth = 0.5 * h, h / 6.0
        for i in range(first + 1, first + n_steps + 1):
            if gamma * xs > 1.0:
                raise InfeasibleOccupancy(f"gamma * x_s = {gamma * xs} > 1 during integration")
            k1i, k1w, k1s = rates(xi, xw, xs)
            k2i, k2w, k2s = rates(xi + half * k1i, xw + half * k1w, xs + half * k1s)
            k3i, k3w, k3s = rates(xi + half * k2i, xw + half * k2w, xs + half * k2s)
            k4i, k4w, k4s = rates(xi + h * k3i, xw + h * k3w, xs + h * k3s)
            yi = xi + sixth * (k1i + 2.0 * (k2i + k3i) + k4i)
            yw = xw + sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
            ys = xs + sixth * (k1s + 2.0 * (k2s + k3s) + k4s)
            total = yi + yw + ys
            off = abs(total - 1.0)
            if off > 1e-3 or yi < -1e-3 or yw < -1e-3 or ys < -1e-3:
                deviation = max(off, -min(yi, yw, ys, 0.0))
                raise StepTooLarge(f"state left the simplex by {deviation} at "
                                   f"t={float(times[i])}; use a smaller dt")
            if off > 1e-12:
                max_corr = max(max_corr, off)
                yi, yw, ys = yi / total, yw / total, ys / total
            points.append((yi, yw, ys))
            # fresh floats compare equal only without NaN
            if yi == xi and yw == xw and ys == xs and min(yi, yw, ys) > 0.0:
                break
            xi, xw, xs = yi, yw, ys
    states = np.empty((len(times), 3))
    if partial:
        states[-1] = points.pop()
    states[:len(points)] = points
    states[len(points):n_full + 1] = points[-1]
    return Trajectory(times=times, states=states, max_simplex_correction=max_corr)


def aoi_at_equilibrium(ps: PolicyScheme, params: SystemParams) -> float:
    """Average AoI in the mean-field limit: closed form evaluated at k*."""
    eq = equilibrium(ps.policy, params)
    return closedform.avg_aoi(ps, lam=params.lam, mu=params.mu, k=eq.k_star, p=params.p)


def aoi_along(combos: list[PolicyScheme], params: SystemParams, which: str,
              values) -> list[np.ndarray]:
    """Per pair of ``combos``, rows x_i, x_w, x_s, k* and mean-field AoI at
    each value of parameter ``which``.

    Every point's parameters are built and checked by ``with_param`` before
    any point is evaluated.  Each pair's grid is then one batch, with the
    radical solved once per policy: a grid fails as a whole, with the error
    of ``_radical`` or ``closedform.avg_aoi``, where any of its points fails
    or gives a value that is not finite.
    """
    probes = [with_param(params, which, value) for value in values]
    lam, mu, w, gamma, p = np.array([(q.lam, q.mu, q.w, q.gamma, q.p) for q in probes],
                                    dtype=float).reshape(-1, 5).T
    radicals, results = {}, []
    for ps in combos:
        if ps.policy not in radicals:
            radicals[ps.policy] = _radical(ps.policy, lam, mu, w, gamma, p)
        *x, k = radicals[ps.policy]
        results.append(np.array([*x, k, closedform.avg_aoi(ps, lam=lam, mu=mu, k=k, p=p)]))
    return results


# ---------------------------------------------------------------------------
# Numerical monotonicity verification.

SWEEPABLE = ("lam", "mu", "w", "gamma", "p")

# Claimed derivative signs of (x_i, x_w, x_s, AoI) per policy and swept
# parameter: +1 increasing, -1 decreasing, 0 unchanged, None left open by the
# analysis.  The w and gamma rows follow the fixed-point derivation: x_s
# solves x = F(x, w) with F increasing in w and decreasing in x and gamma, so
# x_s rises with w and falls with gamma (even though the busy probability
# gamma*x_s rises with gamma, which is what drives the AoI signs).  AoI signs
# are proved for policies (I) and (S) only; policy (W) and the arrival rate
# are left to numerical reporting.
_CLAIMS: dict[tuple[Policy, str], tuple[int | None, ...]] = {
    (Policy.I, "lam"): (-1, +1, +1, None),
    (Policy.I, "mu"): (+1, None, -1, -1),
    (Policy.I, "w"): (+1, -1, +1, -1),
    (Policy.I, "gamma"): (-1, +1, -1, +1),
    (Policy.I, "p"): (0, 0, 0, -1),
    (Policy.W, "lam"): (-1, +1, +1, None),
    (Policy.W, "mu"): (+1, None, -1, None),
    (Policy.W, "w"): (+1, -1, +1, None),
    (Policy.W, "gamma"): (-1, +1, -1, None),
    (Policy.W, "p"): (+1, -1, -1, None),
    (Policy.S, "lam"): (-1, +1, +1, None),
    (Policy.S, "mu"): (+1, None, -1, -1),
    (Policy.S, "w"): (+1, -1, +1, -1),
    (Policy.S, "gamma"): (-1, +1, -1, +1),
    (Policy.S, "p"): (+1, None, -1, -1),
}

_ZERO_TOL = 1e-9
_REL_STEP = 1e-4  # central-difference half-width, relative to the grid value


def _sign(value: float) -> int:
    if abs(value) <= _ZERO_TOL:
        return 0
    return 1 if value > 0 else -1


@dataclass(frozen=True)
class MonotonicityReport:
    """Central finite-difference signs along one parameter grid.

    ``d_x`` holds the derivative estimates of (x_i, x_w, x_s) per grid point,
    ``d_aoi`` those of the mean-field AoI.  ``verdicts`` compares observed
    signs of x_i, x_w, x_s and aoi against the claims: "match", "mismatch",
    or "report" where no sign is claimed.
    """

    d_x: np.ndarray
    d_aoi: np.ndarray
    verdicts: dict[str, str]

    def aoi_signs(self) -> list[int]:
        return [_sign(d) for d in self.d_aoi]


def with_param(params: SystemParams, which: str, value: float) -> SystemParams:
    """Copy of ``params`` with one mean-field parameter replaced (drops N, M)."""
    return replace(params, n_devices=None, n_channels=None, **{which: value})


def monotonicity_report(
    combos: list[PolicyScheme],
    params: SystemParams,
    which: str,
    grid,
) -> list[MonotonicityReport]:
    """Finite-difference signs of x* and the mean-field AoI along ``grid``,
    one report per pair of ``combos``, from one evaluation of the stencil.

    ``which`` selects the swept parameter; every other parameter is held at
    its value in ``params``.  Raises :class:`GridPointInvalid` when a grid
    point or its central-difference stencil leaves the valid range, and
    ``closedform.DivergentAoi`` naming the first grid value where a
    difference quotient is not finite.
    """
    if which not in SWEEPABLE:
        raise GridPointInvalid(f"unknown sweep parameter {which!r}")
    values = [float(v) for v in grid]
    if not values:
        raise GridPointInvalid("empty grid")

    steps, stencil = [], []
    for value in values:
        h = _REL_STEP * abs(value)
        lo, hi = value - h, value + h
        if not (h > 0 and lo > 0):
            raise GridPointInvalid(f"{which} = {value} too close to zero for step {h}")
        if which == "p" and hi > 1.0:
            raise GridPointInvalid(f"p = {value} + step exceeds 1")
        steps.append(h)
        stencil += [lo, hi]
    scale = 2.0 * np.array(steps)
    with np.errstate(all="ignore"):  # (x_i, x_w, x_s, AoI) slopes per pair and grid value
        slopes = np.array([(rows[[0, 1, 2, 4], 1::2] - rows[[0, 1, 2, 4], 0::2]) / scale
                           for rows in aoi_along(combos, params, which, stencil)])
    finite = np.isfinite(slopes).all(axis=(0, 1))
    if not finite.all():
        raise closedform.DivergentAoi("a finite difference is not finite at "
                                      + closedform._first_failing(finite, **{which: values}))
    reports = []
    for ps, slope in zip(combos, slopes):
        d_x, d_aoi = slope[:3].T, slope[3]
        verdicts: dict[str, str] = {}
        for quantity, claim, column in zip(("x_i", "x_w", "x_s", "aoi"),
                                           _CLAIMS[ps.policy, which], (*d_x.T, d_aoi)):
            if claim is None:
                verdicts[quantity] = "report"
            else:
                matched = all(_sign(d) == claim for d in column)
                verdicts[quantity] = "match" if matched else "mismatch"
        reports.append(MonotonicityReport(d_x=d_x, d_aoi=d_aoi, verdicts=verdicts))
    return reports
