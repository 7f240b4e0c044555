"""Closed forms for the logistic growth ODE dx/dt = r*x*(1-x).

The equation is a constant-coefficient Riccati equation, so one known
solution generates the whole family: every member is the basic sigmoid
restarted from a shifted initial value x_s = gamma*x0/(gamma - x0).  Every
form starts at x_s rounded once and evaluates 1/(1 + (1/x_s - 1)*exp(-r*t))
for t != 0 with ``_sigmoid``, the Riccati kernel that the coupled map
shares; a grid resolves its member once for all its points.  The ODE side is
not chaotic, so double precision serves throughout.  A classical Runge-Kutta
integrator provides the independent cross-check, on the grid of ``grid_trajectory``.
"""

import math
import operator
import sys
from dataclasses import dataclass
from itertools import chain, islice, repeat

from .errors import ESCAPE_BOUND, POLE_EPS, DomainError, EscapeError, PoleError
from .precision import DOUBLE, METHOD_ODE_CLOSED_FORM, METHOD_ODE_RK4, Trajectory

_NORMAL_MIN = sys.float_info.min  # the smallest normal double
# Below about 5.6e-309 in magnitude a start x_s has no reciprocal among the
# doubles, and the sigmoid would not start at x_s.
_NO_RECIPROCAL = "1/x_s overflows a double for the start x_s of this solution"
# Largest time grid a trajectory may sample; bigger grids are refused up front
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class ContinuousParams:
    """Growth rate (inverse time units) and initial value x(0)."""

    r: float
    x0: float

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r == 0:
            raise DomainError("growth rate r must be finite and nonzero")
        if not math.isfinite(self.x0):
            raise DomainError("initial value x0 must be finite")


@dataclass(frozen=True)
class RiccatiShift:
    """Free constant gamma = y(0) of the auxiliary linear equation.

    It selects one member of the general solution family.  For seeds in
    (0, 1) the member is bounded for all t >= 0 when gamma < 0 or gamma >=
    x0/(1 - x0); between 0 and that bound (gamma = x0 is refused) it starts
    outside [0, 1] and has one pole, at a t > 0 for 0 < gamma < x0 if r > 0
    and for x0 < gamma < x0/(1 - x0) if r < 0.
    """

    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma == 0:
            raise DomainError("gamma must be finite and nonzero")


def _reciprocal_start(x0: float, shift: RiccatiShift | None = None) -> float:
    """1/x_s for the start x_s of the particular solution, or of the family
    member selected by ``shift``: 1/x0, or (gamma - x0)/(gamma*x0).

    Every form reads its start from here: the sigmoid's constant is 1/x_s - 1
    and a member starting outside [0, 1] blows up at ln(1 - 1/x_s)/r.
    Raises DomainError for x0 = 0 and for a start too small for 1/x_s to be a
    double, and PoleError for gamma = x0.
    """
    if x0 == 0:
        raise DomainError("the solution requires x0 != 0 (it divides by x0)")
    if shift is None:
        q = 1.0 / x0
    else:
        g = shift.gamma
        if g == x0:
            raise PoleError("gamma equals x0: the effective initial condition diverges")
        den = g * x0
        if _NORMAL_MIN <= abs(den) < math.inf:
            q = (g - x0) / den
        else:  # g*x0 underflows or overflows: divide by the larger factor first
            small, big = sorted((g, x0), key=abs)
            diff = g - x0
            q = (diff / big if math.isfinite(diff) else g / big - x0 / big) / small
    if math.isinf(q):
        raise DomainError(_NO_RECIPROCAL)
    return q


def _pole_time(r: float, q: float) -> float | None:
    """The time t > 0 at which the sigmoid from the start 1/q blows up, or
    None.  Only a start x_s outside [0, 1] (q = 1/x_s < 1) has a pole, at
    t* = ln(1 - q)/r, which lies before 0 when ln(1 - q) and r differ in
    sign."""
    if q < 1:
        t = math.log1p(-q) / r
        if t > 0:
            return t
    return None


def effective_initial_condition(p: ContinuousParams, shift: RiccatiShift) -> float:
    """Initial value gamma*x0/(gamma - x0) of the member picked by gamma, rounded
    once: its sample at t = 0, where a start beyond the doubles is a pole."""
    _reciprocal_start(p.x0, shift)
    (gn, gd), (xn, xd) = shift.gamma.as_integer_ratio(), p.x0.as_integer_ratio()
    try:  # gamma*x0/(gamma - x0) exactly, as one correctly rounded int division
        return gn * xn / (gn * xd - xn * gd)
    except OverflowError:
        raise PoleError("gamma is too close to x0: the effective initial condition "
                        "overflows", where=0.0) from None


def _sigmoid(c, decay, arg, where, axis="t"):
    """1/(1 + c*decay(arg)), the Riccati sigmoid of both families after its
    start: exp(-r*t) for the ODE, (1+r)^-n for the coupled map, with a pole
    reported at ``axis`` = ``where``.  Where the decay overflows, 1 + c*decay
    rounds to c*decay (a nonzero c is at least 2^-53 in magnitude), so the
    sample is 1/(c*decay(h))/decay(arg - h) for the half h = arg // 2 (exact
    for a float arg as for an integer one): 0.0 only when a half overflows too
    or the quotient underflows."""
    if c == 0:
        return 1.0
    try:
        d = decay(arg)
    except OverflowError:
        h = arg // 2
        try:
            return 1.0 / (c * decay(h)) / decay(arg - h)
        except OverflowError:
            return 0.0
    den = 1.0 + c * d
    if abs(den) < POLE_EPS:
        raise PoleError(f"solution has a pole at {axis}={where!r}", where=where)
    return 1.0 / den


def particular_solution(t: float, p: ContinuousParams) -> float:
    """The sigmoid through x0: x0 itself at t = 0, else 1/(1 + (1/x0 - 1)*exp(-r*t)).

    Raises PoleError at the blow-up time that exists when x0 lies outside
    [0, 1] (for r > 0 the denominator then crosses zero), and
    ``grid_trajectory`` refuses a grid that reaches it.  Raises DomainError
    for x0 = 0 and for an x0 whose reciprocal overflows a double.
    """
    q = _reciprocal_start(p.x0)
    return float(p.x0) if t == 0 else _sigmoid(q - 1.0, math.exp, -p.r * t, t)


def general_solution(t: float, p: ContinuousParams, shift: RiccatiShift) -> float:
    """Member of the one-parameter solution family selected by ``shift``.

    Algebraically this is just the particular solution restarted from
    gamma*x0/(gamma - x0): the free constant only changes the initial
    condition.  For a seed in (0, 1) and gamma = x0/(1 - x0) that value is 1,
    so the member is the fixed point x = 1, up to rounding.  A member with a
    pole at some t > 0 (see ``RiccatiShift``) is evaluated wherever its
    formula is defined, and ``grid_trajectory`` refuses a grid that reaches
    the pole.  Raises DomainError, as ``particular_solution`` does, when the
    reciprocal of the start x_s = gamma*x0/(gamma - x0) overflows a double.
    """
    if t == 0:
        return effective_initial_condition(p, shift)
    return _sigmoid(_reciprocal_start(p.x0, shift) - 1.0, math.exp, -p.r * t, t)


def general_solution_correction_form(t: float, p: ContinuousParams,
                                     shift: RiccatiShift) -> float:
    """The same family member written as particular * (1 + 1/(gamma*(exp(r*t)
    + 1/x0 - 1) - 1)).

    Kept as an independent algebraic route so the two printed forms can be
    cross-checked numerically; ``general_solution`` is the primary evaluator.
    """
    x1 = particular_solution(t, p)
    try:
        growth = math.exp(p.r * t)
    except OverflowError:
        return x1  # the correction term has vanished
    inner = shift.gamma * (growth + 1.0 / p.x0 - 1.0) - 1.0
    if abs(inner) < POLE_EPS:
        raise PoleError(f"correction term has a pole at t={t!r}", where=t)
    return x1 * (1.0 + 1.0 / inner)


def _grid_steps(t_end: float, dt: float) -> int:
    """Steps n of the grid k*dt, k = 0..n, ending at t_end; checked before allocating."""
    if not (math.isfinite(t_end) and math.isfinite(dt) and 0 < dt <= t_end):
        raise ValueError("need 0 < dt <= t_end")
    steps = t_end / dt
    if not steps + 1 <= MAX_GRID_POINTS:  # also catches t_end/dt overflowing to inf
        raise ValueError(f"a grid of {steps + 1:g} points exceeds the limit of "
                         f"{MAX_GRID_POINTS} grid points")
    return int(round(steps))


def _grid_times(n: int, dt: float) -> tuple:
    """The times k*dt, k = 0..n, of the grid of n steps."""
    return tuple(map(operator.mul, range(n + 1), repeat(dt)))


def grid_trajectory(p: ContinuousParams, t_end: float, dt: float,
                    shift: RiccatiShift | None = None) -> Trajectory:
    """Closed-form trajectory sampled at t = k*dt, on the grid of ``rk4_oracle``.

    The particular solution, or the general-solution member selected by
    ``shift``: the member is resolved once, the sample at t = 0 is its start
    x_s rounded once, and every later point is read off ``_sigmoid``, the
    kernel ``particular_solution`` and ``general_solution`` evaluate a single
    point with.  One pole rule holds for every seed and either sign of r: a
    member starting at x_s outside [0, 1] (q = 1/x_s < 1) has one pole, at
    t* = ln(1 - 1/x_s)/r, and a t* after 0 and up to the last grid point
    raises PoleError before any sample.
    """
    n = _grid_steps(t_end, dt)
    q = _reciprocal_start(p.x0, shift)
    t = _pole_time(p.r, q)
    if t is not None and t <= n * dt:
        raise PoleError(f"solution has a pole at t={t!r}, inside the grid", where=t)
    start = float(p.x0) if shift is None else effective_initial_condition(p, shift)
    ts = _grid_times(n, dt)
    us = map(operator.mul, repeat(-p.r), islice(ts, 1, None))
    values = map(_sigmoid, repeat(q - 1.0), repeat(math.exp), us, islice(ts, 1, None))
    return Trajectory(METHOD_ODE_CLOSED_FORM, ts, chain((start,), values), DOUBLE)


def rk4_oracle(p: ContinuousParams, t_end: float, dt: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta trajectory sampled at multiples of dt.

    Deliberately independent of every closed form in this module: it is the
    ground truth the sigmoid formulas are checked against.  The step guard
    |r|*dt < 0.1 keeps the integrator comfortably inside its stability
    region.
    """
    n = _grid_steps(t_end, dt)
    if abs(p.r) * dt >= 0.1:
        raise ValueError("|r|*dt must stay below 0.1 for a trustworthy step")
    r = p.r
    x = p.x0
    values = [x]
    for k in range(1, n + 1):
        k1 = r * x * (1.0 - x)
        s = x + 0.5 * dt * k1
        k2 = r * s * (1.0 - s)
        s = x + 0.5 * dt * k2
        k3 = r * s * (1.0 - s)
        s = x + dt * k3
        k4 = r * s * (1.0 - s)
        x = x + dt * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
        if not math.isfinite(x) or abs(x) > ESCAPE_BOUND:
            raise EscapeError(f"integrator state ran away at step {k}", index=k)
        values.append(x)
    return Trajectory(METHOD_ODE_RK4, _grid_times(n, dt), values, DOUBLE)
