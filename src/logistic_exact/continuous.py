"""Closed forms for the logistic growth ODE dx/dt = r*x*(1-x).

The equation is a constant-coefficient Riccati equation, so one known
solution generates the whole family: every member is the basic sigmoid
restarted from a shifted initial value x_s = gamma*x0/(gamma - x0).  One start
rule serves this family and the coupled map's: ``_start`` forms x_s and the
constant c = 1/x_s - 1 as correctly rounded quotients of the exact integers
behind the doubles, and every later sample 1/(1 + c*exp(-r*t)) is read off
``_sigmoid``, the Riccati column kernel that both families share; a grid
resolves its member once and evaluates all its points as one column.  The ODE
side is not chaotic, so double precision serves throughout.  The independent
cross-checks, a classical Runge-Kutta integrator on the grid of
``grid_trajectory`` and the printed correction form of each member, are test
references (``tests/routes.py``)."""

import math
import operator
import weakref
from array import array
from itertools import repeat

from .errors import MAX_GRID_POINTS, POLE_EPS, DomainError, PoleError
from .precision import DOUBLE, METHOD_ODE_CLOSED_FORM, Trajectory, _chunks, _pack, _Record

# Below about 5.6e-309 in magnitude a start x_s has no reciprocal among the
# doubles, and the sigmoid would not start at x_s.
_NO_RECIPROCAL = "1/x_s overflows a double for the start x_s of this solution"


class ContinuousParams(_Record):
    """Growth rate (inverse time units) and initial value x(0)."""

    __match_args__ = ("r", "x0")

    def __init__(self, r: float, x0: float):
        if not math.isfinite(r) or r == 0:
            raise DomainError("growth rate r must be finite and nonzero")
        if not math.isfinite(x0):
            raise DomainError("initial value x0 must be finite")
        fields = self.__dict__
        fields["r"] = r
        fields["x0"] = x0


class RiccatiShift(_Record):
    """Free constant gamma = y(0) of the auxiliary linear equation.

    It selects one member of the general solution family.  For seeds in
    (0, 1) the member is bounded for all t >= 0 when gamma < 0 or gamma >=
    x0/(1 - x0); between 0 and that bound (gamma = x0 is refused) it starts
    outside [0, 1] and has one pole, at a t > 0 for 0 < gamma < x0 if r > 0
    and for x0 < gamma < x0/(1 - x0) if r < 0.
    """

    __match_args__ = ("gamma",)

    def __init__(self, gamma: float):
        if not math.isfinite(gamma) or gamma == 0:
            raise DomainError("gamma must be finite and nonzero")
        self.__dict__["gamma"] = gamma


def _start(num: int, den: int):
    """x_s = num/den, the start of a Riccati member of either family, its
    sigmoid constant c = 1/x_s - 1 = (den - num)/num and q = 1/x_s = den/num,
    each one int/int quotient of the exact integers behind the doubles, which
    CPython rounds correctly.  An x_s beyond the doubles is a pole at the
    start, as is an infinite one (den = 0, gamma = x0), and one too small for
    1/x_s to be a double is refused.  num != 0."""
    try:
        x_s = num / den
    except (OverflowError, ZeroDivisionError):
        cause = "overflows a double" if den else "is infinite"
        raise PoleError(f"the start x_s of this solution {cause}: a pole at the start",
                        where=0) from None
    try:
        return x_s, (den - num) / num, den / num
    except OverflowError:
        raise DomainError(_NO_RECIPROCAL) from None


def _ode_start(x0: float, shift: RiccatiShift | None = None):
    """``_start`` of the member x_s = gamma*x0/(gamma - x0) = g*a/(g*b - a*h)
    for x0 = a/b and gamma = g/h, or of the particular solution x_s = x0, the
    member of gamma = 1/0.  Raises DomainError for x0 = 0."""
    if x0 == 0:
        raise DomainError("the solution requires x0 != 0 (it divides by x0)")
    (a, b), (g, h) = x0.as_integer_ratio(), shift.gamma.as_integer_ratio() if shift else (1, 0)
    return _start(g * a, g * b - a * h)


def _pole_time(r: float, c: float, q: float) -> float | None:
    """The time t > 0 at which the sigmoid from the start x_s = 1/q, with
    constant c = 1/x_s - 1, blows up, or None.  Only a start outside [0, 1]
    (c < 0) has a pole, at t* = ln(1 - q)/r, which lies before 0 when
    ln(1 - q) and r differ in sign.  As 1 - q = -c, the logarithm reads
    whichever of q and c lies the farther from 1: for |x_s| from 2^53 on, c
    rounds to -1 and ln(-c) would lose the pole, and for x_s just above 1, q
    rounds to 1 and ln(1 - q) would be no number."""
    if c < 0:
        t = (math.log1p(-q) if q < 0.5 else math.log(-c)) / r
        if t > 0:
            return t
    return None


def _sigmoid(c, decay, rate, wheres, axis="t"):
    """array('d', [1/(1 + c*decay(rate*w)) for each w of the sequence
    ``wheres``]), the Riccati sigmoid of both families after its start:
    exp(-r*t) for the ODE, (1+r)^-n for the coupled map, with a pole reported
    at ``axis`` = w.

    The column runs as C-level maps: the decay, then 1.0 + c*d, then 1.0/den,
    each point's operations in the order of the per-point rule below, read
    into the array 4,096 samples at a time (``_chunks``).  That rule
    evaluates the column instead, point by point, when a decay
    overflows, a denominator is exactly zero, a sample passes 1e299 in
    magnitude, as one does where |den| < POLE_EPS, or a sample is 0.0, as
    only an infinite den gives.  Where c*decay(arg) for arg = rate*w
    overflows, the decay alone or the product, 1 + c*decay rounds to c*decay
    (a nonzero c is at least 2^-53 in magnitude), so the sample is
    1/(c*decay(h))/decay(arg - h) for the half h = arg // 2 (exact for a
    float arg as for an integer one): a zero only when a half overflows too
    or the quotient underflows, signed as the quotient is, by c times
    decay(arg % 2) (the map's base to the parity of n, or an exp that is
    positive)."""
    if c == 0:
        return array("d", [1.0]) * len(wheres)
    samples = array("d")
    try:
        for part in _chunks(map(operator.truediv, repeat(1.0), map(
                operator.add, repeat(1.0), map(operator.mul, repeat(c), map(
                    decay, map(operator.mul, repeat(rate), wheres)))))):
            if not (max(part) <= 1e299 and min(part) >= -1e299 and 0.0 not in part):
                break
            samples.fromlist(part)
        else:
            return samples
    except (OverflowError, ZeroDivisionError):
        pass

    def point(arg, where):
        try:
            cd = c * decay(arg)
        except OverflowError:
            cd = math.inf
        if math.isinf(cd):
            h = arg // 2
            try:
                return 1.0 / (c * decay(h)) / decay(arg - h)
            except OverflowError:
                return math.copysign(0.0, c * decay(arg % 2))
        den = 1.0 + cd
        if abs(den) < POLE_EPS:
            raise PoleError(f"solution has a pole at {axis}={where!r}", where=where)
        return 1.0 / den

    return _pack(map(point, map(operator.mul, repeat(rate), wheres), wheres))


def particular_solution(t: float, p: ContinuousParams) -> float:
    """The sigmoid through x0: x0 itself at t = 0, else 1/(1 + c*exp(-r*t)) with
    c = 1/x0 - 1 rounded once.

    Raises PoleError at the blow-up time that exists when x0 lies outside
    [0, 1] (for r > 0 the denominator then crosses zero), and
    ``grid_trajectory`` refuses a grid that reaches it.  Raises DomainError
    for x0 = 0 and for an x0 whose reciprocal overflows a double.
    """
    x_s, c, _ = _ode_start(p.x0)
    return x_s if t == 0 else _sigmoid(c, math.exp, -p.r, (t,))[0]


def general_solution(t: float, p: ContinuousParams, shift: RiccatiShift) -> float:
    """Member of the one-parameter solution family selected by ``shift``.

    Algebraically this is just the particular solution restarted from
    gamma*x0/(gamma - x0): the free constant only changes the initial
    condition, and the member's sample at t = 0 is that start, rounded once.
    For a seed in (0, 1) and gamma = x0/(1 - x0) that value is 1,
    so the member is the fixed point x = 1, up to rounding.  A member with a
    pole at some t > 0 (see ``RiccatiShift``) is evaluated wherever its
    formula is defined, and ``grid_trajectory`` refuses a grid that reaches
    the pole.  Raises DomainError, as ``particular_solution`` does, when the
    reciprocal of the start x_s = gamma*x0/(gamma - x0) overflows a double,
    and PoleError when x_s itself does: a pole at t = 0.
    """
    x_s, c, _ = _ode_start(p.x0, shift)
    return x_s if t == 0 else _sigmoid(c, math.exp, -p.r, (t,))[0]


def _grid_steps(t_end: float, dt: float) -> int:
    """Steps n = round(t_end/dt) of the grid k*dt, k = 0..n, checked before
    allocating.  Its last point n*dt can pass t_end by up to dt/2, and must
    be a finite double."""
    if not (math.isfinite(t_end) and math.isfinite(dt) and 0 < dt <= t_end):
        raise ValueError("need 0 < dt <= t_end")
    steps = t_end / dt
    if not steps + 1 <= MAX_GRID_POINTS:  # also catches t_end/dt overflowing to inf
        raise ValueError(f"a grid of {steps + 1:g} points exceeds the limit of "
                         f"{MAX_GRID_POINTS} grid points")
    n = int(round(steps))
    if not math.isfinite(n * dt):
        raise ValueError(f"the grid's last time {n} * {dt!r} is past the largest double")
    return n


# The live trajectories on each grid, by (steps, dt): the members sampled on
# one grid share its column of times, which goes when the last of them does.
_GRIDS = weakref.WeakValueDictionary()


def _grid_times(n: int, dt: float) -> array:
    """The times k*dt, k = 0..n, of the grid of n steps: those of a live
    trajectory on the same grid, or a new array('d')."""
    traj = _GRIDS.get((n, dt))
    return traj.indices if traj is not None else _pack(
        map(operator.mul, range(n + 1), repeat(dt)))


def grid_trajectory(p: ContinuousParams, t_end: float, dt: float,
                    shift: RiccatiShift | None = None) -> Trajectory:
    """Closed-form trajectory sampled at t = k*dt.

    The particular solution, or the general-solution member selected by
    ``shift``: the member is resolved once, the sample at t = 0 is its start
    x_s rounded once, and every later point is read off one call of the
    column kernel ``_sigmoid``, which ``particular_solution`` and
    ``general_solution`` call with one-point columns.  One pole rule holds
    for every seed and either sign of r: a member starting at x_s outside
    [0, 1] (c = 1/x_s - 1 < 0) has one pole, at t* = ln(1 - 1/x_s)/r, and a t*
    after 0 and up to the last grid point raises PoleError before any
    sample.  Both columns are array('d'), and trajectories on one grid share
    its column of times while any of them lives.
    """
    n = _grid_steps(t_end, dt)
    x_s, c, q = _ode_start(p.x0, shift)
    t = _pole_time(p.r, c, q)
    if t is not None and t <= n * dt:
        raise PoleError(f"solution has a pole at t={t!r}, inside the grid", where=t)
    ts = _grid_times(n, dt)
    values = _sigmoid(c, math.exp, -p.r, ts[1:])
    values.insert(0, x_s)
    _GRIDS[n, dt] = traj = Trajectory(METHOD_ODE_CLOSED_FORM, ts, values, DOUBLE)
    return traj
