"""The backward-coupled logistic map x' - x = r*x*(1 - x').

Solving the implicit step for x' gives the Moebius map
x' = x*(1+r)/(1 + r*x), so unlike the quadratic map there is no chaos and
double precision suffices throughout.  The map inherits the ODE's whole
solution structure: in its one-parameter general family gamma only shifts the
seed to x0 + 1/gamma, and every member, the particular solution included,
takes the ODE's start rule ``continuous._start`` for its exact seed and then
reads the ODE's sigmoid kernel ``continuous._sigmoid`` with e^(-r*t) replaced
by (1+r)^-n.  The paper's printed form of the general solution, which steps
the linearized equation y' = g*y + h of the step coefficients from y = gamma,
is a test reference (``tests/routes.py``) that reads ``coefficients``.  Its
parameters are ``precision.MapParams``: a run loads no ``map_standard``."""

import math
from array import array
from functools import partial
from itertools import pairwise

from .continuous import RiccatiShift, _sigmoid, _start
from .errors import POLE_EPS, DomainError, PoleError, check_steps
from .precision import DOUBLE, METHOD_CLOSED_FORM, METHOD_ITERATED, MapParams, Trajectory

# The coupled map takes the quadratic map's parameters, a finite rate r and seed
# x0.  r = -1 is accepted: plain iteration handles it (the orbit is x0, 0, 0,
# ...), but the closed forms genuinely do not exist there and reject it.
RiccatiMapParams = MapParams


def iterate(p: RiccatiMapParams, n: int) -> Trajectory:
    """Samples 0..n of the explicit step x' = x*(1+r)/(1 + r*x), one
    array('d') filled step by step.

    Raises PoleError with the offending index when 1 + r*x vanishes.
    """
    check_steps(n)
    x = p.x0
    values = array("d", [x])
    for k in range(1, n + 1):
        den = 1.0 + p.r * x
        if abs(den) < POLE_EPS:
            raise PoleError(f"1 + r*x vanished at step {k - 1}", where=k - 1)
        x = x * (1.0 + p.r) / den
        if not math.isfinite(x):
            raise PoleError(f"state overflowed at step {k}", where=k)
        values.append(x)
    return Trajectory(METHOD_ITERATED, range(n + 1), values, DOUBLE)


def _check_closed_form_params(p: RiccatiMapParams):
    if p.r == -1.0:
        raise DomainError("closed forms do not exist at r = -1 "
                          "((1+r)^-n degenerates); use iterate instead")
    if p.x0 == 0:
        raise DomainError("closed forms require x0 != 0 (they divide by x0)")


def _series(p: RiccatiMapParams, n: int, first: int = 0,
            gamma: float | None = None) -> array:
    """Samples first..n of the particular solution, or of the family member
    picked by gamma, as one array('d'), its parameters checked and its start
    worked out once: x_s at step 0, then one column of the ODE's kernel.  As
    in the continuous case gamma only shifts the seed, to x_s = x0 + 1/gamma =
    (a*g + b*h)/(b*g) for x0 = a/b and gamma = g/h (the particular solution is
    gamma = 1/0), and a seed of 0 is the fixed point x = 0.  The caller has
    checked n."""
    if gamma is not None:
        RiccatiShift(gamma)  # gamma obeys the rule of the ODE's free constant
    _check_closed_form_params(p)
    (a, b), (g, h) = p.x0.as_integer_ratio(), gamma.as_integer_ratio() if gamma else (1, 0)
    if a * g + b * h == 0:  # the fixed point, read as x0 = 0 by no closed form
        return array("d", [0.0]) * (n + 1 - first)
    x_s, c, _ = _start(a * g + b * h, b * g)
    values = _sigmoid(c, partial(pow, 1.0 + p.r), -1, range(max(first, 1), n + 1), "n")
    if first == 0:
        values.insert(0, x_s)
    return values


def particular_solution(p: RiccatiMapParams, n: int) -> float:
    """The sigmoid analogue 1/(1 + (1/x0 - 1)*(1+r)^-n); x0 itself at n = 0.

    Agrees with ``iterate`` exactly in exact arithmetic; the discrete
    counterpart of the ODE solution with e^r replaced by (1+r).  Returning the
    seed at n = 0 keeps huge seeds (|x0| from about 2^53 on), for which
    1/x0 - 1 rounds to -1, off the formula's false pole there.
    """
    check_steps(n)
    return _series(p, n, n)[0]


def coefficients(p: RiccatiMapParams, n_max: int) -> tuple[tuple, tuple]:
    """The pair (g, h) of tuples g_n = (r*x_n + 1)/(r*(1 - x_{n+1}) + 1) and
    h_n = r/(same denominator) for n = 0..n_max-1, with x_n the particular
    solution: the steps of the printed general solution, a test reference in
    ``tests/routes.py``."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    g, h = [], []
    for n, (xn, xn1) in enumerate(pairwise(_series(p, n_max))):
        den = p.r * (1.0 - xn1) + 1.0
        if abs(den) < POLE_EPS:
            raise PoleError(f"coefficient denominator vanished at n={n}", where=n)
        g.append((p.r * xn + 1.0) / den)
        h.append(p.r / den)
    return tuple(g), tuple(h)


def general_solution(p: RiccatiMapParams, gamma: float, n: int) -> float:
    """The family member picked by gamma: the particular solution from the
    shifted seed x0 + 1/gamma."""
    check_steps(n)
    return _series(p, n, n, gamma)[0]


def particular_trajectory(p: RiccatiMapParams, n: int) -> Trajectory:
    """Trajectory of the particular solution over steps 0..n."""
    check_steps(n)
    return Trajectory(f"{METHOD_CLOSED_FORM}:particular", range(n + 1), _series(p, n), DOUBLE)


def general_trajectory(p: RiccatiMapParams, gamma: float, n: int) -> Trajectory:
    """Trajectory of the general solution over steps 0..n, from the shifted seed."""
    check_steps(n)
    return Trajectory(f"{METHOD_CLOSED_FORM}:general", range(n + 1), _series(p, n, gamma=gamma),
                      DOUBLE)
