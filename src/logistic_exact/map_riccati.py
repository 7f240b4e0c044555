"""The backward-coupled logistic map x' - x = r*x*(1 - x').

Solving the implicit step for x' gives the Moebius map
x' = x*(1+r)/(1 + r*x), so unlike the quadratic map there is no chaos and
double precision suffices throughout.  The map inherits the ODE's whole
solution structure: its particular solution starts on the seed and then reads
the ODE's sigmoid kernel ``continuous._sigmoid`` with e^(-r*t) replaced by
(1+r)^-n, and in its one-parameter general family gamma only shifts the seed
to x0 + 1/gamma, cross-checked by cumulative products of step coefficients.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, pairwise, repeat
from operator import neg

from .continuous import RiccatiShift, _sigmoid
from .errors import POLE_EPS, DomainError, EscapeError, PoleError, check_steps
from .map_standard import MapParams
from .precision import (
    DOUBLE,
    METHOD_CLOSED_FORM,
    METHOD_ITERATED,
    Trajectory,
)

_PRODUCT_GUARD = 1e300

# The coupled map takes the quadratic map's parameters, a finite rate r and seed
# x0.  r = -1 is accepted: plain iteration handles it (the orbit is x0, 0, 0,
# ...), but the closed forms genuinely do not exist there and reject it.
RiccatiMapParams = MapParams


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Step coefficients g_n, h_n of the linearized equation, indexed 0..n_max-1."""

    g: tuple
    h: tuple

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(float(v) for v in self.g))
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        if len(self.g) != len(self.h):
            raise ValueError("g and h must have equal length")


def iterate(p: RiccatiMapParams, n: int) -> Trajectory:
    """Samples 0..n of the explicit step x' = x*(1+r)/(1 + r*x).

    Raises PoleError with the offending index when 1 + r*x vanishes.
    """
    check_steps(n)
    x = p.x0
    values = [x]
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


def _series(p: RiccatiMapParams, n: int):
    """Samples 0..n of the particular solution, its parameters checked and
    c = 1/x0 - 1 worked out once: the seed, then the ODE's kernel."""
    check_steps(n)
    _check_closed_form_params(p)
    steps = range(1, n + 1)
    values = map(_sigmoid, repeat(1.0 / p.x0 - 1.0), repeat(partial(pow, 1.0 + p.r)),
                 map(neg, steps), steps, repeat("n"))
    return chain((float(p.x0),), values)


def particular_solution(p: RiccatiMapParams, n: int) -> float:
    """The sigmoid analogue 1/(1 + (1/x0 - 1)*(1+r)^-n); x0 itself at n = 0.

    Agrees with ``iterate`` exactly in exact arithmetic; the discrete
    counterpart of the ODE solution with e^r replaced by (1+r).  Returning the
    seed at n = 0 keeps huge seeds (|x0| from about 2^53 on), for which
    1/x0 - 1 rounds to -1, off the formula's false pole there.
    """
    check_steps(n)
    _check_closed_form_params(p)
    if n == 0:
        return float(p.x0)
    return _sigmoid(1.0 / p.x0 - 1.0, partial(pow, 1.0 + p.r), -n, n, "n")


def coefficients(p: RiccatiMapParams, n_max: int) -> RiccatiCoefficients:
    """g_n = (r*x_n + 1)/(r*(1 - x_{n+1}) + 1) and h_n = r/(same denominator)
    for n = 0..n_max-1, with x_n the particular solution."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    g = []
    h = []
    for n, (xn, xn1) in enumerate(pairwise(_series(p, n_max))):
        den = p.r * (1.0 - xn1) + 1.0
        if abs(den) < POLE_EPS:
            raise PoleError(f"coefficient denominator vanished at n={n}", where=n)
        g.append((p.r * xn + 1.0) / den)
        h.append(p.r / den)
    return RiccatiCoefficients(tuple(g), tuple(h))


def general_solution(p: RiccatiMapParams, gamma: float, n: int,
                     coeffs: RiccatiCoefficients | None = None) -> float:
    """The family member picked by gamma: as in the continuous case, gamma
    only shifts the seed, so this is the particular solution from x0 + 1/gamma.

    Passing ``coeffs`` selects the independent cross-check instead, O(n) per
    sample and raising EscapeError when its product leaves the guarded range
    (an empty product is 1, an empty sum 0):

        x_n + prod(1/g_k, k<n) / (gamma + sum(prod(1/g_j, j<=k) * h_k, k<n))
    """
    check_steps(n)
    RiccatiShift(gamma)  # gamma obeys the rule of the ODE's free constant
    _check_closed_form_params(p)
    if coeffs is None:
        seed = p.x0 + 1.0 / gamma
        if not math.isfinite(seed):
            raise PoleError("gamma is too close to 0: the shifted seed x0 + 1/gamma overflows")
        if seed == 0:  # the fixed point x = 0, not a closed-form seed
            return seed
        return particular_solution(RiccatiMapParams(p.r, seed), n)
    if len(coeffs.g) < n:
        raise ValueError(f"coefficients cover {len(coeffs.g)} steps, need {n}")
    running = 1.0  # prod_{j<=k} 1/g_j while summing, equals prod_{k<n} 1/g_k at the end
    acc = 0.0
    for k in range(n):
        running /= coeffs.g[k]
        if abs(running) > _PRODUCT_GUARD or abs(running) < 1e-300:
            raise EscapeError(f"coefficient product left the guarded range at step {k}",
                              index=k)
        acc += running * coeffs.h[k]
    den = gamma + acc
    if abs(den) < POLE_EPS:
        raise PoleError(f"gamma={gamma!r} hits the pole of the general solution at n={n}",
                        where=n)
    return particular_solution(p, n) + running / den


def particular_trajectory(p: RiccatiMapParams, n: int) -> Trajectory:
    """Trajectory of the particular solution over steps 0..n."""
    values = _series(p, n)  # checks n before range(n + 1) is formed
    return Trajectory(f"{METHOD_CLOSED_FORM}:particular", range(n + 1), values, DOUBLE)


def general_trajectory(p: RiccatiMapParams, gamma: float, n: int) -> Trajectory:
    """Trajectory of the general solution over steps 0..n, from the shifted seed."""
    check_steps(n)
    seed = general_solution(p, gamma, 0)  # the member's value at step 0 is x0 + 1/gamma
    values = repeat(seed, n + 1) if seed == 0 else _series(RiccatiMapParams(p.r, seed), n)
    return Trajectory(f"{METHOD_CLOSED_FORM}:general", range(n + 1), values, DOUBLE)
