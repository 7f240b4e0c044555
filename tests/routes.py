"""Second routes to the library's results, kept as test references.

Each computes a result that the library computes by another route, and the
tests compare the two: an RK4 integrator and the printed correction form
against the ODE's closed forms, the conjugacy that each closed form of the
quadratic map comes from against ``closed_form``, and the phase reference
and the tapered oracle as trajectories, against the iterated oracle and the
divergence reports.  The CLI runs none of them.  They call only names that an
installed ``logistic_exact`` provides.
"""

import math

from mpmath import mp, mpf, workprec

from logistic_exact import map_standard
from logistic_exact.continuous import (
    _GRIDS,
    ContinuousParams,
    RiccatiShift,
    _grid_steps,
    _grid_times,
    particular_solution,
)
from logistic_exact.errors import ESCAPE_BOUND, POLE_EPS, DomainError, EscapeError, PoleError
from logistic_exact.map_standard import (
    _PHASE_FORM,
    ClosedForm,
    MapParams,
    _check_closed_form,
    _mpfs,
    iterate,
)
from logistic_exact.precision import (
    DOUBLE,
    METHOD_ORACLE,
    PrecisionPolicy,
    Trajectory,
    budgeted_policy,
)

METHOD_ODE_RK4 = "ode-rk4"


def rk4_oracle(p: ContinuousParams, t_end: float, dt: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta trajectory sampled at multiples of dt.

    Deliberately independent of every closed form of the ODE: it is the
    ground truth the sigmoid formulas are checked against, on the grid of
    ``grid_trajectory``.  The step guard |r|*dt < 0.1 keeps the integrator
    comfortably inside its stability region.
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
    _GRIDS[n, dt] = traj = Trajectory(METHOD_ODE_RK4, _grid_times(n, dt), values, DOUBLE)
    return traj


def general_solution_correction_form(t: float, p: ContinuousParams,
                                     shift: RiccatiShift) -> float:
    """The ODE family member written as particular * (1 + 1/(gamma*(exp(r*t)
    + 1/x0 - 1) - 1)).

    An independent algebraic route, so that the two printed forms can be
    cross-checked numerically; ``continuous.general_solution`` is the primary
    evaluator.
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


# The conjugacy (f, f_inverse, domain, scale) each closed form comes from:
# x_n = (1 - f(scale^n * f_inverse(1 - 2*x0))) / 2 turns the map into plain
# multiplication in conjugated coordinates.  ``domain`` is the closed interval
# of f_inverse arguments; a point where f_inverse diverges, log at 0, is refused
# at evaluation time.  r4 and simple double an angle although r4's map
# parameter is 4 (cos(2t) = 2cos(t)^2 - 1); table1 scales by -2, and its
# f_inverse, found by inverting f, is checked by the round-trip test.
_CONJUGACY = {
    ClosedForm.R2_POWER: (mp.exp, mp.log, (0.0, math.inf), 2),  # seeds below 1/2
    ClosedForm.R4_COSINE: (mp.cos, mp.acos, (-1.0, 1.0), 2),
    ClosedForm.RM2_COMPOSED: (lambda u: 2 * mp.cos((mp.pi - mp.sqrt(3) * u) / 3),
                              lambda y: (mp.pi - 3 * mp.acos(y / 2)) / mp.sqrt(3),
                              (-2.0, 2.0), -2),
    ClosedForm.RM2_DIRECT: (lambda u: -2 * mp.cos(u), lambda y: mp.acos(-y / 2),
                            (-2.0, 2.0), 2),
}


def conjugacy_solution(p: MapParams, n: int, variant: ClosedForm,
                       policy: PrecisionPolicy = DOUBLE) -> mpf:
    """Closed form ``variant`` at step n by the conjugacy it comes from.

    Checks n, r and the seed as ``closed_form`` does, then raises DomainError
    identifying whether f_inverse or f failed when the seed (or the scaled
    coordinate) leaves the conjugacy's domain.
    """
    _check_closed_form(p, n, variant)
    f, f_inverse, (lo, hi), scale = _CONJUGACY[variant]
    y = 1.0 - 2.0 * p.x0
    if not lo <= y <= hi:
        raise DomainError(
            f"f_inverse argument {y!r} outside its domain [{lo:g}, {hi:g}]")
    with workprec(policy.significand_bits):
        phi = f_inverse(1 - 2 * mpf(p.x0))
        if not mp.isfinite(phi):
            raise DomainError("f_inverse diverged at the boundary of its domain")
        value = f(mpf(scale) ** n * phi)
        if not mp.isfinite(value):
            raise DomainError("f diverged at the scaled coordinate")
        return (1 - value) / 2


def phase_oracle(p: MapParams, n: int) -> Trajectory:
    """Samples 0..n of the r = 4 or r = -2 orbit read off the binary digits
    of its phase, as a trajectory: the reference that a divergence run takes
    from ``map_standard._phase_reference``, against the iteration at 53 bits
    (that function documents the reference).

    The trajectory is tagged ``oracle`` with the budget of one bit per step
    plus 64, at whose width compare_trajectories compares.  Raises ValueError
    for r other than 4 or -2 and DomainError for a seed outside [0, 1]
    (r = 4) or [-1/2, 3/2] (r = -2).
    """
    variant = _PHASE_FORM.get(p.r)
    if variant is None:
        raise ValueError(f"the phase evaluator needs r=4 or r=-2, got r={p.r!r}")
    _check_closed_form(p, n, variant)
    values = _mpfs(map_standard._phase_reference(p, n, iterate(p, n).values))
    return Trajectory(METHOD_ORACLE, range(n + 1), values, budgeted_policy(n))


def tapered_oracle(p: MapParams, n: int, policy: PrecisionPolicy | None = None,
                   taper_to: int | None = None) -> Trajectory:
    """``map_standard.oracle(p, n, policy)`` with its steps tapered to
    ``taper_to`` (``map_standard._tapered_widths``), as a divergence run
    tapers its reference, or all at the oracle's width when ``taper_to`` is
    None; tagged with the widest width, as the oracle is."""
    policy = policy if policy is not None else budgeted_policy(n)
    bits = policy.significand_bits
    widths = map_standard._tapered_widths(bits, n, bits if taper_to is None else taper_to)
    values = _mpfs(map_standard._reference(p, bits, widths))
    return Trajectory(METHOD_ORACLE, range(n + 1), values, policy)
