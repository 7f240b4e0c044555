"""The quadratic logistic map x' = r*x*(1-x).

Iteration at arbitrary precision, the three known closed forms (r = 2, 4,
-2), the conjugacy construction they all come from, round-off divergence
analysis against a high-precision oracle, and a chaos-driven bit generator
for r = 4.

The closed forms for r = 4 and r = -2 evaluate cos(2^n * theta).  2^n
quickly outgrows any fixed significand, so the scaled angle is formed
exactly (a pure exponent shift), reduced mod 2*pi with magnitude-aware
guard bits, and only then passed to the cosine.  Working precision is the
caller's choice, which is exactly what makes the divergence experiments
possible: a budgeted policy behaves like an exact oracle, and a 53-bit
policy shows how fast the closed form loses its bits at double precision.

A 53-bit policy is not a model of an IEEE double device evaluating the same
formula with libm.  The pipeline rounds the reduced angle to 53 bits before
the cosine, whereas libm reduces its argument exactly.  Over 200 seeds of
the ``simple`` form and n <= 60, only about half of the samples (6,563 of
12,200) equal ``0.5 + math.cos(math.ldexp(math.acos(x0 - 0.5), n))`` bit for
bit, and the median first mismatch is at n = 3.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from mpmath import mp, mpf, workprec

from .errors import DegeneracyError, DomainError, EscapeError
from .precision import (
    DOUBLE,
    METHOD_CLOSED_FORM,
    METHOD_ITERATED,
    METHOD_ORACLE,
    DivergenceReport,
    PrecisionPolicy,
    Trajectory,
    budgeted_policy,
    compare_trajectories,
    precision_budget,
    reduce_mod_2pi,
)

ESCAPE_BOUND = 1e100


@dataclass(frozen=True)
class MapParams:
    """Map parameter r and seed x0, shared by iteration and closed forms."""

    r: float
    x0: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise DomainError("map parameter r must be finite")
        if not math.isfinite(self.x0):
            raise DomainError("seed x0 must be finite")


class ClosedForm(str, Enum):
    """The known closed forms, keyed by their command-line spelling.

    R2_POWER      x_n = (1 - (1 - 2*x0)^(2^n)) / 2; any real seed, evaluated
                  by repeated squaring so negative bases are fine.
    R4_COSINE     x_n = (1 - cos(2^n * arccos(1 - 2*x0))) / 2; seeds in [0, 1].
    RM2_COMPOSED  x_n = 1/2 - cos((pi - (-2)^n * (pi - 3*arccos(1/2 - x0))) / 3);
                  seeds in [-1/2, 3/2].  This is the form usually printed in
                  tables of known solutions.
    RM2_DIRECT    x_n = 1/2 + cos(2^n * arccos(x0 - 1/2)); same seed interval,
                  trigonometrically equal to RM2_COMPOSED but with fewer
                  operations on the scaled angle.  The arccos argument must
                  be the centered seed x0 - 1/2: writing it as 1 - 2*x0 by
                  analogy with the r=4 form breaks the n=0 identity (it
                  returns 3/2 - 2*x0 instead of x0) and does not satisfy the
                  recurrence.
    """

    R2_POWER = "r2"
    R4_COSINE = "r4"
    RM2_COMPOSED = "table1"
    RM2_DIRECT = "simple"

    @property
    def required_r(self) -> float:
        return _REQUIRED_R[self]

    @property
    def seed_domain(self) -> tuple[float, float] | None:
        """Interval of admissible seeds, or None when any real works."""
        return _SEED_DOMAIN[self]


_REQUIRED_R = {
    ClosedForm.R2_POWER: 2.0,
    ClosedForm.R4_COSINE: 4.0,
    ClosedForm.RM2_COMPOSED: -2.0,
    ClosedForm.RM2_DIRECT: -2.0,
}

# arccos domains; both intervals are forward-invariant under their maps
_SEED_DOMAIN = {
    ClosedForm.R2_POWER: None,
    ClosedForm.R4_COSINE: (0.0, 1.0),
    ClosedForm.RM2_COMPOSED: (-0.5, 1.5),
    ClosedForm.RM2_DIRECT: (-0.5, 1.5),
}


def iterate(p: MapParams, n: int, policy: PrecisionPolicy = DOUBLE) -> Trajectory:
    """Samples 0..n of the exact recurrence at the policy's precision.

    A 53-bit policy reproduces IEEE double arithmetic step for step.  Raises
    EscapeError with the offending index if the orbit passes 1e100.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    with workprec(policy.significand_bits):
        r = mpf(p.r)
        x = mpf(p.x0)
        samples = [(0, x)]
        for k in range(1, n + 1):
            x = r * x * (1 - x)
            if abs(x) > ESCAPE_BOUND:
                raise EscapeError(f"orbit escaped past {ESCAPE_BOUND:g} at step {k}",
                                  index=k)
            samples.append((k, x))
    return Trajectory(METHOD_ITERATED, tuple(samples), policy)


def oracle(p: MapParams, n: int, policy: PrecisionPolicy | None = None) -> Trajectory:
    """Budgeted-precision iteration used as ground truth.

    The default budget assumes one bit lost per step with a 64-bit margin,
    which covers both chaotic cases (r=4 and r=-2 double an angle each step).
    """
    policy = policy if policy is not None else budgeted_policy(n)
    base = iterate(p, n, policy)
    return Trajectory(METHOD_ORACLE, base.samples, policy)


def centered_step(y, r):
    """One step in coordinates centered on 1/2: y' = -r*y^2 + (r/4 - 1/2)."""
    return -r * y * y + (r / 4 - 0.5)


def _check_closed_form(p: MapParams, n: int, variant: ClosedForm) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    if p.r != variant.required_r:
        raise ValueError(
            f"variant {variant.value!r} requires r={variant.required_r:g}, got r={p.r!r}")
    domain = variant.seed_domain
    if domain is not None and not domain[0] <= p.x0 <= domain[1]:
        raise DomainError(
            f"seed {p.x0!r} outside [{domain[0]:g}, {domain[1]:g}] "
            f"(arccos domain of variant {variant.value!r})")


_HALF = mpf(0.5)


def _phase(p: MapParams, variant: ClosedForm) -> mpf:
    """The step-independent part of a closed form, at the working precision:
    the base 1 - 2*x0 for r2, the arccos for r4 and simple, and
    pi - 3*arccos(1/2 - x0) for table1."""
    x0 = mpf(p.x0)
    if variant is ClosedForm.R2_POWER:
        return 1 - 2 * x0
    if variant is ClosedForm.R4_COSINE:
        return mp.acos(1 - 2 * x0)
    if variant is ClosedForm.RM2_DIRECT:
        return mp.acos(x0 - _HALF)
    return mp.pi - 3 * mp.acos(_HALF - x0)


def _sample(variant: ClosedForm, phase: mpf, n: int, bits: int) -> mpf:
    """The closed form at step n from its phase, at the working precision.

    For r2 the caller passes the base already squared n times; for the
    cosine forms the angle is scaled by 2^n here and reduced mod 2*pi.
    """
    if variant is ClosedForm.R2_POWER:
        return (1 - phase) / 2
    if variant is ClosedForm.R4_COSINE:
        return (1 - mp.cos(reduce_mod_2pi(mp.ldexp(phase, n), bits))) / 2
    if variant is ClosedForm.RM2_DIRECT:
        return _HALF + mp.cos(reduce_mod_2pi(mp.ldexp(phase, n), bits))
    scaled = mp.ldexp(phase, n)
    if n % 2 == 1:
        scaled = -scaled
    return _HALF - mp.cos(reduce_mod_2pi((mp.pi - scaled) / 3, bits))


def closed_form(p: MapParams, n: int, variant: ClosedForm,
                policy: PrecisionPolicy = DOUBLE) -> mpf:
    """Evaluate one closed form at step n under the given precision policy.

    The angle pipeline is: arccos at working precision, exact scaling by
    2^n (exponent shift; the (-2)^n sign is applied separately), reduction
    mod 2*pi, then the final cosine.  The r2 form squares its base n times.
    Raises ValueError when p.r does not match the variant and DomainError
    when the seed leaves the arccos domain.
    """
    _check_closed_form(p, n, variant)
    bits = policy.significand_bits
    with workprec(bits):
        phase = _phase(p, variant)
        if variant is ClosedForm.R2_POWER:
            for _ in range(n):
                phase = phase * phase
        return _sample(variant, phase, n, bits)


def closed_form_trajectory(p: MapParams, n: int, variant: ClosedForm,
                           policy: PrecisionPolicy = DOUBLE) -> Trajectory:
    """Trajectory of a closed form over steps 0..n.

    Every sample equals ``closed_form(p, k, variant, policy)``; the arccos
    is taken once per trajectory, and the r2 base is squared once per step
    and carried forward.
    """
    _check_closed_form(p, n, variant)
    bits = policy.significand_bits
    squares = variant is ClosedForm.R2_POWER
    samples = []
    with workprec(bits):
        phase = _phase(p, variant)
        for k in range(n + 1):
            samples.append((k, _sample(variant, phase, k, bits)))
            if squares:
                phase = phase * phase
    return Trajectory(f"{METHOD_CLOSED_FORM}:{variant.value}", tuple(samples), policy)


@dataclass(frozen=True)
class ConjugacyPair:
    """Function pair turning the map into plain multiplication in conjugated
    coordinates: x_n = (1 - f(scale^n * f_inverse(1 - 2*x0))) / 2.

    ``domain`` is the closed interval of valid f_inverse arguments (points
    where f_inverse diverges, such as log at 0, are rejected at evaluation
    time).  ``scale`` is the per-step multiplier in conjugated coordinates;
    None means "use the map parameter r".  The plain cosine pair must set
    scale=2: completing the double-angle identity cos(2t) = 2cos(t)^2 - 1
    forces angle doubling per step even though the map parameter is 4.
    """

    f: Callable
    f_inverse: Callable
    domain: tuple[float, float]
    scale: float | None = None
    label: str = ""


def cosine_pair() -> ConjugacyPair:
    """cos/arccos pair solving the r=4 map (angle doubling)."""
    return ConjugacyPair(mp.cos, mp.acos, (-1.0, 1.0), scale=2.0, label="cos")


def exponential_pair() -> ConjugacyPair:
    """exp/log pair solving the r=2 map for seeds below 1/2."""
    return ConjugacyPair(mp.exp, mp.log, (0.0, math.inf), scale=None, label="exp")


def shifted_cosine_pair() -> ConjugacyPair:
    """2*cos((pi - sqrt(3)*x)/3) pair solving the r=-2 map.

    The inverse, (pi - 3*arccos(y/2))/sqrt(3) on [-2, 2], is obtained by
    inverting f directly and is verified by the round-trip identity.
    """

    def f(x):
        return 2 * mp.cos((mp.pi - mp.sqrt(3) * x) / 3)

    def f_inverse(y):
        return (mp.pi - 3 * mp.acos(y / 2)) / mp.sqrt(3)

    return ConjugacyPair(f, f_inverse, (-2.0, 2.0), scale=None, label="shifted-cos")


def conjugacy_solution(pair: ConjugacyPair, r: float, x0: float, n: int,
                       policy: PrecisionPolicy = DOUBLE) -> mpf:
    """Evaluate the conjugacy construction at step n.

    Raises DomainError identifying whether f_inverse or f failed when the
    seed (or the scaled coordinate) leaves the pair's domain.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    y = 1.0 - 2.0 * x0
    lo, hi = pair.domain
    if not lo <= y <= hi:
        raise DomainError(
            f"f_inverse argument {y!r} outside its domain [{lo:g}, {hi:g}]")
    with workprec(policy.significand_bits):
        phi = pair.f_inverse(1 - 2 * mpf(x0))
        if not mp.isfinite(phi):
            raise DomainError("f_inverse diverged at the boundary of its domain")
        multiplier = pair.scale if pair.scale is not None else r
        value = pair.f(mpf(multiplier) ** n * phi)
        if not mp.isfinite(value):
            raise DomainError("f diverged at the scaled coordinate")
        return (1 - value) / 2


def resolve_oracle_bits(n_max: int, working_bits: int) -> int:
    """Oracle precision for a divergence run: the step budget, but never less
    than 64 bits above the method under test."""
    return max(precision_budget(n_max, 1.0, DOUBLE), working_bits + 64)


def _oracle_policy(n_max: int, working_bits: int,
                   oracle_bits: int | None) -> PrecisionPolicy:
    """Oracle policy for a divergence run: ``oracle_bits`` if given, else
    resolve_oracle_bits.  Raises ValueError when an explicit oracle is no
    more precise than the method under test."""
    if oracle_bits is None:
        return PrecisionPolicy(resolve_oracle_bits(n_max, working_bits))
    if oracle_bits <= working_bits:
        raise ValueError(f"oracle bits ({oracle_bits}) must exceed the working "
                         f"precision ({working_bits} bits)")
    return PrecisionPolicy(oracle_bits)


def divergence_analysis(p: MapParams, variant: ClosedForm, n_max: int,
                        working_bits: int, threshold: float,
                        oracle_bits: int | None = None) -> DivergenceReport:
    """Compare a closed form evaluated at ``working_bits`` (including all of
    its angle arithmetic) against the budgeted-precision oracle iteration.

    At 53 working bits about one significand bit dies per step, so the
    orbit visibly leaves the oracle after a few dozen steps.  This is the
    mpmath pipeline at 53 bits, not libm on doubles: the two disagree from
    the first few steps on (see the module docstring).  Raises ValueError
    when ``oracle_bits`` does not exceed ``working_bits``.
    """
    ref_policy = _oracle_policy(n_max, working_bits, oracle_bits)
    cf = closed_form_trajectory(p, n_max, variant, PrecisionPolicy(working_bits))
    return compare_trajectories(cf, oracle(p, n_max, ref_policy), threshold)


def iteration_divergence(p: MapParams, n_max: int, working_bits: int,
                         threshold: float,
                         oracle_bits: int | None = None) -> DivergenceReport:
    """Same experiment for plain iteration at ``working_bits``."""
    ref_policy = _oracle_policy(n_max, working_bits, oracle_bits)
    it = iterate(p, n_max, PrecisionPolicy(working_bits))
    return compare_trajectories(it, oracle(p, n_max, ref_policy), threshold)


def prng_bits(x0: float, count: int, burn_in: int = 0) -> tuple:
    """Bits from the chaotic r=4 orbit: one per step, set when x > 1/2.

    Runs at plain double precision, discards ``burn_in`` steps first, and is
    fully deterministic.  Each step loses about one bit of the seed, so past
    about 53 steps the bits come from a pseudo-orbit: the rounded orbit has
    left the exact orbit of ``x0``, whose bits it no longer reproduces.
    Orbits that land exactly on 0, 1 or 3/4 are stuck on a fixed point; that
    is fatal for bit output, so it raises DegeneracyError (pick a different
    seed) instead of looping silently.
    """
    if not (math.isfinite(x0) and 0.0 < x0 < 1.0):
        raise DomainError("seed must lie strictly inside (0, 1)")
    if not isinstance(count, int) or count < 1:
        raise ValueError("count must be a positive integer")
    if not isinstance(burn_in, int) or burn_in < 0:
        raise ValueError("burn_in must be a non-negative integer")
    x = float(x0)
    bits = []
    for step in range(1, burn_in + count + 1):
        x = 4.0 * x * (1.0 - x)
        if x == 0.0 or x == 1.0 or x == 0.75:
            raise DegeneracyError(
                f"orbit hit the fixed-point set (x={x!r} at step {step}); "
                "choose a different seed")
        if step > burn_in:
            bits.append(1 if x > 0.5 else 0)
    return tuple(bits)
