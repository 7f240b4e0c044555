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
At 53 bits ``closed_form_trajectory`` returns a cosine form's samples as
doubles, each equal to the mpf value of the libmp pipeline: the cosine c is
exact as a double, and the step after it, 1/2 + s*c with the form's exact
factor s, is one IEEE operation, rounded to nearest even as libmp rounds it.

A 53-bit policy is not a model of an IEEE double device evaluating the same
formula with libm.  The pipeline rounds the reduced angle to 53 bits before
the cosine, whereas libm reduces its argument exactly.  Over 200 seeds of
the ``simple`` form and n <= 60, only about half of the samples (6,563 of
12,200) equal ``0.5 + math.cos(math.ldexp(math.acos(x0 - 0.5), n))`` bit for
bit, and the median first mismatch is at n = 3.  Plain iteration at 53
bits, by contrast, is the IEEE recurrence: ``iterate`` runs it on Python
floats, and returns floats, while every product and result is a normal
double no larger than 1e100, and on libmp from the first step where one is
not.

``divergence_reports`` is the one divergence entry point: it compares plain
iteration and any closed forms at a working width against one reference
orbit, and the CLI's ``compare`` emits its reports.  The reference is
``oracle``'s orbit at the budget B of one bit per step plus 64, good to about
2^(k - B) at step k (see ``oracle``).  Unless the oracle's width is given, it
tapers: step k runs at min(B, max(B + 64 - k, w + 128)) bits for working
width w, as only n - k + 64 bits are still needed at step k.  That accuracy
holds as it stands, B is still the reported width, and the reports are the
fixed-width oracle's at about half the cost from a few thousand steps on.
Every budgeted step runs in one kernel on Python ints, ``_orbit``: r*x, 1 - x
and their product are each rounded to nearest, ties to even, at the step's
width, as mpf arithmetic rounds them.  The reports read its (significand,
exponent) pairs without forming an mpf per sample.

An iteration-only run (no closed form) at 53 working bits, r = 4 or r = -2,
with the default oracle, a seed in the map's invariant interval and at least
2,600 steps reads the orbit off its phase digits instead (``phase_oracle``),
at the same budget.  Its samples are good to about 2^-128 at nearly every
step, and it takes well under half the time of the tapered reference from
2,600 steps on (the pairs alone: 2.8 against 7.8 ms at 2,600 steps, 11
against 118 ms at 8,500, r = 4, on a shared 2-vCPU host).  Its reports equal
the fixed-width oracle's bit for bit up to 64 steps before the end, and
differ by no more than the two references do after that.  The phase
evaluator is itself a closed form, so a closed form is always checked
against the iterated oracle.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat, starmap

from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    fhalf,
    fnone,
    fone,
    from_float,
    from_int,
    from_man_exp,
    mpf_abs,
    mpf_acos,
    mpf_add,
    mpf_cos,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_float,
)

from .errors import ESCAPE_BOUND, DegeneracyError, DomainError, EscapeError, check_steps
from .precision import (
    DOUBLE,
    METHOD_CLOSED_FORM,
    METHOD_ITERATED,
    METHOD_ORACLE,
    DivergenceReport,
    PrecisionPolicy,
    Trajectory,
    _pi,
    _compare_pairs,
    _pair,
    _raw_mpf,
    _reduce_raw,
    _signed,
    budgeted_policy,
    compare_trajectories,  # noqa: F401  a name perfbench's tracer spans
    precision_budget,
    reduce_mod_2pi,  # noqa: F401  the name perfbench's tracer tallies
)

_NORMAL_MIN = sys.float_info.min  # the smallest normal double
_ESCAPE = from_float(ESCAPE_BOUND)  # above 2^332


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
                  trigonometrically equal to RM2_COMPOSED, with fewer
                  operations on the scaled angle, which it doubles each step
                  (RM2_COMPOSED scales it by -2).  The arccos argument must
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
        return _FORMS[self][0]

    @property
    def seed_domain(self) -> tuple[float, float] | None:
        """Interval of admissible seeds, or None when any real works."""
        return _FORMS[self][1]


# (r, seed interval, (c0, k), s) of each form, c0, k and s raw.  Every form is
# x_n = 1/2 + s*c_n: c_n is the base (1 - 2*x0)^(2^n) for r2 and the cosine
# of the scaled angle for the others.  c0 + k*x0 is r2's base and the other
# forms' arccos argument.  The intervals are arccos domains, both
# forward-invariant under their maps.
_MINUS_HALF = from_man_exp(-1, -1)
_FORMS = {
    ClosedForm.R2_POWER: (2.0, None, (fone, from_int(-2)), _MINUS_HALF),
    ClosedForm.R4_COSINE: (4.0, (0.0, 1.0), (fone, from_int(-2)), _MINUS_HALF),
    ClosedForm.RM2_COMPOSED: (-2.0, (-0.5, 1.5), (fhalf, fnone), fnone),
    ClosedForm.RM2_DIRECT: (-2.0, (-0.5, 1.5), (_MINUS_HALF, fone), fone),
}


def _argument(x0: tuple, variant: ClosedForm, bits: int) -> tuple:
    """c0 + k*x0 for the raw seed ``x0``, rounded once at ``bits`` (exact at 0)."""
    c0, k = _FORMS[variant][2]
    return mpf_add(c0, mpf_mul(x0, k, 0), bits, round_nearest)


def _tail(s: tuple, c: tuple, bits: int) -> tuple:
    """The sample 1/2 + s*c from a form's raw factor s and the raw c_n, rounded
    once at ``bits``: the product with s is exact."""
    return mpf_add(fhalf, mpf_mul(s, c, 0), bits, round_nearest)


def _nearest(m: int, cut: int) -> int:
    """The integer m * 2^-cut rounded to nearest, ties to even, for cut > 0."""
    h = m >> (cut - 1)  # floors, so a negative m rounds as its magnitude does
    return (h + 1 if h & 1 and (h & 2 or m & ((1 << (cut - 1)) - 1)) else h) >> 1


def _orbit(r: tuple, x: tuple, k: int, widths):
    """Samples k + 1, k + 2, ... from the raw sample ``x`` at step k as (signed
    significand, exponent) pairs, yielded one step per entry of ``widths`` at
    that many bits: r*x, 1 - x and their product are each rounded to nearest
    even at that width, on Python ints.  1 - x rounds to 1 for |x| <
    2^-(w + 1), an x of non-negative exponent (an integer, |x| >= 1) is
    shifted to exponent 0 first, and a zero stays (0, 0).  Raises EscapeError
    with the offending index if the orbit passes 1e100."""
    (rm, re), (m, e) = _pair(r), _pair(x)
    for w in widths:
        k += 1
        if e > 0:
            m, e = m << e, 0
        a, ea = rm * m, re + e
        cut = a.bit_length() - w
        if cut > 0:
            a, ea = _nearest(a, cut), ea + cut
        if m.bit_length() + e < -w - 1:
            m, e = a, ea
        else:
            b = (1 << -e) - m
            cut = b.bit_length() - w
            if cut > 0:
                b, e = _nearest(b, cut), e + cut
            m, e = a * b, ea + e
            cut = m.bit_length() - w
            if cut > 0:
                m, e = _nearest(m, cut), e + cut
        if not m:
            e = 0
        elif m.bit_length() + e > 332 and mpf_gt(mpf_abs(from_man_exp(m, e)), _ESCAPE):
            raise EscapeError(f"orbit escaped past {ESCAPE_BOUND:g} at step {k}", index=k)
        yield m, e


def _mpfs(pairs) -> list:
    """(signed significand, exponent) pairs as normalized mpf."""
    return list(map(mp.make_mpf, starmap(from_man_exp, pairs)))


def _double_orbit(r: float, x: float, n: int) -> list:
    """The values of samples 0, 1, ... of the orbit on Python floats: up to
    step n, or up to the step before the first whose product ``r * x`` or
    result is not a normal double of magnitude at most 1e100.  Up to there
    each of r*x, 1 - x and their product is rounded to nearest, ties to even,
    at 53 bits, as ``_orbit`` rounds a step at 53 bits."""
    values = [x]
    for _ in range(n):
        rx = r * x
        x = rx * (1.0 - x)
        if not (_NORMAL_MIN <= abs(rx) and _NORMAL_MIN <= abs(x) <= ESCAPE_BOUND):
            break
        values.append(x)
    return values


def iterate(p: MapParams, n: int, policy: PrecisionPolicy = DOUBLE) -> Trajectory:
    """Samples 0..n of the exact recurrence at the policy's precision.

    Each step is ``r * x * (1 - x)`` rounded to nearest at the policy's
    significand width.  A 53-bit policy rounds like IEEE doubles but has an
    unbounded exponent.  So it runs on Python floats, and returns floats,
    while every product and result is a normal double no larger than 1e100;
    from the first step where one is not (a zero, a subnormal, an overflow or
    an escape) it runs on raw libmp values and returns mpf.  Either way each
    sample is the value of the libmp loop, which can then leave the float
    recurrence: for ``MapParams(0.5, 0.3)``, whose orbit decays towards 0,
    the loop leaves the floats at step 1020 and the first mismatch is at step
    1023, where the doubles have gone subnormal.  Raises EscapeError with the
    offending index if the orbit passes 1e100.
    """
    check_steps(n)
    bits = policy.significand_bits
    if (bits == DOUBLE.significand_bits and isinstance(p.r, (int, float))
            and isinstance(p.x0, (int, float))):
        values = _double_orbit(float(p.r), float(p.x0) or 0.0, n)  # mpf has no -0
        x = from_float(values[-1])
    else:
        x = _raw_mpf(p.x0, bits)
        values = [mp.make_mpf(x)]
    values += _mpfs(_orbit(_raw_mpf(p.r, bits), x, len(values) - 1,
                           repeat(bits, n + 1 - len(values))))
    return Trajectory(METHOD_ITERATED, range(n + 1), values, policy)


def oracle(p: MapParams, n: int, policy: PrecisionPolicy | None = None,
           taper_to: int | None = None) -> Trajectory:
    """Budgeted-precision iteration used as ground truth.

    The default budget assumes one bit lost per step with a 64-bit margin,
    which covers both chaotic cases (r=4 and r=-2 double an angle each step):
    sample k is good to about 2^(k - B) absolute at a budget of B bits, so
    to about 61 bits at the last step (fewer on orbits that linger near the
    repelling fixed point 3/2 of r = -2, which stretches errors by 4 a step:
    14 bits fewer for x0 = 3/2 - 2^-52 over 400 steps).

    Every step runs at B bits unless ``taper_to`` is given.  Then step k runs
    at min(B, max(B + 64 - k, taper_to)) bits: 64 steps at B, then one bit
    fewer per step, never fewer than ``taper_to``.  Only n - k + 64 bits are
    still needed at step k under the budget rule, so the rounding of step k
    reaches step j > k as about 2^(j - B - 64), and sample k stays good to
    about 2^(k - B).  The trajectory is tagged with B, the widest width.
    """
    policy = policy if policy is not None else budgeted_policy(n)
    values = _mpfs(_iterated_reference(p, n, policy, taper_to))
    return Trajectory(METHOD_ORACLE, range(n + 1), values, policy)


def _iterated_reference(p: MapParams, n: int, policy: PrecisionPolicy,
                        taper_to: int | None) -> list:
    """The samples of ``oracle(p, n, policy, taper_to)`` as (signed
    significand, exponent) pairs."""
    check_steps(n)
    bits = policy.significand_bits
    widths = repeat(bits, n) if taper_to is None else (
        min(bits, max(bits + 64 - k, taper_to)) for k in range(1, n + 1))
    x = _raw_mpf(p.x0, bits)
    return [_pair(x), *_orbit(_raw_mpf(p.r, bits), x, 0, widths)]


# The cosine form whose phase phase_oracle reads, by map parameter.  With the
# phase phi (arccos(1 - 2*x0) / (2*pi) at r = 4, arccos(x0 - 1/2) / (2*pi) at
# r = -2) and t_k = frac(2^k * phi), x_k is (1 - cos(2*pi*t_k)) / 2, or
# 1/2 + cos(2*pi*t_k).
_PHASE_FORM = {4.0: ClosedForm.R4_COSINE, -2.0: ClosedForm.RM2_DIRECT}
_PHASE_BITS = DOUBLE.significand_bits + 75  # bits of a phase sample
_RESEED_STEPS = 64  # a block of this many steps reads the phase digits once
# Steps from which an iteration-only run takes phase_oracle, which costs less
# than the tapered reference from about 500 steps on.
_PHASE_MIN_STEPS = 2600


def phase_oracle(p: MapParams, n: int) -> Trajectory:
    """Samples 0..n of the r = 4 or r = -2 orbit, read off the binary digits
    of its phase once iteration at 53 bits has lost the orbit.

    The phase phi (arccos(1 - 2*x0) / (2*pi) at r = 4, arccos(x0 - 1/2) /
    (2*pi) at r = -2) is taken once and held as one integer of n + P + 96
    bits, with P = 53 + 75 = 128.  The samples after that come in blocks of
    64 steps, all at P + 96 bits.  The first sample of a block re-seeds the
    orbit: a shift and a mask give the top P + 64 bits of t = frac(2^k *
    phi), rounded, and one cosine gives x_k = (1 - cos(2*pi*t)) / 2 at r = 4,
    1/2 + cos(2*pi*t) at r = -2.  Every other sample is one ``_orbit`` step
    from the sample before, so a block costs 63 steps and one cosine.

    A block may lose 63 bits: each step doubles the angle 2*pi*t, and with
    it the error of the re-seed, which t's rounding puts near 2^-(P + 64).
    The 64 bits read beyond P cover that, so every sample is good to about
    2^-P absolute, at the last step as at the first.  The steps round 32
    bits below the digits read; a sample near an end of the interval
    stretches its rounding error by 1 / sin(2*pi*t), which still leaves it
    below the re-seed's error unless the sample lies within about 2^-64 of
    the end.  At a distance d < 2^-64 from the end, the samples left in its
    block are good only to about 2^-163 / sqrt(d); an orbit comes that close
    about once in 5 * 10^9 samples.

    While a 53-bit iteration still follows the orbit to within 2^-32, its
    error at a step is a small difference whose double can need the
    reference below 2^-P: near a fixed point, or from a seed within an ulp
    of a rational phase, the rounded orbit stays within 2^-100 of the exact
    one for many steps, and at step 1 the difference can be an exact
    rounding tie.  Those samples come from the budgeted iteration itself,
    exactly as in ``oracle``.  They include x0 and x1, and every sample of
    an orbit with a rational phase (x0 in {0, 1/4, 1/2, 3/4, 1} at r = 4, in
    {-1/2, 0, 1/2, 1, 3/2} at r = -2), which the iteration follows exactly.

    The trajectory is tagged ``oracle`` with the budget of one bit per step
    plus 64, at whose width the iteration runs and compare_trajectories
    compares; the phase is held at more than that width.  Raises ValueError
    for r other than 4 or -2 and DomainError for a seed outside [0, 1]
    (r = 4) or [-1/2, 3/2] (r = -2).
    """
    values = _mpfs(_phase_reference(p, n))
    return Trajectory(METHOD_ORACLE, range(n + 1), values, budgeted_policy(n))


def _phase_reference(p: MapParams, n: int) -> list:
    """The samples of ``phase_oracle(p, n)`` as (signed significand, exponent)
    pairs."""
    variant = _PHASE_FORM.get(p.r)
    if variant is None:
        raise ValueError(f"the phase evaluator needs r=4 or r=-2, got r={p.r!r}")
    _check_closed_form(p, n, variant)
    bits, wb = budgeted_policy(n).significand_bits, DOUBLE.significand_bits
    rnd = round_nearest
    r = _raw_mpf(p.r, bits)
    near = from_man_exp(1, -32)
    x0, y0 = _raw_mpf(p.x0, bits), _raw_mpf(p.x0, wb)
    xs = chain([_pair(x0)], _orbit(r, x0, 0, repeat(bits, n)))  # as in oracle()
    ys = chain([_pair(y0)], _orbit(r, y0, 0, repeat(wb, n)))  # as in iterate() at 53 bits
    pairs = []
    for x, y in zip(xs, ys):  # up to the first sample 2^-32 or more apart
        pairs.append(x)
        if not mpf_lt(mpf_abs(mpf_sub(from_man_exp(*x), from_man_exp(*y), 64, rnd)), near):
            break
    k = len(pairs) - 1
    if k < n:
        window = _PHASE_BITS + _RESEED_STEPS  # bits a re-seed reads
        wp = window + 32
        width = n + wp
        arg = _argument(y0, variant, 0)  # exact
        phase_wp = width + 10
        phi = mpf_div(mpf_acos(arg, phase_wp, rnd), mpf_shift(mpf_pi(phase_wp, rnd), 1),
                      phase_wp, rnd)
        digits = to_fixed(phi, width)  # floor(phi * 2^width), phi in [0, 1/2]
        mask = (1 << window) - 1
        two_pi = mpf_shift(_pi(wp), 1)
        for k in range(k + 1, n + 1, _RESEED_STEPS):
            # the top window bits of frac(2^k * phi), rounded
            t = (((digits >> (width - k - window - 1)) + 1) >> 1) & mask
            c = mpf_cos(mpf_mul(from_man_exp(t, -window), two_pi, wp, rnd), wp, rnd)
            x = _tail(_FORMS[variant][3], c, wp)
            pairs.append(_pair(x))
            pairs += _orbit(r, x, k, repeat(wp, min(_RESEED_STEPS - 1, n - k)))
    return pairs


def _check_closed_form(p: MapParams, n: int, variant: ClosedForm) -> None:
    check_steps(n)
    if p.r != variant.required_r:
        raise ValueError(
            f"variant {variant.value!r} requires r={variant.required_r:g}, got r={p.r!r}")
    if not _in_seed_domain(p.x0, variant):
        lo, hi = variant.seed_domain
        raise DomainError(
            f"seed {p.x0!r} outside [{lo:g}, {hi:g}] "
            f"(arccos domain of variant {variant.value!r})")


def _in_seed_domain(x0: float, variant: ClosedForm) -> bool:
    domain = variant.seed_domain
    return domain is None or domain[0] <= x0 <= domain[1]


_THREE = from_int(3)

# The closed forms below run on raw libmp values, each operation rounded to
# nearest at ``bits``: the same calls, in the same order, that the mpf
# expressions in the comments make under ``workprec(bits)``.


def _phase(p: MapParams, variant: ClosedForm, bits: int) -> tuple:
    """The step-independent part of a closed form, raw at ``bits``:
    the base 1 - 2*x0 for r2, the arccos for r4 and simple, and
    pi - 3*arccos(1/2 - x0) for table1."""
    rnd = round_nearest
    arg = _argument(_raw_mpf(p.x0, bits), variant, bits)
    if variant is ClosedForm.R2_POWER:
        return arg
    acos = mpf_acos(arg, bits, rnd)
    if variant is ClosedForm.RM2_COMPOSED:  # pi - 3*acos(1/2 - x0)
        return mpf_sub(_pi(bits), mpf_mul_int(acos, 3, bits, rnd), bits, rnd)
    return acos


def _cosine(variant: ClosedForm, phase: tuple, n: int, bits: int) -> tuple:
    """The cosine of a cosine form's angle at step n, raw at ``bits``: the
    phase scaled by 2^n exactly (a zero phase stays zero), for table1 by
    (-2)^n and then taken as (pi - that) / 3, and reduced mod 2*pi."""
    rnd = round_nearest
    sign, man, exp, bc = phase
    if variant is ClosedForm.RM2_COMPOSED:  # (pi - (-2)^n * phase) / 3
        angle = (sign ^ (n & 1), man, exp + n, bc) if man else phase
        angle = mpf_div(mpf_sub(_pi(bits), angle, bits, rnd), _THREE, bits, rnd)
    else:
        angle = (sign, man, exp + n, bc) if man else phase  # ldexp(phase, n)
    return mpf_cos(_reduce_raw(angle, bits), bits, rnd)


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
    c = _phase(p, variant, bits)
    if variant is ClosedForm.R2_POWER:
        for _ in range(n):
            c = mpf_mul(c, c, bits, round_nearest)
    else:
        c = _cosine(variant, c, n, bits)
    return mp.make_mpf(_tail(_FORMS[variant][3], c, bits))


def closed_form_trajectory(p: MapParams, n: int, variant: ClosedForm,
                           policy: PrecisionPolicy = DOUBLE) -> Trajectory:
    """Trajectory of a closed form over steps 0..n.

    Every sample equals ``closed_form(p, k, variant, policy)``; the arccos
    is taken once per trajectory, and the r2 base is squared once per step
    and carried forward.  A cosine form at 53 bits returns its samples as
    doubles, each equal to that mpf value: its cosine is exact as a double,
    and the tail after it is one IEEE operation that rounds as libmp does.
    """
    _check_closed_form(p, n, variant)
    bits = policy.significand_bits
    make = mp.make_mpf
    phase = _phase(p, variant, bits)
    s = _FORMS[variant][3]
    steps = range(n + 1)
    if variant is ClosedForm.R2_POWER:
        values = []
        for k in steps:
            values.append(make(_tail(s, phase, bits)))
            phase = mpf_mul(phase, phase, bits, round_nearest)
    elif bits == DOUBLE.significand_bits:  # s*c is exact, so 0.5 + s*c rounds once
        s = to_float(s)
        values = [0.5 + s * to_float(_cosine(variant, phase, k, bits)) for k in steps]
    else:
        values = [make(_tail(s, _cosine(variant, phase, k, bits), bits)) for k in steps]
    return Trajectory(f"{METHOD_CLOSED_FORM}:{variant.value}", steps, values, policy)


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


# Bits the tapered reference of a divergence run keeps above the method under
# test at every step.
_TAPER_MARGIN = 128


def oracle_policy(n_max: int, working_bits: int,
                  oracle_bits: int | None) -> PrecisionPolicy:
    """Oracle policy for a divergence run: ``oracle_bits`` if given, else the
    budget of one bit per step plus 64, but never less than 64 bits above
    the method under test.  Raises ValueError when an explicit oracle is no
    more precise than the method under test."""
    if oracle_bits is None:
        return PrecisionPolicy(max(precision_budget(n_max), working_bits + 64))
    if oracle_bits <= working_bits:
        raise ValueError(f"oracle bits ({oracle_bits}) must exceed the working "
                         f"precision ({working_bits} bits)")
    return PrecisionPolicy(oracle_bits)


def divergence_reports(p: MapParams, n_max: int, working_bits: int, threshold: float,
                       forms=(), oracle_bits: int | None = None) -> list:
    """Plain iteration and each closed form in ``forms``, all evaluated at
    ``working_bits`` (a closed form including all of its angle arithmetic),
    against one reference at ``oracle_policy(n_max, working_bits,
    oracle_bits)``, the samples of ``phase_oracle`` where the module docstring
    says so, else of ``oracle``, tapered to ``working_bits + 128`` unless
    ``oracle_bits`` is given, each report equal to ``compare_trajectories``'.
    Returns ``(label, DivergenceReport)`` pairs: ``"iterated"`` first, then
    each form's value in the order given.

    The threshold (it must be positive) and every form's r and seed are
    checked before anything is evaluated, and the iteration runs before the
    reference, so an orbit that escapes builds none.  An explicit
    ``oracle_bits`` below the budget of one bit per step plus 64 draws a
    warning.  At 53 working bits about one significand bit dies per step, so
    the orbit visibly leaves the oracle after a few dozen steps; the closed
    forms are the library's pipeline at 53 bits, not libm on doubles.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    ref_policy = oracle_policy(n_max, working_bits, oracle_bits)
    budget = precision_budget(n_max)
    if ref_policy.significand_bits < budget:
        warnings.warn(f"oracle bits ({oracle_bits}) are below the budget of one bit "
                      f"per step plus 64 ({budget} bits for {n_max} steps); the "
                      "oracle may have left the orbit before the last step")
    variants = [ClosedForm(form) for form in forms]
    for variant in variants:
        _check_closed_form(p, n_max, variant)
    working = PrecisionPolicy(working_bits)
    it = iterate(p, n_max, working)
    phase = _PHASE_FORM.get(p.r)
    if (not variants and oracle_bits is None and working_bits == DOUBLE.significand_bits
            and n_max >= _PHASE_MIN_STEPS and phase is not None
            and _in_seed_domain(p.x0, phase)):
        ref = _phase_reference(p, n_max)
    else:
        taper_to = working_bits + _TAPER_MARGIN if oracle_bits is None else None
        ref = _iterated_reference(p, n_max, ref_policy, taper_to)
    bits = ref_policy.significand_bits + 10  # as compare_trajectories sets it
    methods = [(METHOD_ITERATED, it)] + [
        (v.value, closed_form_trajectory(p, n_max, v, working)) for v in variants]
    return [(label, _compare_pairs(map(_signed, t.values, repeat(bits)), ref, bits, threshold))
            for label, t in methods]


def divergence_analysis(p: MapParams, variant: ClosedForm, n_max: int,
                        working_bits: int, threshold: float,
                        oracle_bits: int | None = None) -> DivergenceReport:
    """The report of closed form ``variant`` from ``divergence_reports``."""
    return divergence_reports(p, n_max, working_bits, threshold, (variant,), oracle_bits)[1][1]


def iteration_divergence(p: MapParams, n_max: int, working_bits: int,
                         threshold: float,
                         oracle_bits: int | None = None) -> DivergenceReport:
    """The report of plain iteration from ``divergence_reports``."""
    return divergence_reports(p, n_max, working_bits, threshold, (), oracle_bits)[0][1]


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
