"""The quadratic logistic map x' = r*x*(1-x).

Iteration at arbitrary precision, the three known closed forms (r = 2, 4,
-2), round-off divergence analysis against a high-precision oracle, and a
chaos-driven bit generator for r = 4.  The conjugacy construction the closed
forms come from, and the phase reference as a trajectory, are second routes
that the tests hold beside their primary routes (``tests/routes.py``).

Only this module loads mpmath when it loads, and it holds the libmp kernels
that its routes share: the reduction mod 2*pi (``_reduce_raw``) and the
comparison of samples against a reference (``_compare_pairs``).  The public
``reduce_mod_2pi`` and ``compare_trajectories`` wrap them for a caller's
values; no route of the library calls either.  No code here sets mpmath's
global context: every rounding is made at a width passed to it, so results
do not depend on the caller's ``mp.prec``.

The closed forms for r = 4 and r = -2 evaluate cos(2^n * theta).  2^n
quickly outgrows any fixed significand, so the scaled angle is formed
exactly (a pure exponent shift), reduced mod 2*pi with magnitude-aware
guard bits, and only then passed to the cosine.  Working precision is the
caller's choice, which is exactly what makes the divergence experiments
possible: a budgeted policy behaves like an exact oracle, and a 53-bit
policy shows how fast the closed form loses its bits at double precision.
Each form has one evaluator (``_samples``): ``closed_form`` is sample n of
``closed_form_trajectory``.  A cosine form's samples come from one loop at
every width (``_cosine_samples``) that makes the libmp pipeline's own
integer steps without its generic dispatch, each rounded to nearest even at
the width as the call it replaces rounds it: table1's angle
(pi - (-2)^k*phase)/3 one exact difference and one quotient by 3, the
reduction mod 2*pi one exact integer remainder, the cosine ``mpf_cos``'s
fixed-point steps (``_cos_fixed``: ``cos_sin_basecase``'s, and from about
371 bits, where that takes ``exponential_series``, the series' own steps for
the cosine, with the square root that gives the sine taken only in the
quadrants whose result is the sine), and the tail 1/2 + s*c, with the form's
exact factor s.  Only the tail depends on the width: at 53 bits ``float()``
of the cosine's significand and one IEEE operation round as libmp rounds at
53 bits, and the samples are doubles; at other widths they are mpf, rounded
on Python ints.  At 53 bits table1's angle is two IEEE operations while
(-2)^k*phase is a double below 2^1020.

Most samples skip ``mod_pi2`` and the cosine (Ziv's test): the loop holds the
cosine and sine of the last sample's reduced angle at ``bits`` + 94
fractional bits, and the next angle is twice it (table1: pi less twice it)
plus an exact difference of a few units in its last place, so one squaring
and one small turn, seven products (``_turn``), give the next pair.  Where
both ends of the pair's cosine, widened by its running error bound and a
proven bound on the pipeline's own cosine (``_cos_bound``), round alike at
the width, that rounding is the sample, and the pipeline runs anywhere else.
Over 30 runs of 250 steps from random seeds, 99.5% of ``r4``'s and 99.3% of
``simple``'s samples took the recurrence at 53 bits, and 97.9% and 97.9% at
364 bits.  table1's rounded angle strays from pi less twice the last by
about 2^(k - bits) at step k, so it leaves the recurrence near step 30 at
53 bits; from near step bits + 2 the rounding of pi - (-2)^k*phase drops the
pi, the angle is -2 times the last, and table1 takes the recurrence again:
at 53 bits about 28 of a 250-step run's samples take the pipeline.

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
fixed-width oracle's, except at rounding ties, at about half the cost from a
few thousand steps on.  Every iterated orbit away from the doubles comes
from one generator, ``_reference``, and a route is only its step widths.
Each step runs in one kernel on Python ints, ``_orbit``: r*x, 1 - x and
their product are each rounded to nearest, ties to even, at the step's width,
as mpf arithmetic rounds them.  Only steps below B and of at least 1,000
bits, with x in [2^-8, 1 - 2^-8], take r*(1/4 - y^2), y = x - 1/2, instead: a
square costs less than a product there, and its relative error, below 2^(7 -
w) at width w, fits the taper's 64 spare bits.  The reports of every method
read the kernel's (significand, exponent) pairs in one pass, as they are built,
without forming an mpf per sample or holding the reference whole.

An iteration-only run (no closed form) at 53 working bits, r = 4 or r = -2,
with the default oracle, a seed in the map's invariant interval and at least
2,600 steps reads the orbit off its phase digits instead (``_phase_reference``),
at the same budget: a cosine of those digits re-seeds the orbit every 64
steps, and the steps between run on one fixed binary point, one exact integer
product and one rounding each.  Its samples are good to about 2^-128 at nearly
every step, and it takes under a third of the time of the tapered reference
from 2,600 steps on (the pairs alone, r = 4: 3.7 against 13.2 ms at 2,600
steps, 17 against 201 ms at 8,500; medians of 15 in-process runs, each scaled
to perfbench's reference speed by a yardstick taken just before it, on a
shared 2-vCPU host).  Its reports equal the fixed-width oracle's bit for bit
up to 64 steps before the end, and differ by no more than the two references
do after that.  The phase evaluator is itself a closed form, so a closed form
is always checked against the iterated oracle.

An iteration-only run at any other r, with the default oracle, a double r and
seed, and at least 4,000 steps sizes its reference by the orbit's own
stretching instead.  The budget's one bit a step holds where r = 4 and -2
double an angle; at r = 3.9 and 3.7 errors grow by only about 0.71 and 0.51
bits a step.  With L_j = log2|r*(1 - 2*x_j)| read off the
working iteration, which runs first, and P_k = L_0 + ... + L_(k-1), step k runs
at ceil(max_{j >= k} P_j - P_k) + 256 bits, at least w + 128 and never more
than the tapered width (``_sized_widths``).  The iteration leaves the orbit
after a few dozen steps, so these widths are a guess, and a running error
bound beside the steps checks it (``_bounded``): b_(k+1) >= |r|*b_k*(|1 -
2x_k| + b_k) plus the step's roundings at its width, every operation on the
bound rounded up, the bound held as a double and an exponent so that it cannot
underflow.  The reports stand only if the bound certifies at least 64 bits of
every nonzero error, and at every zero error is 0 or below 2^-1138, so that
the exact error is below the least subnormal's rounding tie 2^-1075 or within
the bound of it (``_certified``); otherwise the run builds the tapered
reference as well and reports against it.  So a report differs from the
tapered reference's only where an error lies within its certified bound of a
rounding tie, and B stays the reported width.
"""

import math
import sys
import warnings
from array import array
from enum import Enum
from functools import lru_cache
from itertools import chain, islice, repeat, starmap

from mpmath import mp, mpf
from mpmath.libmp import (
    fhalf,
    fnone,
    fone,
    fzero,
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
    mpf_mod,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_float,
)
from mpmath.libmp.libelefun import (
    COS_SIN_CACHE_PREC,
    EXP_SERIES_U_CUTOFF,
    cos_sin_basecase,
    isqrt_fast,
    mod_pi2,
    pi_fixed,
)

from .errors import ESCAPE_BOUND, DegeneracyError, DomainError, EscapeError, check_steps
from .precision import (
    DOUBLE,
    METHOD_CLOSED_FORM,
    METHOD_ITERATED,
    METHOD_ORACLE,
    DivergenceReport,
    MapParams,
    PrecisionPolicy,
    Trajectory,
    _NON_FINITE,
    _chunks,
    budgeted_policy,
    precision_budget,
)

_NORMAL_MIN = sys.float_info.min  # the smallest normal double
_ESCAPE = from_float(ESCAPE_BOUND)  # above 2^332
_SQUARE_MIN_BITS = 1000  # the narrowest step that _orbit may take as a square
_REDUCE_GUARD_BITS = 20
_POINT_BITS = 94  # fractional bits of the cosine recurrence above the width


@lru_cache(maxsize=8192)
def _pi(prec: int) -> tuple:
    """pi, raw, rounded to nearest at ``prec`` bits: ``mpf_pi`` re-rounds its
    cached digits on every call, which costs more than the lookup here.  A
    cosine form's loop reduces step k at about k more bits than step 0, so a
    run of n steps asks for about n widths, once each per form: the cache
    holds those of runs up to about 8,000 steps, for every form of the run,
    where a cache smaller than the run would have dropped each width before
    the next form asks for it.  Its size bounds what it keeps across runs."""
    return mpf_pi(prec, round_nearest)


def reduce_mod_2pi(angle, bits: int = 53) -> mpf:
    """Reduce ``angle`` into [0, 2*pi) at ``bits`` of precision.

    pi is evaluated with enough guard bits to absorb the magnitude of the
    argument, so the reduction stays accurate for angles as large as 2^60
    times a unit-scale phase.  Accepts float, int or mpf; the argument is
    taken exactly, never rounded first.

    The arithmetic runs on mpmath's raw libmp values (round to nearest), in
    ``_reduce_raw``, which skips the context bookkeeping of two ``workprec``
    scopes per call.
    """
    x = angle._mpf_ if isinstance(angle, mpf) else mp.convert(angle)._mpf_
    if x in _NON_FINITE:
        raise ValueError("angle must be finite")
    return mp.make_mpf(_reduce_raw(x, bits))


def _reduce_raw(x: tuple, bits: int) -> tuple:
    """The raw finite value ``x`` reduced into [0, 2*pi) at ``bits``, raw.

    2*pi is taken at wp = bits + max(0, exp + bc) + 20 bits, ``mpf_mod`` by
    it rounds at wp, the remainder is rounded again at ``bits``, and one
    2*pi at ``bits`` is subtracted from a remainder that rounding carried up
    to it.  Where ``x`` is a multiple of 2*pi's ulp at wp, the remainder is
    one exact integer ``%`` that ``mpf_mod`` would round at wp without loss,
    so it is rounded once, at ``bits``; the result is the same.
    """
    sign, man, exp, bc = x
    if not man:
        return fzero
    rnd = round_nearest
    wp = bits + max(0, exp + bc) + _REDUCE_GUARD_BITS
    two_pi = mpf_shift(_pi(wp), 1)
    _, tman, texp, _ = two_pi
    if exp >= texp:  # x * 2^-texp and the remainder are integers
        rem = ((-man if sign else man) << (exp - texp)) % tman
        r = from_man_exp(rem, texp, bits, rnd)
    else:  # x itself when positive and below 2*pi's ulp, else rounded at wp
        r = mpf_pos(mpf_mod(x, two_pi, wp, rnd), bits, rnd)
    # mpf_mod by a positive modulus is never negative, but rounding can
    # carry the remainder up to 2*pi, and 2*pi at ``bits`` may be smaller;
    # a remainder in 2*pi's binade [4, 8) is compared on its significand
    two_pi = mpf_shift(_pi(bits), 1)
    _, rman, rexp, rbc = r
    _, tman, texp, tbc = two_pi
    if rexp + rbc == texp + tbc and rman << tbc >= tman << rbc:
        r = mpf_sub(r, two_pi, bits, rnd)
    return r


def _raw_mpf(value, bits: int) -> tuple:
    """``value`` as a raw libmp value, converted as ``mpf(value)`` converts it
    under ``workprec(bits)``: rounded to ``bits``, to nearest.

    The per-step loops of the library run on such raw values with the libmp
    calls that mpf arithmetic makes, at the same precision and rounding, so
    their results are bit for bit those of the mpf expressions.
    """
    return mpf(value, prec=bits, rounding=round_nearest)._mpf_


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


def _orbit(r: tuple, x: tuple, k: int, widths, bits: int):
    """Samples k + 1, k + 2, ... from the raw sample ``x`` at step k of an
    orbit ``bits`` wide as (signed significand, exponent) pairs, one step per
    entry of ``widths`` at that many bits: r*x, 1 - x and their product are
    each rounded to nearest even at that width, on Python ints.  1 - x rounds
    to 1 for |x| < 2^-(w + 1), an x of non-negative exponent (an integer, |x|
    >= 1) is shifted to exponent 0 first, and a zero stays (0, 0).  A step of
    width w, _SQUARE_MIN_BITS <= w < ``bits``, with x in [2^-8, 1 - 2^-8]
    takes r*(1/4 - y^2), y = x - 1/2 exact, instead: y^2 and the product are
    rounded, two roundings, and the square costs less than a product from
    about 1,000 bits.  Nearer 0 or 1, 1/4 - y^2 would cancel.  Raises
    EscapeError with the offending index if the orbit passes 1e100."""
    (rm, re), (m, e) = _pair(r), _pair(x)
    for w in widths:
        k += 1
        if e > 0:
            m, e = m << e, 0
        d = 0
        if bits > w >= _SQUARE_MIN_BITS and e < 0:
            h = 1 << (-e - 1)
            y = m - h  # x - 1/2
            d = h - abs(y)  # min(x, 1 - x)
        if d > 0 and d.bit_length() + e > -8:  # x in [2^-8, 1 - 2^-8]
            s, e = y * y, 2 * e
            cut = s.bit_length() - w
            if cut > 0:
                s, e = _nearest(s, cut), e + cut
            m, e = rm * ((1 << (-2 - e)) - s), re + e
        else:
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


def _raw(m: int, e: int) -> tuple:
    """The raw value m * 2^e, normalized as ``from_man_exp(m, e)`` normalizes
    it, but with its trailing zero bits counted once and shifted out at once:
    the pairs of an orbit settled on 1/2 carry nearly their width of them."""
    if not m:
        return fzero
    z = (m & -m).bit_length() - 1
    man = abs(m) >> z
    return int(m < 0), man, e + z, man.bit_length()


def _mpfs(pairs) -> list:
    """(signed significand, exponent) pairs as normalized mpf."""
    return list(map(mp.make_mpf, starmap(_raw, pairs)))


def _double_orbit(r: float, x: float, n: int) -> array:
    """The values of samples 0, 1, ... of the orbit on Python floats, as one
    array('d'): up to step n, or up to the step before the first whose
    product ``r * x`` or result is not a normal double of magnitude at most
    1e100.  Up to there each of r*x, 1 - x and their product is rounded to
    nearest, ties to even, at 53 bits, as ``_orbit`` rounds a step at 53
    bits."""
    values = array("d", [x])
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
    1023, where the doubles have gone subnormal.  An orbit that stays on the
    floats is held as one array('d'); one that leaves them, or runs at another
    width, as a tuple.  Raises EscapeError with the offending index if the
    orbit passes 1e100.
    """
    check_steps(n)
    bits = policy.significand_bits
    if not (bits == DOUBLE.significand_bits and isinstance(p.r, (int, float))
            and isinstance(p.x0, (int, float))):
        return Trajectory(METHOD_ITERATED, range(n + 1),
                          _mpfs(_reference(p, bits, repeat(bits, n))), policy)
    values = _double_orbit(float(p.r), float(p.x0) or 0.0, n)  # mpf has no -0
    if len(values) <= n:
        values = [*values, *_mpfs(_orbit(_raw_mpf(p.r, bits), from_float(values[-1]),
                                         len(values) - 1, repeat(bits, n + 1 - len(values)),
                                         bits))]
    return Trajectory(METHOD_ITERATED, range(n + 1), values, policy)


def oracle(p: MapParams, n: int, policy: PrecisionPolicy | None = None) -> Trajectory:
    """Budgeted-precision iteration used as ground truth: the samples of
    ``_reference`` with every step at the policy's width B, as mpf.

    The default budget assumes one bit lost per step with a 64-bit margin,
    which covers both chaotic cases (r=4 and r=-2 double an angle each step):
    sample k is good to about 2^(k - B) absolute at a budget of B bits, so
    to about 61 bits at the last step (fewer on orbits that linger near the
    repelling fixed point 3/2 of r = -2, which stretches errors by 4 a step:
    for x0 = 3/2 - 2^-52 over 400 steps, the running bound of ``_bounded``
    certifies 42 bits of the last sample, which is good to about 2^-51).
    """
    check_steps(n)
    policy = policy if policy is not None else budgeted_policy(n)
    bits = policy.significand_bits
    values = _mpfs(_reference(p, bits, repeat(bits, n)))
    return Trajectory(METHOD_ORACLE, range(n + 1), values, policy)


def _reference(p: MapParams, bits: int, widths):
    """The orbit of x0 ``bits`` wide as (signed significand, exponent) pairs,
    yielded one at a time: x0 and r rounded to ``bits``, then one ``_orbit``
    step per entry of ``widths``.  Every iterated orbit away from the doubles
    is this one, and a route is only its widths: all ``bits`` for ``oracle``
    and ``iterate``, tapered (``_tapered_widths``) or sized
    (``_sized_widths``) for a divergence run's reference."""
    x = _raw_mpf(p.x0, bits)
    yield _pair(x)
    yield from _orbit(_raw_mpf(p.r, bits), x, 0, widths, bits)


def _tapered_widths(bits: int, n: int, taper_to: int):
    """The widths of steps 1..n of a reference at B = ``bits`` tapered to
    ``taper_to``: min(B, max(B + 64 - k, taper_to)) at step k, all B when
    ``taper_to >= B``.  Only n - k + 64 bits are still needed at step k under
    the budget rule, so the rounding of step k reaches step j > k as about
    2^(j - B - 64), and sample k stays good to about 2^(k - B).  A step
    narrower than B and of at least 1,000 bits squares where ``_orbit`` says,
    with about 2^6 times the rounding error, which those 64 bits absorb."""
    if taper_to >= bits:
        return repeat(bits, n)
    return islice(chain(repeat(bits, 64), range(bits - 1, taper_to, -1), repeat(taper_to)), n)


# The cosine form whose phase _phase_reference reads, by map parameter.  With
# the phase phi (arccos(1 - 2*x0) / (2*pi) at r = 4, arccos(x0 - 1/2) / (2*pi)
# at r = -2) and t_k = frac(2^k * phi), x_k is (1 - cos(2*pi*t_k)) / 2, or
# 1/2 + cos(2*pi*t_k).
_PHASE_FORM = {4.0: ClosedForm.R4_COSINE, -2.0: ClosedForm.RM2_DIRECT}
_PHASE_BITS = DOUBLE.significand_bits + 75  # bits of a phase sample
_RESEED_STEPS = 64  # a block of this many steps reads the phase digits once
# Steps from which an iteration-only run takes the phase reference.  It costs
# less than the tapered reference from about 500 steps on, but the threshold
# stays at 2,600 until benchmark jobs shorter than that show no loss on either
# side.
_PHASE_MIN_STEPS = 2600


def _phase_reference(p: MapParams, n: int, values):
    """Samples 0..n of the r = 4 or r = -2 orbit as (signed significand,
    exponent) pairs, yielded one at a time, read off the binary digits of its
    phase once ``values``, samples 0..n of the iteration at 53 bits, have lost
    the orbit.  The caller has checked r, the seed and n as
    ``divergence_reports`` checks them.

    The phase phi (arccos(1 - 2*x0) / (2*pi) at r = 4, arccos(x0 - 1/2) /
    (2*pi) at r = -2) is taken once and held as one integer of n + P + 96
    bits, with P = 53 + 75 = 128.  The samples after that come in blocks of
    64 steps.  The first sample of a block re-seeds the orbit: a shift and a
    mask give the top P + 64 bits of t = frac(2^k * phi), rounded, and one
    cosine at P + 96 bits gives x_k = (1 - cos(2*pi*t)) / 2 at r = 4, 1/2 +
    cos(2*pi*t) at r = -2.  The block's other samples lie on one fixed binary
    point: x_k, cut to F = P + 104 = 232 fractional bits, is the integer X,
    and each step is one exact product and one rounding, half up, X' = (X *
    (2^F - X) + 2^(F - 3)) >> (F - 2) at r = 4 and (X * (X - 2^F) + 2^(F -
    2)) >> (F - 1) at r = -2 (``>>`` floors), yielded as (X, -F).  So a block
    costs one cosine and 63 products of about 232 bits.

    A block may lose 63 bits: each step doubles the angle 2*pi*t, and with
    it the error of the re-seed, which t's rounding puts near 2^-(P + 64).
    The 64 bits read beyond P cover that, so every sample is good to about
    2^-P absolute, at the last step as at the first.  A step's rounding is
    at most 2^-(F + 1) = 2^-233 absolute, 40 bits below the digits read.  In
    the angle it is 2^-233 / |dx/dt|, with |dx/dt| = pi*|sin(2*pi*t)| at r =
    4 and 2*pi*|sin(2*pi*t)| at r = -2, so the j steps left in the block
    stretch it to at most 2^(j - 233) / |sin(2*pi*t)| <= 2^-171 /
    |sin(2*pi*t)| in x.  That stays below the re-seed's error unless
    |sin(2*pi*t)| < 2^-43.  At a distance d from an end of the interval,
    |sin(2*pi*t)| is 2*sqrt(d*(1 - d)) at r = 4 and sqrt(d*(2 - d)) at r =
    -2, at least sqrt(d), so that happens only within about 2^-86 of the
    end.  There the samples left in the block are good only to about 2^-171
    / sqrt(d); an orbit comes that close about once in 10^13 samples.

    While the 53-bit iteration still follows the orbit to within 2^-32, its
    error at a step is a small difference whose double can need the
    reference below 2^-P: near a fixed point, or from a seed within an ulp
    of a rational phase, the rounded orbit stays within 2^-100 of the exact
    one for many steps, and at step 1 the difference can be an exact
    rounding tie.  Those samples come from the iteration at the budget B of
    one bit per step plus 64, exactly as in ``oracle``.  They include x0 and
    x1, and every sample of an orbit with a rational phase (x0 in {0, 1/4,
    1/2, 3/4, 1} at r = 4, in {-1/2, 0, 1/2, 1, 3/2} at r = -2), which the
    iteration follows exactly.  B is the width at which the reports compare;
    the phase is held at more than that width."""
    variant = _PHASE_FORM[p.r]
    bits, wb = budgeted_policy(n).significand_bits, DOUBLE.significand_bits
    rnd = round_nearest
    near = from_man_exp(1, -32)
    xs = _reference(p, bits, repeat(bits, n))  # as in oracle()
    for k, (x, y) in enumerate(zip(xs, map(_signed, values, repeat(wb)))):
        yield x  # up to the first sample 2^-32 or more from the iteration's
        if not mpf_lt(mpf_abs(mpf_sub(from_man_exp(*x), from_man_exp(*y), 64, rnd)), near):
            break
    if k < n:
        window = _PHASE_BITS + _RESEED_STEPS  # bits a re-seed reads
        wp = window + 32
        width = n + wp
        arg = _argument(_raw_mpf(p.x0, wb), variant, 0)  # exact
        phase_wp = width + 10
        phi = mpf_div(mpf_acos(arg, phase_wp, rnd), mpf_shift(mpf_pi(phase_wp, rnd), 1),
                      phase_wp, rnd)
        digits = to_fixed(phi, width)  # floor(phi * 2^width), phi in [0, 1/2]
        mask = (1 << window) - 1
        two_pi = mpf_shift(_pi(wp), 1)
        point = wp + 8  # F: a block's samples are X * 2^-F
        one = 1 << point
        up = p.r > 0  # x' = 4x(1 - x) = X(2^F - X) * 2^(2 - 2F), or -2x(1 - x)
        shift = point - 2 if up else point - 1
        half = 1 << (shift - 1)
        for k in range(k + 1, n + 1, _RESEED_STEPS):
            # the top window bits of frac(2^k * phi), rounded
            t = (((digits >> (width - k - window - 1)) + 1) >> 1) & mask
            c = mpf_cos(mpf_mul(from_man_exp(t, -window), two_pi, wp, rnd), wp, rnd)
            x = _tail(_FORMS[variant][3], c, wp)
            yield _pair(x)
            X = to_fixed(x, point)
            for _ in range(min(_RESEED_STEPS - 1, n - k)):
                X = ((X * (one - X) if up else X * (X - one)) + half) >> shift
                yield X, -point


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


def _phase(p: MapParams, variant: ClosedForm, bits: int) -> tuple:
    """The step-independent part of a closed form, raw at ``bits``, each
    libmp call rounded to nearest as the mpf expression rounds it under
    ``workprec(bits)``: the base 1 - 2*x0 for r2, the arccos for r4 and
    simple, and pi - 3*arccos(1/2 - x0) for table1."""
    rnd = round_nearest
    arg = _argument(_raw_mpf(p.x0, bits), variant, bits)
    if variant is ClosedForm.R2_POWER:
        return arg
    acos = mpf_acos(arg, bits, rnd)
    if variant is ClosedForm.RM2_COMPOSED:  # pi - 3*acos(1/2 - x0)
        return mpf_sub(_pi(bits), mpf_mul_int(acos, 3, bits, rnd), bits, rnd)
    return acos


def _cos_fixed(t: int, q: int, w: int) -> int:
    """The cosine that ``mpf_cos`` forms from ``mod_pi2``'s (t, q, w), the
    angle t * 2^-w in [0, pi/2) plus q quarter turns, as a fixed-point
    significand at w bits: ``cos_sin_basecase``'s cosine or, in quadrants 1
    and 3, its sine, negated in quadrants 1 and 2.  Between
    ``COS_SIN_CACHE_PREC`` and ``EXP_SERIES_U_CUTOFF`` bits,
    ``cos_sin_basecase`` is ``exponential_series``, whose steps for the
    cosine run here; the square root that gives the sine is taken only in
    quadrants 1 and 3, where the sine is returned."""
    q &= 3
    if not COS_SIN_CACHE_PREC < w < EXP_SERIES_U_CUTOFF:
        c, sn = cos_sin_basecase(t, w)
        return -sn if q == 1 else -c if q == 2 else sn if q == 3 else c
    # exponential_series(t, w, 2), t >= 0: a Taylor series at wp bits, then r
    # doublings of the angle
    r = int(0.5 * w ** 0.5)
    xmag = t.bit_length() - w
    r = max(0, xmag + r)
    extra = 10 + 2 * max(r, -xmag)
    wp = w + extra
    x = t << (extra - r)
    one = 1 << wp
    x2 = a = (x * x) >> wp
    x4 = (x2 * x2) >> wp
    s0 = s1 = 0
    k = 2
    while a:
        a //= (k - 1) * k
        s0 += a
        k += 2
        a //= (k - 1) * k
        s1 += a
        k += 2
        a = (a * x4) >> wp
    c = ((x2 * s1) >> wp) - s0 + one
    shift = wp - 1
    for _ in range(r):
        c = ((c * c) >> shift) - one
    if q & 1:
        sn = isqrt_fast(abs((one << wp) - c * c)) >> extra
        return -sn if q == 1 else sn
    c >>= extra
    return -c if q else c


def _cos_bound(w: int, sine: bool = True) -> int:
    """A bound, in units of 2^-w, on the error of the cosine and the sine that
    ``mod_pi2`` and ``cos_sin_basecase`` give at w bits (the error of
    ``_cos_fixed``'s significand, of either sign, against the cosine of the
    exact angle), or, for ``sine`` false, of the cosine alone, which is what
    ``_cos_fixed`` gives for an angle below pi/2; bound(w) * 2^-w is
    non-increasing in w.

    The proof, one unit u = 2^-w.  ``mod_pi2`` of an angle below 1 shifts it
    to w bits exactly; of an angle rho of magnitude 2^mag, mag >= 1, it
    divides rho * 2^W exactly by pi2 = floor(pi * 2^(W - 1)), W = w + mag, and
    floors the remainder by 2^mag: the angle t*u differs from rho - q*pi/2 by
    q*(pi/2 - pi2*2^-W) - (the floor), below 5 * 2^-W or 1 u, so by less than
    2.5 u, as q <= 5 for rho < 8.  Cosine and sine move by no more.

    Up to ``COS_SIN_CACHE_PREC`` bits, ``cos_sin_basecase`` reads the cosine
    and sine of the angle's top 8 bits, n/256, from a cache filled by the
    series below at 10 bits more, floored twice (within 2.05 u), and sums
    the series of the rest, h < 2^-8: each term a floor of a product by h and
    a floored quotient, within 1.5 u of its exact value; one loop pass adds a
    cosine and a sine term, and the pass count is at most w/16 + 3, as the
    true term falls below 1 u after (w - 16)/16 passes and a term of at most 2
    u runs out within two more.  Each sum is so within 1.5 * (w/16 + 3) u
    plus 1 u for the terms left out.  The product of the two pairs, floored,
    is within 1.01 * 2.05 + sqrt(2) * 1.5 * (w/16 + 4) + 1 u, and with the
    reduction the whole is below (0.133 w + 14.1) u <= w // 7 + 15 u.

    Above it, ``exponential_series`` halves the angle r times, r <= sqrt(w)/2
    + 1, sums cos(y), y < 2^-10, at wp = w + extra <= 3w + 10 bits, doubles r
    times and cuts ``extra`` = 10 + 2 * max(r, -xmag) bits, xmag = the angle's
    bit length less w.  Every term of its two sums (or of its u sums, u =
    int(0.3 * w^0.35), from ``EXP_SERIES_U_CUTOFF``, with the powers of y^2
    that scale them) is within 2.1 units of wp of its value, and each falls
    by 2^-20 or more, so at most wp/20 + 2u are nonzero: with the powers' and
    the tail's errors, the sum is within e0 = wp/8 + 7u + 4 units of wp of
    cos(y).  A doubling 2c^2 - 1 takes an error e
    to at most 4e + 1.01, so r doublings leave 4^r * (e0 + 1) and the cut,
    (e0 + 1)/1024 + 1 u.  The sine, the floored square root of 1 - c^2, is
    within 2.01 * 4^r * (e0 + 1) / sin(angle) + 1 units of wp, and with
    sin(angle) >= 2^xmag / pi, 2.01 * pi * (e0 + 1) * 2^(2r - 10 - 2 *
    max(r, -xmag) - xmag) + 2 u after the cut, whose exponent is at most
    sqrt(w)/4 - 10 in each case of r and xmag.  With the reduction's 2.5 u
    the bounds below cover them."""
    if w <= COS_SIN_CACHE_PREC:
        return w // 7 + 15
    u = int(0.3 * w ** 0.35) if w >= EXP_SERIES_U_CUTOFF else 1
    e0 = (3 * w + 10) // 8 + 7 * u + 6
    if not sine:
        return (e0 + 1) // 1024 + 5
    return math.ceil(6.4 * (e0 + 1) * 2.0 ** (0.25 * math.sqrt(w) - 10)) + 5


def _cos_sin(m: int, e: int, mag: int, point: int) -> tuple:
    """(C, S, b): the cosine and sine of the angle m * 2^e >= 0 of magnitude
    2^mag as significands at ``point`` fractional bits, and a bound b, in
    units of 2^-point, on |C + iS - exp(i * angle)|.  They are ``mod_pi2``
    and ``cos_sin_basecase`` at w >= point + 10 bits, each within
    ``_cos_bound(w)`` units of 2^-w, floored to ``point`` bits."""
    t, q, w = mod_pi2(m, e, mag, point + 10)
    c, sn = cos_sin_basecase(t, w)
    cut = w - point
    c, sn = c >> cut, sn >> cut
    q &= 3
    if q == 1:
        c, sn = -sn, c
    elif q == 2:
        c, sn = -c, -sn
    elif q == 3:
        c, sn = sn, -c
    return c, sn, 2 * ((_cos_bound(w) >> cut) + 2)


def _margins(bits: int) -> tuple:
    """(limit, reach, far, near) of the recurrence at ``bits``, in units of
    2^-F, F = bits + _POINT_BITS.  A running bound err below limit, 2^(F -
    bits - 16), keeps err * 2^-F below 2^-(bits + 16), so below 2^-40 as
    ``_turn`` needs.  A turn d below reach, 2^((3F - bits - 22) / 3), keeps
    |d| * 2^-F below 2^-14, and its Taylor remainder adds at most 2^-(bits +
    24) a step.
    far and near bound the pipeline's cosine: ``_cos_bound`` at wc + 20 bits,
    wc = bits + 10, for an angle of at least 1, which ``mod_pi2`` reduces at
    wc + 20 bits or more, and of the cosine alone at wc bits for one below 1,
    which it takes at wc bits or more (as _cos_bound(w) * 2^-w does not grow
    with w)."""
    point, wc = bits + _POINT_BITS, bits + 10
    return (1 << (point - bits - 16), 1 << (3 * point - bits - 22) // 3,
            _cos_bound(wc + 20) << (point - wc - 20), _cos_bound(wc, sine=False) << (point - wc))


def _turn(C: int, S: int, err: int, d: int, point: int) -> tuple:
    """(C', S', err'): C + iS squared and turned by the angle d * 2^-point,
    all at ``point`` fractional bits, with err' bounding |C' + iS' -
    exp(i*(2*rho + delta))| in units u = 2^-point wherever err bounds |C + iS
    - exp(i*rho)|, |d*u - delta| < 10 u, err * u < 2^-40 and |d| * u < 2^-14.

    The square is (C - S)(C + S) + 2iCS, each part floored: |z^2 - exp(2i*rho)|
    = |z - exp(i*rho)| * |z + exp(i*rho)| <= err * (2 + err*u) u, plus sqrt(2)
    u.  The turn is by 1 - h*u + i*d*u, h = floor(d^2 / 2^(point + 1)), within
    tau = 11.01 u + |delta|^3/5 of exp(i*delta): 10 u from d, 1.01 u from h
    and its floor, and the Taylor remainders |delta|^3/6 and delta^4/24.  Its
    four products, summed in pairs and floored, add 1 u to each part.  So
    err' <= (2*err + err^2*u + 1.42)(1 + tau) + tau/u + 1.42 <= 2*err +
    err*2^-38 + 13.9 + T <= 2*err + (err >> 32) + 15 + T, with T >=
    |delta|^3 / (5u) from |delta| < (|d| + 10) u < 2^b u: 2^(3b - 2*point -
    2), or 1 where that is less."""
    h = (d * d) >> (point + 1)
    x, y = ((C - S) * (C + S)) >> point, (C * S) >> (point - 1)
    t = 3 * (abs(d) + 10).bit_length() - 2 * point - 2
    return (x - ((x * h + y * d) >> point), y + ((x * d - y * h) >> point),
            2 * err + (err >> 32) + 15 + (1 << t if t > 0 else 1))


def _cosine_samples(variant: ClosedForm, phase: tuple, n: int, bits: int, first: int):
    """The samples 1/2 + s*c_k, k = ``first``..n, of a cosine form at
    ``bits``: c_k is the cosine of the angle at step k reduced mod 2*pi, that
    is ``mpf_cos`` of ``_reduce_raw`` of the angle, bit for bit, by the libmp
    pipeline's own integer steps in one loop, each rounded to nearest even at
    ``bits`` as the call it replaces rounds it, or, where that rounding is
    already decided, by a recurrence from the sample before.  No sample's
    value depends on an earlier one, so a loop from ``first`` = n is one step.

    The angle is the phase shifted by k.  table1's, (pi - (-2)^k*phase)/3, is
    the exact difference from pi at ``bits``, rounded as ``mpf_sub`` rounds
    it, then its quotient by 3, rounded as ``mpf_div`` rounds it; at 53 bits
    two IEEE operations do the same while (-2)^k*phase is below 2^1020.  The
    reduction is ``_reduce_raw``'s exact-integer branch: one ``%`` by 2*pi's
    significand, the remainder rounded once; an angle below 2*pi's ulp at the
    reduction's width takes ``_reduce_raw`` itself.  ``_reduce_raw`` then
    takes 2*pi at ``bits`` off a remainder that rounding carried up to it.
    That step is left out: such a remainder lies within 2 ulps of 2*pi, and
    from 53 bits on its cosine rounds to 1, as that of 0 does.  The cosine is
    ``mpf_cos``'s: ``mod_pi2`` at wc = ``bits`` + 10 bits, then
    ``_cos_fixed``'s significand c at width w, within ``_cos_bound(w)`` units
    of 2^-w of the cosine of the reduced angle rho_k.

    Most samples skip those two (Ziv's test).  C + iS holds exp(i*rho_k) at
    F = ``bits`` + 94 fractional bits, within a running bound of err units of
    2^-F.  rho_(k+1) is 2*rho_k + delta mod 2*pi (table1: pi - 2*rho_k +
    delta), delta being a few units of rho's last place: the exact
    difference of the two reduced angles, less a multiple of 2*pi (table1: an
    odd multiple of pi), at F bits.  There, d is the angles' floors r and R
    less up to three multiples of 2*pi's floor (and pi's), so within 3 + 6 +
    1 units of delta.  ``_turn`` squares C + iS and turns it by delta in
    seven products at F bits, and bounds the result.  The sample is
    C wherever C - E and C + E, E = err plus the pipeline's bound at F bits,
    round alike at ``bits`` (``float(int())`` at 53 bits, as the tail rounds,
    ``_nearest`` with both ends in one binade elsewhere): c lies between
    them, and rounding is monotone.  Where |c| < 2^(bits - w) the pipeline
    keeps all of c; the ends, more than its last place apart, never round alike.
    The pipeline takes every other sample: one the test rejects, a zero
    angle or one below 2^-wc, and a loop's only sample (``closed_form``).
    ``_cos_sin`` seeds the pair at the first sample and again wherever err
    reaches 2^(F - bits - 16), about every 63 samples.  table1's angle,
    rounded from (-2)^k*phase, strays from pi - 2*rho_k by about 2^(k -
    bits), so once delta reaches about 2^(-(bits + 22)/3), near step 30 at
    53 bits, the pipeline takes its samples, until the rounding of pi -
    (-2)^k*phase drops the pi, near step bits + 2: from there the angle is
    -2 times the last one before the reduction, so rho_(k+1) = -2*rho_k +
    delta, which ``_cos_sin`` seeds again and ``_turn`` takes from C - iS.

    The tail 1/2 + s*c is exact, s being -1/2, -1 or 1, and is rounded once.
    At 53 bits the samples are doubles in one array('d'), rounded by
    ``float()`` of the significand and one IEEE operation; at other widths
    they are mpf, the significand and the tail each rounded on Python ints.
    """
    sign, man, exp, bc = phase
    composed = variant is ClosedForm.RM2_COMPOSED
    double = bits == DOUBLE.significand_bits
    wr, wc = bits + _REDUCE_GUARD_BITS, bits + 10  # the reduction's and mpf_cos's
    pm, pe = _pair(_pi(bits))  # pi, for table1's angle
    psi = to_float(phase) if double else 0.0  # exact: 53 bits, below 2*pi
    s = _FORMS[variant][3]
    sf, (negative, _, es, _) = to_float(s), s  # s = -2^es or 2^es
    make, ldexp = mp.make_mpf, math.ldexp
    values = array("d") if double else []
    append = values.append
    # the recurrence: C + iS within err units of 2^-point of exp(i*rho) for
    # the last sample's angle rho, R its floor at point bits
    point = bits + _POINT_BITS
    pi_f = pi_fixed(point)
    two_pi_f = pi_f << 1
    limit, reach, far, near = _margins(bits)
    live, held = False, True  # held: d, from the last sample, is within reach
    half = pi_f if composed else 0  # table1's pi, until its rounding drops it
    C = S = R = err = 0
    for k in range(first, n + 1):
        if not composed:
            m, e = (-man if sign else man), exp + k
        elif double and exp + bc + k <= 1020:  # (-2)^k*phase is below 2^1020
            f, e = math.frexp((math.pi - ldexp(-psi if k & 1 else psi, k)) / 3.0)
            m, e = int(f * 9007199254740992.0), e - 53  # 2^53
        else:  # pi - (-2)^k*phase exactly, rounded, then its quotient by 3, rounded
            m, e = (-man if sign ^ (k & 1) else man), exp + k
            d = min(pe, e)
            m, e = (pm << (pe - d)) - (m << (e - d)), d
            cut = m.bit_length() - bits
            if cut > 0:
                m, e = _nearest(m, cut), e + cut
            m, r = divmod(m << (bits + 3), 3)  # a quotient of at least bits + 1 bits
            m, e = (m << 1) | (r > 0), e - bits - 4  # and a sticky bit below it
            cut = m.bit_length() - bits
            if cut > 0:
                m, e = _nearest(m, cut), e + cut
        mag = m.bit_length() + e
        if m:  # reduced into [0, 2*pi) as _reduce_raw reduces it at bits
            _, tman, texp, _ = _pi(wr + mag if mag > 0 else wr)
            texp += 1  # of 2*pi
            if e >= texp:
                m, e = (m << (e - texp)) % tman, texp
                cut = m.bit_length() - bits
                if cut > 0:
                    m, e = _nearest(m, cut), e + cut
            else:  # below 2*pi's ulp at the reduction's width
                m, e = _pair(_reduce_raw(from_man_exp(m, e), bits))
        mag = m.bit_length() + e
        if k > first:  # this angle is 2*R (table1: pi - 2*R, later -2*R) plus d, mod 2*pi
            r = m << (e + point) if e + point >= 0 else m >> (-e - point)
            d = r + (R << 1) - half if composed else r - (R << 1)
            R = r
            while d > pi_f:
                d -= two_pi_f
            while d < -pi_f:
                d += two_pi_f
            held = abs(d) < reach
            if not held:  # table1's angle, rounded, strays from pi - 2*R
                live, half = False, 0  # until its rounding drops the pi
            elif live and not composed:
                C, S, err = _turn(C, S, err, d, point)
                live = err < limit
            elif live and half:  # exp(i*(pi - 2*R + d)) = -conj(exp(i*(2*R - d)))
                C, S, err = _turn(C, S, err, -d, point)
                C, live = -C, err < limit
            elif live:  # exp(i*(-2*R + d)) = conj(exp(i*R))^2 * exp(i*d)
                C, S, err = _turn(C, -S, err, d, point)
                live = err < limit
        if m and mag >= -wc:
            if not live and held and k < n:
                C, S, err = _cos_sin(m, e, mag, point)
                R = m << (e + point) if e + point >= 0 else m >> (-e - point)
                live = True
            decided = False
            if live:  # Ziv's test: both ends of C -+ E round alike
                E = err + (far if mag > 0 else near)
                lo, hi = C - E, C + E
                if double:
                    decided = float(int(lo)) == float(int(hi))  # as the tail rounds c
                else:
                    cut = hi.bit_length() - bits
                    decided = (cut > 0 and lo.bit_length() == hi.bit_length()
                               and _nearest(lo, cut) == _nearest(hi, cut))
            if decided:
                c, w = lo, point
            else:
                t, q, w = mod_pi2(m, e, mag, wc)
                c = _cos_fixed(t, q, w)
        else:  # where mpf_cos rounds to 1
            c, w = 1 << wc, wc
        if double:
            append(0.5 + sf * ldexp(float(int(c)), -w))  # int(): gmpy2's mpz may not round
            continue
        e = es - w  # s*c = (+-c) * 2^e
        cut = c.bit_length() - bits
        if cut > 0:
            c, e = _nearest(c, cut), e + cut
        m = (1 << (-1 - e)) + (-c if negative else c)  # e < -1 here
        cut = m.bit_length() - bits
        if cut > 0:
            m, e = _nearest(m, cut), e + cut
        append(make(_raw(m, e)))
    return values


def _samples(p: MapParams, n: int, variant: ClosedForm, bits: int, first: int = 0):
    """Samples ``first``..n of a closed form at ``bits``, r and the seed
    checked and the phase taken once: a cosine form's from ``_cosine_samples``,
    r2's from one squaring of its base a step, as mpf at every width."""
    _check_closed_form(p, n, variant)
    phase = _phase(p, variant, bits)
    if variant is not ClosedForm.R2_POWER:
        return _cosine_samples(variant, phase, n, bits, first)
    make, s, values = mp.make_mpf, _FORMS[variant][3], []
    for k in range(n + 1):
        if k >= first:
            values.append(make(_tail(s, phase, bits)))
        if k < n:
            phase = mpf_mul(phase, phase, bits, round_nearest)
    return values


def closed_form(p: MapParams, n: int, variant: ClosedForm,
                policy: PrecisionPolicy = DOUBLE) -> mpf:
    """One closed form at step n under the given precision policy, as an mpf:
    sample n of ``closed_form_trajectory``, from the same evaluator.

    The angle pipeline is: arccos at working precision, exact scaling by
    2^n (exponent shift; table1 takes (pi - (-2)^n * phase) / 3), reduction
    mod 2*pi, then the final cosine, so a cosine form costs one step of the
    sample loop whatever n.  The r2 form squares its base n times.  Raises
    ValueError when p.r does not match the variant and DomainError when the
    seed leaves the arccos domain.
    """
    x = _samples(p, n, variant, policy.significand_bits, n)[-1]
    # a 53-bit double converts exactly; mpf() would round it to mp.prec
    return x if isinstance(x, mpf) else mp.make_mpf(from_float(x))


def closed_form_trajectory(p: MapParams, n: int, variant: ClosedForm,
                           policy: PrecisionPolicy = DOUBLE) -> Trajectory:
    """Trajectory of a closed form over steps 0..n: every sample equals
    ``closed_form(p, k, variant, policy)``, whose evaluator it shares.  A
    cosine form's samples are one array('d') of doubles at 53 bits, and mpf
    at other widths."""
    values = _samples(p, n, variant, policy.significand_bits)
    return Trajectory(f"{METHOD_CLOSED_FORM}:{variant.value}", range(n + 1), values, policy)


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


# Steps from which an iteration-only run at r other than 4 and -2 sizes its
# reference by the orbit's stretching.  Below it the pre-pass, the bound and
# the check can cost more than the narrower steps save: whole compare jobs
# break even at about 3,200 steps at r = 3.7 and 4,000 at r = 3.9 (medians of
# 5 runs of 6 seeds each, scaled by perfbench's yardstick, shared 2-vCPU host).
_SIZED_MIN_STEPS = 4000
# Bits a sized step keeps above the stretching still to come.  The working
# orbit's stretching stands in for the reference's, and over thousands of steps
# the two can part by more than 128 bits; near the end of a run the stretching
# ahead no longer covers that.  With 192, 8 of 160 random runs of 3,000 to 9,000
# steps at r = 3.7 and 3.9 fell back, 3 to 35 bits short in their last 250
# steps; with 256 none did (29 bits to spare at least), for about 4% more of
# the sum of w^1.6 over the steps.
_SIZED_MARGIN = 256
_CERTIFIED_BITS = 64  # bits of every error a sized reference's bound must certify
_SLACK = 2.0 ** -48  # covers the cut of a sample to 64 bits and the roundings of t
_UP = 1 + 2.0 ** -49  # covers the other roundings to nearest of a bound step
_TINY = math.ulp(0.0)


def _sized_widths(r: float, values, bits: int, taper_to: int) -> array:
    """The widths of steps 1..n of a reference sized by the orbit's own
    stretching, read off ``values``, samples 0..n of the working iteration.

    With L_j = log2|r*(1 - 2*x_j)| and P_k = L_0 + ... + L_(k-1), the
    rounding of step k reaches step j >= k stretched by about 2^(P_j - P_k).
    Step k runs at max(taper_to, ceil(max_{j >= k} P_j - P_k) +
    _SIZED_MARGIN) bits, but never wider than the tapered width at ``bits``.
    G_k = max_{j >= k} P_j - P_k is summed from the last step back: G_n = 0
    and G_k = max(0, L_k + G_(k+1)).  The iteration leaves the orbit after a
    few dozen steps, so the widths are a guess that ``_bounded`` checks."""
    n = len(values) - 1
    twice = 2 * r
    widths = array("l", _tapered_widths(bits, n, taper_to))
    ceil, log2, margin = math.ceil, math.log2, _SIZED_MARGIN
    least = taper_to - margin
    ahead = 0.0  # G_k
    for k, x in zip(range(n - 1, -1, -1), map(float, islice(reversed(values), 1, None))):
        w = ceil(ahead if ahead > least else least) + margin  # step k + 1
        if w < widths[k]:
            widths[k] = w
        ahead += log2(abs(r - twice * x) or _TINY)  # L_k
        if ahead < 0.0:
            ahead = 0.0
    return widths


def _bounded(r: float, pairs, widths, floors: array):
    """Yields the iterator ``pairs``, samples 0, 1, ... of ``_reference`` at
    ``widths``, and appends to ``floors`` for each sample the least error
    that its bound b_k >= |x_k' - x_k|, on the distance from the exact orbit,
    certifies to _CERTIFIED_BITS bits: a double no less than 2^_CERTIFIED_BITS
    * b_k, positive unless b_k = 0.  Sample 0, read first, must be x0 exactly,
    and r must be exact.

    A running error bound in Wilkinson's style.  f(x') - f(x) = r*(x' -
    x)*(1 - 2x' + (x' - x)), so e_(k+1) <= |r|*e_k*(|1 - 2x_k'| + e_k) plus
    the step's own roundings.  A step of width w rounds r*x, 1 - x and their
    product, each within 2^-w of its result, so lands within 2^(m + 2 - w) of
    f(x_k') for a result below 2^m; a step of at least _SQUARE_MIN_BITS may
    be squared, whose rounded y^2 adds up to |r|*2^(-w - 2).  A step whose
    result is 0, or narrower than w - 8 bits from an x that 1 - x keeps,
    rounded nothing: any rounding leaves at least w bits, w - 7 where it
    rounds only y^2.  b_k is a double times 2^bs for an integer bs, so it
    cannot underflow.  |1 - 2x_k'| is at most |1 - 2t|*(1 + _SLACK) +
    4*_SLACK for t the top 64 bits of x_k' in a double, and one factor _UP on
    |r| covers the step's other roundings; the floor is 2^(_CERTIFIED_BITS +
    1)*b_k rounded to a double.  So every bound rounds up.  The pairs stop at
    the first floor above twice ESCAPE_BOUND, which no error of a bounded
    orbit reaches."""
    rf, rs = math.frexp(abs(r))  # |r| = rf * 2^rs
    rf *= _UP
    ldexp, frexp, append = math.ldexp, math.frexp, floors.append
    scale, lift, over, cap = 1.0 + _SLACK, 4 * _SLACK, _CERTIFIED_BITS + 1, 2 * ESCAPE_BOUND
    bf, bs = 0.0, -(1 << 40)  # b_k = bf * 2^bs, exactly 0 up to the first rounding
    m, e = x = next(pairs)
    size = m.bit_length()
    append(0.0)
    yield x
    for w, (m1, e1) in zip(widths, pairs):
        size1 = m1.bit_length()
        cut = size - 64
        t = ldexp(m >> cut, e + cut) if cut > 0 else ldexp(m, e)
        bf *= rf * (abs(1.0 - 2.0 * t) * scale + lift + ldexp(bf, bs))
        bs += rs
        if size1 >= w - 8 or m1 and size + e < -w - 1:
            q = size1 + e1 + 2 - w  # the step rounded: add 2^q
            if w >= _SQUARE_MIN_BITS:
                q = max(q, rs - 1 - w) + 1
            d = q - bs
            if d < 100:
                bf += ldexp(1.0, d)
            else:
                bf, bs = ldexp(bf, -d) + 1.0, q
        if not 2.0 ** -200 < bf < 2.0 ** 200:
            bf, shift = frexp(bf)
            bs += shift
        floor = ldexp(bf, bs + over) or (bf and _TINY)
        if floor > cap:
            return
        append(floor)
        m, e, size = m1, e1, size1
        yield m, e


def _certified(error: float, floor: float) -> bool:
    """Whether ``_bounded``'s ``floor`` certifies a sized reference's error:
    the error is at least the floor, or the floor is the least subnormal
    _TINY, so b_k < 2^-1138, and an error below it reads 0.  An error that
    reads 0 puts the reference no farther from the working sample than the
    rounding tie 2^-1075, so the exact error reads 0 as well, unless it lies
    within b_k of that tie."""
    return error >= floor or floor == _TINY


def _pair(x: tuple) -> tuple:
    """The raw value ``x`` as (signed significand, exponent)."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _signed(value, bits: int) -> tuple:
    """A sample as (signed significand, exponent): mpf and float samples
    exactly, any other as ``_raw_mpf(value, bits)``."""
    if isinstance(value, float):
        m, d = value.as_integer_ratio()  # d is a power of 2
        return m, 1 - d.bit_length()
    return _pair(value._mpf_ if isinstance(value, mpf) else _raw_mpf(value, bits))


def compare_trajectories(a: Trajectory, b: Trajectory,
                         threshold: float) -> DivergenceReport:
    """Report the absolute per-step differences of two trajectories.

    The trajectories must be sampled on the identical index set, compared by
    value (a ``range`` equals the tuple of its items).  The
    subtraction is carried out 10 bits above the higher of the two
    precisions, ``bits``, on exact values (mpf and float samples taken
    exactly); the report stores the differences as doubles.

    Each difference is formed as an integer: the significand with the larger
    exponent is shifted left by the gap, the other subtracted, and the result
    rounded once to nearest even by int-to-float, after a cut to 55 bits with
    a sticky bit where it is wider than 1,023 bits.  The doubles equal, bit
    for bit, those of the libmp route
    (``mpf_sub`` at ``bits``, then ``to_float``), which runs instead for a
    zero on either side, an exponent gap larger than ``bits`` (an unbounded
    shift), a difference wider than ``bits`` (which that route rounds twice)
    and a difference of 2^1023 or more (which it may round to infinity).  A
    difference below 2^-1022 is rounded once, on either route, to the
    subnormal doubles' grid (``_subnormal``): rounded to 53 bits first, as
    ``to_float`` rounds it, it would be rounded twice.
    """
    if len(a) != len(b):
        raise ValueError(f"trajectories have different lengths ({len(a)} vs {len(b)})")
    if a.indices != b.indices and tuple(a.indices) != tuple(b.indices):
        ia, ib = next((ia, ib) for ia, ib in zip(a.indices, b.indices) if ia != ib)
        raise ValueError(f"trajectory index sets differ (first mismatch: {ia!r} vs {ib!r})")
    bits = max(a.precision.significand_bits, b.precision.significand_bits) + 10
    return _compare_pairs([a.values], map(_signed, b.values, repeat(bits)), bits, threshold)[0]


def _compare_pairs(columns, pairs, bits: int, threshold: float) -> list:
    """The reports of ``compare_trajectories``, one per column of samples in
    ``columns``, against one column of (signed significand, exponent) pairs
    ``pairs``, drawn once, 256 at a time, a block that every column reads in
    turn; differences are formed at ``bits``.  A float sample is read by
    ``as_integer_ratio`` in the loop; any other as ``_signed`` reads it.

    A difference d * 2^e of at most 1,023 bits is rounded once, by
    ``float()`` of the integer d, which rounds to nearest even (no carry
    can reach 2^1024), and ``ldexp`` is then exact; a wider one is first cut
    to 55 bits with a sticky bit, which keeps that rounding."""
    samples, tallies = [iter(column) for column in columns], [[] for _ in columns]
    ldexp, rnd = math.ldexp, round_nearest
    for block in _chunks(iter(pairs), 256):
        for column, errors in zip(samples, tallies):
            append = errors.append
            for (mb, eb), x in zip(block, column):  # the block first: no sample is drawn past it
                if type(x) is float:
                    ma, den = x.as_integer_ratio()  # den is a power of 2
                    ea = 1 - den.bit_length()
                else:
                    ma, ea = _signed(x, bits)
                gap = ea - eb
                if ma and mb and -bits <= gap <= bits:
                    if gap >= 0:
                        d, e = abs((ma << gap) - mb), eb
                    else:
                        d, e = abs(ma - (mb << -gap)), ea
                    w = d.bit_length()
                    if w <= bits and e + w <= 1023:
                        if e + w <= -1022:  # d * 2^e < 2^-1022
                            append(_subnormal(int(d), e))
                            continue
                        if w > 1023:
                            e += w - 55
                            cut = d >> (w - 55)
                            d = cut | (cut << (w - 55) != d)  # sticky bit
                        # float() of a Python int rounds to nearest even; of gmpy2's
                        # mpz it need not, so the significand goes through int() first
                        append(ldexp(float(int(d)), e))
                        continue
                diff = mpf_abs(mpf_sub(from_man_exp(ma, ea), from_man_exp(mb, eb), bits, rnd))
                _, man, exp, bc = diff
                append(_subnormal(int(man), exp) if man and exp + bc <= -1022
                       else to_float(diff, rnd=rnd))
    return [DivergenceReport(errors, float(threshold)) for errors in tallies]


def _subnormal(d: int, e: int) -> float:
    """d * 2^e, for 0 <= d * 2^e < 2^-1022, rounded once to the nearest
    multiple of 2^-1074, the least subnormal double, ties to even: the bits
    cut off below 2^-1074 are compared with half of it.  The result, a
    subnormal double, 0.0 or 2^-1022, converts exactly."""
    cut = -1074 - e
    if cut > 0:
        q, rest, half = d >> cut, d & ((1 << cut) - 1), 1 << (cut - 1)
        d, e = q + (rest > half or (rest == half and q & 1)), -1074
    return math.ldexp(float(d), e)


def divergence_reports(p: MapParams, n_max: int, working_bits: int, threshold: float,
                       forms=(), oracle_bits: int | None = None) -> list:
    """Plain iteration and each closed form in ``forms``, all evaluated at
    ``working_bits`` (a closed form including all of its angle arithmetic),
    against one reference at ``oracle_policy(n_max, working_bits,
    oracle_bits)``: the samples of ``_phase_reference`` where the module
    docstring says so, else of ``_reference`` at the widths of
    ``_sized_widths`` or, tapered to ``working_bits + 128`` unless
    ``oracle_bits`` is given, ``_tapered_widths``, each report equal to
    ``compare_trajectories``' against it.  The orbit-sized reference stands
    only where its running bound certifies every error; elsewhere the tapered
    reference is built too, and its reports returned.
    Returns ``(label, DivergenceReport)`` pairs: ``"iterated"`` first, then
    each form's value in the order given.

    The threshold (it must be positive) and every form's r and seed are
    checked before anything is evaluated, and the iteration and then each
    closed form run before the reference, so an orbit that escapes builds
    none.  One ``_compare_pairs`` call draws the reference's pairs once, as
    they are built, for every method's column; no reference is held whole.
    An explicit ``oracle_bits`` below the budget of one bit per step plus 64
    draws a warning.  At 53 working bits about one significand bit dies per
    step, so the orbit visibly leaves the oracle after a few dozen steps; the
    closed forms are the library's pipeline at 53 bits, not libm on doubles.
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
    columns = [iterate(p, n_max, working).values]
    columns += [closed_form_trajectory(p, n_max, v, working).values for v in variants]
    width = ref_policy.significand_bits
    bits = width + 10  # as compare_trajectories sets it
    taper_to = working_bits + _TAPER_MARGIN if oracle_bits is None else width
    alone = not variants and oracle_bits is None  # the iteration, at the default oracle
    phase = _PHASE_FORM.get(p.r)
    if (alone and phase is None and n_max >= _SIZED_MIN_STEPS
            and type(p.r) is float and type(p.x0) is float):
        widths, floors = _sized_widths(p.r, columns[0], width, taper_to), array("d")
        try:
            sized, = _compare_pairs(columns, _bounded(p.r, _reference(p, width, widths), widths,
                                                      floors), bits, threshold)
        except EscapeError:  # whether the run escapes is the tapered reference's to say
            floors = ()
        if len(floors) == n_max + 1 and all(map(_certified, sized.per_step_abs_error, floors)):
            return [(METHOD_ITERATED, sized)]
    phased = (alone and working_bits == DOUBLE.significand_bits and n_max >= _PHASE_MIN_STEPS
              and phase is not None and _in_seed_domain(p.x0, phase))
    ref = (_phase_reference(p, n_max, columns[0]) if phased
           else _reference(p, width, _tapered_widths(width, n_max, taper_to)))
    labels = [METHOD_ITERATED] + [v.value for v in variants]
    return list(zip(labels, _compare_pairs(columns, ref, bits, threshold)))


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


def prng_bits(x0: float, count: int, burn_in: int = 0) -> bytes:
    """Bits from the chaotic r=4 orbit: one per step, set when x > 1/2, as
    ``bytes`` of 0s and 1s, one byte per bit (``bytes`` never equals a tuple:
    compare ``tuple(bits)`` or ``list(bits)``).

    Runs at plain double precision, discards ``burn_in`` steps first, and is
    fully deterministic.  Each step loses about one bit of the seed, so past
    about 53 steps the bits come from a pseudo-orbit: the rounded orbit has
    left the exact orbit of ``x0``, whose bits it no longer reproduces.
    Orbits that land exactly on 0, 1 or 3/4 are stuck on a fixed point; that
    is fatal for bit output, so it raises DegeneracyError (pick a different
    seed) instead of looping silently.  The burn-in and the bits run as two
    tight loops, and the fixed-point set is tested once, at the end: an
    orbit that reaches it ends on 0 or 3/4 (1 maps to 0), or on 1 at the last
    step.  Only a stuck orbit is walked again, to name the step.
    """
    if not (math.isfinite(x0) and 0.0 < x0 < 1.0):
        raise DomainError("seed must lie strictly inside (0, 1)")
    if not isinstance(count, int) or count < 1:
        raise ValueError("count must be a positive integer")
    if not isinstance(burn_in, int) or burn_in < 0:
        raise ValueError("burn_in must be a non-negative integer")
    x = float(x0)
    for _ in range(burn_in):
        x = 4.0 * x * (1.0 - x)
    bits = bytearray(count)
    for k in range(count):
        x = 4.0 * x * (1.0 - x)
        bits[k] = x > 0.5
    if x == 0.0 or x == 1.0 or x == 0.75:
        x = float(x0)
        for step in range(1, burn_in + count + 1):
            x = 4.0 * x * (1.0 - x)
            if x == 0.0 or x == 1.0 or x == 0.75:
                raise DegeneracyError(
                    f"orbit hit the fixed-point set (x={x!r} at step {step}); "
                    "choose a different seed")
    return bytes(bits)
