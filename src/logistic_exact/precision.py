"""Precision plumbing: budget rule, angle reduction, trajectory comparison.

Chaotic iteration loses a roughly constant number of significand bits per
step, so everything downstream states its working precision explicitly.
This module owns that contract: a policy type, the budget rule that turns a
step count into a bit width, a magnitude-aware reduction mod 2*pi (the
closed forms scale angles by 2^n, which outgrows any fixed significand),
the trajectory type, and the trajectory comparison used to measure
round-off divergence.  A trajectory holds a series as two columns, a tuple
of indices and a tuple of values, so that its checks and its readers run
C-level loops over whole columns rather than a Python loop per sample.

All functions are pure; values are immutable.  mpmath's context is mutated
only through ``workprec`` scopes, so callers wanting parallel sweeps should
prefer processes over threads.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_float,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_ge,
    mpf_mod,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_float,
)

from .errors import check_steps

METHOD_ITERATED = "iterated"
METHOD_ORACLE = "oracle"
METHOD_CLOSED_FORM = "closed-form"
METHOD_ODE_CLOSED_FORM = "ode-closed-form"
METHOD_ODE_RK4 = "ode-rk4"

_REDUCE_GUARD_BITS = 20
_NON_FINITE = (finf, fninf, fnan)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Significand width for a computation."""

    significand_bits: int

    def __post_init__(self):
        if not isinstance(self.significand_bits, int) or self.significand_bits < 53:
            raise ValueError("significand_bits must be an integer >= 53 (native double)")


DOUBLE = PrecisionPolicy(53)


def precision_budget(n_steps: int) -> int:
    """Working precision for ``n_steps`` chaotic steps: one bit lost per step
    plus a 64-bit margin, ``n_steps + 64``.

    One bit per step matches the angle-doubling maps, where each iteration
    amplifies input error by a factor of about two.
    """
    check_steps(n_steps)
    return n_steps + 64


def budgeted_policy(n_steps: int) -> PrecisionPolicy:
    """Policy whose significand is the budget for ``n_steps`` chaotic steps."""
    return PrecisionPolicy(precision_budget(n_steps))


@lru_cache(maxsize=1024)
def _pi(prec: int) -> tuple:
    """pi, raw, rounded to nearest at ``prec`` bits: ``mpf_pi`` re-rounds its
    cached digits on every call, which costs more than the lookup here."""
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
    # carry the remainder up to 2*pi, and 2*pi at ``bits`` may be smaller
    two_pi = mpf_shift(_pi(bits), 1)
    if mpf_ge(r, two_pi):
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


@dataclass(frozen=True)
class Trajectory:
    """An ordered series, one column of indices or times and one of values,
    plus how it was produced.

    ``method_tag`` is one of the METHOD_* constants, optionally suffixed with
    a variant, e.g. ``"closed-form:simple"``.  Each column is stored as a
    tuple (a tuple is kept as it is, any other iterable is converted), and
    the two have equal lengths.  Indices increase strictly.  Values may be
    ints, floats or mpf at the declared precision; producers raise instead of
    emitting non-finite samples, and this constructor enforces that.  The
    checks are C-level passes over each column; the offending index of a
    refused column is looked up only to name it in the error.
    """

    method_tag: str
    indices: tuple
    values: tuple
    precision: PrecisionPolicy

    def __post_init__(self):
        if not self.method_tag:
            raise ValueError("method_tag must be non-empty")
        indices = tuple(self.indices)  # the same object when already a tuple
        values = tuple(self.values)
        if not indices:
            raise ValueError("a trajectory needs at least one sample")
        if len(indices) != len(values):
            raise ValueError(f"the columns differ in length ({len(indices)} indices, "
                             f"{len(values)} values)")
        if not all(map(operator.gt, islice(indices, 1, None), indices)):
            k = next(k for k in range(1, len(indices)) if not indices[k] > indices[k - 1])
            raise ValueError("sample indices/times must be strictly increasing "
                             f"(index {indices[k]!r} follows {indices[k - 1]!r})")
        types = set(map(type, values))
        if types == {float}:
            finite = all(map(math.isfinite, values))
        else:
            finite = types == {int} or all(map(_is_finite, values))
        if not finite:
            k = next(k for k, v in enumerate(values) if not _is_finite(v))
            raise ValueError(f"non-finite value at index {indices[k]!r}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.indices)

    @property
    def samples(self) -> tuple:
        """The (index, value) pairs, built on each access."""
        return tuple(zip(self.indices, self.values))


def _is_finite(v) -> bool:
    """Whether a sample value is finite: floats by ``math.isfinite``, ints
    always, mpf by its raw value, anything else by ``mp.isfinite`` (slow: it
    converts native numbers to mpf first)."""
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, mpf):
        return v._mpf_ not in _NON_FINITE
    return isinstance(v, int) or mp.isfinite(v)


@dataclass(frozen=True)
class DivergenceReport:
    """Per-step absolute errors between two trajectories.

    ``first_divergent_index`` (the smallest position whose error exceeds
    ``threshold``, None if none does) and ``max_error`` (the largest error,
    0.0 when there are none) are derived from the errors.
    """

    per_step_abs_error: tuple
    threshold: float

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        errors = tuple(map(float, self.per_step_abs_error))
        object.__setattr__(self, "per_step_abs_error", errors)
        if not (all(map(math.isfinite, errors)) and min(errors, default=0.0) >= 0):
            raise ValueError("per-step errors must be finite and non-negative")

    @property
    def first_divergent_index(self) -> int | None:
        return next((i for i, e in enumerate(self.per_step_abs_error) if e > self.threshold),
                    None)

    @property
    def max_error(self) -> float:
        return max(self.per_step_abs_error, default=0.0)


def _exact(value, bits: int) -> tuple:
    """A sample as a raw libmp value: mpf and float samples exactly (a float
    has at most 53 bits), any other as ``_raw_mpf(value, bits)``."""
    if isinstance(value, mpf):
        return value._mpf_
    if isinstance(value, float):
        return from_float(value)
    return _raw_mpf(value, bits)


def _signed(value, bits: int) -> tuple:
    """A sample, taken as ``_exact`` takes it, as (signed significand, exponent)."""
    if isinstance(value, float):
        m, e = math.frexp(value)
        return int(m * 9007199254740992.0), e - 53  # 2^53
    sign, man, exp, _ = _exact(value, bits)
    return (-man if sign else man), exp


def compare_trajectories(a: Trajectory, b: Trajectory,
                         threshold: float) -> DivergenceReport:
    """Report the absolute per-step differences of two trajectories.

    The trajectories must be sampled on the identical index set.  The
    subtraction is carried out 10 bits above the higher of the two
    precisions, ``bits``, on exact values (mpf and float samples taken
    exactly); the report stores the differences as doubles.

    Each difference is formed as an integer: the significand with the larger
    exponent is shifted left by the gap, the other subtracted, and the result
    cut to 55 bits with a sticky bit, which int-to-float rounds to nearest
    even.  The doubles equal, bit for bit, those of the libmp route
    (``mpf_sub`` at ``bits``, then ``to_float``), which runs instead for a
    zero on either side, an exponent gap larger than ``bits`` (an unbounded
    shift), a difference wider than ``bits`` (which that route rounds twice)
    and a difference of 2^1023 or more (which it may round to infinity).  A
    subnormal result needs no fallback: both routes hand the same 53-bit
    value to ``math.ldexp``.
    """
    if len(a) != len(b):
        raise ValueError(f"trajectories have different lengths ({len(a)} vs {len(b)})")
    if a.indices != b.indices:
        ia, ib = next((ia, ib) for ia, ib in zip(a.indices, b.indices) if ia != ib)
        raise ValueError(f"trajectory index sets differ (first mismatch: {ia!r} vs {ib!r})")
    bits = max(a.precision.significand_bits, b.precision.significand_bits) + 10
    errors = []
    for va, vb in zip(a.values, b.values):
        ma, ea = _signed(va, bits)
        mb, eb = _signed(vb, bits)
        gap = ea - eb
        if ma and mb and -bits <= gap <= bits:
            if gap >= 0:
                d, e = abs((ma << gap) - mb), eb
            else:
                d, e = abs(ma - (mb << -gap)), ea
            w = d.bit_length()
            if w <= bits and e + w <= 1023:
                if w > 55:
                    e += w - 55
                    cut = d >> (w - 55)
                    d = cut | (cut << (w - 55) != d)  # sticky bit
                # float() of a Python int rounds to nearest even; of gmpy2's mpz
                # it need not, so the significand goes through int() first
                errors.append(math.ldexp(float(int(d)), e))
                continue
        errors.append(to_float(mpf_abs(mpf_sub(_exact(va, bits), _exact(vb, bits), bits,
                                               round_nearest)), rnd=round_nearest))
    return DivergenceReport(errors, float(threshold))
