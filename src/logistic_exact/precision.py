"""Precision plumbing: budget rule, angle reduction, trajectory comparison.

Chaotic iteration loses a roughly constant number of significand bits per
step, so everything downstream states its working precision explicitly.
This module owns that contract: a policy type, the budget rule that turns a
step count into a bit width, a magnitude-aware reduction mod 2*pi (the
closed forms scale angles by 2^n, which outgrows any fixed significand),
the trajectory type, and the trajectory comparison used to measure
round-off divergence.  A trajectory holds a series as two columns, its
indices and its values, each a tuple or a column kept as it is: a ``range``
of indices, ``bytes`` of bits, or an ``array('d')`` of doubles, which holds a
sample in 8 bytes where a tuple of floats takes about 32.  So its checks and
its readers run C-level loops over whole columns rather than a Python loop
per sample.

All functions are pure; values are immutable.  No library code sets
mpmath's global context: every rounding is made at a width passed to it, so
results do not depend on the caller's ``mp.prec``.
"""

import math
import operator
import weakref
from array import array
from functools import lru_cache
from itertools import islice, repeat

from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_man_exp,
    fzero,
    mpf_abs,
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

_REDUCE_GUARD_BITS = 20
_NON_FINITE = (finf, fninf, fnan)


class _Record:
    """The base of the library's value types, in place of a frozen dataclass,
    whose module loads ``inspect`` at start-up: a repr, ``==`` and a hash over
    the fields that ``__match_args__`` names, formed as a dataclass forms
    them, and an AttributeError on any assignment or deletion.  Each subclass
    checks its arguments in its own ``__init__``, then writes its fields into
    its ``__dict__``, which no assignment reaches."""

    __match_args__ = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __repr__(self):
        fields = self.__dict__
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={fields[name]!r}" for name in self.__match_args__) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PrecisionPolicy(_Record):
    """Significand width for a computation."""

    __match_args__ = ("significand_bits",)

    def __init__(self, significand_bits: int):
        if not isinstance(significand_bits, int) or significand_bits < 53:
            raise ValueError("significand_bits must be an integer >= 53 (native double)")
        self.__dict__["significand_bits"] = significand_bits


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


class Trajectory(_Record):
    """An ordered series, one column of indices or times and one of values,
    plus how it was produced.

    ``method_tag`` is one of the METHOD_* constants, optionally suffixed with
    a variant, e.g. ``"closed-form:simple"``.  Each column is stored as a
    tuple (a tuple is kept as it is, any other iterable is converted), except
    that a column given as an ``array('d')`` (the doubles of the float
    producers) is kept as that array, an index column given as a ``range`` of
    positive step is kept as that range, whose order needs no scan, and a
    value column given as ``bytes`` (``rng``'s bits) is kept as those bytes;
    the items of an array and of bytes are floats and ints, which need no scan
    of their types.  The two columns have equal lengths.  Indices increase
    strictly.  Values may be ints, floats or mpf at the declared precision;
    producers raise instead of emitting non-finite samples, and this
    constructor enforces that.  The checks are C-level passes over each
    column; the offending index of a refused column is looked up only to name
    it in the error.  An array of indices whose order a live trajectory has
    proven is not scanned again, so the members of one ODE grid prove its
    times once.  The scan of a tuple's value types is kept: ``_native``
    is true when every value is an int or a float, which the emitters write
    without converting them; repr and == leave it out.

    == compares the fields, so a column equals only a column of its own type
    with equal items: an array never equals a tuple, as a range or bytes never
    does.  The hash is that of the fields with an array read as the tuple of
    its items, since an array has none.  The repr shows an array as
    ``array('d', [...])``.  An array can be changed in place, which would
    change the hash and get round the checks; the library changes none once a
    trajectory holds it.
    """

    __match_args__ = ("method_tag", "indices", "values", "precision")

    def __init__(self, method_tag: str, indices: tuple | range | array,
                 values: tuple | bytes | array, precision: PrecisionPolicy):
        if not method_tag:
            raise ValueError("method_tag must be non-empty")
        ranged = isinstance(indices, range) and indices.step > 0  # increases strictly
        if not (ranged or _is_packed(indices)):
            indices = tuple(indices)  # the same object when already a tuple
        if _is_packed(values):
            types = {float}
        elif isinstance(values, bytes):
            types = {int}
        else:
            values = tuple(values)
            types = set(map(type, values))
        if not indices:
            raise ValueError("a trajectory needs at least one sample")
        if len(indices) != len(values):
            raise ValueError(f"the columns differ in length ({len(indices)} indices, "
                             f"{len(values)} values)")
        holder = _PROVEN.get(id(indices))
        proven = ranged or (holder is not None and holder.indices is indices)
        if not (proven or all(map(operator.gt, islice(indices, 1, None), indices))):
            k = next(k for k in range(1, len(indices)) if not indices[k] > indices[k - 1])
            raise ValueError("sample indices/times must be strictly increasing "
                             f"(index {indices[k]!r} follows {indices[k - 1]!r})")
        if types == {float}:  # a sum of finite floats is finite unless it overflows
            finite = math.isfinite(sum(values)) or all(map(math.isfinite, values))
        else:
            finite = types == {int} or all(map(_is_finite, values))
        if not finite:
            k = next(k for k, v in enumerate(values) if not _is_finite(v))
            raise ValueError(f"non-finite value at index {indices[k]!r}")
        fields = self.__dict__
        fields["method_tag"] = method_tag
        fields["indices"] = indices
        fields["values"] = values
        fields["precision"] = precision
        fields["_native"] = types <= {int, float}
        if not proven and _is_packed(indices):
            _PROVEN[id(indices)] = self

    def __hash__(self):
        return hash(tuple(tuple(f) if isinstance(f, array) else f for f in self._astuple()))

    def __len__(self):
        return len(self.indices)


# The live trajectories by the id of the array of indices or times that each
# holds, whose order it has proven: one given the same array skips that pass,
# as the members of an ODE run on one grid do.
_PROVEN = weakref.WeakValueDictionary()


def _is_packed(column) -> bool:
    """Whether a column is an array of doubles, which a trajectory keeps."""
    return isinstance(column, array) and column.typecode == "d"


def _chunks(floats):
    """Lists of the next 4,096 items of the iterable ``floats``, the last
    holding the rest: ``array.fromlist`` converts a list at about half the
    cost per item of the array constructor reading an iterator."""
    return iter(lambda: list(islice(floats, 4096)), [])


def _pack(floats) -> array:
    """array('d') of the iterable ``floats``, with no list of them all."""
    column = array("d")
    for part in _chunks(floats):
        column.fromlist(part)
    return column


def _is_finite(v) -> bool:
    """Whether a sample value is finite: floats by ``math.isfinite``, ints
    always, mpf by its raw value, anything else by ``mp.isfinite`` (slow: it
    converts native numbers to mpf first)."""
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, mpf):
        return v._mpf_ not in _NON_FINITE
    return isinstance(v, int) or mp.isfinite(v)


class DivergenceReport(_Record):
    """Per-step absolute errors between two trajectories.

    ``first_divergent_index`` (the smallest position whose error exceeds
    ``threshold``, None if none does) and ``max_error`` (the largest error,
    0.0 when there are none) are derived from the errors.
    """

    __match_args__ = ("per_step_abs_error", "threshold")

    def __init__(self, per_step_abs_error: tuple, threshold: float):
        if not threshold > 0:
            raise ValueError("threshold must be positive")
        errors = tuple(map(float, per_step_abs_error))
        # a sum of finite floats is finite unless it overflows
        if not ((math.isfinite(sum(errors)) or all(map(math.isfinite, errors)))
                and min(errors, default=0.0) >= 0):
            raise ValueError("per-step errors must be finite and non-negative")
        fields = self.__dict__
        fields["per_step_abs_error"] = errors
        fields["threshold"] = threshold

    @property
    def first_divergent_index(self) -> int | None:
        return next((i for i, e in enumerate(self.per_step_abs_error) if e > self.threshold),
                    None)

    @property
    def max_error(self) -> float:
        return max(self.per_step_abs_error, default=0.0)


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
    return _compare_pairs(a.values, map(_signed, b.values, repeat(bits)), bits, threshold)


def _compare_pairs(values, b, bits: int, threshold: float) -> DivergenceReport:
    """The report of ``compare_trajectories`` on a column of samples
    ``values`` and a column of (signed significand, exponent) pairs ``b``,
    its differences formed at ``bits``.  A float sample is read by
    ``as_integer_ratio`` in the loop; any other as ``_signed`` reads it.

    A difference d * 2^e of at most 1,023 bits is rounded once, by
    ``float()`` of the integer d, which rounds to nearest even (no carry
    can reach 2^1024), and ``ldexp`` is then exact; a wider one is first cut
    to 55 bits with a sticky bit, which keeps that rounding."""
    errors = []
    append, ldexp = errors.append, math.ldexp
    for x, (mb, eb) in zip(values, b):
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
                # float() of a Python int rounds to nearest even; of gmpy2's mpz
                # it need not, so the significand goes through int() first
                append(ldexp(float(int(d)), e))
                continue
        diff = mpf_abs(mpf_sub(from_man_exp(ma, ea), from_man_exp(mb, eb), bits, round_nearest))
        _, man, exp, bc = diff
        append(_subnormal(int(man), exp) if man and exp + bc <= -1022
               else to_float(diff, rnd=round_nearest))
    return DivergenceReport(errors, float(threshold))


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
