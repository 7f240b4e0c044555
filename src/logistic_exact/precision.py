"""The value layer: precision policies, the budget rule, map parameters,
trajectories and divergence reports.  It imports no mpmath.

Chaotic iteration loses a roughly constant number of significand bits per
step, so everything downstream states its working precision explicitly.
This module owns that contract: a policy type, the budget rule that turns a
step count into a bit width, the parameters of both maps, the trajectory
type, and the report of per-step errors between two trajectories.  A
trajectory holds a series as two columns, its indices and its values, each a
tuple or a column kept as it is: a ``range`` of indices, ``bytes`` of bits,
or an ``array('d')`` of doubles, which holds a sample in 8 bytes where a
tuple of floats takes about 32.  So its checks and its readers run C-level
loops over whole columns rather than a Python loop per sample.

As it loads no mpmath, neither do the double-precision paths (the ODE and
the coupled map): an mpf sample is read through its raw ``_mpf_`` value, and
the libmp kernels live in ``map_standard``, their one caller.  All functions
are pure; values are immutable.
"""

import math
import operator
import weakref
from array import array
from itertools import islice

from .errors import DomainError, check_steps

METHOD_ITERATED = "iterated"
METHOD_ORACLE = "oracle"
METHOD_CLOSED_FORM = "closed-form"
METHOD_ODE_CLOSED_FORM = "ode-closed-form"

# libmp's raw +inf, -inf and nan (finf, fninf and fnan), written out so that
# reading an mpf sample loads no mpmath
_NON_FINITE = ((0, 0, -456, -2), (1, 0, -789, -3), (0, 0, -123, -1))


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


class MapParams(_Record):
    """Map parameter r and seed x0, shared by iteration and closed forms."""

    __match_args__ = ("r", "x0")

    def __init__(self, r: float, x0: float):
        if not math.isfinite(r):
            raise DomainError("map parameter r must be finite")
        if not math.isfinite(x0):
            raise DomainError("seed x0 must be finite")
        fields = self.__dict__
        fields["r"] = r
        fields["x0"] = x0


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


def _chunks(items, size: int = 4096):
    """Lists of the next ``size`` items of the iterator ``items``, the last
    holding the rest: ``array.fromlist`` converts a list at about half the
    cost per item of the array constructor reading an iterator."""
    return iter(lambda: list(islice(items, size)), [])


def _pack(floats) -> array:
    """array('d') of the iterable ``floats``, with no list of them all."""
    column = array("d")
    for part in _chunks(floats):
        column.fromlist(part)
    return column


def _is_finite(v) -> bool:
    """Whether a sample value is finite, as ``mp.isfinite`` judges a number:
    a float by ``math.isfinite``, an mpf (or mpc) by its raw value (or pair),
    a rational always, a Decimal by its ``is_finite``, any other number by its
    ``complex()``.  A value that is no number raises."""
    if isinstance(v, float):
        return math.isfinite(v)
    if hasattr(v, "_mpf_"):
        return v._mpf_ not in _NON_FINITE
    if hasattr(v, "denominator"):  # an int or any other rational, a Fraction of any size
        return True
    if hasattr(v, "_mpc_"):
        return all(part not in _NON_FINITE for part in v._mpc_)
    if type(v).__module__ == "decimal":
        return v.is_finite()
    z = complex(v)
    return math.isfinite(z.real) and math.isfinite(z.imag)


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
