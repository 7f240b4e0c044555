"""The per-step loops run on raw libmp values; they must equal, bit for bit,
the mpf-context loops they replaced.  The reference functions below are those
loops: mpf arithmetic inside ``workprec`` scopes."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    fhalf,
    fone,
    from_float,
    from_man_exp,
    mpf_abs,
    mpf_ge,
    mpf_gt,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    from_int,
    round_nearest,
)
from mpmath.libmp.libelefun import cos_sin_basecase, mod_pi2

from logistic_exact import map_standard
from logistic_exact.errors import EscapeError
from logistic_exact.map_standard import (
    ESCAPE_BOUND,
    ClosedForm,
    _POINT_BITS,
    _SQUARE_MIN_BITS,
    MapParams,
    _cos_bound,
    _cos_fixed,
    _cos_sin,
    _margins,
    _mpfs,
    _orbit,
    _phase,
    _pi,
    _raw_mpf,
    _reduce_raw,
    _turn,
    closed_form,
    closed_form_trajectory,
    compare_trajectories,
    iterate,
    reduce_mod_2pi,
)
from logistic_exact.precision import DOUBLE, PrecisionPolicy, Trajectory, budgeted_policy

# ------------------------------------------------------------ references

_HALF = mpf(0.5)
_NORMAL_MIN = sys.float_info.min  # 2^-1022


def reference_iterate(p, n, policy):
    """Samples 0..n, or the EscapeError the loop raises."""
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
    return samples


def reference_phase(p, variant):
    x0 = mpf(p.x0)
    if variant is ClosedForm.R2_POWER:
        return 1 - 2 * x0
    if variant is ClosedForm.R4_COSINE:
        return mp.acos(1 - 2 * x0)
    if variant is ClosedForm.RM2_DIRECT:
        return mp.acos(x0 - _HALF)
    return mp.pi - 3 * mp.acos(_HALF - x0)


def reference_sample(variant, phase, n, bits):
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


def reference_closed_form(p, n, variant, policy):
    bits = policy.significand_bits
    with workprec(bits):
        phase = reference_phase(p, variant)
        if variant is ClosedForm.R2_POWER:
            for _ in range(n):
                phase = phase * phase
        return reference_sample(variant, phase, n, bits)


def reference_closed_form_trajectory(p, n, variant, policy):
    bits = policy.significand_bits
    samples = []
    with workprec(bits):
        phase = reference_phase(p, variant)
        for k in range(n + 1):
            samples.append((k, reference_sample(variant, phase, k, bits)))
            if variant is ClosedForm.R2_POWER:
                phase = phase * phase
    return samples


def reference_errors(a, b):
    """Each |a_k - b_k| formed at the comparison's width, then rounded once to
    a double: below 2^-1022 by ``Fraction``, as ``float()`` of an mpf would
    round it to 53 bits first and then again to the subnormal grid; elsewhere
    by ``float()``, which reads inf past the doubles."""
    bits = max(a.precision.significand_bits, b.precision.significand_bits) + 10
    errors = []
    with workprec(bits):
        for va, vb in zip(a.values, b.values):
            xa = va if isinstance(va, mpf) else mpf(va)
            xb = vb if isinstance(vb, mpf) else mpf(vb)
            d = abs(xa - xb)
            if d < _NORMAL_MIN:
                m, e = d.man_exp
                d = Fraction(m) * Fraction(2) ** e if m else 0
            errors.append(float(d))
    return errors


def raw(samples):
    """Exact values: an mpf as it is, a float or int converted exactly (an mpf
    passed to ``mpf`` would be rounded to the context's 53 bits)."""
    return [(k, v._mpf_ if isinstance(v, mpf) else mpf(v)._mpf_) for k, v in samples]


POLICIES = [DOUBLE, budgeted_policy(120)]
# and, for the closed forms, widths on both sides of the cosine's cutoffs:
# mod_pi2 returns bits + 30 for an angle of at least 1, so cos_sin_basecase
# leaves its cache for exponential_series from about 371 bits on, and past
# EXP_SERIES_U_CUTOFF that series takes more than two sums
FORM_POLICIES = POLICIES + [PrecisionPolicy(b) for b in (364, 371, 391, 464, 1536)]

# ------------------------------------------------------------- iterate

rates = st.one_of(st.floats(-4.0, 6.0), st.integers(-4, 6))
seeds = st.one_of(st.floats(-1.0, 2.0), st.integers(-2, 3))


class TestIterateKernel:
    @settings(max_examples=150, deadline=None)
    @given(rates, seeds, st.integers(0, 200), st.sampled_from(POLICIES))
    def test_equals_mpf_loop(self, r, x0, n, policy):
        p = MapParams(r, x0)
        try:
            want = reference_iterate(p, n, policy)
        except EscapeError as err:
            with pytest.raises(EscapeError) as got:
                iterate(p, n, policy)
            assert got.value.index == err.index
            assert str(got.value) == str(err)
            return
        got = iterate(p, n, policy)
        assert raw(zip(got.indices, got.values)) == raw(want)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("r,x0", [(5.0, 5.0), (4.5, 0.5), (-3.0, -0.2)])
    def test_escape_index(self, r, x0, policy):
        p = MapParams(r, x0)
        with pytest.raises(EscapeError) as want:
            reference_iterate(p, 500, policy)
        with pytest.raises(EscapeError) as got:
            iterate(p, 500, policy)
        assert got.value.index == want.value.index is not None


# --------------------------------------------------------- orbit kernel

@st.composite
def significand_pairs(draw):
    """(signed significand, exponent) with up to 1,200 trailing zero bits."""
    return (draw(st.integers(-(1 << 200), 1 << 200)) << draw(st.integers(0, 1200)),
            draw(st.integers(-3000, 3000)))


@given(st.lists(significand_pairs(), max_size=6))
@example([(0, 7), (-(1 << 700), -3), ((1 << 513) - 3 << 500, -1013), (-1, 0)])
def test_pairs_normalize_as_from_man_exp(pairs):
    assert [v._mpf_ for v in _mpfs(pairs)] == [from_man_exp(m, e) for m, e in pairs]


def step(r, x, bits):
    """One map step r*x*(1 - x) on raw values, each libmp operation rounded to
    nearest at ``bits``: the calls mpf arithmetic makes under ``workprec``."""
    rnd = round_nearest
    return mpf_mul(mpf_mul(r, x, bits, rnd), mpf_sub(fone, x, bits, rnd), bits, rnd)


_NEAR = from_man_exp(1, -8)  # 2^-8


def squared_step(r, x, bits):
    """r*(1/4 - y^2) with y = x - 1/2 on raw values: y and 1/4 - y^2 exact,
    y^2 and the product rounded to nearest at ``bits``."""
    y = mpf_sub(x, fhalf)
    s = mpf_mul(y, y, bits, round_nearest)
    return mpf_mul(r, mpf_sub(mpf_shift(fone, -2), s), bits, round_nearest)


def step_chain(r, x, widths, bits):
    """The raw samples after the raw sample x of an orbit ``bits`` wide, one
    ``step`` per width, or the (index, message) of the EscapeError past 1e100:
    the loop the integer kernel ``_orbit`` replaced.  A step of width w in
    [_SQUARE_MIN_BITS, ``bits``) at an x in [2^-8, 1 - 2^-8] is a
    ``squared_step``."""
    samples = []
    for k, w in enumerate(widths, 1):
        if (_SQUARE_MIN_BITS <= w < bits and mpf_ge(x, _NEAR)
                and mpf_ge(mpf_sub(fone, x), _NEAR)):
            x = squared_step(r, x, w)
        else:
            x = step(r, x, w)
        if mpf_gt(mpf_abs(x), from_float(ESCAPE_BOUND)):
            return k, f"orbit escaped past {ESCAPE_BOUND:g} at step {k}"
        samples.append(x)
    return samples


def kernel_chain(r, x, widths, bits):
    """``_orbit``'s samples as normalized raw values, or its EscapeError's
    (index, message)."""
    try:
        return [from_man_exp(m, e) for m, e in _orbit(r, x, 0, widths, bits)]
    except EscapeError as err:
        return err.index, str(err)


def check_kernel(r, x0, bits, n, taper_to, orbit_bits=None):
    """The kernel equals the chain of ``step`` calls at ``bits`` (fixed) or
    tapered from ``bits`` to ``taper_to``, as a reference takes them, on an
    orbit ``orbit_bits`` wide (``bits`` unless given), so with squared steps
    below that width."""
    if taper_to is None:
        widths = [bits] * n
    else:
        widths = [min(bits, max(bits + 64 - k, taper_to)) for k in range(1, n + 1)]
    r, x = _raw_mpf(r, bits), _raw_mpf(x0, bits)
    orbit_bits = bits if orbit_bits is None else orbit_bits
    assert (kernel_chain(r, x, widths, orbit_bits)
            == step_chain(r, x, widths, orbit_bits))


# both signs of r, chaotic, decaying and escaping orbits
kernel_rates = st.one_of(st.sampled_from([4.0, -2.0, 3.9, 0.5, 1.73, -1.5, -3.0, -7.25]),
                         st.floats(-8.0, 8.0))
# 0, subnormals, tiny seeds, the ends of both invariant intervals, seeds of
# integer exponent (|x| >= 1), and the rest of [-1/2, 3/2]
kernel_seeds = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1060, 1e-300, -1e-300, 1.0, -0.5, 1.5, 0.5, 2.0, -1.0]),
    st.floats(-1e-290, 1e-290), st.floats(-0.5, 1.5))


class TestOrbitKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_rates, kernel_seeds, st.integers(53, 400), st.integers(0, 150),
           st.one_of(st.none(), st.integers(2, 200)))
    def test_equals_step_chain(self, r, x0, bits, n, taper_to):
        check_kernel(r, x0, bits, n, taper_to)

    @pytest.mark.parametrize("r,x0,bits,n,taper_to", [
        (4.0, 0.3, 224, 63, None),  # a block of the phase reference
        (3.9, 0.3, 1564, 1500, 181),  # a tapered reference
        (-2.0, 0.9, 124, 60, None),  # figure 2's oracle
        (0.5, 1e-300, 120, 200, None),  # 1 - x rounds to 1 from the first step
        (0.5, 0.3, 1164, 1100, 181),  # down to 2^-1100, below the doubles
        (4.0, 1.0, 120, 10, None),  # x1 = 0: zeros from there on
        (4.0, 0.5, 120, 10, None),  # x1 = 1, then zeros
        (1.0, 2.0, 120, 10, None),  # an integer at every step until the escape
        (-2.0, 1.5, 120, 10, None),  # the fixed point 3/2
        (1.73, 2.0, 120, 20, None),  # an integer seed, then below -1
        (-7.25, 0.9, 200, 50, None),  # escapes past 1e100
        (5.0, 5.0, 53, 50, None),
        (1.0, -1.2e50, 120, 5, None),  # x1 = -1.44e100, below 2^333
        (1.0, -0.9e50, 120, 5, None),  # x1 = -8.1e99 stays, x2 escapes
    ])
    def test_fixed_cases(self, r, x0, bits, n, taper_to):
        check_kernel(r, x0, bits, n, taper_to)

    @settings(max_examples=60, deadline=None)
    @given(kernel_rates, kernel_seeds, st.integers(1000, 1100), st.integers(0, 250),
           st.integers(900, 1000))
    def test_squared_steps_equal_step_chain(self, r, x0, bits, n, taper_to):
        # the tapered reference's steps: full width for 64 steps, then squared
        # from just below it down to 1,000 bits, then three roundings again
        check_kernel(r, x0, bits, n, taper_to)

    @pytest.mark.parametrize("r,x0,bits,n,taper_to,orbit_bits", [
        (3.9, 0.3, 1064, 250, 181, 1064),  # chaotic, squared at most tapered steps
        (0.5, 0.3, 1064, 250, 181, 1064),  # decays below 2^-8, out of the squared steps
        (4.0, 0.5, 1000, 10, None, 1001),  # x1 = 1, then zeros: 1 - x is below 2^-8
        (0.5, 0.3, 1000, 12, None, 1001),  # squared down to x5 = 0.0054, then x6 = 0.0027
        (3.9, 0.995, 1000, 3, None, 1001),  # 1 - x0 = 0.005, just above 2^-8: squared
        (3.9, 0.997, 1000, 3, None, 1001),  # 1 - x0 = 0.003, just below 2^-8: not squared
        (-2.0, 0.9, 1064, 250, 181, 1064),  # x leaves [0, 1] and comes back
        (2.5, 0.3, 1064, 250, 181, 1064),  # the fixed point 0.6
        (1e120, 0.3, 1000, 5, None, 1001),  # the first step, squared, escapes
        # a seed of 18 bits, whose squares grow exactly (34, 175 and 451 bits)
        # until the fourth has 1,016: w bits, kept as it is, or w + 1, cut by one
        (3.9, 0.3000049591064453, 1016, 5, None, 1017),
        (3.9, 0.3000049591064453, 1015, 5, None, 1016),
    ])
    def test_squared_fixed_cases(self, r, x0, bits, n, taper_to, orbit_bits):
        check_kernel(r, x0, bits, n, taper_to, orbit_bits)

    def test_escape_index_and_message(self):
        r, x = _raw_mpf(-7.25, 200), _raw_mpf(0.9, 200)
        got = kernel_chain(r, x, [200] * 50, 200)
        assert got == step_chain(r, x, [200] * 50, 200)
        assert got == (8, "orbit escaped past 1e+100 at step 8")


def double_recurrence(r, x0, n):
    xs = [float(x0)]
    for _ in range(n):
        xs.append(r * xs[-1] * (1.0 - xs[-1]))
    return xs


class TestDoublePath:
    """53-bit iteration runs on floats while every product and result is a
    normal double no larger than 1e100, and on libmp from the first step where
    one is not; either way it equals the mpf loop bit for bit."""

    @pytest.mark.parametrize("r,x0,n,first_mpf", [
        (0.5, 0.3, 1100, 1020),  # decays: r*x is subnormal from step 1020
        (4.0, 1.0, 5, 1),  # 1 - x is 0, so x1 is 0
        (0.0, 0.3, 5, 1),  # r*x is 0
        (3.9, -0.0, 5, 1),  # a signed zero seed, taken as 0
        (1e-300, 0.3, 5, 2),  # r*x1 is subnormal
        (4, 1, 5, 1),  # integer r and x0
        (-1, 2, 50, None),  # integer r and x0 on the fixed point 2
        (2**53 + 1, 2.0**-60, 3, None),  # an integer r rounded to 53 bits
    ], ids=["subnormal-decay", "zero-r4", "zero-r0", "signed-zero", "subnormal-product",
            "int-zero", "int-fixed-point", "int-rounded"])
    def test_exits_and_equals_mpf_loop(self, r, x0, n, first_mpf):
        p = MapParams(r, x0)
        traj = iterate(p, n)
        got = list(zip(traj.indices, traj.values))
        assert raw(got) == raw(reference_iterate(p, n, DOUBLE))
        kinds = [isinstance(v, float) for _, v in got]
        first = first_mpf if first_mpf is not None else n + 1
        assert kinds == [True] * first + [False] * (n + 1 - first)
        # the float samples are the float recurrence itself
        assert [v for _, v in got[:first]] == double_recurrence(float(r), x0, first - 1)

    @pytest.mark.parametrize("r,x0,index", [
        (5.0, 5.0, 7),  # a normal double past 1e100
        (1e300, 1e10, 1),  # r*x overflows
        (3, 2, 8),  # integer r and x0
    ])
    def test_escape(self, r, x0, index):
        p = MapParams(r, x0)
        with pytest.raises(EscapeError) as want:
            reference_iterate(p, 50, DOUBLE)
        with pytest.raises(EscapeError) as got:
            iterate(p, 50)
        assert got.value.index == want.value.index == index
        assert str(got.value) == str(want.value) == (
            f"orbit escaped past 1e+100 at step {index}")


# -------------------------------------------------------- closed forms

_DOMAINS = {
    ClosedForm.R2_POWER: (-2.0, 3.0),
    ClosedForm.R4_COSINE: (0.0, 1.0),
    ClosedForm.RM2_COMPOSED: (-0.5, 1.5),
    ClosedForm.RM2_DIRECT: (-0.5, 1.5),
}


# map3's wide runs: 1,000 steps at 1,064 bits, where table1's angle is formed
# on Python ints and the cosine is exponential_series' own steps
_WIDE = PrecisionPolicy(1064)
_WIDE_SEEDS = {
    ClosedForm.R4_COSINE: (0.3,),
    ClosedForm.RM2_COMPOSED: (0.9,),
    ClosedForm.RM2_DIRECT: (0.9,),
}


@st.composite
def closed_form_cases(draw):
    variant = draw(st.sampled_from(list(ClosedForm)))
    x0 = draw(st.floats(*_DOMAINS[variant]))
    return MapParams(variant.required_r, x0), variant


# Seeds of the cosine forms at the ends of their intervals, next to them, and
# at rational phases, where the angle is a multiple of pi/2 or 0 (x0 = 1.5
# gives simple the phase 0); 2^-60 gives r4 an angle below 2*pi's ulp at
# the reduction's width
_COSINE_SEEDS = {
    ClosedForm.R4_COSINE: (0.0, 0.25, 0.5, 0.75, 1.0, 2.0**-60, 5e-324, 1 - 2.0**-53),
    ClosedForm.RM2_COMPOSED: (-0.5, 0.0, 0.5, 1.0, 1.5, -0.5 + 2.0**-54, 1.5 - 2.0**-52),
    ClosedForm.RM2_DIRECT: (-0.5, 0.0, 0.5, 1.0, 1.5, -0.5 + 2.0**-54, 1.5 - 2.0**-52),
}


@st.composite
def reduced_angles(draw):
    """(bits, m, e): a reduced angle m * 2^e below 8 with a significand of
    ``bits`` bits, at widths where the pipeline's cosine takes each branch."""
    bits = draw(st.integers(53, 370) | st.integers(371, 1460) | st.integers(1470, 1700))
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return bits, m, draw(st.integers(-bits - 40, 3 - bits))


@st.composite
def cosine_form_cases(draw):
    variant = draw(st.sampled_from(sorted(_COSINE_SEEDS)))
    x0 = draw(st.floats(*_DOMAINS[variant]) | st.sampled_from(_COSINE_SEEDS[variant]))
    return MapParams(variant.required_r, x0), variant


class TruncatingInt(int):
    """An int whose arithmetic keeps its type, as gmpy2's mpz keeps its own,
    and whose float() truncates, as mpz's need not round to nearest."""

    def __float__(self):
        n = int(self)
        cut = abs(n).bit_length() - 53
        return float(n if cut <= 0 else (abs(n) >> cut << cut) * (1 if n > 0 else -1))


def _keeps_type(name):
    def op(self, *args):
        out = getattr(int, name)(self, *args)
        return TruncatingInt(out) if type(out) is int else out
    return op


for _name in ("add", "sub", "mul", "floordiv", "mod", "lshift", "rshift", "and", "or"):
    for _side in ("", "r"):
        setattr(TruncatingInt, f"__{_side}{_name}__", _keeps_type(f"__{_side}{_name}__"))
for _name in ("__neg__", "__pos__", "__abs__"):
    setattr(TruncatingInt, _name, _keeps_type(_name))


def counted_cos_fixed(monkeypatch) -> list:
    """The argument tuples of every ``_cos_fixed`` call the sample loop makes
    from now on: one per sample that takes the pipeline's cosine."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _cos_fixed(*args)

    monkeypatch.setattr(map_standard, "_cos_fixed", counting)
    return calls


class TestClosedFormKernel:
    @settings(max_examples=120, deadline=None)
    @given(closed_form_cases(), st.integers(0, 150), st.sampled_from(FORM_POLICIES))
    @example((MapParams(4.0, 0.5 + 2.0**-31), ClosedForm.R4_COSINE), 2, PrecisionPolicy(120))
    def test_trajectory_equals_mpf_loop(self, case, n, policy):
        # r4 from 1/2 + 2^-31 at 120 bits: the cosine at step 0, near -2^-30,
        # has a significand of exactly 120 bits, which the tail keeps as it is
        p, variant = case
        got = closed_form_trajectory(p, n, variant, policy)
        assert raw(zip(got.indices, got.values)) == raw(
            reference_closed_form_trajectory(p, n, variant, policy))

    @settings(max_examples=120, deadline=None)
    @given(closed_form_cases(), st.integers(0, 150), st.sampled_from(POLICIES))
    @example((MapParams(-2.0, -0.5), ClosedForm.RM2_DIRECT), 3, DOUBLE)
    @example((MapParams(-2.0, -0.5), ClosedForm.RM2_DIRECT), 3, PrecisionPolicy(55))
    @example((MapParams(4.0, 1.0), ClosedForm.R4_COSINE), 3, PrecisionPolicy(55))
    @example((MapParams(-2.0, -0.5), ClosedForm.RM2_COMPOSED), 3, PrecisionPolicy(55))
    @example((MapParams(-2.0, 0.9), ClosedForm.RM2_COMPOSED), 1100, DOUBLE)
    def test_single_step_equals_mpf_expression(self, case, n, policy):
        # closed_form runs step n of the sample loop alone: the edge cases of
        # test_double_samples_equal_the_libmp_pipeline at their last step
        p, variant = case
        got = closed_form(p, n, variant, policy)
        assert got._mpf_ == reference_closed_form(p, n, variant, policy)._mpf_

    @settings(max_examples=60, deadline=None)
    @given(cosine_form_cases(), st.integers(0, 150) | st.integers(1000, 1300),
           st.sampled_from(FORM_POLICIES + [PrecisionPolicy(55)]))
    @example((MapParams(-2.0, -0.5), ClosedForm.RM2_DIRECT), 3, DOUBLE)
    @example((MapParams(-2.0, -0.5), ClosedForm.RM2_DIRECT), 3, PrecisionPolicy(55))
    @example((MapParams(4.0, 1.0), ClosedForm.R4_COSINE), 3, PrecisionPolicy(55))
    @example((MapParams(-2.0, -0.5), ClosedForm.RM2_COMPOSED), 3, PrecisionPolicy(55))
    @example((MapParams(-2.0, 0.9), ClosedForm.RM2_COMPOSED), 1100, DOUBLE)
    # each forcing one fallback of the recurrence (test_each_fallback_is_taken)
    @example((MapParams(4.0, 0.049), ClosedForm.R4_COSINE), 30, DOUBLE)
    @example((MapParams(4.0, 0.103), ClosedForm.R4_COSINE), 30, PrecisionPolicy(120))
    @example((MapParams(-2.0, 0.5), ClosedForm.RM2_DIRECT), 1, PrecisionPolicy(120))
    @example((MapParams(-2.0, 0.9), ClosedForm.RM2_COMPOSED), 60, DOUBLE)
    def test_double_samples_equal_the_libmp_pipeline(self, case, n, policy):
        # the sample loop against the mpf expression of each sample, whose
        # cosine is mp.cos of reduce_mod_2pi, at every width.  simple from x0 =
        # -0.5 and r4 from x0 = 1 have the angle 2*pi at 53 and 55 bits at
        # step 1, at 55 bits a remainder that rounding carries up to 2*pi,
        # which reduce_mod_2pi takes to 0 and the loop keeps;
        # table1 from x0 = -0.5 has pi - phase = 0 at step 0; past step 1,020
        # table1's angle leaves the doubles and takes the integer route
        p, variant = case
        got = closed_form_trajectory(p, n, variant, policy).values
        expected = [reference_closed_form(p, k, variant, policy) for k in range(n + 1)]
        if policy == DOUBLE:
            assert set(map(type, got)) == {float}
            assert tuple(got) == tuple(map(float, expected))
        else:
            assert [v._mpf_ for v in got] == [v._mpf_ for v in expected]

    @pytest.mark.parametrize("policy", FORM_POLICIES + [_WIDE])
    @pytest.mark.parametrize("variant", list(ClosedForm))
    def test_every_form_over_a_long_run(self, variant, policy):
        lo, hi = _DOMAINS[variant]
        n, seeds = 250, (lo, 0.3 * lo + 0.7 * hi, hi)
        if policy is _WIDE and variant in _WIDE_SEEDS:
            n, seeds = 1000, _WIDE_SEEDS[variant]
        for x0 in seeds:
            p = MapParams(variant.required_r, x0)
            got = closed_form_trajectory(p, n, variant, policy)
            assert raw(zip(got.indices, got.values)) == raw(
                reference_closed_form_trajectory(p, n, variant, policy))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([400, 401, 1499, 1500]) | st.integers(300, 1600),
           st.integers(0, 3), st.integers(0, 3 << 60), st.integers(0, 1700))
    # from 1,500 bits exponential_series takes more than two sums: here the
    # last bit of the sine differs from the two-sum series'; and three angles
    # whose last bit moves with the series' working precision, its doublings
    # or one unit in its sums
    @example(1500, 1, 181773452374385846, 0)
    @example(1200, 1, 3350422541302527, 0)
    @example(1499, 3, 13258336042896123, 0)
    @example(1200, 3, 2039813430346650472, 8)
    def test_cosine_significand_equals_cos_sin_basecase(self, w, q, top, shift):
        # every bit of the fixed-point cosine, of which the samples keep only
        # the top ``bits`` after rounding: the angle t * 2^-w in [0, pi/2),
        # t the 62 bits of ``top`` followed by zeros or moved down by ``shift``
        t = (top << w >> 61) >> shift
        c, sn = cos_sin_basecase(t, w)
        assert _cos_fixed(t, q, w) == (c, -sn, -c, sn)[q]

    @settings(max_examples=150, deadline=None)
    @given(reduced_angles())
    @example((53, (1 << 52) + 1, -50))
    @example((370, (1 << 370) - 1, -367))
    @example((1500, (1 << 1499) + 3, -1500))
    def test_pipeline_cosine_is_within_its_bound(self, angle):
        # mod_pi2 and _cos_fixed at bits + 10, as the sample loop calls them,
        # against the cosine at 2w + 64 bits: on the cache path (up to about
        # 370 bits, so w <= 400), the two-sum series and, from w = 1,500, the
        # u-sum; the seed of the recurrence, at bits + 94, likewise
        bits, m, e = angle
        mag = m.bit_length() + e
        t, q, w = mod_pi2(m, e, mag, bits + 10)
        c = _cos_fixed(t, q, w)
        point = bits + _POINT_BITS
        C, S, bound = _cos_sin(m, e, mag, point)
        with workprec(2 * max(w, point + 40) + 64):
            x = exact_mpf(m, e)
            assert abs(exact_mpf(c, -w) - mp.cos(x)) <= exact_mpf(_cos_bound(w, sine=mag > 0), -w)
            assert abs(mp.mpc(exact_mpf(C, -point), exact_mpf(S, -point))
                       - mp.expj(x)) <= exact_mpf(bound, -point)

    def test_bounds_are_the_proven_formulas(self):
        # the pipeline's bound on each branch, and the recurrence's margins at
        # 53, 120 and 1,564 bits, as the docstrings of _cos_bound and _margins
        # derive them
        # (at 1,503 bits 3w + 11 is a multiple of 8; at 2,632 and 2,634 bits
        # the series' e0 + 1 is 1,023 and 1,024)
        assert [(_cos_bound(w), _cos_bound(w, sine=False))
                for w in (63, 83, 400, 401, 1499, 1500, 1503, 2000, 2632, 2634)] == [
            (24, 24), (26, 26), (72, 72), (39, 5), (2962, 5), (3041, 5), (3066, 5),
            (11406, 5), (46424, 5), (46627, 6)]
        assert _margins(53) == (1 << 78, 1 << 122, 26 << 64, 24 << 84)
        assert _margins(120) == (1 << 78, 1 << 166, 36 << 64, 33 << 84)
        assert _margins(1564) == (1 << 78, 1 << 1129, _cos_bound(1594) << 64, 5 << 84)
        assert _cos_sin(3 << 51, -51, 2, 53 + _POINT_BITS)[2] == 4  # 2 * (40 >> 30 + 2)

    @pytest.mark.parametrize("size,tail", [(98, 1), (99, 2), (100, 16)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_turn_is_its_floors_and_bound(self, size, tail, sign):
        # at 147 bits a turn with |d| + 10 of size bits has a Taylor term
        # 2^(3*size - 296) units, or 1 where that is below 1; |d| + 10 is a
        # power of 2 here; table1 turns by -d
        point = 53 + _POINT_BITS
        C, S, _ = _cos_sin(3 << 51, -51, 2, point)
        d, err = sign * ((1 << (size - 1)) - 10), 1 << 40
        x, y = ((C - S) * (C + S)) >> point, (2 * C * S) >> point
        h = (d * d) >> (point + 1)
        assert _turn(C, S, err, d, point) == (
            x - ((x * h + y * d) >> point), y + ((x * d - y * h) >> point),
            2 * err + 256 + 15 + tail)

    def test_cos_bound_scaled_never_grows(self):
        # the loop bounds the pipeline at wc and wc + 20 bits for every wider w
        for sine in (True, False):
            bounds = [_cos_bound(w, sine) for w in range(60, 6000)]
            assert all(b1 <= 2 * b0 for b0, b1 in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("variant,x0,policy", [
        (ClosedForm.R4_COSINE, 0.3, DOUBLE),
        (ClosedForm.RM2_DIRECT, 0.9, DOUBLE),
        (ClosedForm.RM2_DIRECT, 0.9, PrecisionPolicy(364)),
        (ClosedForm.RM2_COMPOSED, 0.9, DOUBLE),
        (ClosedForm.RM2_COMPOSED, 0.9, PrecisionPolicy(364)),
    ])
    def test_recurrence_stays_within_its_bound(self, variant, x0, policy, monkeypatch):
        # every (C, S) of every block, seeded or turned, within its running
        # bound err of exp(i*rho) for the sample's own reduced angle rho;
        # table1's turn by pi - 2*R returns the pair before its sign change
        events = []

        def record(kind, real):
            def call(*args):
                out = real(*args)
                events.append((kind, args, out))
                return out
            return call

        monkeypatch.setattr(map_standard, "_cos_sin", record("seed", _cos_sin))
        monkeypatch.setattr(map_standard, "_turn", record("turn", map_standard._turn))
        p, n, bits = MapParams(variant.required_r, x0), 250, policy.significand_bits
        closed_form_trajectory(p, n, variant, policy)
        phase, rnd = _phase(p, variant, bits), round_nearest
        angles = []
        for k in range(n + 1):
            angle = mpf_shift(phase, k)
            if variant is ClosedForm.RM2_COMPOSED:
                angle = mpf_div(mpf_sub(_pi(bits), angle if k % 2 == 0 else mpf_neg(angle),
                                        bits, rnd), from_int(3), bits, rnd)
            angles.append(_reduce_raw(angle, bits))
        point, k, half = bits + _POINT_BITS, 0, variant is ClosedForm.RM2_COMPOSED
        for kind, args, (C, S, err) in events:
            if kind == "turn":
                k += 1
                C = -C if half else C
            else:  # at the last turn's sample, or past table1's wait a later one
                j = next(j for j in range(k, n + 1) if angles[j] == from_man_exp(*args[:2]))
                k, half = j, half and j <= k + 1
            with workprec(2 * point + 64):
                z = mp.mpc(exact_mpf(C, -point), exact_mpf(S, -point))
                assert abs(z - mp.expj(mp.make_mpf(angles[k]))) <= \
                    exact_mpf(err, -point), (kind, k)
        # a whole block from one seed to the next.  table1 leaves pi - 2*R
        # near step bits - 23, and at 53 bits takes -2*R from near step 55 on
        seeds = sum(kind == "seed" for kind, _, _ in events)
        assert seeds >= 2
        if variant is ClosedForm.RM2_COMPOSED and policy != DOUBLE:
            assert half and 40 <= k < n
        else:
            assert not half and k == n

    @pytest.mark.parametrize("variant,x0,n,policy,fallbacks", [
        # C -+ E straddles a rounding boundary at one sample inside the block
        (ClosedForm.R4_COSINE, 0.049, 30, DOUBLE, 1),
        (ClosedForm.R4_COSINE, 0.103, 30, PrecisionPolicy(120), 1),
        # the angle pi/2 rounded: |c| < 2^(bits - w), so the significand would
        # keep all its bits; then pi rounded, whose cosine's ends C -+ E lie in
        # two binades around -1
        (ClosedForm.RM2_DIRECT, 0.5, 1, PrecisionPolicy(120), 2),
        # table1's cut-over: from step 30 its angle's rounding strays too far
        # from pi - 2*R, and from step 55, where the rounding drops the pi,
        # the angle is -2*R plus d and the pair is seeded again
        (ClosedForm.RM2_COMPOSED, 0.9, 60, DOUBLE, 25),
        # none: angles from 2^-148 up, below 2^(bits - F) for 54 steps, whose
        # floor at F bits drops bits of the angle
        (ClosedForm.R4_COSINE, 2.0**-300, 80, PrecisionPolicy(400), 0),
    ], ids=["straddle", "straddle-mpf", "all-bits-kept", "table1-cut-over", "tiny-angles"])
    def test_samples_that_take_the_pipeline(self, variant, x0, n, policy, fallbacks,
                                            monkeypatch):
        calls = counted_cos_fixed(monkeypatch)
        p = MapParams(variant.required_r, x0)
        got = closed_form_trajectory(p, n, variant, policy)
        assert len(calls) == fallbacks
        assert raw(zip(got.indices, got.values)) == raw(
            reference_closed_form_trajectory(p, n, variant, policy))
        # closed_form's one sample seeds nothing and takes the pipeline
        calls.clear()
        monkeypatch.setattr(map_standard, "_cos_sin", None)
        assert closed_form(p, n, variant, policy)._mpf_ == raw([(n, got.values[-1])])[0][1]
        assert len(calls) == 1

    @pytest.mark.parametrize("variant,x0,policy", [
        (ClosedForm.R4_COSINE, 0.3, DOUBLE),
        (ClosedForm.RM2_DIRECT, 0.9, PrecisionPolicy(120)),
    ])
    def test_samples_hold_under_looser_bounds(self, variant, x0, policy, monkeypatch):
        # Ziv's test must hold for any C within its bound err and any
        # pipeline within its bound of the cosine, however loose.  Every seed
        # here moves C up by D = 2^90 units of 2^-F, a sixteenth of the
        # rounding step of a cosine in [1/2, 1), with err and the pipeline's
        # bounds widened by D: err then passes limit at once, so every sample
        # but the last is a seed, whose interval C -+ E holds the pipeline's
        # cosine only if E is err plus the pipeline's bound.  With the true
        # bounds, an E short of that sum shows only where a boundary lies
        # within 2 * far units of C, at most 2^-24 of a rounding step at
        # the width, and only then if the pipeline's own error reaches past
        # it: too rarely for a real run to find
        D = 1 << 90
        margins = map_standard._margins
        monkeypatch.setattr(map_standard, "_margins", lambda bits: tuple(
            v + D * (i >= 2) for i, v in enumerate(margins(bits))))
        monkeypatch.setattr(map_standard, "_cos_sin", lambda *args: tuple(
            v + D * (i != 1) for i, v in enumerate(_cos_sin(*args))))
        calls = counted_cos_fixed(monkeypatch)
        p, n = MapParams(variant.required_r, x0), 250
        got = closed_form_trajectory(p, n, variant, policy)
        assert raw(zip(got.indices, got.values)) == raw(
            reference_closed_form_trajectory(p, n, variant, policy))
        assert 20 <= len(calls) <= n - 20  # both arms of the test, many times

    def test_most_samples_take_the_recurrence(self, monkeypatch):
        # a bound that silently disables the fast path fails here: a 250-step
        # r4 run at 53 bits takes mod_pi2 and _cos_fixed for under 10% of its
        # samples (2 of 251 now)
        calls = counted_cos_fixed(monkeypatch)
        closed_form_trajectory(MapParams(4.0, 0.3), 250, ClosedForm.R4_COSINE, DOUBLE)
        assert len(calls) <= 25

    @pytest.mark.parametrize("variant,x0", [
        (ClosedForm.R4_COSINE, 0.569), (ClosedForm.RM2_DIRECT, 0.873)])
    def test_samples_do_not_depend_on_the_int_type(self, variant, x0, monkeypatch):
        # with gmpy2, libmp's fixed-point values are mpz, whose float() need
        # not round to nearest: the 53-bit Ziv test must decide as the tail
        # rounds, whichever int type the recurrence runs on.  Comparing the
        # ends' float() as they are, r4 from 0.569 rounds its sample at step
        # 20 to the other neighbour of the pipeline's, and simple from 0.873
        # at step 239
        p = MapParams(variant.required_r, x0)
        want = closed_form_trajectory(p, 250, variant, DOUBLE).values
        def as_mpz(real):
            def call(*args):
                out = real(*args)
                if type(out) is int:
                    return TruncatingInt(out)
                return tuple(TruncatingInt(v) if type(v) is int else v for v in out)
            return call

        for name in ("pi_fixed", "cos_sin_basecase", "mod_pi2"):
            monkeypatch.setattr(map_standard, name, as_mpz(getattr(map_standard, name)))
        assert closed_form_trajectory(p, 250, variant, DOUBLE).values == want

    def test_one_runs_moduli_stay_cached(self):
        # a second run of 1,500 steps finds every 2*pi of the reduction in the
        # cache that the first filled, which stays bounded across runs
        p = MapParams(-2.0, 0.9)
        closed_form_trajectory(p, 1500, ClosedForm.RM2_DIRECT, DOUBLE)
        before = _pi.cache_info()
        closed_form_trajectory(p, 1500, ClosedForm.RM2_COMPOSED, DOUBLE)
        closed_form_trajectory(p, 1500, ClosedForm.RM2_DIRECT, DOUBLE)
        after = _pi.cache_info()
        assert after.hits - before.hits >= 1501 and after.misses - before.misses <= 10
        assert after.maxsize is not None


# ------------------------------------------------------------- compare

@st.composite
def sample_pairs(draw):
    """One step of two trajectories: a float, int or mpf on each side."""
    base = draw(st.floats(-1e6, 1e6))
    kind = draw(st.sampled_from(["float", "int", "big", "mpf"]))
    other = "big" if kind == "big" else draw(st.sampled_from(["float", "int", "mpf"]))
    delta = draw(st.floats(-1.0, 1.0))

    def make(kind, v, bits):
        if kind == "float":
            return v
        if kind == "int":
            return int(v)
        if kind == "big":
            return 10**400 + int(v * 1e6)
        with workprec(bits):
            return mpf(v) / 3  # more significand bits than a double holds

    bits = draw(st.integers(53, 300))
    return make(kind, base, bits), make(other, base + delta, bits)


def exact_mpf(man, exp):
    """man * 2^exp as an mpf, exactly (``mpf((man, exp))`` rounds to the context)."""
    return mp.make_mpf(from_man_exp(man, exp))


@st.composite
def route_pairs(draw):
    """One step at an edge of the integer route: a zero of either sign, a
    subnormal float, an mpf sample 1,000-9,000 bits wide, exponents far
    apart, a difference near 2^-1074, or one ulp either side of a rounding
    tie at the 55-bit cut."""
    kind = draw(st.sampled_from(["zero", "subnormal", "wide", "gap", "tiny", "tie"]))
    sign = draw(st.sampled_from([1, -1]))
    x = sign * draw(st.floats(0.01, 100.0))
    if kind == "zero":
        a = draw(st.sampled_from([0.0, -0.0, 0, mpf(0)]))
        b = draw(st.sampled_from([x, math.ldexp(sign, -1074), mpf(x) / 3]))
    elif kind == "subnormal":
        a = math.ldexp(sign * draw(st.integers(1, 2**52 - 1)), -1074)
        b = draw(st.one_of(st.just(-a),
                           st.integers(1, 2**53 - 1).map(lambda m: math.ldexp(m, -1074)),
                           st.integers(-2**40, 2**40).map(
                               lambda k: exact_mpf(int(math.ldexp(a, 1100)) + k, -1100))))
    elif kind == "wide":
        w = draw(st.integers(1000, 9000))
        man = draw(st.integers(2**(w - 1), 2**w - 1))
        exp = draw(st.integers(-w - 3, -w + 3))
        a = exact_mpf(sign * man, exp)
        # the float nearest a, or a second wide sample agreeing in its top bits
        keep = draw(st.integers(0, w))
        b = draw(st.sampled_from([float(a), exact_mpf(
            sign * ((man >> keep << keep) | draw(st.integers(0, 2**keep - 1))), exp)]))
    elif kind == "gap":
        a = x
        b = exact_mpf(draw(st.integers(1, 2**200)), draw(st.integers(-12000, -60)))
    elif kind == "tiny":
        a = math.ldexp(sign * draw(st.integers(1, 2**53 - 1)), draw(st.integers(-1100, -1020)))
        delta = draw(st.integers(-2**20, 2**20)) << draw(st.integers(86, 206))
        b = exact_mpf(int(math.ldexp(a, 1200)) + delta, -1200)  # a + delta * 2^-1200
    else:  # a tie at the 55-bit cut, exactly or one ulp either side
        a = x
        h = draw(st.integers(2**52, 2**53 - 1))
        t = draw(st.integers(1, 150))
        d = ((2 * h + 1) << t) + draw(st.sampled_from([-1, 0, 1]))
        low = math.frexp(a)[1] - 53 - draw(st.integers(0, 60))
        b = exact_mpf(int(math.ldexp(a, -low)) + draw(st.sampled_from([1, -1])) * d, low)
    return (a, b) if draw(st.booleans()) else (b, a)


def check_against_mpf_loop(pairs, bits_a, bits_b):
    a = Trajectory("a", range(len(pairs)), [va for va, _ in pairs], PrecisionPolicy(bits_a))
    b = Trajectory("b", range(len(pairs)), [vb for _, vb in pairs], PrecisionPolicy(bits_b))
    got = compare_trajectories(a, b, 0.5).per_step_abs_error
    assert list(got) == reference_errors(a, b)
    return list(got)


class TestCompareKernel:
    # 2^-1022/3 at 54 bits: float() of the 63-bit difference rounds it to 53
    # bits and then again to the subnormal grid, one ulp off the difference
    # rounded once; twice that lies 3/4 of the way from one subnormal to the
    # next, so a truncation reads one ulp low
    @settings(max_examples=150, deadline=None)
    @given(st.lists(sample_pairs(), min_size=1, max_size=12),
           st.integers(53, 300), st.integers(53, 300))
    @example(pairs=[(0.0, exact_mpf(0x2AAAAAAAAAAAAB, -1077))], bits_a=53, bits_b=53)
    @example(pairs=[(0.0, exact_mpf(0x2AAAAAAAAAAAAB, -1076))], bits_a=53, bits_b=53)
    # (2^52 + 5 + 2^-5) * 2^-1075, in the binade below 2^-1022: rounded to 53
    # bits it is a tie of the subnormal grid, and it rounds down to even from
    # there but up when rounded once
    @example(pairs=[(0.0, exact_mpf(((2**52 + 5) << 5) + 1, -1080))], bits_a=53, bits_b=53)
    # a difference of 1,024 bits below 2^1022, which float() of its integer
    # would round past the doubles before the exponent brings it down
    @example(pairs=[(exact_mpf(2**1024 - 1, -2), exact_mpf(1, -1))], bits_a=2000, bits_b=53)
    def test_equals_mpf_loop(self, pairs, bits_a, bits_b):
        check_against_mpf_loop(pairs, bits_a, bits_b)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(route_pairs(), min_size=1, max_size=8),
           st.one_of(st.integers(53, 300), st.integers(1000, 9100)),
           st.integers(53, 300))
    def test_integer_route_edges_equal_mpf_loop(self, pairs, bits_a, bits_b):
        check_against_mpf_loop(pairs, bits_a, bits_b)

    def test_big_ints_are_rounded_as_mpf_rounds_them(self):
        # 10**400 and 10**400 + 1 differ in the last of 1,329 bits; at 63 bits
        # both round to the same value, at 1,400 bits they do not
        for bits, expected in ((53, 0.0), (1390, 1.0)):
            a = Trajectory("a", (0,), (10**400,), PrecisionPolicy(bits))
            b = Trajectory("b", (0,), (10**400 + 1,), PrecisionPolicy(bits))
            got = compare_trajectories(a, b, 0.5).per_step_abs_error
            assert list(got) == reference_errors(a, b) == [expected]

    # 3 + 2^-53 + 2^-70; minus 2.0 that is 1 + 2^-53, a tie at 53 bits, plus 2^-70
    _TIE_PLUS = exact_mpf(3 * 2**70 + 2**17 + 1, -70)

    @pytest.mark.parametrize("va,vb,bits,expected", [
        # a zero on either side
        (0.0, -2.5, 53, 2.5),
        (mpf(0), -0.0, 53, 0.0),
        # exponents 200 apart, more than 63 bits: 1 - 2^-200 rounds to 1
        (1.0, 2.0**-200, 53, 1.0),
        # at 63 bits mpf_sub rounds the 2^-70 away, and the tie left rounds
        # to even; at 210 bits the integer route's sticky bit keeps it
        (_TIE_PLUS, 2.0, 53, 1.0),
        (_TIE_PLUS, 2.0, 200, 1 + 2.0**-52),
        # 1.25 * 2^1023, past 2^1023, where rounding up could overflow
        (1.75 * 2.0**1023, 2.0**1022, 53, 1.25 * 2.0**1023),
        # 2^-1023, and 2.5 * 2^-1074 rounded to even: subnormal, with no fallback
        (1.5 * 2.0**-1022, 2.0**-1022, 53, 2.0**-1023),
        (exact_mpf(3, -1074), exact_mpf(1, -1075), 53, 2.0**-1073),
    ], ids=["zero", "signed-zero", "gap", "wider-than-bits", "sticky", "huge", "subnormal",
            "subnormal-tie"])
    def test_each_branch_equals_mpf_loop(self, va, vb, bits, expected):
        assert check_against_mpf_loop([(va, vb)], bits, bits) == [expected]

    def test_a_difference_past_the_doubles_is_refused(self):
        # far past them, and (2^55 - 2) * 2^969, below 2^1024, which rounds to it
        for va, vb, bits in ((2**1100 + 1, 1, 2000),
                             (exact_mpf(2**55 - 1, 969), exact_mpf(1, 969), 60)):
            a = Trajectory("a", (0,), (va,), PrecisionPolicy(bits))
            b = Trajectory("b", (0,), (vb,), PrecisionPolicy(bits))
            assert reference_errors(a, b) == [math.inf]
            with pytest.raises(ValueError, match="finite"):
                compare_trajectories(a, b, 0.5)
