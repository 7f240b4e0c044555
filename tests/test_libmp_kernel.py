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
    mpf_mul,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from logistic_exact.errors import EscapeError
from logistic_exact.map_standard import (
    ESCAPE_BOUND,
    ClosedForm,
    _SQUARE_MIN_BITS,
    MapParams,
    _mpfs,
    _orbit,
    closed_form,
    closed_form_trajectory,
    iterate,
)
from logistic_exact.precision import (
    DOUBLE,
    PrecisionPolicy,
    Trajectory,
    _raw_mpf,
    budgeted_policy,
    compare_trajectories,
    reduce_mod_2pi,
)

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
def cosine_form_cases(draw):
    variant = draw(st.sampled_from(sorted(_COSINE_SEEDS)))
    x0 = draw(st.floats(*_DOMAINS[variant]) | st.sampled_from(_COSINE_SEEDS[variant]))
    return MapParams(variant.required_r, x0), variant


class TestClosedFormKernel:
    @settings(max_examples=120, deadline=None)
    @given(closed_form_cases(), st.integers(0, 150), st.sampled_from(FORM_POLICIES))
    def test_trajectory_equals_mpf_loop(self, case, n, policy):
        p, variant = case
        got = closed_form_trajectory(p, n, variant, policy)
        assert raw(zip(got.indices, got.values)) == raw(
            reference_closed_form_trajectory(p, n, variant, policy))

    @settings(max_examples=120, deadline=None)
    @given(closed_form_cases(), st.integers(0, 150), st.sampled_from(POLICIES))
    def test_single_step_equals_mpf_expression(self, case, n, policy):
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
    def test_double_samples_equal_the_libmp_pipeline(self, case, n, policy):
        # the sample loop of closed_form_trajectory against closed_form, whose
        # cosine is mpf_cos of _reduce_raw, at every width.  simple from x0 =
        # -0.5 and r4 from x0 = 1 have the angle 2*pi at 53 and 55 bits at
        # step 1, at 55 bits a remainder that rounding carries up to 2*pi,
        # which _reduce_raw takes to 0 and the loop keeps;
        # table1 from x0 = -0.5 has pi - phase = 0 at step 0; past step 1,020
        # table1's angle leaves the doubles and takes the integer route
        p, variant = case
        got = closed_form_trajectory(p, n, variant, policy).values
        expected = [closed_form(p, k, variant, policy) for k in range(n + 1)]
        if policy == DOUBLE:
            assert set(map(type, got)) == {float}
            assert tuple(got) == tuple(map(float, expected))
        else:
            assert [v._mpf_ for v in got] == [v._mpf_ for v in expected]

    @pytest.mark.parametrize("policy", FORM_POLICIES)
    @pytest.mark.parametrize("variant", list(ClosedForm))
    def test_every_form_over_a_long_run(self, variant, policy):
        lo, hi = _DOMAINS[variant]
        for x0 in (lo, 0.3 * lo + 0.7 * hi, hi):
            p = MapParams(variant.required_r, x0)
            got = closed_form_trajectory(p, 250, variant, policy)
            assert raw(zip(got.indices, got.values)) == raw(
                reference_closed_form_trajectory(p, 250, variant, policy))


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
        a = Trajectory("a", (0,), (2**1100 + 1,), PrecisionPolicy(2000))
        b = Trajectory("b", (0,), (1,), PrecisionPolicy(2000))
        assert reference_errors(a, b) == [math.inf]
        with pytest.raises(ValueError, match="finite"):
            compare_trajectories(a, b, 0.5)
