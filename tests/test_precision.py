import collections
import math
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    from_float,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_ge,
    mpf_mod,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_float,
)

from logistic_exact import map_standard
from logistic_exact.precision import (
    DOUBLE,
    DivergenceReport,
    PrecisionPolicy,
    Trajectory,
    _compare_pairs,
    _pi,
    _reduce_raw,
    _signed,
    _subnormal,
    budgeted_policy,
    compare_trajectories,
    precision_budget,
    reduce_mod_2pi,
)


def circle_distance(a, b, bits):
    """Distance on the circle of circumference 2*pi, for boundary-safe checks."""
    with workprec(bits + 10):
        two_pi = 2 * mp.pi
        d = abs(mpf(a) - mpf(b))
        return float(min(d, two_pi - d))


class TestPrecisionPolicy:
    def test_defaults(self):
        assert DOUBLE.significand_bits == 53

    @pytest.mark.parametrize("bits", [52, 0, -1])
    def test_rejects_sub_double(self, bits):
        with pytest.raises(ValueError):
            PrecisionPolicy(bits)


class TestPrecisionBudget:
    def test_zero_steps_is_baseline(self):
        assert precision_budget(0) == 64
        assert budgeted_policy(0) == PrecisionPolicy(64)

    def test_hundred_steps(self):
        assert precision_budget(100) == 164
        assert budgeted_policy(100) == PrecisionPolicy(164)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            precision_budget(-1)

    @given(n1=st.integers(0, 10_000), dn=st.integers(0, 10_000))
    def test_monotone(self, n1, dn):
        lo = precision_budget(n1)
        hi = precision_budget(n1 + dn)
        assert hi >= lo

    def test_budgeted_oracles_agree(self):
        # one bit per step is the right rate for both chaotic maps: a 164-bit
        # and a 264-bit oracle still agree to far better than 50 bits after
        # 100 steps
        for r, x0 in [(4.0, 0.3), (-2.0, 0.9)]:
            p = map_standard.MapParams(r, x0)
            a = map_standard.iterate(p, 100, PrecisionPolicy(164))
            b = map_standard.iterate(p, 100, PrecisionPolicy(264))
            rep = compare_trajectories(a, b, threshold=2.0 ** -50)
            assert rep.first_divergent_index is None
            assert rep.max_error < 2.0 ** -50


class TestReduceMod2Pi:
    def test_zero(self):
        assert reduce_mod_2pi(0.0, 64) == 0

    def test_two_pi_maps_to_zero(self):
        # 2*pi rounded to the working precision reduces to a point within an
        # ulp of 0 on the circle (it may land just below 2*pi)
        for bits in (53, 128):
            with workprec(bits):
                angle = 2 * mp.pi
            r = reduce_mod_2pi(angle, bits)
            assert circle_distance(r, 0, bits) < 2.0 ** (4 - bits)

    def test_negative_angle(self):
        r = reduce_mod_2pi(-math.pi / 2, 53)
        assert abs(float(r) - 3 * math.pi / 2) < 1e-15

    def test_range(self):
        for angle in (-100.0, -1.0, 0.5, 7.0, 1e6):
            r = reduce_mod_2pi(angle, 53)
            assert 0 <= float(r) < 2 * math.pi + 1e-15

    @pytest.mark.parametrize("workbits", [128, 256])
    def test_huge_argument_against_reference(self, workbits):
        # scale arccos(0.4) by 2^60 and reduce; a 4096-bit reference pins the
        # answer to >= workbits - 70 bits
        with workprec(workbits):
            angle = mp.ldexp(mp.acos(mpf("0.4")), 60)
        got = reduce_mod_2pi(angle, workbits)
        with workprec(4096):
            ref_angle = mp.ldexp(mp.acos(mpf("0.4")), 60)
        ref = reduce_mod_2pi(ref_angle, 4096)
        err = circle_distance(got, ref, 4096)
        assert err < 2.0 ** -(workbits - 70)

    def test_rejects_non_finite(self):
        for angle in (math.inf, -math.inf, math.nan, mp.inf, mp.nan):
            with pytest.raises(ValueError):
                reduce_mod_2pi(angle, 53)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-10.0, 10.0), k=st.integers(-2**60, 2**60))
    def test_periodicity(self, x, k):
        bits = 96
        with workprec(bits + 80):
            shifted = mpf(x) + 2 * mp.pi * k
        a = reduce_mod_2pi(x, bits)
        b = reduce_mod_2pi(shifted, bits)
        assert circle_distance(a, b, bits) < 2.0 ** (8 - bits)


def reference_reduce_mod_2pi(angle, bits=53):
    """The context-based reduction that the libmp version must reproduce."""
    if not mp.isfinite(angle):
        raise ValueError("angle must be finite")
    if angle == 0:
        return mpf(0)
    extra = max(0, int(mp.mag(angle))) + 20
    with workprec(bits + extra):
        x = angle if isinstance(angle, mpf) else mpf(angle)
        two_pi = 2 * mp.pi
        r = mp.fmod(x, two_pi)
        if r < 0:
            r += two_pi
    with workprec(bits):
        r = +r
        two_pi = 2 * mp.pi
        while r >= two_pi:
            r -= two_pi
        while r < 0:
            r += two_pi
    return r


def regression_angles():
    """(angle, bits) pairs covering the closed forms' angle shapes and plain inputs."""
    rng = random.Random(2009)
    cases = []
    for bits in (53, 64, 120, 300, 1100):
        stride = 1 if bits <= 120 else bits // 150
        with workprec(bits):
            thetas = [mp.acos(mpf(rng.uniform(-1, 1))) for _ in range(3)]
            phi = mp.pi - 3 * mp.acos(mpf(rng.uniform(-1, 1)))
            for n in range(0, bits + 51, stride):
                for theta in thetas:
                    cases.append((mp.ldexp(theta, n), bits))
                    cases.append((-mp.ldexp(theta, n), bits))
                scaled = mp.ldexp(phi, n)
                cases.append(((mp.pi - scaled) / 3, bits))
                cases.append(((mp.pi + scaled) / 3, bits))
        for _ in range(40):
            cases.append((math.ldexp(rng.uniform(-1, 1), rng.randint(-60, 1000)), bits))
            cases.append((rng.randint(-2 ** 200, 2 ** 200), bits))
        cases += [(v, bits) for v in (2 ** 80, -2 ** 80, 1e300, -1e300, 7, -1, 0.0, 0)]
        with workprec(bits + 2000):
            # more bits than bits + extra: the reduction must see all of them
            cases.append((mp.ldexp(mp.acos(mpf("0.3")), 40), bits))
            cases.append((-mp.ldexp(mp.acos(mpf("0.3")), bits), bits))
    return cases


class TestReduceMod2PiRegression:
    def test_matches_context_based_reference(self):
        cases = regression_angles()
        assert len(cases) >= 5000
        mismatches = [(angle, bits) for angle, bits in cases
                      if reduce_mod_2pi(angle, bits)._mpf_
                      != reference_reduce_mod_2pi(angle, bits)._mpf_]
        assert mismatches == []


def reduce_branch(x, bits):
    """The branch of ``_reduce_raw`` that the raw value x takes: "zero";
    "early", a positive angle below 2*pi's ulp at wp, which mpf_mod returns
    as it is; "exact", an angle that is a multiple of that ulp, whose
    remainder is an exact integer; or "double", a remainder rounded at wp and
    then at ``bits``.  Second, whether the remainder is carried up to 2*pi at
    ``bits``, so that 2*pi is subtracted from it."""
    sign, man, exp, bc = x
    if not man:
        return "zero", False
    wp = bits + max(0, exp + bc) + 20
    two_pi = mpf_shift(_pi(wp), 1)
    texp = two_pi[2]
    if exp >= texp:
        branch = "exact"
    elif not sign and texp > exp + bc:
        branch = "early"
    else:
        branch = "double"
    r = mpf_pos(mpf_mod(x, two_pi, wp, round_nearest), bits, round_nearest)
    return branch, mpf_ge(r, mpf_shift(_pi(bits), 1))


# 53 bits and budget bits for 56 and 300 steps
KERNEL_BITS = (53, 120, 364)


def closed_form_angle(bits, phase_kind, u, j, k, shape):
    """An angle of a closed form at ``bits``, as the cosine forms build it:
    a phase phi scaled by 2^k, then +-phi*2^k (r4, simple) or
    (pi -+ phi*2^k)/3 (table1).  phi is the r4 phase acos(1 - 2*x0) of a
    seed x0 = u in [0, 1] or of a tiny seed x0 = u*2^-j, or a tiny phase
    u*2^-j itself."""
    with workprec(bits):
        if phase_kind == "seed":
            phi = mp.acos(1 - 2 * mpf(u))
        elif phase_kind == "tiny-seed":
            phi = mp.acos(1 - 2 * mp.ldexp(mpf(u), -j))
        else:
            phi = mp.ldexp(mpf(u), -j)
        scaled = mp.ldexp(phi, k)
        if shape == "+":
            return scaled
        if shape == "-":
            return -scaled
        return (mp.pi - scaled) / 3 if shape == "pi-" else (mp.pi + scaled) / 3


@st.composite
def closed_form_angles(draw):
    bits = draw(st.sampled_from(KERNEL_BITS))
    angle = closed_form_angle(bits, draw(st.sampled_from(["seed", "tiny-seed", "tiny-phase"])),
                              draw(st.floats(0.0, 1.0)), draw(st.integers(1, 500)),
                              draw(st.integers(0, bits + 56)),
                              draw(st.sampled_from(["+", "-", "pi-", "pi+"])))
    return angle, bits


def kernel_cases():
    """(angle, bits) over every shape of ``closed_form_angle``, seeded."""
    rng = random.Random(18)
    cases = []
    for bits in KERNEL_BITS:
        for phase_kind in ("seed", "tiny-seed", "tiny-phase"):
            for shape in ("+", "-", "pi-", "pi+"):
                for _ in range(60):
                    u, j, k = rng.random(), rng.randint(1, 500), rng.randint(0, bits + 56)
                    angle = closed_form_angle(bits, phase_kind, u, j, k, shape)
                    cases.append((angle, bits))
    return cases


class TestReduceRawKernel:
    """``_reduce_raw`` takes the remainder of an angle that is a multiple of
    2*pi's ulp as one exact integer ``%``; on every other angle it makes
    mpf_mod's calls.  It must equal the context-based reduction, bit for bit,
    on the closed forms' angles, on every branch."""

    @settings(max_examples=300, deadline=None)
    @given(closed_form_angles())
    def test_equals_context_based_reference(self, angle_bits):
        angle, bits = angle_bits
        branch, wraps = reduce_branch(angle._mpf_, bits)
        event(branch)
        if wraps:
            event("wrap")
        assert _reduce_raw(angle._mpf_, bits) == reference_reduce_mod_2pi(angle, bits)._mpf_

    def test_every_branch_is_reached(self):
        counts = collections.Counter()
        for angle, bits in kernel_cases():
            branch, wraps = reduce_branch(angle._mpf_, bits)
            counts[branch] += 1
            counts["wrap"] += wraps
            assert _reduce_raw(angle._mpf_, bits) == reference_reduce_mod_2pi(angle, bits)._mpf_
        assert all(counts[b] > 0 for b in ("early", "exact", "double", "wrap")), counts

    def test_both_roundings_are_kept(self):
        # T + 2^-80, with T halfway between the 53-bit neighbours M and M + 1
        # (M even): at wp = 74 bits it rounds to T, and T then to M, where a
        # single rounding at 53 bits would give M + 1
        m = 2**52 + 2 * 12345
        x = from_man_exp(((2 * m + 1) << 27) + 1, -80)
        assert reduce_branch(x, 53) == ("double", False)
        assert from_man_exp(((2 * m + 1) << 27) + 1, -80, 53, round_nearest) == from_man_exp(
            m + 1, -52)
        assert _reduce_raw(x, 53) == from_man_exp(m, -52) == reference_reduce_mod_2pi(
            mp.make_mpf(x), 53)._mpf_

    @pytest.mark.parametrize("v", [-2.0**-100, -2.0**-60, -2.0**-52])
    def test_remainder_carried_to_two_pi_wraps_to_zero(self, v):
        # 2*pi - 2^-52 and closer round to 2*pi at 53 bits, which wraps to 0
        x = from_float(v)
        assert reduce_branch(x, 53)[1]
        assert _reduce_raw(x, 53) == fzero == reference_reduce_mod_2pi(v, 53)._mpf_


class TestTrajectory:
    def test_properties(self):
        t = Trajectory("iterated", (0, 1, 2), (0.5, 1.0, 0.0), DOUBLE)
        assert len(t) == 3
        assert t.indices == (0, 1, 2)
        assert t.values == (0.5, 1.0, 0.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match=r"index 0 follows 0"):
            Trajectory("iterated", (0, 0), (0.5, 1.0), DOUBLE)
        with pytest.raises(ValueError, match=r"index 1 follows 1"):
            Trajectory("iterated", (0, 1, 1, 0), (0.5, 0.5, 0.5, 0.5), DOUBLE)
        with pytest.raises(ValueError, match=r"index 0\.25 follows 0\.5"):
            Trajectory("iterated", (0.5, 0.25), (0.5, 1.0), DOUBLE)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan, mpf("inf"), mpf("-inf"), mpf("nan")):
            with pytest.raises(ValueError, match=r"non-finite value at index 1$"):
                Trajectory("iterated", (0, 1), (0.5, bad), DOUBLE)
        # the first offending index is named, on every path of the type scan
        for values in ((0.5, 1.0, math.nan, math.inf), (0, 1.0, math.inf, mpf("nan")),
                       (mpf(0), mpf(1), mpf("inf"), mpf("nan"))):
            with pytest.raises(ValueError, match=r"non-finite value at index 0\.75$"):
                Trajectory("iterated", (0.25, 0.5, 0.75, 1.0), values, DOUBLE)

    def test_accepts_ints_and_finite_mpf(self):
        values = (0, 1, 10**400, -(10**400), mpf("1e100000"))
        t = Trajectory("prng", range(5), values, DOUBLE)
        assert t.values == (0, 1, 10**400, -(10**400), mpf("1e100000"))
        assert Trajectory("prng", range(3), (0, 1, 10**400), DOUBLE).values == (0, 1, 10**400)

    def test_columns_become_tuples(self):
        t = Trajectory("iterated", [0, 1], [0.5, 1.0], DOUBLE)
        assert t.indices == (0, 1) and type(t.indices) is tuple
        assert t.values == (0.5, 1.0) and type(t.values) is tuple
        indices, values = (0, 1), (0.5, 1.0)
        t = Trajectory("iterated", indices, values, DOUBLE)
        assert t.indices is indices and t.values is values  # not copied
        generated = Trajectory("iterated", (k for k in range(3)), (0.5 for _ in range(3)),
                               DOUBLE)
        assert generated.indices == (0, 1, 2) and type(generated.indices) is tuple
        assert generated.values == (0.5, 0.5, 0.5)

    @pytest.mark.parametrize("indices", [range(3), range(1), range(10**6, 10**9, 10**8)])
    def test_a_range_of_positive_step_is_kept(self, indices):
        t = Trajectory("iterated", indices, [0.5] * len(indices), DOUBLE)
        assert t.indices is indices
        assert len(t) == len(indices)

    def test_bytes_of_values_are_kept(self):
        bits = bytes((1, 0, 1))
        assert Trajectory("prng", range(3), bits, DOUBLE).values is bits
        # a bytearray may change: it is copied into a tuple, as a list is
        assert Trajectory("prng", range(3), bytearray(bits), DOUBLE).values == (1, 0, 1)
        with pytest.raises(ValueError, match=r"2 indices, 3 values"):
            Trajectory("prng", range(2), bits, DOUBLE)

    def test_an_empty_or_decreasing_range_is_refused(self):
        with pytest.raises(ValueError, match=r"^a trajectory needs at least one sample$"):
            Trajectory("iterated", range(0), (), DOUBLE)
        with pytest.raises(ValueError, match=r"\(index 4 follows 5\)$"):
            Trajectory("iterated", range(5, 0, -1), (0.5,) * 5, DOUBLE)
        with pytest.raises(ValueError, match=r"2 indices, 3 values"):
            Trajectory("iterated", range(2), (0.5, 1.0, 2.0), DOUBLE)

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match=r"2 indices, 3 values"):
            Trajectory("iterated", (0, 1), (0.5, 1.0, 2.0), DOUBLE)
        with pytest.raises(ValueError, match=r"2 indices, 1 values"):
            Trajectory("iterated", (0, 1), (0.5,), DOUBLE)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory("iterated", (), (), DOUBLE)
        with pytest.raises(ValueError):
            Trajectory("", (0,), (0.5,), DOUBLE)


def _traj(values, bits=53, start=0):
    policy = PrecisionPolicy(bits)
    return Trajectory("oracle", range(start, start + len(values)), values, policy)


class TestCompareTrajectories:
    def test_identical(self):
        a = _traj([0.1, 0.2, 0.3])
        rep = compare_trajectories(a, a, threshold=0.01)
        assert rep.max_error == 0.0
        assert rep.first_divergent_index is None

    def test_single_difference(self):
        base = [0.0] * 10
        other = list(base)
        other[7] = 0.5
        rep = compare_trajectories(_traj(base), _traj(other), threshold=0.01)
        assert rep.first_divergent_index == 7
        assert rep.max_error == 0.5

    def test_mismatched_index_sets(self):
        with pytest.raises(ValueError):
            compare_trajectories(_traj([1.0, 2.0]), _traj([1.0, 2.0, 3.0]), 0.1)
        with pytest.raises(ValueError):
            compare_trajectories(_traj([1.0, 2.0]), _traj([1.0, 2.0], start=1), 0.1)

    def test_a_range_equals_the_tuple_of_its_items(self):
        ranged = Trajectory("iterated", range(4), (0.5, 0.25, 0.5, 0.75), DOUBLE)
        listed = Trajectory("oracle", (0, 1, 2, 3), (0.5, 0.25, 0.5, 0.5), DOUBLE)
        for a, b in ((ranged, listed), (listed, ranged)):
            assert compare_trajectories(a, b, 0.01).per_step_abs_error == (0.0, 0.0, 0.0, 0.25)
        shifted = Trajectory("oracle", (0, 1, 3, 4), (0.5,) * 4, DOUBLE)
        for a, b, first in ((ranged, shifted, "2 vs 3"), (shifted, ranged, "3 vs 2")):
            with pytest.raises(ValueError, match=rf"\(first mismatch: {first}\)$"):
                compare_trajectories(a, b, 0.01)
        with pytest.raises(ValueError, match=r"\(first mismatch: 0 vs 1\)$"):
            compare_trajectories(ranged, Trajectory("oracle", range(1, 5), (0.5,) * 4, DOUBLE),
                                 0.01)

    def test_double_iteration_against_oracle(self):
        # the classic shadowing picture: a 53-bit orbit of the r=-2 map loses
        # about a bit per step against 52 fractional bits, so it leaves a
        # 512-bit oracle somewhere in [35, 65] at threshold 0.01
        p = map_standard.MapParams(-2.0, 0.9)
        device = map_standard.iterate(p, 70, DOUBLE)
        ref = map_standard.oracle(p, 70, PrecisionPolicy(512))
        rep = compare_trajectories(device, ref, threshold=0.01)
        assert rep.first_divergent_index is not None
        assert 35 <= rep.first_divergent_index <= 65

    def test_a_subnormal_difference_is_rounded_once(self):
        # 2^-1075 + 2^-1140 lies just above the tie 2^-1075 between 0 and the
        # least subnormal 2^-1074; rounded to 53 bits first, it is that tie,
        # and the tie rounds to even, 0.0
        x = mp.make_mpf(from_man_exp(2**65 + 1, -1140))
        wide = PrecisionPolicy(1000)
        # 2^-2000 takes the integer route, 0 the libmp one
        for y in (mp.make_mpf(from_man_exp(1, -2000)), mpf(0)):
            a, b = (Trajectory("oracle", (0,), (v,), wide) for v in (x, y))
            assert compare_trajectories(a, b, 1.0).per_step_abs_error == (5e-324,)
            assert compare_trajectories(b, a, 1.0).per_step_abs_error == (5e-324,)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2**80), st.integers(-1200, -1000),
           st.integers(0, 2**80), st.integers(-1200, -1000))
    @example(2**65 + 1, -1140, 1, -1200)  # just above the tie 2^-1075
    @example(2**65 - 1, -1140, 0, -1200)  # just below it
    @example(3, -1075, 0, -1200)  # a tie, 3 * 2^-1075, rounded to even, 2^-1073
    def test_a_difference_below_the_normals_is_correctly_rounded(self, ma, ea, mb, eb):
        # the difference fits the working width, so it is exact before its one
        # rounding to a double, which int/int division makes correctly
        x, y = (mp.make_mpf(from_man_exp(m, e)) for m, e in ((ma, ea), (mb, eb)))
        a, b = (Trajectory("oracle", (0,), (v,), PrecisionPolicy(400)) for v in (x, y))
        diff = abs(ma * 2**(ea + 1200) - mb * 2**(eb + 1200))
        assert compare_trajectories(a, b, 1.0).per_step_abs_error == (diff / 2**1200,)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_symmetric(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = _traj(xs[:n]), _traj(ys[:n])
        ra = compare_trajectories(a, b, threshold=1.0)
        rb = compare_trajectories(b, a, threshold=1.0)
        assert ra.per_step_abs_error == rb.per_step_abs_error
        assert ra.max_error == rb.max_error


def libmp_error(ma, ea, mb, eb, bits):
    """The error of a sample (ma, ea) against a reference pair (mb, eb) by the
    libmp route: ``mpf_sub`` at ``bits``, then ``to_float``, or ``_subnormal``
    below 2^-1022."""
    diff = mpf_abs(mpf_sub(from_man_exp(ma, ea), from_man_exp(mb, eb), bits, round_nearest))
    _, man, exp, bc = diff
    if man and exp + bc <= -1022:
        return _subnormal(man, exp)
    return to_float(diff, rnd=round_nearest)


@st.composite
def compare_cases(draw):
    """A sample (a double, or an mpf of up to ``bits`` bits, either may be 0),
    a reference pair and ``bits``.  The reference lies a difference of chosen
    width from the sample, or at an exponent gap near +-bits, or is 0; or it
    is the sample on a fixed binary point, (X, -F) with X unnormalized, moved
    by a few units."""
    bits = draw(st.sampled_from([64, 240, 1100, 2700]))
    if draw(st.booleans()):
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
    else:
        m = draw(st.integers(-(2**bits - 1), 2**bits - 1))
        x = mp.make_mpf(from_man_exp(m, draw(st.integers(-1150, 1030)) - abs(m).bit_length()))
    ma, ea = _signed(x, bits)
    mode = draw(st.sampled_from(["width", "fixed", "gap", "zero"]))
    event(mode)
    if mode == "width":  # the difference D * 2^eb, D of w bits
        w = draw(st.one_of(st.integers(1, 60), st.integers(1, bits + 40),
                           st.sampled_from([53, 54, 55, 1022, 1023, 1024, bits, bits + 1])))
        d = draw(st.integers(2 ** (w - 1), 2**w - 1))
        gap = draw(st.integers(0, 80))
        mb, eb = (ma << gap) + draw(st.sampled_from([d, -d])), ea - gap
    elif mode == "fixed":
        point = draw(st.integers(232, 300))
        mb, eb = (ma << (ea + point) if ea + point >= 0 else ma >> -(ea + point)), -point
        mb += draw(st.integers(-(2**8), 2**8))
    elif mode == "gap":
        mb = draw(st.integers(-(2**80), 2**80))
        eb = ea + draw(st.sampled_from([-1, 1])) * (bits + draw(st.integers(-2, 2)))
    else:
        mb, eb = 0, draw(st.integers(-1200, 1000))
    return x, (mb, eb), bits


class TestCompareKernel:
    @settings(max_examples=400, deadline=None)
    @given(compare_cases())
    @example((0.75, (3 * 2**60 + 3, -62), 64))  # a difference of 3 * 2^-62: exact
    # differences D * 2^-1023 from 1.0 of 1,025, 1,024 and 1,023 bits
    @example((1.0, (2**1023 + 2**1024 + 2**971 + 1, -1023), 1100))  # just above a tie
    @example((1.0, (2**1023 + 2**1023 + 2**970, -1023), 1100))  # a tie, to even: 2^0
    @example((1.0, (2**1023 - 2**1022 - 2**969 - 2**968, -1023), 1100))  # above a tie
    @example((5e-324, (3, -1075), 240))  # 2^-1075 below the normals: a tie, to even
    @example((0.0, (1, -2000), 240))  # a zero sample takes the libmp route
    def test_equals_the_libmp_route(self, case):
        # the kernel forms each error once; the libmp route subtracts at
        # ``bits`` and then rounds the difference to a double
        x, (mb, eb), bits = case
        expected = libmp_error(*_signed(x, bits), mb, eb, bits)
        if not math.isfinite(expected):  # an overflow, which a report refuses
            with pytest.raises(ValueError, match="finite and non-negative"):
                _compare_pairs([x], [(mb, eb)], bits, 1.0)
            return
        error = _compare_pairs([x], [(mb, eb)], bits, 1.0).per_step_abs_error
        assert error == (expected,)
        assert math.copysign(1.0, error[0]) == 1.0

    def test_a_column_reads_doubles_and_mpf_alike(self):
        # one report over a column that leaves the doubles part way, as a
        # decaying iteration does, equals the samples' reports one by one
        values = [0.75, mpf("1e-400"), 2.0**-1074, mpf(0), 3.0]
        ref = [(3, -2), (1, -1400), (1, -1075), (5, -1074), (3 * 2**300, -300)]
        column = _compare_pairs(values, ref, 300, 1.0).per_step_abs_error
        assert column == tuple(libmp_error(*_signed(x, 300), *pair, 300)
                               for x, pair in zip(values, ref))
        assert column[0] == column[4] == 0.0 and column[3] > 0.0


class TestDivergenceReport:
    # the summary is derived from the errors, so no inconsistent one can be
    # passed in, and none can be set afterwards
    def test_validates_max_error(self):
        with pytest.raises(TypeError):
            DivergenceReport((0.1, 0.2), None, 1.0, 0.3)
        rep = DivergenceReport((0.1, 0.2), 1.0)
        assert rep.max_error == 0.2
        with pytest.raises(AttributeError):
            rep.max_error = 0.3

    def test_validates_first_index(self):
        with pytest.raises(TypeError):
            DivergenceReport((0.1, 2.0), None, 1.0, 2.0)
        rep = DivergenceReport((0.1, 2.0), 1.0)
        assert rep.first_divergent_index == 1
        with pytest.raises(AttributeError):
            rep.first_divergent_index = None

    def test_from_errors(self):
        rep = DivergenceReport([0.0, 0.005, 0.02, 0.5], 0.01)
        assert rep.per_step_abs_error == (0.0, 0.005, 0.02, 0.5)
        assert rep.first_divergent_index == 2
        assert rep.max_error == 0.5
        assert DivergenceReport([], 0.01).max_error == 0.0

    def test_rejects_bad_threshold_and_errors(self):
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                DivergenceReport((0.1,), threshold)
        for errors in ((-0.1,), (math.inf,), (math.nan,)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                DivergenceReport(errors, 1.0)

    def test_errors_are_checked_as_whole_columns(self):
        # -0.0 and ints pass, as floats; the first bad error anywhere refuses all
        rep = DivergenceReport([0, -0.0, 5e-324, 1e300, mpf("0.25")], 0.01)
        assert rep.per_step_abs_error == (0.0, -0.0, 5e-324, 1e300, 0.25)
        assert all(type(e) is float for e in rep.per_step_abs_error)
        for errors in ((0.5, 0.0, -5e-324), (0.5, math.nan, 0.0), (math.inf, -1.0)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                DivergenceReport(errors, 1.0)

    def test_errors_whose_sum_overflows_are_finite(self):
        # finiteness is read off the sum, and item by item only when the sum
        # is not finite: finite errors whose sum overflows still pass
        rep = DivergenceReport((1e308, 1e308, 0.0), 1.0)
        assert rep.per_step_abs_error == (1e308, 1e308, 0.0) and rep.first_divergent_index == 0
        for errors in ((1e308, 1e308, math.inf), (1e308, 1e308, -1.0), (1e308, math.nan)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                DivergenceReport(errors, 1.0)
