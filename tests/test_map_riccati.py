import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from logistic_exact import cli, continuous
from logistic_exact.errors import DomainError, PoleError
from logistic_exact.map_riccati import (
    RiccatiMapParams,
    coefficients,
    general_solution,
    general_trajectory,
    iterate,
    particular_solution,
    particular_trajectory,
)
from routes import linearized_general_solution

FIG3 = RiccatiMapParams(r=1.73, x0=0.333)
U = 2.0 ** -53  # the unit roundoff of a double

# The rates of the three regimes, away from the degenerate r = -1 (|1 + r| >= 0.05)
RATES = {"r<-1": st.floats(-3.0, -1.05), "-1<r<0": st.floats(-0.95, -0.01),
         "r>0": st.floats(0.01, 5.0)}
GAMMAS = st.floats(0.3, 50.0) | st.floats(-50.0, -0.3)
# Roundings per step of y in the coefficient route's bound.  Measured: random
# draws of the ranges below needed at most 0.38, and hypothesis searches of
# 2,000 draws per regime under four seeds passed at 1.
C_STEPS = 4


def _exact(s, b, n):
    """s*b^n/(s*b^n + 1 - s) for rationals s and b, rounded once to a double
    (inf at a pole): one quotient of two integers, which CPython's int/int
    division rounds correctly, without a Fraction's gcd of numbers of n*53
    bits."""
    num = s.numerator * b.numerator ** n
    den = num + (s.denominator - s.numerator) * b.denominator ** n
    return num / den if den else math.inf


def exact_member(r, x0, gamma, n):
    """The member x_n = s*b^n/(s*b^n + 1 - s) exactly, with s = x0 + 1/gamma
    (x0 for gamma None) and b = 1 + r as the rationals the doubles are."""
    s = Fraction(x0) + (1 / Fraction(gamma) if gamma is not None else 0)
    return _exact(s, 1 + Fraction(r), n)


def rounded_member(r, x0, gamma, n):
    """The member that the seed route's rounded inputs define, exactly:
    1/(1 + c*b^-n) with c = (1 - s)/s rounded once for the exact seed
    s = x0 + 1/gamma, and b = 1 + r, the doubles that the route computes;
    0.0 where s is 0, the fixed point that the route returns.  From the exact
    member it is the rounding of c and of 1 + r carried through the map,
    which grows with n wherever the member is far from 1: for a member that
    decays, and near a pole."""
    s = Fraction(x0) + (1 / Fraction(gamma) if gamma is not None else 0)
    if s == 0:
        return 0.0
    return _exact(1 / (1 + Fraction(float((1 - s) / s))), Fraction(1.0 + r), n)


def seed_route_ulps(x):
    """The seed route's own roundings in evaluating 1/(1 + c*d), d = b^-n, in
    ulp of its normal value x: those of c*d (pow's 2, the product's 1, and on
    the overflow path a second pow's 2 and a quotient's 1; 8 covers them) pass
    to x times |c*d/(1 + c*d)| = |1 - x|, and the sum and the quotient add one
    each.  Random draws of the ranges below reached half of it."""
    return 2 + 8 * abs(1 - x)


def normal_steps(r):
    """Up to 10^4 steps, fewer where |1 + r| < 1: over 700/|ln|1 + r|| steps
    the base's power stays above e^-700, so the members from seeds in (0.02,
    0.98) stay normal doubles.  The bounds here are relative, and a subnormal
    member has fewer bits than they allow for."""
    b = abs(1 + r)
    return 10_000 if b >= 1 else min(10_000, int(700 / -math.log(b)))


def recursion_condition(p, gamma, cs, n):
    """The condition of y_n, stepped by y_{k+1} = g_k*y_k + h_k from y_0 =
    gamma, on the roundings of the coefficients and of the steps: z_n/|y_n|
    with z stepping |g_k|, |h_k| from |gamma| (1 where no term cancels),
    times the worst cancellation in forming a coefficient's numerator
    r*x_k + 1 or denominator r*(1 - x_{k+1}) + 1.  y and z are held times a
    power of two, as ``linearized_general_solution`` holds y."""
    xs = particular_trajectory(p, n).values
    worst = max((abs(p.r * a) + 1) / abs(p.r * a + 1)
                + (abs(p.r * (1 - b)) + 1) / abs(p.r * (1 - b) + 1) for a, b in zip(xs, xs[1:]))
    y, z, scale = gamma, abs(gamma), 0
    gs, hs = cs
    for g, h in zip(gs[:n], hs):
        h = math.ldexp(h, -scale)
        y, z = g * y + h, abs(g) * z + abs(h)
        if z > 2.0 ** 512:
            y, z, scale = y * 2.0 ** -512, z * 2.0 ** -512, scale + 512
    return worst * z / abs(y)


class TestIterate:
    def test_first_steps(self):
        traj = iterate(RiccatiMapParams(1.0, 0.5), 2)
        assert traj.values[1] == pytest.approx(2.0 / 3.0, abs=1e-16)
        assert traj.values[2] == pytest.approx(0.8, abs=1e-15)

    def test_fixed_point_at_one(self):
        for r in (0.5, 1.73, -0.4, 7.0):
            traj = iterate(RiccatiMapParams(r, 1.0), 20)
            assert all(v == 1.0 for v in traj.values)

    def test_pole(self):
        with pytest.raises(PoleError) as err:
            iterate(RiccatiMapParams(1.0, -1.0), 3)
        assert err.value.where == 0

    def test_degenerate_rate_collapses_to_zero(self):
        # r = -1 has no closed form, but iteration is well defined: 0 forever
        traj = iterate(RiccatiMapParams(-1.0, 0.4), 5)
        assert tuple(traj.values) == (0.4, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestParticularSolution:
    def test_n0(self):
        assert particular_solution(FIG3, 0) == pytest.approx(0.333, abs=1e-16)

    def test_n0_is_the_seed(self):
        # 1/x0 - 1 rounds to -1 for huge seeds, a false pole of the formula at n = 0
        for x0 in (0.333, 0.411148, 1e17, -2.0**53, 3):
            got = particular_solution(RiccatiMapParams(1.0, x0), 0)
            assert got == x0 and isinstance(got, float)
        p = RiccatiMapParams(1.0, 1e17)
        assert particular_solution(p, 1) == iterate(p, 1).values[1] == 2.0

    def test_small_case(self):
        p = RiccatiMapParams(1.0, 0.5)
        assert particular_solution(p, 2) == 0.8

    def test_matches_iteration(self):
        traj = iterate(FIG3, 10)
        for n, v in zip(traj.indices, traj.values):
            assert abs(particular_solution(FIG3, n) - v) < 1e-12

    def test_pole(self):
        # (1+r)^-n = -1 for r=-2 and odd n, so the denominator vanishes at x0=0.5
        with pytest.raises(PoleError, match="^solution has a pole at n=1$") as err:
            particular_solution(RiccatiMapParams(-2.0, 0.5), 1)
        assert err.value.where == 1
        with pytest.raises(PoleError, match="^solution has a pole at n=1$"):
            particular_trajectory(RiccatiMapParams(-2.0, 0.5), 3)

    @pytest.mark.parametrize("r", [-0.5, -1.5])
    @pytest.mark.parametrize("n", [1030, 1031, 1074])
    def test_decays_until_pow_overflows(self, r, n):
        # (1+r)^-n overflows from n = 1024 on, but the member is a subnormal
        # double up to n = 1074, negative for r = -1.5 and odd n
        p = RiccatiMapParams(r, 0.5)
        with workprec(200):
            want = 1 / (1 + (1 + mpf(r)) ** -n)
        for got in (particular_solution(p, n), particular_trajectory(p, n).values[-1]):
            assert got != 0.0
            assert abs(mpf(got) - want) <= 5e-324  # within one subnormal ulp

    @pytest.mark.parametrize("r", [-0.5, -1.5])
    def test_zero_past_the_subnormals(self, r):
        p = RiccatiMapParams(r, 0.5)
        assert particular_solution(p, 1076) == 0.0
        assert particular_trajectory(p, 1076).values[-1] == 0.0

    @pytest.mark.parametrize("r,x0,n", [
        (-0.5, -0.2, 1074), (-0.5, -0.2, 2046), (-0.5, -0.2, 2100), (-0.5, -0.2, 10**5),
        (-0.5, 0.5, 2100), (-1.5, 0.5, 1100), (-1.5, 0.5, 1101), (-1.5, 0.5, 2100),
        (-1.5, 0.5, 2101), (-1.5, -0.2, 2100), (-1.5, -0.2, 2101),
    ])
    def test_a_zero_is_signed_as_the_quotient(self, r, x0, n):
        # a zero below the subnormals, where a half of (1+r)^-n overflows too
        # (n from about 2100 on) as where the quotient underflows, takes the
        # sign of c = 1/x0 - 1 times (-1)^n for a negative base 1 + r
        p = RiccatiMapParams(r, x0)
        c = 1.0 / x0 - 1.0
        sign = math.copysign(1.0, c) * (-1.0 if 1 + r < 0 and n % 2 else 1.0)
        for got in (particular_solution(p, n), particular_trajectory(p, n).values[-1]):
            assert got == 0.0 and math.copysign(1.0, got) == sign

    def test_degenerate_rate_rejected(self):
        with pytest.raises(DomainError):
            particular_solution(RiccatiMapParams(-1.0, 0.4), 3)

    def test_zero_seed_rejected(self):
        with pytest.raises(DomainError):
            particular_solution(RiccatiMapParams(1.0, 0.0), 3)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-0.9, 5.0).filter(lambda r: abs(1 + r) > 1e-6),
           st.floats(0.02, 0.98), st.integers(0, 100))
    def test_equals_iteration_generally(self, r, x0, n):
        p = RiccatiMapParams(r, x0)
        traj = iterate(p, n)
        assert abs(particular_solution(p, n) - traj.values[n]) < 1e-12

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.73])
    def test_continuum_correspondence(self, r):
        # (1+r)^-n == exp(-n*log(1+r)): the map's solution sampled at integer
        # times is the ODE's solution with rate log(1+r)
        rho = math.log(1.0 + r)
        for x0 in (0.11, 0.333, 0.7):
            p = RiccatiMapParams(r, x0)
            c = continuous.ContinuousParams(rho, x0)
            for n in range(31):
                ode = continuous.particular_solution(float(n), c)
                assert abs(particular_solution(p, n) - ode) < 1e-13


class TestCoefficients:
    def test_zero_rate(self):
        assert coefficients(RiccatiMapParams(0.0, 0.4), 6) == ((1.0,) * 6, (0.0,) * 6)

    def test_unit_seed(self):
        gs, hs = coefficients(RiccatiMapParams(1.73, 1.0), 5)
        assert all(g == pytest.approx(2.73, abs=1e-15) for g in gs)
        assert all(h == pytest.approx(1.73, abs=1e-15) for h in hs)

    def test_spot_check_against_hand_substitution(self):
        (g,), (h,) = coefficients(FIG3, 1)
        x0 = particular_solution(FIG3, 0)
        x1 = particular_solution(FIG3, 1)
        den = FIG3.r * (1.0 - x1) + 1.0
        assert g == pytest.approx((FIG3.r * x0 + 1.0) / den, abs=1e-15)
        assert h == pytest.approx(FIG3.r / den, abs=1e-15)

    def test_mismatched_lengths_rejected(self):
        # the pair carries no check of its own: the route that steps it refuses it
        with pytest.raises(ValueError, match="^g and h must have equal length$"):
            linearized_general_solution(FIG3, 1.0, 1, ((1.0,), ()))

    def test_no_steps_rejected(self):
        with pytest.raises(ValueError, match="^n_max must be a positive integer$"):
            coefficients(RiccatiMapParams(1.0, 0.3), 0)

    def test_vanishing_denominator_is_a_pole(self):
        # x_1 rounds to 2 for the seed 1e300 at r = 1, so r*(1 - x_1) + 1 = 0
        with pytest.raises(PoleError, match="^coefficient denominator vanished at n=0$") as err:
            coefficients(RiccatiMapParams(1.0, 1e300), 1)
        assert err.value.where == 0


class TestGeneralSolution:
    def test_n0_shifts_initial_value(self):
        for gamma in (0.5, 2.0, -3.0):
            value = general_solution(FIG3, gamma, 0)
            assert value == pytest.approx(FIG3.x0 + 1.0 / gamma, abs=1e-15)

    def test_large_gamma_recovers_particular(self):
        for n in range(21):
            diff = general_solution(FIG3, 1e12, n) - particular_solution(FIG3, n)
            assert abs(diff) < 1e-9

    def test_zero_gamma_rejected(self):
        with pytest.raises(DomainError):
            general_solution(FIG3, 0.0, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 5.0),
           st.floats(0.05, 0.95),
           st.floats(0.3, 50.0),
           st.integers(1, 50))
    def test_satisfies_recurrence(self, r, x0, gamma, n):
        # the defining property: consecutive family members obey
        # x' - x = r*x*(1 - x').  Positive r and gamma keep the sweep away
        # from the family's poles, where the residual check is meaningless.
        p = RiccatiMapParams(r, x0)
        cs = coefficients(p, n + 1)
        xn = linearized_general_solution(p, gamma, n, cs)
        xn1 = linearized_general_solution(p, gamma, n + 1, cs)
        residual = (xn1 - xn) - r * xn * (1.0 - xn1)
        assert abs(residual) < 1e-10

    def test_gamma_family_converges(self):
        for gamma in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert abs(general_solution(FIG3, gamma, 50) - 1.0) < 1e-6

    def test_exact_pole_on_both_routes(self):
        # on the fixed point 1 of r = 1, g = 2 and h = 1, so y_1 = 2*(-1/2) + 1
        # = 0; the member from the shifted seed 1 - 2 = -1 is 1/(1 - 2^(1-n))
        p = RiccatiMapParams(1.0, 1.0)
        cs = coefficients(p, 2)
        assert cs == ((2.0, 2.0), (1.0, 1.0))
        for route in (general_solution, partial(linearized_general_solution, coeffs=cs)):
            with pytest.raises(PoleError) as err:
                route(p, -0.5, 1)
            assert err.value.where == 1
            assert route(p, -0.5, 2) == 2.0

    @pytest.mark.parametrize("r,n,ulps", [(1.73, 1000, 0), (-0.5, 1000, 5), (0.3, 3000, 0),
                                          (-0.9, 500, 0)])
    def test_long_run_needs_no_range_guard(self, r, n, ulps):
        # a product of the 1/g_k, held as one double, left [1e-300, 1e300] before
        # these n (from n = 690 at r = 1.73), though every member is a double:
        # 1.0, 4.66e-301, 1.0 and 0.0
        p = RiccatiMapParams(r, 0.333)
        want = exact_member(r, 0.333, 2.0, n)
        assert abs(linearized_general_solution(p, 2.0, n, coefficients(p, n)) - want) \
            <= ulps * math.ulp(want)

    @pytest.mark.parametrize("n", [1021, 1023])
    def test_y_past_the_largest_double(self, n):
        # y_n passes 1.8e308 from n = 1021, where the member, about 1.1*2^-n, is
        # still normal: a y held as one double overflowed to inf, and 1/y_n = 0
        # left the particular part alone, 10% low
        p = RiccatiMapParams(-0.5, 0.5)
        want = exact_member(-0.5, 0.5, 40.0, n)
        got = linearized_general_solution(p, 40.0, n, coefficients(p, n))
        assert abs(got - want) <= math.ulp(want)

    @pytest.mark.parametrize("regime", RATES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), x0=st.floats(0.02, 0.98), gamma=GAMMAS)
    def test_coefficient_route_within_bound_of_exact(self, regime, data, x0, gamma):
        # x_n = x^p_n + 1/y_n: the particular part carries the seed route's
        # error, and 1/y_n the roundings of C*(n + 1) steps of y times the
        # condition of y_n, so the bound grows with n for a member that
        # decays, whose 1/y_n is as large as x^p_n
        r = data.draw(RATES[regime], label="r")
        n = data.draw(st.integers(1, normal_steps(r)), label="n")
        p = RiccatiMapParams(r, x0)
        want, xp = exact_member(r, x0, gamma, n), exact_member(r, x0, None, n)
        near, near_p = rounded_member(r, x0, gamma, n), rounded_member(r, x0, None, n)
        # the bounds are relative, and at a pole there is no value to compare
        assume(min(map(abs, (want, xp, near))) >= 2.0 ** -1022)
        assume(math.isfinite(want) and math.isfinite(near))
        try:
            cs = coefficients(p, n)
            got = linearized_general_solution(p, gamma, n, cs)
            seed = general_solution(p, gamma, n)
        except PoleError:  # x^p or y_n within their roundings of a pole, as at r = -2, x0 = 1/2
            assume(False)
        bound = (abs(near_p - xp) + (seed_route_ulps(near_p) + 1) * math.ulp(xp)
                 + math.ulp(want) + C_STEPS * (n + 1) * recursion_condition(p, gamma, cs, n)
                 * U * abs(want - xp))
        assert abs(got - want) <= bound
        assert abs(got - seed) <= bound + abs(near - want) \
            + (seed_route_ulps(near) + 1) * math.ulp(near)

    def test_short_coefficients_rejected(self):
        cs = coefficients(FIG3, 3)
        with pytest.raises(ValueError):
            linearized_general_solution(FIG3, 1.0, 5, cs)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 5.0),
           st.floats(0.05, 0.95),
           st.floats(0.3, 50.0),
           st.integers(1, 50))
    def test_shifted_seed_agrees_with_coefficient_route(self, r, x0, gamma, n):
        p = RiccatiMapParams(r, x0)
        cs = coefficients(p, n)
        for k in range(n + 1):
            primary = general_solution(p, gamma, k)
            assert abs(primary - linearized_general_solution(p, gamma, k, cs)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 5.0),
           st.floats(0.05, 0.95),
           st.floats(0.3, 50.0),
           st.integers(1, 50))
    def test_shifted_seed_satisfies_recurrence(self, r, x0, gamma, n):
        p = RiccatiMapParams(r, x0)
        xn = general_solution(p, gamma, n)
        xn1 = general_solution(p, gamma, n + 1)
        residual = (xn1 - xn) - r * xn * (1.0 - xn1)
        assert abs(residual) < 1e-10

    def test_shifted_seed_within_4_ulp_of_400_bit_member(self):
        # the member exactly: the particular solution from x0 + 1/gamma, with
        # r, x0 and gamma taken as the doubles they are
        worst = 0.0
        for r in (0.5, 1.0, 1.73, 3.0):
            for x0 in (0.11, 0.333, 0.7):
                p = RiccatiMapParams(r, x0)
                for gamma in (0.5, 1.0, 2.0, 5.0, 10.0):
                    for n in range(61):
                        got = general_solution(p, gamma, n)
                        with workprec(400):
                            seed = mpf(x0) + 1 / mpf(gamma)
                            want = 1 / (1 + (1 / seed - 1) * (1 + mpf(r)) ** (-n))
                            err = abs(mpf(got) - want) / math.ulp(float(want))
                        worst = max(worst, float(err))
        assert worst <= 4.0

    def test_huge_shifted_seed_at_n0(self):
        # 1/s - 1 rounds to -1 for a shifted seed |s| >= 2**53; n = 0 must not hit that pole
        assert general_solution(FIG3, 1e-17, 0) == FIG3.x0 + 1e17
        assert general_solution(FIG3, 1e-17, 1) == pytest.approx(2.73 / 1.73, rel=1e-15)

    def test_zero_shifted_seed_is_the_zero_orbit(self):
        p = RiccatiMapParams(1.0, 0.5)
        assert tuple(general_trajectory(p, -2.0, 20).values) == (0.0,) * 21

    def test_overflowing_shift_is_a_pole(self):
        for n in (0, 5):
            with pytest.raises(PoleError, match="overflows"):
                general_solution(FIG3, 5e-324, n)

    def test_validation_order(self):
        with pytest.raises(DomainError, match="gamma"):
            general_solution(RiccatiMapParams(-1.0, 0.0), 0.0, 1)
        with pytest.raises(DomainError, match="r = -1"):
            general_solution(RiccatiMapParams(-1.0, 0.0), 2.0, 1)
        with pytest.raises(DomainError, match="x0 != 0"):
            general_solution(RiccatiMapParams(1.0, 0.0), 2.0, 1)  # shifted seed 0.5


class TestTrajectories:
    def test_particular_trajectory_tags(self):
        traj = particular_trajectory(FIG3, 5)
        assert traj.method_tag == "closed-form:particular"
        assert len(traj) == 6

    def test_general_trajectory_matches_pointwise(self):
        traj = general_trajectory(FIG3, 2.0, 12)
        for n, v in zip(traj.indices, traj.values):
            assert v == general_solution(FIG3, 2.0, n)

    @pytest.mark.parametrize("regime", RATES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), x0=st.floats(0.02, 0.98), gamma=GAMMAS)
    def test_general_trajectory_within_bound_of_exact(self, regime, data, x0, gamma):
        # the map4 path, for r of both signs: within its own roundings of the
        # member that its rounded inputs define, which is off the exact member
        # by the rounding of s and of 1 + r, carried through n steps
        r = data.draw(RATES[regime], label="r")
        n = data.draw(st.integers(0, normal_steps(r)), label="n")
        try:
            got = general_trajectory(RiccatiMapParams(r, x0), gamma, n).values[-1]
        except PoleError as err:  # where 1 + c*d is within its roundings of 0
            assert abs(rounded_member(r, x0, gamma, err.where)) >= 1 / (16 * U)
            return
        near = rounded_member(r, x0, gamma, n)
        assume(abs(near) >= 2.0 ** -1022)  # the bound is relative
        assert abs(got - near) <= seed_route_ulps(near) * math.ulp(near)

    def test_subnormal_member_past_the_product_overflow(self):
        # the exact member is 5.48e-309 at n = 236, where c*(1+r)^-n overflows
        # but (1+r)^-n does not; the ODE shares the kernel (test_continuous.py)
        want = exact_member(-0.95, 0.02, 27.0, 236)
        got = general_trajectory(RiccatiMapParams(-0.95, 0.02), 27.0, 236).values[-1]
        assert abs(got - want) <= 2 * math.ulp(want)

    def test_figure3_within_1_5_ulp_of_exact(self):
        # the gate of figure 3's golden rows: every closed-form sample is within
        # 1.5 ulp of the exact member, unrounded (worst 1.25, as when the seed
        # was rounded)
        preset = cli.FIGURE_PRESETS["3"]
        b, worst = 1 + Fraction(preset["r"]), 0
        for label, traj in cli._run_figure("3")["series"][1:]:  # after iterated
            s = Fraction(preset["x0"]) + (
                0 if label == "particular" else 1 / Fraction(float(label.split("=")[1])))
            for n, v in zip(traj.indices, traj.values):
                want = s * b ** n / (s * b ** n + 1 - s)
                worst = max(worst, abs(Fraction(v) - want) / Fraction(math.ulp(float(want))))
        assert worst <= 1.5

    def test_general_trajectory_needs_no_coefficients(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the coefficients were computed")

        monkeypatch.setattr("logistic_exact.map_riccati.coefficients", never)
        traj = general_trajectory(FIG3, 2.0, 10_000)
        assert len(traj) == 10_001 and abs(traj.values[-1] - 1.0) < 1e-15
