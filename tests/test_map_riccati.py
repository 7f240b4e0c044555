import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from logistic_exact import continuous
from logistic_exact.errors import DomainError, EscapeError, PoleError
from logistic_exact.map_riccati import (
    RiccatiCoefficients,
    RiccatiMapParams,
    coefficients,
    general_solution,
    general_trajectory,
    iterate,
    particular_solution,
    particular_trajectory,
)

FIG3 = RiccatiMapParams(r=1.73, x0=0.333)


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
        assert traj.values == (0.4, 0.0, 0.0, 0.0, 0.0, 0.0)


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
        cs = coefficients(RiccatiMapParams(0.0, 0.4), 6)
        assert cs.g == (1.0,) * 6
        assert cs.h == (0.0,) * 6

    def test_unit_seed(self):
        cs = coefficients(RiccatiMapParams(1.73, 1.0), 5)
        assert all(g == pytest.approx(2.73, abs=1e-15) for g in cs.g)
        assert all(h == pytest.approx(1.73, abs=1e-15) for h in cs.h)

    def test_spot_check_against_hand_substitution(self):
        cs = coefficients(FIG3, 1)
        x0 = particular_solution(FIG3, 0)
        x1 = particular_solution(FIG3, 1)
        den = FIG3.r * (1.0 - x1) + 1.0
        assert cs.g[0] == pytest.approx((FIG3.r * x0 + 1.0) / den, abs=1e-15)
        assert cs.h[0] == pytest.approx(FIG3.r / den, abs=1e-15)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RiccatiCoefficients((1.0,), ())


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
        xn = general_solution(p, gamma, n, cs)
        xn1 = general_solution(p, gamma, n + 1, cs)
        residual = (xn1 - xn) - r * xn * (1.0 - xn1)
        assert abs(residual) < 1e-10

    def test_gamma_family_converges(self):
        for gamma in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert abs(general_solution(FIG3, gamma, 50) - 1.0) < 1e-6

    def test_pole_from_engineered_gamma(self):
        cs = coefficients(FIG3, 10)
        acc = 0.0
        running = 1.0
        for k in range(10):
            running /= cs.g[k]
            acc += running * cs.h[k]
        with pytest.raises(PoleError):
            general_solution(FIG3, -acc, 10, cs)

    def test_product_guard(self):
        pathological = RiccatiCoefficients((1e-320,), (1.0,))
        with pytest.raises(EscapeError):
            general_solution(RiccatiMapParams(1.0, 0.5), 1.0, 1, pathological)

    def test_short_coefficients_rejected(self):
        cs = coefficients(FIG3, 3)
        with pytest.raises(ValueError):
            general_solution(FIG3, 1.0, 5, cs)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 5.0),
           st.floats(0.05, 0.95),
           st.floats(0.3, 50.0),
           st.integers(1, 50))
    def test_shifted_seed_agrees_with_product_route(self, r, x0, gamma, n):
        p = RiccatiMapParams(r, x0)
        cs = coefficients(p, n)
        for k in range(n + 1):
            primary = general_solution(p, gamma, k)
            assert abs(primary - general_solution(p, gamma, k, cs)) <= 1e-12

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
        assert general_trajectory(p, -2.0, 20).values == (0.0,) * 21

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

    def test_general_trajectory_needs_no_coefficients(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the coefficient products were computed")

        monkeypatch.setattr("logistic_exact.map_riccati.coefficients", never)
        traj = general_trajectory(FIG3, 2.0, 10_000)
        assert len(traj) == 10_001 and abs(traj.values[-1] - 1.0) < 1e-15
