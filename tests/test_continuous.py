import math
import sys
import warnings
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import exp, mpf, workprec

from logistic_exact import cli, continuous, map_riccati
from logistic_exact.continuous import (
    MAX_GRID_POINTS,
    ContinuousParams,
    RiccatiShift,
    effective_initial_condition,
    general_solution,
    grid_trajectory,
    particular_solution,
)
from logistic_exact.errors import POLE_EPS, DomainError, PoleError
from logistic_exact.precision import compare_trajectories
from routes import general_solution_correction_form, rk4_oracle

FIG1 = ContinuousParams(r=1.7, x0=0.11)
FIG1_GAMMAS = (0.14, 0.15, 0.17, 0.25)


# strategies for admissible random parameters: r in [-3,3]\{0}, x0 inside (0,1),
# gamma strictly above the lower bound x0/(1 - x0)
admissible = st.tuples(
    st.floats(-3.0, 3.0).filter(lambda r: abs(r) > 0.05),
    st.floats(0.02, 0.98),
    st.floats(-2.0, 3.0),  # log10 of the multiplier placing gamma above the bound
)


def gamma_lower_bound(x0):
    """x0/(1 - x0): for a seed in (0, 1), the smallest gamma >= 0 whose member
    starts inside [0, 1] and so is bounded for all t >= 0."""
    assert 0.0 < x0 < 1.0
    return x0 / (1.0 - x0)


def _shift_above_bound(x0, exponent):
    return RiccatiShift(gamma_lower_bound(x0) * (1.0 + 10.0 ** exponent))


class TestParticularSolution:
    def test_initial_condition(self):
        for r in (1.7, -0.3, 2.5):
            p = ContinuousParams(r, 0.11)
            assert particular_solution(0.0, p) == pytest.approx(0.11, abs=1e-16)

    def test_fixed_point_at_one(self):
        p = ContinuousParams(1.7, 1.0)
        for t in (0.0, 0.5, 3.0, 50.0):
            assert particular_solution(t, p) == 1.0

    def test_agrees_with_rk4_at_t1(self):
        p = ContinuousParams(1.7, 0.11)
        traj = rk4_oracle(p, 1.0, 1e-4)
        t, x = traj.indices[-1], traj.values[-1]
        assert t == pytest.approx(1.0)
        assert abs(particular_solution(1.0, p) - x) < 1e-8

    def test_rejects_zero_seed(self):
        with pytest.raises(DomainError):
            particular_solution(1.0, ContinuousParams(1.0, 0.0))

    @pytest.mark.parametrize("x0", [1e-320, -1e-320, 5e-324, -5.5e-309])
    def test_rejects_a_seed_whose_reciprocal_overflows(self, x0):
        # the sigmoid would start at 0.0 or -0.0, not at the seed
        with pytest.raises(DomainError, match="1/x_s overflows"):
            particular_solution(0.0, ContinuousParams(1.7, x0))

    def test_smallest_seeds_with_a_reciprocal_start_at_themselves(self):
        for x0 in (5.6e-309, -5.6e-309, 2e-308):
            assert particular_solution(0.0, ContinuousParams(1.7, x0)) == pytest.approx(
                x0, rel=1e-12, abs=0)

    def test_pole(self):
        # 1/x0 - 1 rounds to exactly -1 for huge x0, so the formula's denominator
        # is 0 at t=0; the sample there is the start x0 itself instead
        p = ContinuousParams(1.0, 1e308)
        assert particular_solution(0.0, p) == 1e308
        assert math.isfinite(particular_solution(1.0, p))

    @pytest.mark.parametrize("x0,shift", [
        (1.7976931348623157e308, RiccatiShift(1.7976931348623155e308)),  # x_s is no double
    ])
    def test_start_that_is_not_a_double_is_a_pole_at_t0(self, x0, shift):
        p = ContinuousParams(1.0, x0)
        with pytest.raises(PoleError) as err:
            grid_trajectory(p, 1.0, 0.5, shift)
        assert err.value.where == 0.0

    def test_largest_double_seed_starts_on_itself(self):
        # 1/(1/x0) overflows, but the member starts at x0 and falls towards 1
        p = ContinuousParams(1.0, 1.7976931348623157e308)
        traj = grid_trajectory(p, 1.0, 0.5)
        assert traj.values[0] == p.x0 == particular_solution(0.0, p)
        with workprec(200):
            want = [1 / (1 + (1 / mpf(p.x0) - 1) * exp(-mpf(t))) for t in (0.5, 1.0)]
        assert traj.values[1:] == pytest.approx([float(w) for w in want], rel=1e-15, abs=0)

    @pytest.mark.parametrize("t", [709.5, 709.7, 709.78, 709.9, 720, 745])
    def test_decays_until_exp_overflows(self, t):
        # exp(709.5) is a double, so the member is 7.38e-309 there, not 0.0;
        # from t = 709.79 on exp(t) overflows, but the member is still a
        # subnormal double up to t = 745
        p = ContinuousParams(-1.0, 0.5)
        with workprec(200):
            want = 1 / (1 + exp(mpf(t)))
        for got in (particular_solution(t, p), grid_trajectory(p, t, t / 2).values[-1]):
            assert got > 0.0
            assert abs(mpf(got) - want) <= 5e-324  # within one subnormal ulp

    @pytest.mark.parametrize("t", [709.0, 709.5, 709.75])
    def test_decays_where_c_times_exp_overflows(self, t):
        # c = 3 and exp(t) is a double, but c*exp(t) overflows; the column read
        # 1/(1 + inf) = 0.0 there, for 4.06e-309 at t = 709
        p = ContinuousParams(-1.0, 0.25)
        with workprec(200):
            want = 1 / (1 + 3 * exp(mpf(t)))
        for got in (particular_solution(t, p), grid_trajectory(p, t, t).values[-1]):
            assert got > 0.0
            assert abs(mpf(got) - want) <= 5e-324  # within one subnormal ulp

    def test_zero_past_the_subnormals(self):
        # 1/(1 + e^746) is about 1.0e-324, below half the smallest subnormal
        p = ContinuousParams(-1.0, 0.5)
        assert particular_solution(746.0, p) == 0.0
        assert grid_trajectory(p, 746.0, 373.0).values[-1] == 0.0

    @pytest.mark.parametrize("t", [800.0, 1419.0, 1e5])
    @pytest.mark.parametrize("x0,sign", [(-0.2, -1.0), (0.5, 1.0)])
    def test_a_zero_is_signed_as_the_quotient(self, x0, sign, t):
        # at t = 800 the quotient underflows, from t = 1419.6 on exp(t/2)
        # overflows too: either way the zero takes the sign of c = 1/x0 - 1
        p = ContinuousParams(-1.0, x0)
        for got in (particular_solution(t, p), grid_trajectory(p, t, t / 2).values[-1]):
            assert got == 0.0 and math.copysign(1.0, got) == sign

    def test_high_precision_path_matches_double(self):
        p = ContinuousParams(1.7, 0.11)
        with workprec(200):
            hi = 1 / (1 + (1 / mpf(p.x0) - 1) * exp(-mpf(p.r) * mpf(2.5)))
        lo = particular_solution(2.5, p)
        assert abs(float(hi) - lo) < 1e-15


class TestGeneralSolution:
    def test_initial_condition_is_shifted(self):
        p = ContinuousParams(1.7, 0.11)
        s = RiccatiShift(0.25)
        expected = 0.25 * 0.11 / (0.25 - 0.11)
        assert general_solution(0.0, p, s) == pytest.approx(expected, abs=1e-15)

    def test_large_gamma_recovers_particular(self):
        p = ContinuousParams(1.7, 0.11)
        s = RiccatiShift(1e12)
        diff = abs(general_solution(1.0, p, s) - particular_solution(1.0, p))
        assert diff < 1e-9

    def test_reference_sweep_ordering(self):
        # the four reference gammas all lie above the bound; larger gamma
        # hugs the particular curve from above and everything tends to 1
        for g in FIG1_GAMMAS:
            assert g > gamma_lower_bound(FIG1.x0)
        shifts = [RiccatiShift(g) for g in FIG1_GAMMAS]
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            values = [general_solution(t, FIG1, s) for s in shifts]
            base = particular_solution(t, FIG1)
            assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
            assert values[-1] > base
        for s in shifts:
            assert abs(general_solution(10.0, FIG1, s) - 1.0) < 1e-6

    def test_pole_on_range_boundary(self):
        # gamma == x0/(1-x0) restarts the sigmoid from 1: the member is the fixed point 1
        p = ContinuousParams(1.7, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.0, 1.0, 5.0):
                assert general_solution(t, p, RiccatiShift(1.0)) == 1.0

    def test_gamma_equal_seed_is_pole(self):
        # gamma = 0.11 is below the bound too, but the start's own error comes first
        p = ContinuousParams(1.7, 0.11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError):
                general_solution(1.0, p, RiccatiShift(0.11))
            with pytest.raises(PoleError):
                grid_trajectory(p, 1.0, 0.5, RiccatiShift(0.11))

    @pytest.mark.parametrize("r,gamma,t,has_pole", [
        (1.7, 0.08, 0.5, True),  # starts at -0.293: a pole at t = 0.873
        (1.7, -1.0, 0.1, False),  # starts at 0.099 and rises to 1
        (1.7, 0.119, 0.1, False),  # starts at 1.454 and decays to 1: its pole is at t < 0
        (1.7, 0.05, 0.1, True),  # starts at -0.092: a pole at t = 1.457
        (-1.7, 0.05, 0.1, False),  # starts at -0.092 and decays to 0
        (-1.7, 0.119, 0.1, True),  # starts at 1.454: a pole at t = 0.431
        (-1.7, -1.0, 0.1, False)])
    def test_pole_rule_refuses_only_a_pole_after_0(self, r, gamma, t, has_pole):
        # every gamma here is below the bound 0.1236; the member is finite before
        # its pole, and only a member that blows up at some t > 0 has a long grid
        # refused
        p, shift = ContinuousParams(r, 0.11), RiccatiShift(gamma)
        assert math.isfinite(general_solution(t, p, shift))
        if has_pole:
            with pytest.raises(PoleError) as err:
                grid_trajectory(p, 50.0, 0.5, shift)
            assert 0 < err.value.where <= 50.0
        else:  # bounded for all t >= 0: a long grid is sampled, not refused
            assert all(map(math.isfinite, grid_trajectory(p, 50.0, 0.5, shift).values))

    @pytest.mark.parametrize("x0,gamma", [(1e-320, 0.14), (-1e-320, 0.14), (1e-320, 1e-10),
                                          (-2.0, 1e-320), (3.0, -5e-324)])
    def test_rejects_a_start_whose_reciprocal_overflows(self, x0, gamma):
        # x_s = gamma*x0/(gamma - x0) is below 5.6e-309 in magnitude
        with pytest.raises(DomainError, match="1/x_s overflows"):
            general_solution(0.0, ContinuousParams(1.7, x0), RiccatiShift(gamma))

    def test_start_when_gamma_times_x0_underflows(self):
        # gamma*x0 is 0.0 as a double, yet the member starts at 2e-200
        p, shift = ContinuousParams(1.7, 1e-200), RiccatiShift(2e-200)
        assert effective_initial_condition(p, shift) == pytest.approx(2e-200, rel=1e-15, abs=0)
        assert general_solution(0.0, p, shift) == pytest.approx(2e-200, rel=1e-15, abs=0)

    @pytest.mark.parametrize("x0,gamma,x_start", [
        (1e200, 2e200, 2e200), (1e308, -1e308, 5e307)])  # the second: gamma - x0 too
    def test_start_when_gamma_times_x0_overflows(self, x0, gamma, x_start):
        p, shift = ContinuousParams(1.0, x0), RiccatiShift(gamma)
        assert effective_initial_condition(p, shift) == pytest.approx(x_start, rel=1e-15)
        traj = grid_trajectory(p, 1.0, 0.5, shift)
        assert traj.values[0] == pytest.approx(x_start, rel=1e-15)
        assert all(math.isfinite(v) for v in traj.values)

    @settings(max_examples=100, deadline=None)
    @given(admissible.map(lambda a: (a[0], a[1], _shift_above_bound(a[1], a[2]))),
           st.floats(0.0, 10.0))
    @example((1.0, 0.5, RiccatiShift(-1e-300)), 709.5)  # exp(r*t) is near the doubles' top
    def test_two_printed_forms_agree(self, member, t):
        r, x0, s = member
        p = ContinuousParams(r, x0)
        a = general_solution(t, p, s)
        b = general_solution_correction_form(t, p, s)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-30)

    @settings(max_examples=100, deadline=None)
    @given(admissible, st.floats(0.1, 9.9))
    def test_ode_residual(self, params, t):
        # centered finite difference of the evaluated family member matches
        # r*x*(1-x): the direct check that the formula solves the equation
        r, x0, ge = params
        p = ContinuousParams(r, x0)
        s = _shift_above_bound(x0, ge)
        h = 1e-6
        x = general_solution(t, p, s)
        dx = (general_solution(t + h, p, s) - general_solution(t - h, p, s)) / (2 * h)
        assert abs(dx - r * x * (1.0 - x)) < 1e-4

    @settings(max_examples=100, deadline=None)
    @given(admissible, st.floats(0.0, 10.0))
    def test_reinitialization_closure(self, params, t):
        # the free constant only shifts the initial condition
        r, x0, ge = params
        p = ContinuousParams(r, x0)
        s = _shift_above_bound(x0, ge)
        x_eff = effective_initial_condition(p, s)
        restarted = particular_solution(t, ContinuousParams(r, x_eff))
        assert abs(general_solution(t, p, s) - restarted) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 3.0), st.floats(0.02, 0.98))
    def test_monotone_approach(self, r, x0):
        p = ContinuousParams(r, x0)
        ts = [0.25 * k for k in range(41)]
        values = [particular_solution(t, p) for t in ts]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0).filter(lambda r: abs(r) > 0.05 and r != -1.0),
       st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                 st.floats(1.0, 1e300, exclude_min=True), st.floats(-1e300, -1e-300)),
       st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
@example(1.7, 0.11, 0.25)  # figure 1's seed: 1/(1/0.11) is 0.10999999999999999
def test_every_start_sample_is_the_start_rounded_once(r, x0, gamma):
    # the ODE member starts at gamma*x0/(gamma - x0) rounded once, and the
    # coupled map's member at its seed x0 + 1/gamma rounded once
    assume(gamma != x0)
    g, x = Fraction(gamma), Fraction(x0)
    x_s = float(g * x / (g - x))
    p, shift = ContinuousParams(r, x0), RiccatiShift(gamma)
    m, seed = map_riccati.RiccatiMapParams(r, x0), float(x + 1 / g)
    assert particular_solution(0.0, p) == x0
    assert general_solution(0.0, p, shift) == effective_initial_condition(p, shift) == x_s
    assert map_riccati.particular_solution(m, 0) == x0
    assert map_riccati.general_solution(m, gamma, 0) == seed
    for build, start in ((lambda: grid_trajectory(p, 1.0, 0.5), x0),
                         (lambda: grid_trajectory(p, 1.0, 0.5, shift), x_s),
                         (lambda: map_riccati.particular_trajectory(m, 3), x0),
                         (lambda: map_riccati.general_trajectory(m, gamma, 3), seed)):
        try:
            assert build().values[0] == start
        except PoleError as err:  # a blow-up after the start
            assert err.where > 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 2**20).map(lambda k: 1 - k * 2.0 ** -53), st.none()),
                 st.tuples(st.floats(0.01, 0.99), st.floats(0.1, 1e3) | st.floats(-1e3, -0.1))),
       st.floats(0.1, 3.0) | st.floats(-3.0, -0.1), st.floats(1.0, 100.0))
@example((1 - 2.0 ** -53, None), -1.0, 700.0)  # 1/x0 - 1 in doubles was 2^-52, twice c
def test_every_normal_sample_within_bound_of_300_bit_member(member, r, t):
    # x = 1/(1 + c*e), e = exp(-r*t): the rounding of c, of r*t (|r*t| ulp of
    # e) and of exp pass into x times |c*e/(1 + c*e)| = |1 - x|, and the
    # product, the sum and the quotient add about one ulp.  A start near 1
    # whose c cancelled in doubles, x0 = 1 - k*2^-53, broke this bound.
    (x0, gamma), p = member, ContinuousParams(r, member[0])
    shift = None if gamma is None else RiccatiShift(gamma)
    try:
        got = grid_trajectory(p, t, t, shift).values[-1]
    except PoleError:  # the grid reaches the member's pole
        assume(False)
    with workprec(300):
        x_s = mpf(x0) if gamma is None else mpf(gamma) * x0 / (mpf(gamma) - x0)
        want = 1 / (1 + (1 / x_s - 1) * exp(-mpf(r) * t))
    x = float(want)
    assume(abs(x) >= 2.0 ** -1022)  # the bound is relative
    assert abs(mpf(got) - want) <= (2 + 2 * abs(1 - x) * (abs(r * t) + 2)) * math.ulp(x)


def test_figure1_within_2_5_ulp_of_300_bit_member():
    # the gate of figure 1's golden rows: every sample, members included, is
    # within 2.5 ulp of the member at 300 bits (worst 2.27; 2.83 when c was
    # formed in doubles); the exponent's rounding (|r*t| up to 17) is the rest
    preset = cli.FIGURE_PRESETS["1"]
    worst = 0.0
    for label, traj in cli._run_figure("1")["series"]:
        with workprec(300):
            x0 = mpf(preset["x0"])
            g = None if label == "particular" else mpf(float(label.split("=")[1]))
            x_s = x0 if g is None else g * x0 / (g - x0)
            for t, v in zip(traj.indices, traj.values):
                want = 1 / (1 + (1 / x_s - 1) * exp(-mpf(preset["r"]) * t))
                worst = max(worst, float(abs(mpf(v) - want)) / math.ulp(float(want)))
    assert worst <= 2.5


class TestEffectiveInitialCondition:
    def test_value(self):
        p = ContinuousParams(1.7, 0.11)
        assert effective_initial_condition(p, RiccatiShift(0.25)) == pytest.approx(
            0.25 * 0.11 / 0.14, abs=1e-15)

    def test_large_gamma_limit(self):
        p = ContinuousParams(1.7, 0.11)
        assert abs(effective_initial_condition(p, RiccatiShift(1e12)) - 0.11) < 1e-10

    def test_half_and_one(self):
        p = ContinuousParams(1.0, 0.5)
        assert effective_initial_condition(p, RiccatiShift(1.0)) == 1.0

    def test_pole(self):
        p = ContinuousParams(1.0, 0.25)
        with pytest.raises(PoleError):
            effective_initial_condition(p, RiccatiShift(0.25))


class TestRk4Oracle:
    def test_fixed_points(self):
        for x0, value in ((0.0, 0.0), (1.0, 1.0)):
            traj = rk4_oracle(ContinuousParams(2.0, x0), 5.0, 0.01)
            assert all(v == value for v in traj.values)

    def test_tracks_particular_solution(self):
        traj = rk4_oracle(FIG1, 10.0, 1e-3)
        worst = max(abs(v - particular_solution(t, FIG1))
                    for t, v in zip(traj.indices, traj.values))
        assert worst < 1e-10

    def test_method_tag(self):
        traj = rk4_oracle(FIG1, 1.0, 0.01)
        assert traj.method_tag == "ode-rk4"

    def test_guards(self):
        with pytest.raises(ValueError):
            rk4_oracle(FIG1, 1.0, 2.0)  # dt > t_end
        with pytest.raises(ValueError):
            rk4_oracle(ContinuousParams(100.0, 0.1), 1.0, 0.01)  # |r|*dt too big


class TestGridTrajectory:
    def test_samples_are_the_pointwise_closed_forms(self):
        traj = grid_trajectory(FIG1, 10.0, 0.02)
        assert traj.method_tag == "ode-closed-form"
        assert traj.precision.significand_bits == 53
        assert len(traj) == 501
        assert all(v == particular_solution(t, FIG1)
                   for t, v in zip(traj.indices, traj.values))
        for g in FIG1_GAMMAS:
            shift = RiccatiShift(g)
            traj = grid_trajectory(FIG1, 10.0, 0.02, shift)
            assert all(v == general_solution(t, FIG1, shift)
                       for t, v in zip(traj.indices, traj.values))

    @pytest.mark.parametrize("t_end,dt", [(10.0, 0.02), (1.0, 0.3), (0.25, 0.25), (7.0, 0.07)])
    def test_same_grid_as_rk4(self, t_end, dt):
        p = ContinuousParams(0.3, 0.11)
        assert grid_trajectory(p, t_end, dt).indices == rk4_oracle(p, t_end, dt).indices

    def test_compares_with_rk4(self):
        rep = compare_trajectories(grid_trajectory(FIG1, 10.0, 0.02),
                                   rk4_oracle(FIG1, 10.0, 0.02), 1e-6)
        assert rep.first_divergent_index is None
        assert rep.max_error < 1e-8
        # a family member is the particular solution restarted from a shifted seed
        shift = RiccatiShift(0.25)
        shifted = ContinuousParams(FIG1.r, effective_initial_condition(FIG1, shift))
        rep = compare_trajectories(grid_trajectory(FIG1, 10.0, 0.02, shift),
                                   rk4_oracle(shifted, 10.0, 0.02), 1e-6)
        assert rep.max_error < 1e-8

    # the last two seeds lie inside (0, 1), with a gamma below the bound
    @pytest.mark.parametrize("r,x0,gamma,x_start", [
        (1.7, -0.5, None, -0.5), (-1.7, 2.0, None, 2.0), (1.7, 2.0, 1.0, -2.0),
        (1.7, 0.11, 0.08, -0.29333333333333333), (-1.7, 0.9, 2.0, 1.6363636363636362)])
    def test_pole_inside_the_grid_is_refused(self, r, x0, gamma, x_start, monkeypatch):
        p = ContinuousParams(r, x0)
        shift = None if gamma is None else RiccatiShift(gamma)
        t_pole = math.log(1.0 - 1.0 / x_start) / r
        before = grid_trajectory(p, 0.6 * t_pole, 0.01 * t_pole, shift)
        assert all(math.isfinite(v) for v in before.values)

        def never(*args, **kwargs):
            raise AssertionError("evaluated a point of a grid that crosses a pole")

        monkeypatch.setattr(continuous, "_sigmoid", never)
        with pytest.raises(PoleError) as err:
            grid_trajectory(p, 1.0, 0.05, shift)
        assert err.value.where == pytest.approx(t_pole, rel=1e-15)

    def test_pole_is_found_when_gamma_times_x0_underflows(self, monkeypatch):
        # x_s is about -1e-193, so the member blows up at ln(1 + 1e193)/1.7
        p, shift = ContinuousParams(1.7, -1e-200), RiccatiShift(-1.0000001e-200)
        t_pole = math.log1p(-1.0 / effective_initial_condition(p, shift)) / 1.7
        assert 261 < t_pole < 262

        def never(*args, **kwargs):
            raise AssertionError("evaluated a point of a grid that crosses a pole")

        monkeypatch.setattr(continuous, "_sigmoid", never)
        with pytest.raises(PoleError) as err:
            grid_trajectory(p, 265.0, 1.0, shift)
        assert err.value.where == pytest.approx(t_pole, rel=1e-12)

    def test_pole_of_a_huge_start(self):
        # c = 1/x_s - 1 rounds to -1 for x_s = 1e17, so ln(-c) is 0; the pole
        # time reads q = 1/x_s instead, and the grid is refused
        with pytest.raises(PoleError) as err:
            grid_trajectory(ContinuousParams(-1.0, 1e17), 1.0, 0.5)
        assert err.value.where == 1e-17

    def test_pole_of_a_start_just_above_1(self):
        # x_s = 2^54/(2^54 - 1): q = 1/x_s rounds to 1, so ln(1 - q) is no
        # number; the pole time reads c = -2^-54 instead, t* = 54*ln(2)
        p, shift = ContinuousParams(-1.0, -2.0 ** 54), RiccatiShift(-1.0)
        with pytest.raises(PoleError) as err:
            grid_trajectory(p, 50.0, 1.0, shift)
        assert err.value.where == pytest.approx(54 * math.log(2), rel=1e-15)

    @pytest.mark.parametrize("x0", [1e-320, -1e-320])
    @pytest.mark.parametrize("shift", [None, RiccatiShift(0.14)])
    def test_subnormal_seed_is_refused(self, x0, shift):
        # refused at the first sample, though the pole of -1e-320 lies near t = 433
        with pytest.raises(DomainError, match="1/x_s overflows"):
            grid_trajectory(ContinuousParams(1.7, x0), 1000.0, 1.0, shift)

    @pytest.mark.parametrize("shift", [None, RiccatiShift(0.5)])
    def test_zero_seed_is_refused(self, shift):
        with pytest.raises(DomainError, match="requires x0 != 0"):
            grid_trajectory(ContinuousParams(1.7, 0.0), 1.0, 0.05, shift)

    def test_bad_grid(self):
        for t_end, dt in ((1.0, 2.0), (1.0, 0.0), (1.0, -0.5), (math.inf, 0.1),
                          (1.0, math.nan)):
            with pytest.raises(ValueError):
                grid_trajectory(FIG1, t_end, dt)
            with pytest.raises(ValueError):
                rk4_oracle(FIG1, t_end, dt)

    def test_huge_grid_refused_before_evaluating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("evaluated a point of a grid that should be refused")

        monkeypatch.setattr(continuous, "_sigmoid", never)
        for t_end, dt in ((1e300, 1e-300), (1e9, 1e-9), (float(MAX_GRID_POINTS), 1.0)):
            for shift in (None, RiccatiShift(0.25)):
                with pytest.raises(ValueError, match="grid points"):
                    grid_trajectory(FIG1, t_end, dt, shift)
        with pytest.raises(ValueError, match="grid points"):
            rk4_oracle(FIG1, 1e300, 1e-300)
        # the largest grid allowed holds MAX_GRID_POINTS points
        with pytest.raises(AssertionError):
            grid_trajectory(FIG1, MAX_GRID_POINTS - 1.0, 1.0)

    def test_last_time_past_the_doubles_is_refused_before_evaluating(self, monkeypatch):
        # t_end/dt = 1.798 rounds to 2 steps, whose last time 2e308 overflows;
        # one step of the largest double is a grid
        big = sys.float_info.max
        assert continuous._grid_steps(big, big) == 1
        assert continuous._grid_steps(big, big / 2) == 2
        monkeypatch.setattr(continuous, "_pack", None)
        for shift in (None, RiccatiShift(0.25)):
            with pytest.raises(ValueError, match="last time 2 \\* 1e\\+308 is past the largest"):
                grid_trajectory(FIG1, big, 1e308, shift)
        with pytest.raises(ValueError, match="past the largest double"):
            rk4_oracle(FIG1, big, 1e308)


class TestParams:
    def test_rejects_zero_rate(self):
        with pytest.raises(DomainError):
            ContinuousParams(0.0, 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ContinuousParams(math.nan, 0.5)
        with pytest.raises(DomainError):
            RiccatiShift(math.inf)

    def test_rejects_zero_gamma(self):
        with pytest.raises(DomainError):
            RiccatiShift(0.0)


def sigmoid_point(c, decay, arg, where, axis="t"):
    """The sigmoid's per-point rule, one sample at a time: the reference that
    the column kernel must equal, sample for sample and error for error."""
    if c == 0:
        return 1.0
    try:
        cd = c * decay(arg)
    except OverflowError:
        cd = math.inf
    if math.isinf(cd):  # the decay or c times it overflows
        h = arg // 2
        try:
            return 1.0 / (c * decay(h)) / decay(arg - h)
        except OverflowError:
            return math.copysign(0.0, c * decay(arg % 2))
    den = 1.0 + cd
    if abs(den) < POLE_EPS:
        raise PoleError(f"solution has a pole at {axis}={where!r}", where=where)
    return 1.0 / den


def outcome(evaluate):
    """The samples' reprs, zeros by their sign, or the pole refused."""
    try:
        return [repr(v) for v in evaluate()]
    except PoleError as err:
        return ("pole", str(err), err.where)


def per_point(c, decay, rate, wheres, axis="t"):
    return outcome(lambda: [sigmoid_point(c, decay, rate * w, w, axis) for w in wheres])


def column(c, decay, rate, wheres, axis="t"):
    return outcome(lambda: continuous._sigmoid(c, decay, rate, wheres, axis))


class TestSigmoidColumn:
    def test_ode_decay_overflows_mid_column(self):
        # exp(t) overflows past t = 709.78, and the samples turn subnormal
        traj = grid_trajectory(ContinuousParams(-1.0, 0.5), 720.0, 0.25)
        assert 0 < traj.values[-1] < 1e-308
        expected = ["0.5"] + per_point(1.0, math.exp, 1.0, traj.indices[1:])
        assert outcome(lambda: traj.values) == expected

    def test_map_decay_overflows_mid_column(self):
        # 0.5^-n overflows past n = 1,024
        traj = map_riccati.particular_trajectory(map_riccati.RiccatiMapParams(-0.5, 0.5), 1070)
        assert 0 < traj.values[-1] < 1e-308
        expected = ["0.5"] + per_point(1.0, partial(pow, 0.5), -1, range(1, 1071), "n")
        assert outcome(lambda: traj.values) == expected

    def test_zero_constant(self):
        # x0 = 1 is the fixed point: c = 1/x0 - 1 = 0, whatever the decay does
        assert tuple(grid_trajectory(ContinuousParams(-1.0, 1.0), 800.0, 0.5).values) == (
            (1.0,) * 1601)
        traj = map_riccati.particular_trajectory(map_riccati.RiccatiMapParams(-0.5, 1.0), 1100)
        assert tuple(traj.values) == (1.0,) * 1101

    def test_pole_is_refused_where_it_lies(self):
        # c = 1/x0 - 1 = -8 and 2^-3 * c = -1: the third sample's denominator is 0
        x0 = -0.14285714285714285
        with pytest.raises(PoleError) as err:
            map_riccati.particular_trajectory(map_riccati.RiccatiMapParams(1.0, x0), 6)
        assert (str(err.value), err.value.where) == ("solution has a pole at n=3", 3)
        assert outcome(lambda: map_riccati.particular_trajectory(
            map_riccati.RiccatiMapParams(1.0, x0), 6).values) == per_point(
            1 / x0 - 1, partial(pow, 2.0), -1, range(1, 7), "n")
        # a one-point column: c*exp(-1) rounds to -1 at t = 1
        p = ContinuousParams(1.0, -0.5819767068693265)
        with pytest.raises(PoleError) as err:
            particular_solution(1.0, p)
        assert (str(err.value), err.value.where) == ("solution has a pole at t=1.0", 1.0)
        assert outcome(lambda: [particular_solution(1.0, p)]) == per_point(
            1 / p.x0 - 1, math.exp, -p.r, (1.0,))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-3.0, 3.0),
           st.lists(st.floats(-1000.0, 1000.0), max_size=12))
    def test_exp_column_is_the_per_point_rule(self, c, rate, wheres):
        assert column(c, math.exp, rate, wheres) == per_point(c, math.exp, rate, wheres)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-3.0, 3.0).filter(bool),
           st.lists(st.integers(1, 3000), max_size=12))
    @example(65536.0, 2.0**-24, [42])  # c*base^-42 = 2^1024 overflows, base^-42 does not
    def test_pow_column_is_the_per_point_rule(self, c, base, steps):
        decay = partial(pow, base)
        assert column(c, decay, -1, steps, "n") == per_point(c, decay, -1, steps, "n")
