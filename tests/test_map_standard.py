import math
import random
import sys
import warnings
from itertools import repeat

import pytest
from mpmath import mpf, workprec
from mpmath.libmp import from_float

from logistic_exact import map_riccati
from logistic_exact.errors import DegeneracyError, DomainError, EscapeError
from logistic_exact.map_standard import (
    ClosedForm,
    MapParams,
    _mpfs,
    _reference,
    closed_form,
    closed_form_trajectory,
    divergence_analysis,
    iterate,
    iteration_divergence,
    oracle,
    prng_bits,
)
from logistic_exact.precision import (
    DOUBLE,
    PrecisionPolicy,
    budgeted_policy,
    compare_trajectories,
    precision_budget,
)
from routes import _CONJUGACY, conjugacy_solution, phase_oracle

SEED_RANGES = {
    ClosedForm.R2_POWER: (0.02, 0.98),
    ClosedForm.R4_COSINE: (0.02, 0.98),
    ClosedForm.RM2_COMPOSED: (-0.48, 1.48),
    ClosedForm.RM2_DIRECT: (-0.48, 1.48),
}


def random_seeds(variant, count, seed=7):
    rng = random.Random(seed)
    lo, hi = SEED_RANGES[variant]
    return [rng.uniform(lo, hi) for _ in range(count)]


class TestIterate:
    def test_zero_is_fixed(self):
        traj = iterate(MapParams(3.7, 0.0), 5)
        assert traj.values == (0,) * 6

    def test_half_seed_at_r4(self):
        traj = iterate(MapParams(4.0, 0.5), 4)
        assert [float(v) for v in traj.values] == [0.5, 1.0, 0.0, 0.0, 0.0]

    def test_first_steps_at_rm2(self):
        traj = iterate(MapParams(-2.0, 0.9), 2)
        values = [float(v) for v in traj.values]
        assert values[0] == 0.9
        assert values[1] == pytest.approx(-0.18, abs=1e-15)
        assert values[2] == pytest.approx(0.4248, abs=1e-15)

    def test_53_bits_reproduces_native_doubles(self):
        traj = iterate(MapParams(-2.0, 0.9), 60)
        x = 0.9
        for k, v in zip(traj.indices, traj.values):
            assert float(v) == x
            x = -2.0 * x * (1.0 - x)

    def test_escape(self):
        with pytest.raises(EscapeError) as err:
            iterate(MapParams(5.0, 5.0), 50)
        assert err.value.index is not None

    def test_53_bits_leaves_the_float_recurrence_where_doubles_go_subnormal(self):
        # mpf's exponent is unbounded; a double's is not
        traj = iterate(MapParams(0.5, 0.3), 1100)
        x = 0.3
        for k, v in zip(traj.indices, traj.values):
            if float(v) != x:
                break
            x = 0.5 * x * (1.0 - x)
        assert k == 1023
        assert 0.0 < x < sys.float_info.min  # the double has gone subnormal


class TestOneIteratedOrbit:
    """The oracle, and the iteration away from the doubles, are the orbit of
    ``_reference`` with every step at the policy's width."""

    @pytest.mark.parametrize("r,x0,n,bits", [
        (-2.0, 0.9, 60, 124), (4.0, 0.3, 300, None), (3.9, 0.5, 40, 1200), (0.5, 0.0, 5, 80)])
    def test_oracle(self, r, x0, n, bits):
        p = MapParams(r, x0)
        policy = budgeted_policy(n) if bits is None else PrecisionPolicy(bits)
        width = policy.significand_bits
        orbit = _mpfs(_reference(p, width, repeat(width, n)))
        got = oracle(p, n, policy if bits else None).values
        assert len(got) == n + 1
        assert all(type(v) is mpf and v._mpf_ == w._mpf_ for v, w in zip(got, orbit))

    @pytest.mark.parametrize("bits", [60, 200, 1200])
    @pytest.mark.parametrize("r,x0", [(-2.0, 0.9), (3.9, 0.3), (0.5, 0.3)])
    def test_iterate(self, r, x0, bits):
        p = MapParams(r, x0)
        got = iterate(p, 250, PrecisionPolicy(bits)).values
        orbit = _mpfs(_reference(p, bits, repeat(bits, 250)))
        assert type(got) is tuple and len(got) == 251
        assert all(type(v) is mpf and v._mpf_ == w._mpf_ for v, w in zip(got, orbit))


class TestClosedForm:
    def test_power_form_matches_arithmetic(self):
        p = MapParams(2.0, 0.25)
        value = float(closed_form(p, 1, ClosedForm.R2_POWER))
        assert value == pytest.approx(0.375, abs=1e-16)
        assert value == pytest.approx(2 * 0.25 * 0.75, abs=1e-16)

    def test_direct_form_first_step(self):
        p = MapParams(-2.0, 0.9)
        value = float(closed_form(p, 1, ClosedForm.RM2_DIRECT, budgeted_policy(1)))
        assert value == pytest.approx(-0.18, abs=1e-12)

    def test_composed_form_collapses_at_n0(self):
        p = MapParams(-2.0, 0.9)
        value = float(closed_form(p, 0, ClosedForm.RM2_COMPOSED))
        assert value == pytest.approx(0.9, abs=1e-15)

    @pytest.mark.parametrize("variant", list(ClosedForm))
    def test_n0_identity(self, variant):
        for x0 in random_seeds(variant, 10):
            p = MapParams(variant.required_r, x0)
            assert float(closed_form(p, 0, variant)) == pytest.approx(x0, abs=1e-15)

    def test_variant_mismatch_is_usage_error(self):
        with pytest.raises(ValueError):
            closed_form(MapParams(3.0, 0.5), 1, ClosedForm.R4_COSINE)

    @pytest.mark.parametrize("variant,x0", [
        (ClosedForm.R4_COSINE, -0.1),
        (ClosedForm.R4_COSINE, 1.1),
        (ClosedForm.RM2_DIRECT, -0.6),
        (ClosedForm.RM2_COMPOSED, 1.6),
    ])
    def test_seed_domains(self, variant, x0):
        with pytest.raises(DomainError):
            closed_form(MapParams(variant.required_r, x0), 1, variant)

    @pytest.mark.parametrize("variant", list(ClosedForm))
    def test_matches_oracle_at_budgeted_precision(self, variant):
        n_max = 40
        for x0 in random_seeds(variant, 10):
            p = MapParams(variant.required_r, x0)
            ref = oracle(p, n_max)
            for n in (0, 1, 5, 17, 40):
                workbits = n + 64
                value = closed_form(p, n, variant, PrecisionPolicy(workbits))
                with workprec(workbits + 64):
                    err = abs(value - ref.values[n])
                assert err < mpf(2) ** -(workbits - n - 10)

    def test_two_rm2_forms_agree(self):
        for x0 in random_seeds(ClosedForm.RM2_DIRECT, 10, seed=11):
            p = MapParams(-2.0, x0)
            for n in (0, 3, 11, 40):
                workbits = n + 64
                policy = PrecisionPolicy(workbits)
                a = closed_form(p, n, ClosedForm.RM2_DIRECT, policy)
                b = closed_form(p, n, ClosedForm.RM2_COMPOSED, policy)
                with workprec(workbits + 64):
                    assert abs(a - b) < mpf(2) ** -(workbits - n - 10)

    def test_trajectory_method_tag(self):
        p = MapParams(4.0, 0.3)
        traj = closed_form_trajectory(p, 3, ClosedForm.R4_COSINE)
        assert traj.method_tag == "closed-form:r4"
        assert traj.indices == range(4)


def exact(v):
    """A sample's raw value, exactly: an mpf's own, a double's converted."""
    return v._mpf_ if isinstance(v, mpf) else from_float(v)


class TestTrajectoryMatchesSingleStep:
    """closed_form_trajectory hoists the arccos and carries the r2 base
    forward, and a cosine form at 53 bits finishes each sample in doubles;
    each sample must still be the single-step closed form, bit for bit."""

    N = 120

    @pytest.mark.parametrize("variant,x0", [
        (ClosedForm.R2_POWER, 0.3),
        (ClosedForm.R2_POWER, 0.85),  # negative base 1 - 2*x0
        (ClosedForm.R4_COSINE, 0.3),
        (ClosedForm.RM2_COMPOSED, 0.9),
        (ClosedForm.RM2_DIRECT, -0.3),
    ])
    @pytest.mark.parametrize("budgeted", [False, True])
    def test_every_sample(self, variant, x0, budgeted):
        p = MapParams(variant.required_r, x0)
        policy = budgeted_policy(self.N) if budgeted else DOUBLE
        traj = closed_form_trajectory(p, self.N, variant, policy)
        assert traj.indices == range(self.N + 1)
        for k, value in zip(traj.indices, traj.values):
            assert exact(value) == closed_form(p, k, variant, policy)._mpf_, k

    @pytest.mark.parametrize("variant", list(ClosedForm))
    def test_n0_identity(self, variant):
        for x0 in random_seeds(variant, 5):
            p = MapParams(variant.required_r, x0)
            for policy in (DOUBLE, budgeted_policy(0)):
                traj = closed_form_trajectory(p, 0, variant, policy)
                assert traj.indices == range(1)
                assert exact(traj.values[0]) == closed_form(p, 0, variant, policy)._mpf_
                assert float(traj.values[0]) == pytest.approx(x0, abs=1e-15)

    @pytest.mark.parametrize("variant", list(ClosedForm))
    def test_sample_types(self, variant):
        # a cosine form at 53 bits holds doubles, as iterate does; r2 and every
        # form at budget bits hold mpf, and closed_form always returns mpf
        p = MapParams(variant.required_r, 0.3)
        doubles = variant is not ClosedForm.R2_POWER
        for policy, kind in ((DOUBLE, float if doubles else mpf), (budgeted_policy(40), mpf)):
            traj = closed_form_trajectory(p, 40, variant, policy)
            assert {type(v) for v in traj.values} == {kind}
            assert type(closed_form(p, 40, variant, policy)) is mpf

    def test_validates_like_single_step(self):
        with pytest.raises(ValueError):
            closed_form_trajectory(MapParams(3.0, 0.5), 1, ClosedForm.R4_COSINE)
        with pytest.raises(ValueError):
            closed_form_trajectory(MapParams(4.0, 0.5), -1, ClosedForm.R4_COSINE)
        with pytest.raises(DomainError):
            closed_form_trajectory(MapParams(-2.0, 1.6), 1, ClosedForm.RM2_COMPOSED)


R4 = MapParams(4.0, 0.3)
COUPLED = map_riccati.RiccatiMapParams(1.73, 0.333)
STEP_ENTRY_POINTS = {
    "iterate": lambda n: iterate(R4, n),
    "oracle": lambda n: oracle(R4, n),
    "phase_oracle": lambda n: phase_oracle(R4, n),
    "closed_form": lambda n: closed_form(R4, n, ClosedForm.R4_COSINE),
    "closed_form_trajectory": lambda n: closed_form_trajectory(R4, n, ClosedForm.R4_COSINE),
    "conjugacy_solution": lambda n: conjugacy_solution(R4, n, ClosedForm.R4_COSINE),
    "map_riccati.iterate": lambda n: map_riccati.iterate(COUPLED, n),
    "map_riccati.particular_solution": lambda n: map_riccati.particular_solution(COUPLED, n),
    "map_riccati.general_solution": lambda n: map_riccati.general_solution(COUPLED, 2.0, n),
    "map_riccati.particular_trajectory": lambda n: map_riccati.particular_trajectory(COUPLED, n),
    "map_riccati.general_trajectory": lambda n: map_riccati.general_trajectory(COUPLED, 2.0, n),
    "precision_budget": precision_budget,
}


@pytest.mark.parametrize("n", [-1, 2.0])
@pytest.mark.parametrize("entry", STEP_ENTRY_POINTS.values(), ids=STEP_ENTRY_POINTS.keys())
def test_step_count_must_be_a_non_negative_integer(entry, n):
    with pytest.raises(ValueError, match="non-negative integer"):
        entry(n)


class TestForwardInvariance:
    def test_rm2_interval(self):
        policy = PrecisionPolicy(256)
        for x0 in (-0.5, -0.3, 0.25, 0.9, 1.5):
            traj = iterate(MapParams(-2.0, x0), 200, policy)
            assert all(-0.5 - 1e-60 <= v <= 1.5 + 1e-60 for v in traj.values)

    def test_r4_interval(self):
        policy = PrecisionPolicy(256)
        for x0 in (0.1, 0.3, 0.7, 0.999):
            traj = iterate(MapParams(4.0, x0), 200, policy)
            assert all(-1e-60 <= v <= 1 + 1e-60 for v in traj.values)


class TestConjugacy:
    def test_cosine_pair_matches_r4_closed_form(self):
        policy = PrecisionPolicy(128)
        for x0 in (0.1, 0.3, 0.62, 0.97):
            p = MapParams(4.0, x0)
            for n in range(11):
                a = conjugacy_solution(p, n, ClosedForm.R4_COSINE, policy)
                b = closed_form(p, n, ClosedForm.R4_COSINE, policy)
                assert abs(float(a - b)) < 1e-9

    def test_exponential_pair_matches_r2_closed_form(self):
        policy = PrecisionPolicy(128)
        for x0 in (0.05, 0.2, 0.45, -0.3):
            p = MapParams(2.0, x0)
            for n in range(7):
                a = conjugacy_solution(p, n, ClosedForm.R2_POWER, policy)
                b = closed_form(p, n, ClosedForm.R2_POWER, policy)
                assert abs(float(a - b)) < 1e-9

    def test_shifted_cosine_pair_matches_iteration(self):
        policy = PrecisionPolicy(128)
        p = MapParams(-2.0, 0.9)
        ref = oracle(p, 10)
        for n in range(11):
            a = conjugacy_solution(p, n, ClosedForm.RM2_COMPOSED, policy)
            b = closed_form(p, n, ClosedForm.RM2_COMPOSED, policy)
            with workprec(200):
                assert abs(a - ref.values[n]) < 1e-8
                assert abs(a - b) < 1e-8

    def test_angle_doubling_pair_matches_simple_closed_form(self):
        policy = PrecisionPolicy(128)
        for x0 in (-0.5, -0.3, 0.25, 0.9, 1.4, 1.5):
            p = MapParams(-2.0, x0)
            for n in range(11):
                a = conjugacy_solution(p, n, ClosedForm.RM2_DIRECT, policy)
                b = closed_form(p, n, ClosedForm.RM2_DIRECT, policy)
                assert abs(float(a - b)) < 1e-30  # both good to about 2^(n - 128)

    def test_round_trips(self):
        with workprec(64):
            for variant, (f, f_inverse, (lo, hi), _) in _CONJUGACY.items():
                if variant is ClosedForm.R2_POWER:
                    lo, hi = 0.05, 3.0  # log diverges at 0 and has no upper end
                for k in range(41):
                    y = mpf(lo) + (mpf(hi) - mpf(lo)) * k / 40
                    assert abs(f(f_inverse(y)) - y) < 1e-10

    def test_exponential_pair_domain(self):
        # 1 - 2*x0 <= 0 leaves the logarithm's domain
        with pytest.raises(DomainError, match="f_inverse diverged"):
            conjugacy_solution(MapParams(2.0, 0.5), 3, ClosedForm.R2_POWER)
        with pytest.raises(DomainError, match="f_inverse argument"):
            conjugacy_solution(MapParams(2.0, 0.7), 3, ClosedForm.R2_POWER)
        with pytest.raises(DomainError):
            conjugacy_solution(MapParams(4.0, 1.2), 3, ClosedForm.R4_COSINE)
        with pytest.raises(ValueError, match="requires r=4"):
            conjugacy_solution(MapParams(2.0, 0.3), 3, ClosedForm.R4_COSINE)


class TestDivergence:
    def test_high_precision_short_run_stays_tight(self):
        p = MapParams(-2.0, 0.9)
        for variant in (ClosedForm.RM2_DIRECT, ClosedForm.RM2_COMPOSED):
            rep = divergence_analysis(p, variant, 5, 512, 0.01)
            assert rep.first_divergent_index is None
            assert rep.max_error < 1e-100

    def test_reference_experiment_window(self):
        # r=-2, x0=0.9 on a 53-bit device: both closed forms leave the oracle
        # between steps 20 and 60 at threshold 0.01
        p = MapParams(-2.0, 0.9)
        for variant in (ClosedForm.RM2_COMPOSED, ClosedForm.RM2_DIRECT):
            rep = divergence_analysis(p, variant, 60, 53, 0.01)
            assert rep.first_divergent_index is not None
            assert 20 <= rep.first_divergent_index <= 60
        rep = iteration_divergence(p, 60, 53, 0.01)
        assert rep.first_divergent_index is not None
        assert 20 <= rep.first_divergent_index <= 60

    def test_oracle_bits_override(self):
        # the default budgeted oracle and a 512-bit one pin the same index
        p = MapParams(-2.0, 0.9)
        a = divergence_analysis(p, ClosedForm.RM2_DIRECT, 60, 53, 0.01)
        b = divergence_analysis(p, ClosedForm.RM2_DIRECT, 60, 53, 0.01,
                                oracle_bits=512)
        assert a.first_divergent_index == b.first_divergent_index is not None

    @pytest.mark.parametrize("oracle_bits", [40, 53])
    def test_oracle_no_finer_than_method_is_rejected(self, oracle_bits):
        p = MapParams(-2.0, 0.9)
        with pytest.raises(ValueError, match="oracle bits"):
            divergence_analysis(p, ClosedForm.RM2_DIRECT, 60, 53, 0.01,
                                oracle_bits=oracle_bits)
        with pytest.raises(ValueError, match="oracle bits"):
            iteration_divergence(p, 60, 53, 0.01, oracle_bits=oracle_bits)
        with pytest.raises(ValueError, match="oracle bits"):
            iteration_divergence(p, 60, 128, 0.01, oracle_bits=128)


    def test_oracle_below_the_step_budget_warns(self):
        p = MapParams(-2.0, 0.9)
        with pytest.warns(UserWarning, match=r"oracle bits \(60\) are below the budget"):
            rep = iteration_divergence(p, 60, 53, 0.01, oracle_bits=60)
        assert rep == compare_trajectories(iterate(p, 60), oracle(p, 60, PrecisionPolicy(60)),
                                           0.01)
        with pytest.warns(UserWarning, match=r"\(124 bits for 60 steps\)"):
            divergence_analysis(p, ClosedForm.RM2_DIRECT, 60, 53, 0.01, oracle_bits=123)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iteration_divergence(p, 60, 53, 0.01, oracle_bits=124)
            iteration_divergence(p, 60, 53, 0.01)


class TestPrng:
    def test_degenerate_seed(self):
        with pytest.raises(DegeneracyError):
            prng_bits(0.5, 10, 0)

    def test_seed_domain(self):
        for x0 in (0.0, 1.0, -0.25, 2.0):
            with pytest.raises(DomainError):
                prng_bits(x0, 10)

    def test_deterministic(self):
        assert prng_bits(0.3, 500, 10) == prng_bits(0.3, 500, 10)

    def test_monobit_balance(self):
        bits = prng_bits(0.3, 10_000, 100)
        assert type(bits) is bytes and set(bits) == {0, 1}
        assert len(bits) == 10_000
        ones = sum(bits) / len(bits)
        assert 0.40 <= ones <= 0.60

    def test_burn_in_shifts_stream(self):
        a = prng_bits(0.3, 20, 0)
        b = prng_bits(0.3, 20, 5)
        assert a[5:] == b[:15]


class TestParams:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            MapParams(math.inf, 0.5)
        with pytest.raises(DomainError):
            MapParams(4.0, math.nan)
