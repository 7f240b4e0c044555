"""The phase-digit evaluator for r = 4 and r = -2, and the reference each
divergence run takes: the evaluator, the iterated oracle sized by the orbit's
own stretching behind a running error bound, or the iterated oracle, tapered
unless the oracle's width is given."""

import hashlib
import json
import math
import operator
from array import array
from fractions import Fraction
from itertools import islice, repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from logistic_exact import map_standard
from logistic_exact.cli import main
from logistic_exact.errors import DomainError, EscapeError
from logistic_exact.map_standard import (
    ClosedForm,
    MapParams,
    _compare_pairs,
    closed_form_trajectory,
    compare_trajectories,
    divergence_reports,
    iterate,
    iteration_divergence,
    oracle,
    oracle_policy,
)
from logistic_exact.precision import DOUBLE, METHOD_ORACLE, PrecisionPolicy, budgeted_policy
from routes import phase_oracle, tapered_oracle

P = 53 + 75  # bits of a phase sample at 53 working bits
N = map_standard._PHASE_MIN_STEPS
S = map_standard._SIZED_MIN_STEPS


def check_against_iterated_oracle(p, n):
    """The reports against the phase evaluator equal those against the
    iterated oracle of the same budget for k <= n - 64; in the last 64 steps
    they differ by no more than the two references do, which is at most
    2^(k - B + 4), or the iterated oracle's own distance from the orbit,
    plus 2^-(P - 2)."""
    it = iterate(p, n)
    a = oracle(p, n)
    b = phase_oracle(p, n)
    policy = a.precision
    budget = policy.significand_bits
    true = oracle(p, n, PrecisionPolicy(2 * budget))
    ea = compare_trajectories(it, a, 0.01).per_step_abs_error
    eb = compare_trajectories(it, b, 0.01).per_step_abs_error
    assert (b.method_tag, b.precision, b.indices) == (METHOD_ORACLE, policy, a.indices)
    with workprec(2 * budget + 64):
        for k in range(n + 1):
            xa, xb, xt = a.values[k], b.values[k], true.values[k]
            # read off the phase digits, or the budgeted iteration itself
            assert xb._mpf_ == xa._mpf_ or abs(xb - xt) <= mpf(2) ** (2 - P), k
            if k <= n - 64:
                assert eb[k] == ea[k], k
            else:
                bound = (mpf(2) ** (k - budget + 4) + abs(xa - xt) + mpf(2) ** (2 - P)
                         + mpf(2) ** -52 * max(ea[k], eb[k]))  # two roundings to double
                assert abs(mpf(eb[k]) - mpf(ea[k])) <= bound, k


def check_good_to_2_pow_minus_p(p, n):
    """Every sample of the phase evaluator lies within 2^-(P - 2) of a 3n-bit orbit."""
    b = phase_oracle(p, n)
    true = oracle(p, n, PrecisionPolicy(3 * n))
    with workprec(3 * n + 64):
        assert max(abs(u - v) for u, v in zip(b.values, true.values)) <= mpf(2) ** (2 - P)


class TestPhaseOracle:
    @settings(max_examples=15, deadline=None)
    @given(x0=st.floats(0.0, 1.0), n=st.integers(0, 1500))
    def test_r4_reports_match_the_iterated_oracle(self, x0, n):
        check_against_iterated_oracle(MapParams(4.0, x0), n)

    @settings(max_examples=15, deadline=None)
    @given(x0=st.floats(-0.5, 1.5), n=st.integers(0, 1500))
    def test_rm2_reports_match_the_iterated_oracle(self, x0, n):
        check_against_iterated_oracle(MapParams(-2.0, x0), n)

    @pytest.mark.parametrize("r,x0", [(4.0, x) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
                             + [(-2.0, x) for x in (-0.5, 0.0, 0.5, 1.0, 1.5)])
    def test_rational_phase_orbits_are_exact(self, r, x0):
        # the 53-bit iteration follows these orbits exactly, so every sample
        # is the budgeted iteration's, and so is every report
        p = MapParams(r, x0)
        a, b = oracle(p, N), phase_oracle(p, N)
        assert [v._mpf_ for v in b.values] == [v._mpf_ for v in a.values]
        it = iterate(p, N)
        assert (compare_trajectories(it, b, 0.01).per_step_abs_error
                == compare_trajectories(it, a, 0.01).per_step_abs_error)
        assert iteration_divergence(p, N, 53, 0.01) == compare_trajectories(it, a, 0.01)

    @pytest.mark.parametrize("r,x0", [(4.0, 0.3), (-2.0, 0.9), (4.0, 1 - 2**-53),
                                      (-2.0, 1.5 - 2**-52), (-2.0, 1e-300),
                                      # orbits that pass within 2^-60 of an end
                                      # of the interval, where a rounding on the
                                      # fixed binary point would stretch most:
                                      # the budgeted iteration carries these
                                      # past it, up to steps 26 to 52
                                      (4.0, 2.0**-60), (4.0, 0.5 + 2**-40),
                                      (-2.0, -0.5 + 2**-53)])
    def test_samples_good_to_2_pow_minus_p(self, r, x0):
        # seeds near a fixed point or a rational phase keep the budgeted
        # iteration for as long as the 53-bit orbit follows them
        check_good_to_2_pow_minus_p(MapParams(r, x0), 400)

    @pytest.mark.parametrize("r,x0,digest", [
        (4.0, 0.3, "a5ce747a34597066ea3ee3a1f0a2583758da9ededfa8ea2686bcd39d5344ba91"),
        (-2.0, 0.9, "2c0b2bd316e566fdf427617e43c79fde12471c5ba978e9cb1a3760ea9bffd37c"),
        (-2.0, 1.4999999, "f8a3cf71d8e8bf49d77e35aac8225d7d72e53bf28343af1039dae56f67fd6154"),
        # the 53-bit iteration follows these tiny seeds for about 120 and 520
        # steps, past one and past eight 64-step blocks
        (4.0, 2.0**-200, "d35203e2d70d54a0af971a05da611564aa1ec4780c646b680ac48852cb8f3733"),
        (4.0, 1e-300, "d2b9809aad8c0bc9e84f68cfeba27af9f27729904d83e18f2c7c3b30455dab5d")],
        ids=["4.0-0.3", "-2.0-0.9", "-2.0-1.4999999", "4.0-2**-200", "4.0-1e-300"])
    def test_raw_samples_are_pinned(self, r, x0, digest):
        # every bit of every sample: a report only sees the reference down to
        # about 2^-60 of an error near 1
        values = phase_oracle(MapParams(r, x0), 2700).values
        assert hashlib.sha256(repr([v._mpf_ for v in values]).encode()).hexdigest() == digest

    def test_validation(self):
        with pytest.raises(ValueError, match="r=4 or r=-2"):
            phase_oracle(MapParams(3.9, 0.3), 10)
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            phase_oracle(MapParams(4.0, 1.2), 10)
        with pytest.raises(DomainError, match=r"outside \[-0.5, 1.5\]"):
            phase_oracle(MapParams(-2.0, -0.6), 10)
        with pytest.raises(ValueError, match="non-negative"):
            phase_oracle(MapParams(4.0, 0.3), -1)


@st.composite
def phase_seeds(draw):
    """r = 4 or r = -2 with a seed anywhere in the map's invariant interval."""
    r = draw(st.sampled_from([4.0, -2.0]))
    return MapParams(r, draw(st.floats(0.0, 1.0) if r == 4.0 else st.floats(-0.5, 1.5)))


class TestReseeding:
    @pytest.mark.parametrize("r,x0", [(4.0, 0.3), (-2.0, 0.9)])
    def test_one_cosine_per_64_steps(self, r, x0, monkeypatch):
        cosines = []
        real = map_standard.mpf_cos

        def counting(*args):
            cosines.append(args)
            return real(*args)

        monkeypatch.setattr(map_standard, "mpf_cos", counting)
        phase_oracle(MapParams(r, x0), N)
        assert 0 < len(cosines) <= math.ceil(N / 64) + 1

    @settings(max_examples=20, deadline=None)
    @given(phase_seeds(), st.integers(200, 700))
    # phi needs the seed's exact argument: 1 - 2*x0 rounded at the phase's
    # width reads 1 here, a phase of 0, whose re-seed at step 533 reads 0
    # where the orbit is near 0.39
    @example(MapParams(4.0, 2.0**-1022), 533)
    def test_samples_good_to_2_pow_minus_p_across_blocks(self, p, n):
        check_good_to_2_pow_minus_p(p, n)


def check_tapered_reference(p, n, working_bits):
    """The reports against the tapered reference a divergence run takes equal
    those against the fixed-width oracle of the same width W, except at a
    rounding tie; there they differ by no more than 2^(k - W + 4), or the
    fixed-width oracle's own distance from the orbit, plus two roundings to
    double.  No tapered sample is wider than W, and none is further from the
    orbit than that bound."""
    policy = oracle_policy(n, working_bits, None)
    width = policy.significand_bits
    fixed = oracle(p, n, policy)
    tapered = tapered_oracle(p, n, policy, working_bits + 128)
    it = iterate(p, n, PrecisionPolicy(working_bits))
    ea = compare_trajectories(it, fixed, 0.01).per_step_abs_error
    eb = compare_trajectories(it, tapered, 0.01).per_step_abs_error
    true = oracle(p, n, PrecisionPolicy(2 * width))
    assert (tapered.method_tag, tapered.precision, tapered.indices) == (
        METHOD_ORACLE, policy, fixed.indices)
    with workprec(2 * width + 64):
        for k in range(n + 1):
            xa, xb, xt = fixed.values[k], tapered.values[k], true.values[k]
            assert xb._mpf_[3] <= width, k
            if k <= 64:  # the first 64 steps run at the full width
                assert xb._mpf_ == xa._mpf_, k
            assert abs(xb - xt) <= mpf(2) ** (k - width + 4) + abs(xa - xt), k
            if eb[k] != ea[k]:
                bound = (mpf(2) ** (k - width + 4) + abs(xa - xt)
                         + mpf(2) ** -52 * max(ea[k], eb[k]))  # two roundings to double
                assert abs(mpf(eb[k]) - mpf(ea[k])) <= bound, k


def bounded_run(p, bits, widths):
    """The pairs that ``_bounded`` yields over ``_reference(p, bits, widths)``,
    and their floors."""
    widths, floors = list(widths), array("d")
    pairs = list(map_standard._bounded(p.r, map_standard._reference(p, bits, widths), widths,
                                       floors))
    assert len(pairs) == len(floors)  # up to a bound that certifies nothing
    return pairs, floors


def check_sized_reference(p, n, working_bits):
    """The reference sized by the orbit's stretching, at the tapered
    reference's width W: no step is wider than the tapered reference's, and
    every sample lies within its running bound b_k of the orbit at 2W bits.
    Where the bound certifies every error, the reports equal those against the
    tapered reference except at a rounding tie; there they differ by no more
    than b_k plus the tapered sample's own distance from the orbit and two
    roundings to double.  Returns whether the bound certifies every error, and
    the report against the sized reference."""
    policy = oracle_policy(n, working_bits, None)
    width, taper_to = policy.significand_bits, working_bits + 128
    it = iterate(p, n, PrecisionPolicy(working_bits))
    widths = map_standard._sized_widths(p.r, it.values, width, taper_to)
    assert len(widths) == n
    assert all(map(operator.le, widths, map_standard._tapered_widths(width, n, taper_to)))
    sized, floors = bounded_run(p, width, widths)
    bits = width + 10
    report, = _compare_pairs([it.values], iter(sized), bits, 0.01)
    eb = report.per_step_abs_error
    certified = len(floors) == n + 1 and all(map(map_standard._certified, eb, floors))
    tapered = tapered_oracle(p, n, policy, taper_to)
    ea = compare_trajectories(it, tapered, 0.01).per_step_abs_error
    true = oracle(p, n, PrecisionPolicy(2 * width))
    with workprec(2 * width + 64):
        for k, ((m, e), floor) in enumerate(zip(sized, floors)):
            xb, xa, xt = mpf(m) * mpf(2) ** e, tapered.values[k], true.values[k]
            bound = mpf(floor) * mpf(2) ** -map_standard._CERTIFIED_BITS  # b_k at most
            assert abs(xb - xt) <= bound + mpf(2) ** (k - 2 * width + 4), k
            if certified and eb[k] != ea[k]:
                assert abs(mpf(eb[k]) - mpf(ea[k])) <= (
                    bound + abs(xa - xt) + mpf(2) ** (k - 2 * width + 4)
                    + mpf(2) ** -52 * max(ea[k], eb[k])), k  # two roundings to double
    return certified, report


# chaotic, doubling, and periodic windows, a fixed point inside the squared
# step's interval [2^-8, 1 - 2^-8], and orbits that decay to 0 and leave it
TAPER_RATES = [3.7, 3.9, 4.0, -2.0, 3.83, 3.57, 3.2, 0.5, 0.9, 2.5]
SIZED_RATES = [r for r in TAPER_RATES if r not in (4.0, -2.0)]  # no phase digits


@st.composite
def taper_cases(draw):
    r = draw(st.sampled_from(TAPER_RATES))
    x0 = draw(st.floats(-0.5, 1.5) if r == -2.0 else st.floats(0.0, 1.0))
    return MapParams(r, x0)


class TestTaperedReference:
    @settings(max_examples=20, deadline=None)
    @given(taper_cases(), st.integers(0, 1500), st.sampled_from([53, 200]))
    def test_reports_match_the_fixed_width_oracle(self, p, n, working_bits):
        check_tapered_reference(p, n, working_bits)

    @pytest.mark.parametrize("r,x0,n,working_bits", [
        (3.9, 0.3, 1500, 53), (3.83, 0.3, 1000, 200), (-2.0, 0.9, 400, 53),
        (3.7, 0.3, 3000, 53)])
    def test_fixed_cases(self, r, x0, n, working_bits):
        check_tapered_reference(MapParams(r, x0), n, working_bits)

    def test_widths(self):
        # 64 steps at the full width, then one bit fewer per step down to
        # 128 bits above the method under test; at n = 2000 the steps from
        # 1,000 bits up to below the full width are squared where x allows
        p = MapParams(3.9, 0.3)
        for n, first in ((400, 3), (2000, 5)):
            tapered = tapered_oracle(p, n, taper_to=181)
            policy = tapered.precision
            width = policy.significand_bits
            assert width == n + 64
            limits = [min(width, max(width + 64 - k, 181)) for k in range(n + 1)]
            widths = [v._mpf_[3] for v in tapered.values]
            assert all(w <= limit for w, limit in zip(widths, limits))
            # the exact samples outgrow the full width at step ``first``; from
            # there on every step rounds, and its raw significand keeps
            # exactly the step's width, trailing zero bits included
            raw = map_standard._reference(p, width, map_standard._tapered_widths(width, n, 181))
            assert [abs(m).bit_length() for m, _ in raw][first:] == limits[first:]
        for bits, taper_to in ((464, 181), (182, 181), (181, 181), (181, 328)):
            expected = [min(bits, max(bits + 64 - k, taper_to)) for k in range(1, 401)]
            assert list(map_standard._tapered_widths(bits, 400, taper_to)) == expected

    def test_explicit_oracle_bits_and_figure_2_keep_a_fixed_width(self, monkeypatch, capsys):
        # each orbit's width and its narrowest step; the iteration at 200
        # working bits is one such orbit too
        seen = []
        real = map_standard._reference

        def recording(p, bits, widths):
            widths = list(widths)
            seen.append((bits, min(widths)))
            return real(p, bits, widths)

        monkeypatch.setattr(map_standard, "_reference", recording)
        p = MapParams(3.9, 0.3)
        tapered = divergence_reports(p, 300, 53, 0.01)
        fixed = divergence_reports(p, 300, 53, 0.01, oracle_bits=364)
        divergence_reports(p, 300, 200, 0.01)
        divergence_reports(p, 300, 200, 0.01, oracle_bits=1000)
        assert main(["figure", "2"]) == 0
        assert seen == [(364, 181), (364, 364), (200, 200), (364, 328), (200, 200),
                        (1000, 1000), (124, 124)]
        assert fixed == tapered


with workprec(1100):
    WIDE_SEED = mpf(1) / 200  # in [2^-8, 2^-7), 1,100 bits wide


class TestSizedReference:
    """The reference of an iteration-only run from _SIZED_MIN_STEPS steps on at
    r other than 4 and -2, each step sized by the stretching still to come."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(SIZED_RATES), st.floats(0.0, 1.0), st.integers(1000, 2500),
           st.sampled_from([53, 200]))
    def test_within_its_bound_and_the_tapered_reports(self, r, x0, n, working_bits):
        p = MapParams(r, x0)
        certified, report = check_sized_reference(p, n, working_bits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(map_standard, "_SIZED_MIN_STEPS", n)
            reports = divergence_reports(p, n, working_bits, 0.01)
        assert reports == ([("iterated", report)] if certified
                           else public_reports(p, n, working_bits))

    @pytest.mark.parametrize("r,x0,n,working_bits,certified", [
        (3.9, 0.3, 1500, 53, True), (3.83, 0.3, 1000, 200, True), (3.7, 0.3, 2500, 53, True),
        (3.9, 0.5, 1000, 53, True),  # x1 = r/4 at both widths: an error of 0 at step 1
        (3.9, 0.5, 1000, 200, True),  # and at step 2
        # errors past the doubles read 0, certified by a bound below 2^-1138
        (0.5, 0.3, 1100, 53, True), (0.5, 0.3, 1100, 200, True), (-0.5, 0.3, 1100, 53, True),
        (-0.5, 0.3, 1100, 200, True),
        (0.5, 2.0**-1074, 1000, 53, True)])  # 1 - x rounds to 1, an error of 2^-2149
    def test_fixed_cases(self, r, x0, n, working_bits, certified):
        assert check_sized_reference(MapParams(r, x0), n, working_bits)[0] is certified

    def test_widths_follow_the_stretching(self):
        # about 0.71 bits a step at r = 3.9 and 0.51 at r = 3.7, against the
        # budget's 1, down to the margin above it; in the periodic window at
        # r = 3.83 the orbit contracts over each period of 3, and every step
        # past the transient is within a few bits of the margin
        margin = map_standard._SIZED_MARGIN
        for r, rate in ((3.9, 0.71), (3.7, 0.51), (3.83, 0.0)):
            values = iterate(MapParams(r, 0.3), 4000).values
            widths = map_standard._sized_widths(r, values, 4064, 181)
            assert abs(widths[0] - margin - rate * 4000) < 100
            assert min(widths[:3000]) >= margin and widths[-1] == 181  # the taper's last width
            if rate == 0.0:
                assert max(widths[100:3500]) <= margin + 4

    def test_floors_are_pinned(self):
        # every bit of every floor of a run whose steps from 1,000 bits up
        # square: each rounding term of the bound moves some of them, where the
        # tests above only see that the bound lies above the error
        p, n = MapParams(3.9, 0.3), 4500
        width = oracle_policy(n, 53, None).significand_bits
        widths = map_standard._sized_widths(p.r, iterate(p, n).values, width, 181)
        assert sum(map_standard._SQUARE_MIN_BITS <= w < width for w in widths) == 3474
        floors = bounded_run(p, width, widths)[1]
        assert len(floors) == n + 1
        assert (hashlib.sha256(repr(floors.tolist()).encode()).hexdigest()
                == "3103990735b66e2f24ecf8e5253f3987587f57536ea889f29d083aefa26d2d67")

    @pytest.mark.parametrize("p,bits,widths", [
        # 1 - x0 rounds to 1 at 100 bits, x0 in [2^-103, 2^-102): the step's
        # result r*x0 is narrow, yet it rounded
        (MapParams(4.0, 2.0**-103), 100, [100] * 3),
        # squared steps of exactly 1,000 bits: the result near 2^-6 lies far
        # below the rounding of y^2 = (x0 - 1/2)^2, near 1/4
        (MapParams(4.0, WIDE_SEED), 1100, [1000] * 3),
    ], ids=["one-minus-x-rounds-to-1", "squared-at-1000-bits"])
    def test_floors_lie_above_the_exact_error(self, p, bits, widths):
        # every floor is at least 2^64 times its sample's distance from the
        # exact orbit of sample 0, worked in rationals
        pairs, floors = bounded_run(p, bits, widths)
        assert len(floors) == len(widths) + 1
        (m, e), r = pairs[0], Fraction(p.r)
        exact, errors = Fraction(m) * Fraction(2) ** e, []
        for m, e in pairs:
            errors.append(abs(Fraction(m) * Fraction(2) ** e - exact))
            exact = r * exact * (1 - exact)
        assert errors[1] > 0  # the first step rounded
        for k, (error, floor) in enumerate(zip(errors, floors)):
            assert Fraction(floor) >= 2**map_standard._CERTIFIED_BITS * error, k

    def test_a_result_of_w_minus_8_bits_counts_as_rounded(self):
        # no rounding leaves fewer than w - 7 bits, so a step whose result is
        # narrower is exact; the bound counts a step as rounded from w - 8 bits
        p = MapParams(4.0, 0.3)
        x1 = bounded_run(p, 200, [200])[0][1]  # 4*x0*(1 - x0), exactly
        size = x1[0].bit_length()
        for w, rounded in ((size + 8, True), (size + 9, False)):
            pairs, floors = bounded_run(p, w, [w])
            assert pairs[1] == x1
            assert (floors[1] > 0) is rounded

    def test_t_is_the_top_64_bits_of_a_sample_rounded_to_a_double(self):
        # x1 has 65 bits, and its top 64 end in a tie below a double's last
        # bit, which the 65th breaks: t rounds the 64 bits, to even
        pairs, floors = bounded_run(MapParams(4.0, 0.5108238977900382), 65, [65, 65])
        m, _ = pairs[1]
        assert m.bit_length() == 65 and (m >> 1) & 0x7FF == 0x400 and m & 1
        assert floors.tolist() == [0.0, 4.0, float.fromhex("0x1.ffc526f8867d8p+3")]

    def test_pairs_stop_at_the_first_floor_above_twice_the_escape_bound(self, monkeypatch):
        # a floor past every error of a bounded orbit certifies nothing
        p, bits, n = MapParams(3.9, 0.183), 200, 600
        _, floors = bounded_run(p, bits, repeat(bits, n))
        k, cap = len(floors), 2 * map_standard.ESCAPE_BOUND
        assert k <= n and floors[-1] <= cap
        monkeypatch.setattr(map_standard, "ESCAPE_BOUND", 1e300)
        _, further = bounded_run(p, bits, repeat(bits, k))
        assert further[:k] == floors and further[k] > cap

    def test_an_uncertified_reference_falls_back(self, monkeypatch, calls):
        # steps a few bits wider than the stretching ahead: the bound soon
        # certifies nothing, and the run takes the tapered reference instead
        monkeypatch.setattr(map_standard, "_SIZED_MARGIN", 4)
        p = MapParams(3.9, 0.3)
        it = iterate(p, S)
        width = oracle_policy(S, 53, None).significand_bits
        widths = map_standard._sized_widths(p.r, it.values, width, 181)
        assert len(bounded_run(p, width, widths)[1]) < S + 1
        calls.clear()
        reports = divergence_reports(p, S, 53, 0.01)
        assert calls == ["oracle", "sized", "oracle"]
        assert reports == public_reports(p, S, 53)

    def test_an_escaping_sized_reference_falls_back(self, monkeypatch):
        # whether the run escapes is the tapered reference's to say
        real = map_standard._bounded

        def escaping(*args):
            yield from islice(real(*args), 100)
            raise EscapeError("orbit escaped past 1e+100 at step 100", index=100)

        monkeypatch.setattr(map_standard, "_bounded", escaping)
        p = MapParams(3.9, 0.3)
        assert divergence_reports(p, S, 53, 0.01) == public_reports(p, S, 53)

    def test_bound_at_the_repelling_fixed_point(self):
        # the budget of 464 bits at r = -2 from x0 = 3/2 - 2^-52, where the
        # orbit lingers at the fixed point 3/2 and errors grow 4-fold a step:
        # the bound certifies 42 bits of sample 400, which is good to 2^-50.8
        p, n = MapParams(-2.0, 1.5 - 2**-52), 400
        policy = budgeted_policy(n)
        bits = policy.significand_bits
        pairs, floors = bounded_run(p, bits, repeat(bits, n))
        certified = map_standard._CERTIFIED_BITS - math.log2(floors[n])
        assert math.floor(certified) == 42
        true = oracle(p, n, PrecisionPolicy(2 * policy.significand_bits))
        with workprec(1000):
            m, e = pairs[n]
            error = abs(mpf(m) * mpf(2) ** e - true.values[n])
            assert mpf(2) ** -51 < error < mpf(2) ** -certified


@pytest.fixture
def calls(monkeypatch):
    """Names of the orbits each run builds, in order: "oracle" for each
    iterated orbit of ``_reference`` (the tapered, fixed-width or sized
    reference, the phase reference's prefix, and the iteration at a working
    width other than 53 bits), "phase_oracle" for the phase reference, "sized"
    for the running bound beside the reference sized by the orbit's
    stretching."""
    seen = []
    for name, builder in (("oracle", "_reference"),
                          ("phase_oracle", "_phase_reference"),
                          ("sized", "_bounded")):
        real = getattr(map_standard, builder)

        def recording(*args, _real=real, _name=name, **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(map_standard, builder, recording)
    return seen


def compare_argv(r, x0, steps, *extra):
    return ["compare", "--r", r, "--x0", x0, "--steps", str(steps)] + list(extra)


def sha256(text):
    """The digest by which two artifacts are compared: pytest's diff of two
    long artifacts that differ runs for minutes."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TestRouting:
    @pytest.mark.parametrize("r,x0", [("4", "0.3"), ("-2", "0.411148")])
    def test_phase_route_keeps_the_bytes(self, r, x0, calls, capsys):
        # from the crossover, and at the length of the benchmark's p90 jobs,
        # 125 blocks of 64 steps
        for steps in (N, 8000):
            calls.clear()
            assert main(compare_argv(r, x0, steps)) == 0
            routed = capsys.readouterr().out
            assert calls == ["phase_oracle", "oracle"]  # the prefix, as in oracle()
            # an explicit oracle of the same width takes the iterated route
            assert main(compare_argv(r, x0, steps, "--oracle-bits", str(steps + 64))) == 0
            assert calls == ["phase_oracle", "oracle", "oracle"]
            assert sha256(capsys.readouterr().out) == sha256(routed)
            assert json.loads(routed)["config"]["oracle_bits"] == steps + 64

    @pytest.mark.parametrize("argv,route", [
        (compare_argv("4", "0.3", N, "--form", "r4"), ["oracle"]),
        (compare_argv("-2", "0.9", N, "--form", "simple"), ["oracle"]),
        (compare_argv("4", "0.3", N, "--oracle-bits", str(N + 64)), ["oracle"]),
        (compare_argv("3.9", "0.3", N), ["oracle"]),
        (compare_argv("4", "0.3", N - 1), ["oracle"]),
        # the iteration at 54 bits, then the reference
        (compare_argv("-2", "0.9", N, "--bits", "54"), ["oracle", "oracle"]),
    ], ids=["form-r4", "form-simple", "oracle-bits", "r3.9", "below-crossover",
            "bits54"])
    def test_iterated_oracle_elsewhere(self, argv, route, calls, capsys):
        assert main(argv) == 0
        assert calls == route

    @pytest.mark.parametrize("argv,route", [
        # an iteration at other than 53 bits is an orbit of _reference too
        (compare_argv("3.9", "0.3", S), ["oracle", "sized"]),
        (compare_argv("3.83", "0.3", S, "--bits", "200"), ["oracle", "oracle", "sized"]),
        (compare_argv("3.9", "0.3", S - 1), ["oracle"]),
        (compare_argv("3.9", "0.3", S, "--oracle-bits", str(S + 64)), ["oracle"]),
        (compare_argv("2", "0.3", S, "--form", "r2"), ["oracle"]),
        (compare_argv("4", "0.3", S, "--bits", "54"), ["oracle", "oracle"]),
        # the errors of an orbit that decays past the doubles read 0, which a
        # bound below 2^-1138 certifies
        (compare_argv("0.5", "0.3", S), ["oracle", "sized"]),
        (compare_argv("-0.5", "0.3", S, "--bits", "200"), ["oracle", "oracle", "sized"]),
    ], ids=["r3.9", "bits200", "below-crossover", "oracle-bits", "form", "r4-bits54",
            "decay", "decay-200-bits"])
    def test_sized_reference(self, argv, route, calls, capsys):
        assert main(argv) == 0
        assert calls == route
        sized = capsys.readouterr().out
        if "sized" in calls:  # the bytes of the tapered reference
            width = json.loads(sized)["config"]["oracle_bits"]
            assert main(argv + ["--oracle-bits", str(width)]) == 0
            assert sha256(capsys.readouterr().out) == sha256(sized)

    def test_seed_outside_the_interval(self, calls, monkeypatch, capsys):
        p = MapParams(-2.0, 1.6)
        with pytest.raises(EscapeError) as escape:
            iterate(p, N)
        assert main(compare_argv("-2", "1.6", N)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"at step {escape.value.index}" in err
        assert calls == []  # the 53-bit iteration escapes before any reference

        # had it not, the iterated oracle would have been the reference
        def bounded_at_53_bits(q, n, policy=DOUBLE):
            return iterate(MapParams(-2.0, 0.9) if policy == DOUBLE else q, n, policy)

        monkeypatch.setattr(map_standard, "iterate", bounded_at_53_bits)
        with pytest.raises(EscapeError):
            divergence_reports(p, N, 53, 0.01)
        assert calls == ["oracle"]

    def test_iteration_divergence(self, calls):
        p = MapParams(-2.0, 0.9)
        routed = iteration_divergence(p, N, 53, 0.01)
        assert calls == ["phase_oracle", "oracle"]
        assert iteration_divergence(p, N, 53, 0.01, oracle_bits=N + 64) == routed
        assert iteration_divergence(MapParams(3.9, 0.3), N, 53, 0.01) is not None
        assert iteration_divergence(p, N - 1, 53, 0.01) is not None
        assert calls == ["phase_oracle", "oracle", "oracle", "oracle", "oracle"]


def public_reports(p, n, working_bits, forms=(), oracle_bits=None, phase=False):
    """The reports of ``divergence_reports`` formed from whole trajectories:
    ``compare_trajectories`` of each method against ``phase_oracle`` or
    ``tapered_oracle``, tapered to working_bits + 128 unless ``oracle_bits`` is
    given."""
    if phase:
        ref = phase_oracle(p, n)
    else:
        taper_to = working_bits + 128 if oracle_bits is None else None
        ref = tapered_oracle(p, n, oracle_policy(n, working_bits, oracle_bits), taper_to)
    working = PrecisionPolicy(working_bits)
    methods = [("iterated", iterate(p, n, working))] + [
        (form, closed_form_trajectory(p, n, ClosedForm(form), working)) for form in forms]
    return [(label, compare_trajectories(t, ref, 0.01)) for label, t in methods]


class TestReportsReadTheReferencePairs:
    """``divergence_reports`` compares against the reference's (significand,
    exponent) pairs without forming an mpf; its reports are those of
    ``compare_trajectories`` against the whole reference of the same route."""

    @pytest.mark.parametrize("r,x0,n,working_bits,forms,oracle_bits,route", [
        (3.9, 0.3, 1500, 53, (), None, ["oracle"]),
        (-2.0, 0.9, 300, 53, ("table1", "simple"), None, ["oracle"]),
        (4.0, 0.3, 250, 53, ("r4",), None, ["oracle"]),
        (3.83, 0.3, 400, 200, (), None, ["oracle", "oracle"]),  # the iteration, then the reference
        (0.5, 0.3, 1100, 53, (), None, ["oracle"]),  # errors down to subnormals
        (3.9, 0.3, 300, 53, (), 500, ["oracle"]),
        (-2.0, 0.9, 60, 53, ("table1", "simple"), 124, ["oracle"]),
        (2.0, 0.3, 100, 100, ("r2",), 400, ["oracle", "oracle"]),
        (4.0, 0.3, N, 53, (), None, ["phase_oracle", "oracle"]),
        (-2.0, 0.411148, N, 53, (), None, ["phase_oracle", "oracle"]),
        (3.7, 0.3, S, 53, (), None, ["oracle", "sized"]),
        (3.83, 0.3, S, 200, (), None, ["oracle", "oracle", "sized"]),
    ], ids=["tapered", "tapered-forms", "tapered-r4", "tapered-200-bits", "tapered-decay",
            "fixed", "fixed-forms", "fixed-r2", "phase-r4", "phase-rm2", "sized",
            "sized-200-bits"])
    def test_equal_compare_trajectories(self, r, x0, n, working_bits, forms, oracle_bits,
                                        route, calls):
        p = MapParams(r, x0)
        reports = divergence_reports(p, n, working_bits, 0.01, forms, oracle_bits)
        assert calls == route
        assert reports == public_reports(p, n, working_bits, forms, oracle_bits,
                                         "phase_oracle" in route)

    @settings(max_examples=30, deadline=None)
    @given(taper_cases(), st.integers(0, 400), st.sampled_from([53, 120]),
           st.sampled_from([None, 600]))
    def test_iterated_routes(self, p, n, working_bits, oracle_bits):
        reports = divergence_reports(p, n, working_bits, 0.01, (), oracle_bits)
        assert reports == public_reports(p, n, working_bits, (), oracle_bits)
