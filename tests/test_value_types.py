"""The contract of the library's value types: their constructors, repr text,
equality, hash, validation errors and immutability, as the dataclasses they
replace gave them (the expected texts were captured from those), and the
closed-form choices of the command line against ``ClosedForm``."""

import copy
import math
import pickle
from array import array
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import finf, fnan, fninf

from logistic_exact import cli, continuous, map_riccati, map_standard, precision
from logistic_exact.cli import RunConfig
from logistic_exact.continuous import ContinuousParams, RiccatiShift
from logistic_exact.errors import DomainError
from logistic_exact.map_standard import MapParams
from logistic_exact.precision import DOUBLE, DivergenceReport, PrecisionPolicy, Trajectory

# (value, its repr, its fields in order, a keyword construction of it)
FROZEN = {
    "PrecisionPolicy": (
        PrecisionPolicy(164), "PrecisionPolicy(significand_bits=164)", (164,),
        lambda: PrecisionPolicy(significand_bits=164)),
    "Trajectory": (
        Trajectory("iterated", range(3), [0.5, 0.25, 1], DOUBLE),
        "Trajectory(method_tag='iterated', indices=range(0, 3), values=(0.5, 0.25, 1), "
        "precision=PrecisionPolicy(significand_bits=53))",
        ("iterated", range(3), (0.5, 0.25, 1), DOUBLE),
        lambda: Trajectory(precision=DOUBLE, values=(0.5, 0.25, 1), indices=range(3),
                           method_tag="iterated")),
    "DivergenceReport": (
        DivergenceReport([0, 0.5, 2e-3], 1), "DivergenceReport(per_step_abs_error="
        "(0.0, 0.5, 0.002), threshold=1)", ((0.0, 0.5, 0.002), 1),
        lambda: DivergenceReport(threshold=1, per_step_abs_error=(0.0, 0.5, 0.002))),
    "MapParams": (
        MapParams(-2.0, 0.9), "MapParams(r=-2.0, x0=0.9)", (-2.0, 0.9),
        lambda: MapParams(x0=0.9, r=-2.0)),
    "ContinuousParams": (
        ContinuousParams(1.7, 0.11), "ContinuousParams(r=1.7, x0=0.11)", (1.7, 0.11),
        lambda: ContinuousParams(x0=0.11, r=1.7)),
    "RiccatiShift": (
        RiccatiShift(-0.25), "RiccatiShift(gamma=-0.25)", (-0.25,),
        lambda: RiccatiShift(gamma=-0.25)),
}
FIELDS = {
    "PrecisionPolicy": ("significand_bits",),
    "Trajectory": ("method_tag", "indices", "values", "precision"),
    "DivergenceReport": ("per_step_abs_error", "threshold"),
    "MapParams": ("r", "x0"),
    "ContinuousParams": ("r", "x0"),
    "RiccatiShift": ("gamma",),
}


@pytest.mark.parametrize("name", FROZEN)
class TestFrozenValueTypes:
    def test_repr_fields_and_keyword_construction(self, name):
        value, text, fields, by_keyword = FROZEN[name]
        assert repr(value) == text
        assert tuple(getattr(value, f) for f in FIELDS[name]) == fields
        assert by_keyword() == value and repr(by_keyword()) == text

    def test_equality_and_hash_over_the_fields(self, name):
        value, _, fields, by_keyword = FROZEN[name]
        other = by_keyword()
        assert other is not value and other == value and not other != value
        assert hash(other) == hash(value) == hash(fields)
        assert value != fields and value != object()
        assert {value, other} == {value}

    def test_assignment_and_deletion_raise(self, name):
        value, text, _, _ = FROZEN[name]
        for field in FIELDS[name] + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == text

    def test_copies_and_pickles_equal(self, name):
        value, text, _, _ = FROZEN[name]
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == text

    def test_match_args_name_the_fields(self, name):
        assert type(FROZEN[name][0]).__match_args__ == FIELDS[name]


def test_positional_pattern_matching():
    match MapParams(-2.0, 0.9):
        case MapParams(r, x0):
            assert (r, x0) == (-2.0, 0.9)
        case _:
            pytest.fail("no match")


def test_equal_fields_of_another_type_are_unequal():
    assert MapParams(1.7, 0.11) != ContinuousParams(1.7, 0.11)
    assert MapParams(1.7, 0.11).__eq__(ContinuousParams(1.7, 0.11)) is NotImplemented


def test_a_different_field_is_unequal():
    assert PrecisionPolicy(53) != PrecisionPolicy(54)
    assert MapParams(1.7, 0.11) != MapParams(1.7, 0.12)
    assert (Trajectory("a", (0, 1), (0.5, 0.5), DOUBLE)
            != Trajectory("b", (0, 1), (0.5, 0.5), DOUBLE))
    # a range is not the tuple of its items
    assert (Trajectory("a", range(2), (0.5, 0.5), DOUBLE)
            != Trajectory("a", (0, 1), (0.5, 0.5), DOUBLE))


def test_trajectory_type_scan_stays_out_of_repr_and_equality():
    native = Trajectory("oracle", (0, 1), (1.0, 0.5), DOUBLE)
    wide = Trajectory("oracle", (0, 1), (mpf(1), mpf("0.5")), DOUBLE)
    assert native._native and not wide._native
    assert native == wide
    assert "_native" not in repr(native)
    assert list(vars(native)) == ["method_tag", "indices", "values", "precision", "_native"]
    with pytest.raises(AttributeError):
        native._native = False


class TestPackedColumns:
    """A column given as an array('d') is kept as that array: == compares it
    with arrays only, the hash reads it as the tuple of its items, and the repr
    shows it as the array it is."""

    TEXT = ("Trajectory(method_tag='ode-closed-form', indices=array('d', [0.0, 0.5]), "
            "values=array('d', [0.25, 1.0]), precision=PrecisionPolicy(significand_bits=53))")

    @staticmethod
    def packed():
        return Trajectory("ode-closed-form", array("d", [0.0, 0.5]), array("d", [0.25, 1.0]),
                          DOUBLE)

    def test_kept_as_given_and_known_native(self):
        times, values = array("d", [0.0, 0.5]), array("d", [0.25, 1.0])
        traj = Trajectory("ode-closed-form", times, values, DOUBLE)
        assert traj.indices is times and traj.values is values and traj._native
        # an array of another type code is converted, as any other iterable is
        traj = Trajectory("t", range(2), array("l", [1, 2]), DOUBLE)
        assert traj.values == (1, 2)

    def test_repr(self):
        assert repr(self.packed()) == self.TEXT

    def test_equality_and_hash(self):
        value, twin = self.packed(), self.packed()
        assert twin is not value and twin == value and not twin != value
        fields = ("ode-closed-form", (0.0, 0.5), (0.25, 1.0), DOUBLE)
        assert hash(twin) == hash(value) == hash(fields)
        assert {value, twin} == {value}
        # an array never equals a tuple of its items, as a range or bytes never
        # does, though the two hash alike
        tupled = Trajectory(*fields)
        assert value != tupled and hash(value) == hash(tupled)
        assert value != Trajectory("ode-closed-form", array("d", [0.0, 0.5]),
                                   array("d", [0.25, 0.75]), DOUBLE)

    def test_copies_and_pickles_equal(self):
        value = self.packed()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == self.TEXT
            assert type(twin.values) is array and twin.values.typecode == "d"

    def test_checks_read_the_array(self):
        with pytest.raises(ValueError, match=r"^non-finite value at index 0\.5$"):
            Trajectory("t", array("d", [0.0, 0.5]), array("d", [0.25, math.inf]), DOUBLE)
        with pytest.raises(ValueError, match=r"^non-finite value at index 1$"):
            Trajectory("t", range(2), array("d", [0.25, math.nan]), DOUBLE)
        with pytest.raises(ValueError, match=r"\(index 0\.5 follows 0\.5\)$"):
            Trajectory("t", array("d", [0.0, 0.5, 0.5]), (0.5,) * 3, DOUBLE)
        # finite values whose sum overflows are finite
        big = Trajectory("t", range(2), array("d", [1e308, 1e308]), DOUBLE)
        assert tuple(big.values) == (1e308, 1e308)

    def test_times_are_proven_once_while_a_trajectory_holds_them(self, monkeypatch):
        compared = []

        def gt(a, b):
            compared.append(a)
            return a > b

        monkeypatch.setattr(precision, "operator", SimpleNamespace(gt=gt))
        times, values = array("d", [0.0, 0.5, 1.0]), array("d", [0.25, 0.5, 0.75])
        first = Trajectory("t", times, values, DOUBLE)
        assert compared == [0.5, 1.0]
        members = [Trajectory("t", times, values, DOUBLE) for _ in range(3)]
        assert compared == [0.5, 1.0]  # the members of one grid prove it once
        Trajectory("t", array("d", times), values, DOUBLE)  # another array is scanned
        assert compared == [0.5, 1.0] * 2
        del first, members  # no live trajectory holds the times: scanned again
        Trajectory("t", times, values, DOUBLE)
        assert compared == [0.5, 1.0] * 3
        with pytest.raises(ValueError, match=r"\(index 0\.5 follows 1\.0\)$"):
            Trajectory("t", array("d", [0.0, 1.0, 0.5]), values, DOUBLE)

    def test_ode_members_share_one_proof_of_their_times(self, monkeypatch):
        compared = []
        monkeypatch.setattr(precision, "operator",
                            SimpleNamespace(gt=lambda a, b: compared.append(a) or a > b))
        p = ContinuousParams(1.7, 0.11)
        members = [continuous.grid_trajectory(p, 1.0, 0.25, shift)
                   for shift in (None, RiccatiShift(0.14), RiccatiShift(0.25))]
        assert all(m.indices is members[0].indices for m in members)
        assert compared == [0.25, 0.5, 0.75, 1.0]


def test_float_producers_pack_their_columns():
    # every float producer fills one array('d'); a column that leaves the
    # doubles, or is held wider, is a tuple
    p = ContinuousParams(1.7, 0.11)
    grid = continuous.grid_trajectory(p, 1.0, 0.25, RiccatiShift(0.14))
    q = map_riccati.RiccatiMapParams(1.73, 0.333)
    packed = [grid.indices, grid.values, map_riccati.iterate(q, 5).values,
              map_riccati.particular_trajectory(q, 5).values,
              map_riccati.general_trajectory(q, 2.0, 5).values,
              map_riccati.general_trajectory(map_riccati.RiccatiMapParams(1.8, 0.25), -4.0,
                                             5).values,  # the fixed point 0
              continuous.grid_trajectory(ContinuousParams(1.7, 1.0), 1.0, 0.25).values,  # c = 0
              continuous.grid_trajectory(ContinuousParams(-3.0, 0.5), 400.0, 0.5).values,
              map_standard.iterate(MapParams(3.9, 0.3), 50).values,
              map_standard.closed_form_trajectory(MapParams(4.0, 0.3), 50,
                                                  map_standard.ClosedForm.R4_COSINE).values]
    for column in packed:
        assert type(column) is array and column.typecode == "d"
    assert grid.values[-1] == continuous.general_solution(1.0, p, RiccatiShift(0.14))
    # exp(3t) overflows past t = 236.6, and the point-by-point rule ends on 0.0
    assert packed[7][-1] == 0.0
    for values in (map_standard.iterate(MapParams(0.5, 0.3), 1100).values,  # leaves the doubles
                   map_standard.iterate(MapParams(3.9, 0.3), 50, PrecisionPolicy(80)).values):
        assert type(values) is tuple


@pytest.mark.parametrize("make, error, message", [
    (lambda: PrecisionPolicy(52), ValueError, r"^significand_bits must be an integer >= 53 "
                                              r"\(native double\)$"),
    (lambda: PrecisionPolicy(64.0), ValueError, "significand_bits"),
    (lambda: PrecisionPolicy("64"), ValueError, "significand_bits"),
    (lambda: Trajectory("", (0,), (0.5,), DOUBLE), ValueError,
     r"^method_tag must be non-empty$"),
    (lambda: Trajectory("t", (), (), DOUBLE), ValueError,
     r"^a trajectory needs at least one sample$"),
    (lambda: Trajectory("t", (0, 1), (0.5,), DOUBLE), ValueError,
     r"^the columns differ in length \(2 indices, 1 values\)$"),
    (lambda: Trajectory("t", (0, 2, 2), (0.5,) * 3, DOUBLE), ValueError,
     r"^sample indices/times must be strictly increasing \(index 2 follows 2\)$"),
    (lambda: Trajectory("t", range(3, 0, -1), (0.5,) * 3, DOUBLE), ValueError,
     r"\(index 2 follows 3\)$"),
    (lambda: Trajectory("t", (0, 1), (0.5, math.inf), DOUBLE), ValueError,
     r"^non-finite value at index 1$"),
    (lambda: Trajectory("t", (0, 1), (mpf("nan"), 0.5), DOUBLE), ValueError,
     r"^non-finite value at index 0$"),
    (lambda: DivergenceReport((0.1,), 0.0), ValueError, r"^threshold must be positive$"),
    (lambda: DivergenceReport((0.1,), math.nan), ValueError, r"^threshold must be positive$"),
    (lambda: DivergenceReport((0.1, -1.0), 1.0), ValueError,
     r"^per-step errors must be finite and non-negative$"),
    (lambda: DivergenceReport((math.inf,), 1.0), ValueError, "finite and non-negative"),
    (lambda: MapParams(math.inf, 0.5), DomainError, r"^map parameter r must be finite$"),
    (lambda: MapParams(1.0, math.nan), DomainError, r"^seed x0 must be finite$"),
    (lambda: ContinuousParams(0.0, 0.5), DomainError,
     r"^growth rate r must be finite and nonzero$"),
    (lambda: ContinuousParams(math.nan, 0.5), DomainError, "growth rate r"),
    (lambda: ContinuousParams(1.0, -math.inf), DomainError,
     r"^initial value x0 must be finite$"),
    (lambda: RiccatiShift(0.0), DomainError, r"^gamma must be finite and nonzero$"),
    (lambda: RiccatiShift(math.inf), DomainError, r"^gamma must be finite and nonzero$"),
])
def test_validation_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_the_written_out_special_values_are_libmps():
    assert precision._NON_FINITE == (finf, fninf, fnan)


@pytest.mark.parametrize("value", [
    0, True, -10**400, 1.5, math.inf, -math.inf, math.nan, mpf(1), mpf("inf"), mpf("-inf"),
    mpf("nan"), mp.pi, mpc(1, 2), mpc(1, "inf"), mpc("nan", 0), 1 + 2j, complex(math.inf, 0),
    Fraction(1, 3), Fraction(-10**400, 3), Decimal("1.5"), Decimal("1e400"),
    Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"), Decimal("sNaN")])
def test_finiteness_is_mpmaths(value):
    # the value layer judges a number as mp.isfinite does, without loading mpmath
    assert precision._is_finite(value) is mp.isfinite(value)


@pytest.mark.parametrize("value", [None, object(), [1.0], b"1"])
def test_finiteness_of_no_number_raises(value):
    for is_finite in (mp.isfinite, precision._is_finite):
        with pytest.raises(TypeError):
            is_finite(value)


def test_constructors_take_no_more_and_no_fewer_arguments():
    for make in (lambda: PrecisionPolicy(), lambda: PrecisionPolicy(53, 54),
                 lambda: MapParams(1.0), lambda: MapParams(1.0, 0.5, 0.5),
                 lambda: Trajectory("t", (0,), (0.5,)),
                 lambda: Trajectory("t", (0,), (0.5,), DOUBLE, True),
                 lambda: DivergenceReport((0.1,)), lambda: RiccatiShift(),
                 lambda: ContinuousParams(r=1.0, x0=0.5, gamma=1.0),
                 lambda: RunConfig()):
        with pytest.raises(TypeError):
            make()


class TestRunConfig:
    def test_defaults_and_repr(self):
        config = RunConfig("ode")
        assert (config.subcommand, config.parameters, config.output_format,
                config.output_path) == ("ode", {}, "csv", "-")
        assert repr(config) == ("RunConfig(subcommand='ode', parameters={}, "
                                "output_format='csv', output_path='-')")
        assert RunConfig("ode").parameters is not RunConfig("ode").parameters
        assert RunConfig.__match_args__ == ("subcommand", "parameters", "output_format",
                                            "output_path")

    def test_positional_and_keyword_construction_and_equality(self):
        positional = RunConfig("rng", {"count": 8}, "json", "out.json")
        keyword = RunConfig(output_path="out.json", output_format="json",
                            parameters={"count": 8}, subcommand="rng")
        assert positional == keyword and not positional != keyword
        assert positional != RunConfig("rng", {"count": 8}, "json")
        assert positional != ("rng", {"count": 8}, "json", "out.json")

    def test_mutable_and_unhashable(self):
        config = RunConfig("ode")
        config.output_path = "ode.csv"
        config.parameters["r"] = 1.7
        assert repr(config) == ("RunConfig(subcommand='ode', parameters={'r': 1.7}, "
                                "output_format='csv', output_path='ode.csv')")
        with pytest.raises(TypeError):
            hash(config)
        assert pickle.loads(pickle.dumps(config)) == config


def test_form_choices_are_the_closed_forms():
    assert cli._FORM_CHOICES == tuple(form.value for form in map_standard.ClosedForm)
