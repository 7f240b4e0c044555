import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import repr_dps

from logistic_exact import cli, continuous, map_riccati, map_standard
from logistic_exact.cli import FIGURE_PRESETS, RunConfig, main, run
from logistic_exact.precision import DivergenceReport, PrecisionPolicy, Trajectory, _signed


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == "index_or_time,series,method,value"
    return [line.split(",") for line in lines[1:]]


def run_csv(args, capsys):
    assert main(args) == 0
    return rows_of(capsys.readouterr().out)


SVG = "{http://www.w3.org/2000/svg}"


def svg_polylines(text):
    """The points of each polyline of an SVG artifact, as (x, y) pairs."""
    return [[tuple(map(float, xy.split(","))) for xy in line.get("points").split()]
            for line in ElementTree.fromstring(text).iter(SVG + "polyline")]


def svg_y_labels(text):
    """The y axis's end labels of an SVG artifact, bottom then top."""
    return tuple(t.text for t in ElementTree.fromstring(text).iter(SVG + "text")
                 if t.get("text-anchor") == "end")


class TestMap3Command:
    def test_reference_example(self, capsys):
        rows = run_csv(["map3", "--r", "4", "--x0", "0.5", "--steps", "3"], capsys)
        assert [(r[0], r[3]) for r in rows] == [
            ("0", "0.5"), ("1", "1.0"), ("2", "0.0"), ("3", "0.0")]

    def test_closed_form_series(self, capsys):
        rows = run_csv(["map3", "--r", "-2", "--x0", "0.9", "--steps", "2",
                        "--form", "simple", "--form", "table1"], capsys)
        assert {r[1] for r in rows} == {"iterated", "simple", "table1"}

    def test_high_precision_round_trip(self, capsys):
        bits = 200
        rows = run_csv(["map3", "--r", "4", "--x0", "0.3", "--steps", "4",
                        "--bits", str(bits), "--form", "r4"], capsys)
        p = map_standard.MapParams(4.0, 0.3)
        policy = PrecisionPolicy(bits)
        for row in rows:
            if row[1] != "r4":
                continue
            n = int(row[0])
            expected = map_standard.closed_form(p, n, map_standard.ClosedForm.R4_COSINE,
                                                policy)
            with workprec(bits):
                assert mpf(row[3]) == expected


    def test_values_off_the_doubles_read_back_exactly(self, capsys):
        # the orbit goes subnormal at step 1020; each value prints as the double
        # equal to it, else as digits, so both artifacts read back bit for bit
        argv = ["map3", "--r", "0.5", "--x0", "0.3", "--steps", "1100"]
        expected = map_standard.iterate(map_standard.MapParams(0.5, 0.3), 1100).values
        from_csv = [row[3] for row in run_csv(argv, capsys)]
        assert main(argv + ["--format", "json"]) == 0
        from_json = [v for _, v in json.loads(capsys.readouterr().out)["series"][0]["samples"]]
        assert from_csv[-1] == from_json[-1] == "1.2613615312924123e-332"
        with workprec(53):
            for values in (from_csv, from_json):
                assert len(values) == 1101
                assert all(mpf(v) == x for v, x in zip(values, expected))

class TestOdeCommand:
    def test_round_trip(self, capsys):
        rows = run_csv(["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.25",
                        "--t-end", "1", "--dt", "0.25"], capsys)
        p = continuous.ContinuousParams(1.7, 0.11)
        shift = continuous.RiccatiShift(0.25)
        for t_str, label, method, v_str in rows:
            t = float(t_str)
            assert method == "ode-closed-form"
            if label == "particular":
                assert float(v_str) == continuous.particular_solution(t, p)
            else:
                assert label == "gamma=0.25"
                assert float(v_str) == continuous.general_solution(t, p, shift)

    def test_bad_grid_is_usage_error(self, capsys):
        assert main(["ode", "--r", "1.7", "--x0", "0.11", "--dt", "-0.5"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("r,x0,t_end,dt", [("1", "0.2", "1e300", "1e-300"),
                                               ("1.7", "0.11", "1e9", "1e-9")])
    def test_huge_grid_is_refused_before_evaluating(self, r, x0, t_end, dt,
                                                    monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("evaluated a point of a grid that should be refused")

        monkeypatch.setattr(continuous, "_sigmoid", never)
        assert main(["ode", "--r", r, "--x0", x0, "--t-end", t_end, "--dt", dt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "grid points" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_last_time_past_the_doubles_is_refused(self, fmt, monkeypatch, capsys):
        # round(t_end/dt) = 2 steps of 1e308: the last time 2e308 is no double,
        # where the run wrote inf (CSV), a bare inf (JSON) or a nan x-range (SVG)
        def never(*args, **kwargs):
            raise AssertionError("evaluated a point of a grid that should be refused")

        monkeypatch.setattr(continuous, "_sigmoid", never)
        assert main(["ode", "--r", "1", "--x0", "0.5", "--t-end", "1.7976931348623157e308",
                     "--dt", "1e308", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "past the largest double" in captured.err

    @pytest.mark.parametrize("extra,pole", [
        (["--x0", "-0.5"], "0.646"), (["--x0", "2", "--gamma", "1"], "0.238")])
    def test_pole_inside_the_grid_exits_3(self, extra, pole, capsys):
        assert main(["ode", "--r", "1.7", "--t-end", "1", "--dt", "0.05"] + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: solution has a pole at t={pole}")

    def test_pole_of_a_start_whose_product_underflows_exits_3(self, capsys):
        # gamma*x0 underflows; the member starts near -1e-193 and blows up near t = 261.4
        assert main(["ode", "--r", "1.7", "--x0=-1e-200", "--gamma=-1.0000001e-200",
                     "--t-end", "265", "--dt", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: solution has a pole at t=261.")

    @pytest.mark.parametrize("argv,label,start", [
        (["--x0", "1e17"], "particular", "1e+17"),
        (["--x0", "1e200", "--gamma", "2e200"], "gamma=2e+200", "2e+200")])
    def test_huge_start_is_no_pole_at_t0(self, argv, label, start, capsys):
        # 1/x0 - 1 rounds to -1 (the first) and gamma*x0 overflows (the second),
        # yet each series starts at its x_s and stays finite
        rows = run_csv(["ode", "--r", "1", "--t-end", "1", "--dt", "0.5"] + argv, capsys)
        values = [v for _, series, _, v in rows if series == label]
        assert values[0] == start
        assert len(values) == 3 and all(math.isfinite(float(v)) for v in values)

    @pytest.mark.parametrize("x0", ["1e-320", "-1e-320"])
    @pytest.mark.parametrize("extra", [[], ["--gamma", "0.14"]])
    def test_seed_without_a_reciprocal_exits_3(self, x0, extra, capsys):
        assert main(["ode", "--r", "1.7", f"--x0={x0}", "--t-end", "1", "--dt", "0.5"]
                    + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 1/x_s overflows a double")

    def test_start_near_1_keeps_its_constant(self, capsys):
        # x0 = 1 - 2^-53: c = 1/x0 - 1 formed in doubles cancelled to 2^-52, twice
        # its value, and printed 4.44e-289; mpmath at 300 bits gives
        # 8.880807121694025e-289
        rows = run_csv(["ode", "--r", "-1", "--x0", "0.9999999999999999", "--t-end", "700",
                        "--dt", "700"], capsys)
        assert rows[-1][3] == "8.880807121694023e-289"

    def test_low_gamma_pole_is_one_error_line(self, capsys):
        # the gamma = 0.08 member blows up at t = 0.873, inside the grid; the
        # gamma = 0.05 member's pole, at t = 1.457, lies after it
        argv = ["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.08",
                "--gamma", "0.05", "--t-end", "1", "--dt", "0.25"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: solution has a pole at t=0.872")

    @pytest.mark.parametrize("gamma,first,last", [
        ("-1", "0.0990990990", "0.9474856380"), ("0.12", "1.3200000000", "1.0014801868")])
    def test_bounded_member_below_the_bound_prints_no_warning(self, gamma, first, last,
                                                             capsys):
        # both gammas lie below x0/(1 - x0) = 0.1236, but neither member has a
        # pole at t >= 0: gamma = -1 rises from 0.099, gamma = 0.12 decays from 1.32
        assert main(["ode", "--r", "1.7", "--x0", "0.11", "--gamma", gamma,
                     "--t-end", "3", "--dt", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = [v for _, series, _, v in rows_of(captured.out)
                  if series == f"gamma={float(gamma)!r}"]
        assert len(values) == 4
        assert values[0].startswith(first) and values[-1].startswith(last)

    def test_pole_of_a_seed_inside_0_1_exits_3(self, capsys):
        # x_s = -0.0917 blows up at t* = 1.457, between the samples at 1.25 and 1.5
        assert main(["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.05",
                     "--t-end", "3", "--dt", "0.25"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: solution has a pole at t=1.457")

    def test_members_share_one_grid_while_the_run_lives(self):
        doc = cli._run_ode(**cli.parse_args(["ode", "--r", "1.7", "--x0", "0.11", "--gamma",
                                             "0.14", "--gamma", "0.25"]).parameters)
        times = [traj.indices for _, traj in doc["series"]]
        assert len(times) == 3 and all(t is times[0] for t in times)
        assert tuple(times[0]) == tuple(k * 0.02 for k in range(501))
        del doc, times
        assert (500, 0.02) not in continuous._GRIDS  # nothing outlives the run


class TestMap4Command:
    def test_series(self, capsys):
        rows = run_csv(["map4", "--r", "1.73", "--x0", "0.333", "--steps", "3",
                        "--gamma", "2", "--gamma", "0.5"], capsys)
        labels = [r[1] for r in rows]
        # gamma series are ordered ascending regardless of flag order
        assert labels.index("gamma=0.5") < labels.index("gamma=2.0")
        assert {r[1] for r in rows} == {"iterated", "particular",
                                        "gamma=0.5", "gamma=2.0"}

    def test_long_run_needs_no_coefficients(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the coefficients were computed")

        monkeypatch.setattr("logistic_exact.map_riccati.coefficients", never)
        rows = run_csv(["map4", "--r", "1.73", "--x0", "0.333", "--steps", "10000",
                        "--gamma", "2"], capsys)
        assert len(rows) == 3 * 10_001


    def test_huge_seed_has_no_pole_at_n0(self, capsys):
        rows = run_csv(["map4", "--r", "1", "--x0", "1e17", "--steps", "3"], capsys)
        particular = [r[3] for r in rows if r[1] == "particular"]
        assert particular[:2] == ["1e+17", "2.0"]

    @pytest.mark.parametrize("argv,last", [
        (["--r", "-0.5", "--x0", "0.98", "--gamma", "50", "--steps", "56"],
         "0.43859649122807015"),
        (["--r", "1.73", "--x0", "0.02", "--gamma", "-50", "--steps", "60"],
         "0.9999999837520088")])
    def test_seed_within_an_ulp_of_a_fixed_point(self, argv, last, capsys):
        # the exact seeds x0 + 1/gamma are 1 - 1.78e-17 and 4.16e-19; rounded to
        # one double they were the fixed points 1 and 0, and the member printed
        # 1.0 and 0.0; these are the exact member (tests/test_map_riccati.py's
        # exact_member) and 1 ulp below it
        rows = run_csv(["map4"] + argv, capsys)
        assert [r[3] for r in rows if r[1].startswith("gamma=")][-1] == last

    @pytest.mark.parametrize("x0", ["1e-320", "-1e-320"])
    def test_seed_without_a_reciprocal_exits_3(self, x0, capsys):
        # the particular series printed 0.0 from n = 1 where the orbit is
        # 2.7e-320, 7.29e-320 and 1.97e-319: the start rule of the ODE refuses it
        assert main(["map4", "--r", "1.7", f"--x0={x0}", "--steps", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 1/x_s overflows a double")


@pytest.mark.parametrize("argv", [
    ["ode", "--r", "1.7", "--x0", "0.11", "--t-end", "1", "--dt", "0.25"],
    ["map4", "--r", "1.59", "--x0", "0.36192", "--steps", "5"],
], ids=["ode", "map4"])
def test_repeated_gamma_is_one_series(argv, capsys):
    repeated = ["--gamma", "5.124", "--gamma", "3.21", "--gamma", "5.124"]
    distinct = ["--gamma", "3.21", "--gamma", "5.124"]
    assert main(argv + repeated + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    labels = [s["label"] for s in doc["series"]]
    assert labels[-2:] == ["gamma=3.21", "gamma=5.124"]
    assert len(labels) == len(set(labels))
    assert doc["config"]["gammas"] == [3.21, 5.124]
    for fmt in ("csv", "json", "svg"):
        assert main(argv + repeated + ["--format", fmt]) == 0
        once = capsys.readouterr().out
        assert main(argv + distinct + ["--format", fmt]) == 0
        assert capsys.readouterr().out == once


@pytest.mark.parametrize("argv,key", [
    (["map3", "--r", "-2", "--x0", "0.9", "--steps", "20"], "series"),
    (["compare", "--r", "-2", "--x0", "0.9", "--steps", "20"], "reports"),
], ids=["map3", "compare"])
def test_repeated_form_is_one_series(argv, key, capsys):
    repeated = ["--form", "simple", "--form", "table1", "--form", "simple"]
    distinct = ["--form", "simple", "--form", "table1"]
    assert main(argv + repeated + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["label"] for s in doc[key]] == ["iterated", "simple", "table1"]
    assert doc["config"]["forms"] == ["simple", "table1"]
    for fmt in ("csv", "json", "svg"):
        assert main(argv + repeated + ["--format", fmt]) == 0
        once = capsys.readouterr().out
        assert main(argv + distinct + ["--format", fmt]) == 0
        assert capsys.readouterr().out == once


class TestCompareCommand:
    def test_emits_three_reports(self, capsys):
        assert main(["compare", "--r", "-2", "--x0", "0.9", "--form", "table1",
                     "--form", "simple", "--steps", "60", "--bits", "53",
                     "--threshold", "0.01"]) == 0
        doc = json.loads(capsys.readouterr().out)
        labels = [rep["label"] for rep in doc["reports"]]
        assert labels == ["iterated", "table1", "simple"]
        for rep in doc["reports"]:
            assert rep["threshold"] == 0.01
            assert len(rep["per_step_abs_error"]) == 61
            assert isinstance(rep["first_divergent_index"], int)

    def test_csv_mode_emits_error_rows(self, capsys):
        rows = run_csv(["compare", "--r", "-2", "--x0", "0.9", "--form", "simple",
                        "--steps", "5", "--format", "csv"], capsys)
        assert {r[1] for r in rows} == {"iterated", "simple"}
        assert all(r[2] == "abs-error" for r in rows)

    def test_oracle_no_finer_than_method_exits_2(self, capsys):
        for oracle_bits in ("53", "40"):
            assert main(["compare", "--r", "-2", "--x0", "0.9", "--steps", "10",
                         "--oracle-bits", oracle_bits]) == 2
            assert "oracle bits" in capsys.readouterr().err
        assert main(["compare", "--r", "-2", "--x0", "0.9", "--steps", "10",
                     "--bits", "100", "--oracle-bits", "100"]) == 2
        assert main(["compare", "--r", "-2", "--x0", "0.9", "--steps", "10",
                     "--bits", "100", "--oracle-bits", "101"]) == 0

    def test_oracle_below_the_step_budget_warns(self, capsys):
        argv = ["compare", "--r", "-2", "--x0", "0.9", "--steps", "60",
                "--oracle-bits", "60"]
        for _ in range(2):  # every run reports it, not only the first
            assert main(argv) == 0
            captured = capsys.readouterr()
            # the same artifact as before the warning was added
            assert hashlib.sha256(captured.out.encode("ascii")).hexdigest() == (
                "3cf2d5391ecff594a3a52078d42affb015b7f52decb2aa808f9264bf8c706953")
            assert captured.err.splitlines() == [
                "warning: oracle bits (60) are below the budget of one bit per step "
                "plus 64 (124 bits for 60 steps); the oracle may have left the orbit "
                "before the last step"]
        assert main(argv[:-1] + ["124"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_warning_prints_under_any_interpreter_filter(self, action, capsys):
        # PYTHONWARNINGS=error made the warning a traceback and exit 1, and
        # PYTHONWARNINGS=ignore dropped its line
        argv = ["compare", "--r", "-2", "--x0", "0.9", "--steps", "60",
                "--oracle-bits", "60"]
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: oracle bits (60)")

    @pytest.mark.parametrize("steps", [1100, 2000, 4000])
    def test_decay_errors_are_the_differences_rounded_once(self, steps, monkeypatch, capsys):
        # the orbit decays past the doubles: each error it prints, subnormal
        # ones included, is its two samples' exact difference rounded once
        pairs = []
        real_compare = map_standard._compare_pairs

        def recording(columns, b, bits, threshold):
            columns, b = [list(column) for column in columns], list(b)
            for column in columns:
                pairs.extend(zip(column, b))
            return real_compare(columns, iter(b), bits, threshold)

        monkeypatch.setattr(map_standard, "_compare_pairs", recording)
        assert main(["compare", "--r", "0.5", "--x0", "0.3", "--steps", str(steps)]) == 0
        errors = json.loads(capsys.readouterr().out)["reports"][0]["per_step_abs_error"]
        assert len(pairs) == len(errors) == steps + 1
        # the iteration's samples are floats, then mpf once they leave the doubles
        exact = [float(abs(Fraction(ma) * Fraction(2)**ea - Fraction(mb) * Fraction(2)**eb))
                 for (ma, ea), (mb, eb) in ((_signed(x, 53), b) for x, b in pairs)]
        assert errors == exact
        assert sum(0 < e < sys.float_info.min for e in errors) > 20

    def test_one_oracle_serves_every_report(self, monkeypatch, capsys):
        calls = []
        real_oracle = map_standard._reference

        def counting_oracle(*args, **kwargs):
            calls.append(args)
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(map_standard, "_reference", counting_oracle)
        assert main(["compare", "--r", "-2", "--x0", "0.9",
                     "--form", "table1", "--form", "simple"]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [rep["label"] for rep in doc["reports"]] == ["iterated", "table1", "simple"]

    @pytest.mark.parametrize("forms", [(), ("table1", "simple")])
    def test_reference_is_drawn_once_for_every_column(self, forms, monkeypatch):
        # the iteration, then each closed form, then one call that draws the
        # reference once, as it is built, against every method's column
        order, columns, calls = [], [], []
        real_reference = map_standard._reference
        real_compare = map_standard._compare_pairs

        def evaluating(name, real):
            def evaluate(*args):
                order.append(name)
                t = real(*args)
                columns.append(t.values)
                return t
            return evaluate

        def reference(*args):
            order.append("reference")  # on the first pair drawn
            yield from real_reference(*args)

        def compare(cols, pairs, bits, threshold):
            order.append("compare")
            reports = real_compare(cols, pairs, bits, threshold)
            calls.append((cols, pairs))
            return reports

        monkeypatch.setattr(map_standard, "iterate", evaluating("iterate", map_standard.iterate))
        monkeypatch.setattr(map_standard, "closed_form_trajectory",
                            evaluating("closed form", map_standard.closed_form_trajectory))
        monkeypatch.setattr(map_standard, "_reference", reference)
        monkeypatch.setattr(map_standard, "_compare_pairs", compare)
        p = map_standard.MapParams(-2.0, 0.9)
        reports = map_standard.divergence_reports(p, 60, 53, 0.01, forms)
        assert order == ["iterate"] + ["closed form"] * len(forms) + ["compare", "reference"]
        assert len(reports) == len(columns) == 1 + len(forms) and len(calls) == 1
        cols, pairs = calls[0]
        assert len(cols) == len(columns) and all(c is t for c, t in zip(cols, columns))
        assert type(pairs) is not list and next(pairs, None) is None  # drawn to its end

    def test_impossible_form_is_refused_before_evaluating(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("evaluated a run that should be refused")

        for name in ("iterate", "_reference", "_phase_reference", "_bounded"):
            monkeypatch.setattr(map_standard, name, never)
        assert main(["compare", "--r", "3.9", "--x0", "0.3", "--steps", "8000",
                     "--form", "r4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "requires r=4" in captured.err
        assert main(["compare", "--r", "4", "--x0", "1.5", "--steps", "8000",
                     "--form", "r4"]) == 3
        assert "outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["0", "-0.5"])
    def test_threshold_is_refused_before_evaluating(self, threshold, monkeypatch, capsys):
        evaluated = []
        for name in ("iterate", "_reference", "_phase_reference"):
            def recording(*args, _name=name, **kwargs):
                evaluated.append(_name)

            monkeypatch.setattr(map_standard, name, recording)
        assert main(["compare", "--r", "3.9", "--x0", "0.3", "--steps", "20000",
                     "--threshold", threshold]) == 2
        assert evaluated == []
        captured = capsys.readouterr()
        assert captured.out == "" and "threshold must be positive" in captured.err


class TestParseArgs:
    def test_parser_is_built_once(self, monkeypatch):
        cli.parse_args(["figure", "1"])
        monkeypatch.setattr(cli, "build_parser", None)  # would fail if called
        assert cli.parse_args(["figure", "2"]).parameters == {"which": "2"}

    def test_repeated_options_give_independent_lists(self):
        first = cli.parse_args(["compare", "--r", "-2", "--x0", "0.9",
                                "--form", "table1", "--form", "simple"])
        second = cli.parse_args(["compare", "--r", "-2", "--x0", "0.9", "--form", "simple"])
        assert first.parameters["forms"] == ["table1", "simple"]
        assert second.parameters["forms"] == ["simple"]
        first.parameters["forms"].append("r4")
        assert "forms" not in cli.parse_args(["compare", "--r", "4", "--x0", "0.3"]).parameters
        a = cli.parse_args(["map4", "--r", "1.73", "--x0", "0.333", "--steps", "5",
                            "--gamma", "2"])
        b = cli.parse_args(["map4", "--r", "1.73", "--x0", "0.333", "--steps", "5",
                            "--gamma", "0.5", "--gamma", "5"])
        assert (a.parameters["gammas"], b.parameters["gammas"]) == ([2.0], [0.5, 5.0])
        assert a.parameters["gammas"] is not b.parameters["gammas"]


class TestSeriesLimits:
    """Series that would exhaust memory are refused before any evaluation."""

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("evaluated a series that should be refused")

        for name in ("iterate", "oracle", "closed_form_trajectory", "prng_bits"):
            monkeypatch.setattr(map_standard, name, never)
        for name in ("iterate", "particular_trajectory", "general_trajectory"):
            monkeypatch.setattr(map_riccati, name, never)
        monkeypatch.setattr(continuous, "grid_trajectory", never)

    @pytest.mark.parametrize("argv", [
        ["map3", "--r", "4", "--x0", "0.3", "--steps", "1000000000"],
        ["map3", "--r", "4", "--x0", "0.3", "--steps", "10000000", "--form", "r4"],
        ["map4", "--r", "1.73", "--x0", "0.333", "--steps", "10000000"],
        ["compare", "--r", "-2", "--x0", "0.9", "--steps", "1000000000"],
        ["rng", "--x0", "0.3", "--count", "1000000000"],
        ["rng", "--x0", "0.3", "--count", "10000001"],
        # five series of 3,000,001 points, each within the limit, are 1.5e7 in all
        ["ode", "--r", "1.7", "--x0", "0.11", "--t-end", "3000000", "--dt", "1", "--gamma",
         "0.14", "--gamma", "0.15", "--gamma", "0.17", "--gamma", "0.25"],
    ])
    def test_too_many_samples(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "10000000 samples" in captured.err

    @pytest.mark.parametrize("burn_in,count", [("100000000000", "1"), ("9999999", "2")])
    def test_too_many_rng_steps(self, burn_in, count, capsys):
        assert main(["rng", "--x0", "0.3", "--count", count, "--burn-in", burn_in]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {burn_in} burn-in steps and {count} samples "
                                "exceed the limit of 10000000 steps\n")

    @pytest.mark.parametrize("extra", [
        ["--steps", "100000"],  # the default oracle: 100,001 samples of 100,064 bits
        ["--steps", "60", "--oracle-bits", str(2**33 // 61 + 1)],
    ])
    def test_oracle_too_large(self, extra, capsys):
        assert main(["compare", "--r", "-2", "--x0", "0.9"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "significand bits" in captured.err

    @pytest.mark.parametrize("argv", [
        ["map3", "--r", "4", "--x0", "0.3", "--steps", "2", "--bits", "2000000",
         "--form", "r4"],
        ["compare", "--r", "-2", "--x0", "0.9", "--steps", "60",
         "--oracle-bits", str(cli.MAX_BITS + 1)],
        ["compare", "--r", "-2", "--x0", "0.9", "--steps", "70000"],  # the default oracle
    ])
    def test_too_wide(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"limit of {cli.MAX_BITS}" in captured.err

    def test_largest_oracle_is_admitted(self, monkeypatch, capsys):
        sizes = []
        monkeypatch.setattr(map_standard, "_reference",
                            lambda p, bits, widths: sizes.append((sum(1 for _ in widths), bits)))
        monkeypatch.setattr(map_standard, "iterate",
                            lambda p, n, policy: Trajectory("iterated", (0,), (0.0,), policy))
        monkeypatch.setattr(map_standard, "_compare_pairs",
                            lambda columns, b, bits, threshold: [DivergenceReport((), threshold)])
        # the widest values, and the most significand bits in all
        steps = cli.MAX_SERIES_BITS // cli.MAX_BITS - 1
        for n in (60, steps):
            assert main(["compare", "--r", "-2", "--x0", "0.9", "--steps", str(n),
                         "--oracle-bits", str(cli.MAX_BITS)]) == 0
        assert sizes == [(60, cli.MAX_BITS), (steps, cli.MAX_BITS)]


# SHA-256 of whole artifacts, captured before the closed-form trajectory and
# the angle reduction were rewritten, and (figures, ode, map4, rng) before the
# CLI's series moved onto the library Trajectory; those rewrites kept every byte.
# figure3-csv, figure3-json and map4-gammas-json were re-captured when the
# coupled map's general solution moved onto the shifted seed x0 + 1/gamma: their
# gamma values moved by at most 8.9e-16 (2.2e-16 in these artifacts), and
# test_shifted_seed_within_4_ulp_of_400_bit_member pins the new values.
# compare-csv, compare-svg and compare-phase (an iteration-only run whose
# reference is read off the phase digits) were captured before compare became a
# caller of map_standard.divergence_reports.  compare-long, compare-periodic-200
# (a periodic window at 200 working bits), compare-forms-long, map3-long and
# map3-subnormal (whose orbit leaves the normal doubles near step 1023) were
# captured before the reference of a long compare run narrowed with the steps
# left and 53-bit iteration moved onto doubles.  map3-subnormal was re-captured
# when a 53-bit value that no double equals began to print as digits rather
# than as a rounded double (0.0 at step 1100); its values are pinned by
# TestMap3Command::test_values_off_the_doubles_read_back_exactly.
# compare-decay (a decaying orbit whose last 133 errors are subnormal or 0.0)
# was captured before compare_trajectories formed its errors as integers.
# rng-csv, map3-subnormal-csv (floats up to step 1019, then mpf, some printed
# as digits) and ode-json were captured before a Trajectory held its series as an
# index column and a value column.  figure1-csv, figure1-json, ode-gammas and
# ode-json were re-captured when every ODE member began to start on x_s rounded
# once (0.11, not 1/(1/0.11) = 0.10999999999999999): only their t = 0 samples
# moved, and test_every_start_sample_is_the_start_rounded_once pins them.
# map3-r4-budget-svg, rng-svg and map3-subnormal-svg were captured before the
# SVG chart read its columns in place of a copy of every point.  figure1-csv,
# figure1-json, figure3-csv, figure3-json, ode-gammas and ode-json were
# re-captured when every Riccati member began to take its start x_s and its
# constant c = 1/x_s - 1 as correctly rounded quotients of exact integers: 53
# of figure 1's 2,505 samples moved (39 closer to the member at 300 bits, 14
# farther) and 2 of figure 3's closed-form samples (both closer), and
# test_figure1_within_2_5_ulp_of_300_bit_member and
# test_figure3_within_1_5_ulp_of_exact hold every sample of both figures.
# compare-decay, compare-decay-json, compare-decay-squared-csv and
# compare-sized-decay-csv were re-captured when an error below 2^-1022 began
# to be rounded once to the subnormal doubles, not to 53 bits first: the error
# at step 969, 2.1364549248730997e-308, became 2.136454924873099e-308, one
# ulp lower, and test_decay_errors_are_the_differences_rounded_once holds
# every error of those runs to its exact difference, correctly rounded.
GOLDEN_SHA256 = [
    (["compare", "--r", "-2", "--x0", "0.9", "--form", "table1", "--form", "simple"],
     "c57e476735943d7177a857f2b0aab06ce0361c69b570f4a0c343f6e81cd06c85"),
    (["compare", "--r", "-2", "--x0", "0.9", "--form", "table1", "--form", "simple",
      "--format", "csv"],
     "d5b5aec5ece9d1686d3d90900004e8f73c0789ba3002b73100071af166805c4d"),
    (["compare", "--r", "-2", "--x0", "0.9", "--form", "table1", "--form", "simple",
      "--format", "svg"],
     "dcd8943311401e5ad1586e3e93731d71996fe227c42a9804ec57a0a71cd6d416"),
    (["compare", "--r", "4", "--x0", "0.3", "--steps", "2600"],
     "e99e2e3b6bb1f160491eaeda5248618ace2c60c93a0c339530c31f6fc869610d"),
    (["map3", "--r", "2", "--x0", "0.7", "--steps", "200", "--bits", "264",
      "--form", "r2"],
     "23f30c9937776367299b5164d76f77e6a9a50ea4db2aa13f9bb57dc704b8c996"),
    (["figure", "1"], "c164f95a638999bc1d9c84a8f1ee7142c3a455a4e9929ee75597ad91a212da93"),
    (["figure", "1", "--format", "json"],
     "052d7553ff19bf8ef7f3e193c834744c90742e3393faa8431553ad74d5450be4"),
    (["figure", "1", "--format", "svg"],
     "fff304be014d64b86c8084e108f5b0735386d0e8ff26ce1d16d2425b388727b4"),
    (["figure", "2"], "a8f3627ada28c8f8e8df0763598e5a61793720a9ca0f6a5f6d7846f332f5fe2a"),
    (["figure", "2", "--format", "json"],
     "d0e0669a589391a9e31ad5a75f76fdbbfe603e9df8c7d2671f7db59cd2a25657"),
    (["figure", "2", "--format", "svg"],
     "3d6c7c90b4fd2a0be0ad53269332b5294ec5d54503bc8723560ffffd1dd07920"),
    (["figure", "3"], "7fd4065354a05c2701719e5db767a5570e930954d094ca8d3a2923721607bb27"),
    (["figure", "3", "--format", "json"],
     "9053f75d7169d5efda74966ab0074507745730023c9d40815930948b061ebf39"),
    (["figure", "3", "--format", "svg"],
     "c384d680c99312f72f642e9b1630dde3ad79a39352c100751ab0a7f35df7c268"),
    (["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.25", "--gamma", "0.14",
      "--t-end", "2", "--dt", "0.05"],
     "29997e382072d01fea0d25ab1a990cb6303b853ac6df6eeeea8e7d6057ee95bc"),
    (["map4", "--r", "1.73", "--x0", "0.333", "--steps", "40", "--gamma", "5",
      "--gamma", "0.5", "--format", "json"],
     "a6c2a83a89a9a3d2abbf281c05aabd8519af2fce2fd40e378b6c6b42b32ebb4b"),
    (["rng", "--x0", "0.3", "--count", "5000", "--burn-in", "7", "--format", "json"],
     "14afd9cb7988ab406a1468398950b8f20c8792791200f97a135024bf5b52d719"),
    (["compare", "--r", "3.9", "--x0", "0.3", "--steps", "1500", "--format", "csv"],
     "4be80a4611e0060cfc7655290857d10e156f055189556c979e2c644a6a4d1481"),
    (["compare", "--r", "3.83", "--x0", "0.3", "--steps", "1000", "--bits", "200",
      "--format", "csv"],
     "e42f670298e3f94b1bfbcfb0938b64eeb0029aefc3fd387634e20fb20c0ca822"),
    (["compare", "--r", "-2", "--x0", "0.9", "--steps", "400", "--form", "table1",
      "--form", "simple", "--format", "csv"],
     "4735cd14b5d56fb51817f102bd7f5667c7295f40087da54221078dfc2ce5544e"),
    (["map3", "--r", "3.7", "--x0", "0.3", "--steps", "3000"],
     "2971f8413b257f4c0dc0ba5bd6a6b86e38879114da54189ca744073ac46d659e"),
    (["map3", "--r", "0.5", "--x0", "0.3", "--steps", "1100", "--format", "json"],
     "61bfcdc185b4778c6197fa77ffc239a42ef304cf18a6f49551cbed8448e69a48"),
    (["compare", "--r", "0.5", "--x0", "0.3", "--steps", "1100", "--format", "csv"],
     "3c6b66d829872b3cc51a4c390e2b5b4c9ec5a7f25b767c5f9a4eb7b8554c5d72"),
    (["compare", "--r", "0.5", "--x0", "0.3", "--steps", "1100"],
     "36729289c5ceb24a87808e238a91e3d6378c80d2d780468b9e890f5a7c660914"),
    (["compare", "--r", "3.83", "--x0", "0.3", "--steps", "1000", "--bits", "200"],
     "9a6dd18f6af7b03e5f34b9d05fca0483f90f7c7391410b4de4feab725d6182df"),
    (["rng", "--x0", "0.3", "--count", "5000", "--burn-in", "7"],
     "2df70b9f98db85bcb3a4d301ccc128d1d5ab0dc76edff4f434b9b77a02c899d5"),
    (["map3", "--r", "0.5", "--x0", "0.3", "--steps", "1100"],
     "edb1eda0daad2736d54a3fd1826bbf1475c6cd1b0dcb026d591de06caf3dc4b7"),
    (["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.25", "--t-end", "2", "--dt", "0.05",
      "--format", "json"],
     "6005207a359b97ca0bf579c56b2effbd23b1240984c84dcef8fc1d33aed9ebdf"),
    # the cosine forms at 53 bits, whose samples are doubles, and at budget bits
    (["compare", "--r", "4", "--x0", "0.3", "--form", "r4", "--steps", "250",
      "--format", "csv"],
     "4c941b9c39525491f1eebdb9f59a020ee58d298a56c52e4673be5d301d8a7fef"),
    (["map3", "--r", "-2", "--x0", "0.9", "--steps", "250", "--form", "table1",
      "--form", "simple", "--format", "json"],
     "c671810fe72837a1f15de0f916eefddd7661125ae9115d06399f016fc76dac86"),
    (["map3", "--r", "4", "--x0", "0.3", "--steps", "300", "--bits", "364", "--form", "r4",
      "--format", "json"],
     "5f0c64f441ff27a3cd8e810684dc6279f01b4b0e413446b3aad1b74bd78892a3"),
    (["map3", "--r", "-2", "--x0", "0.9", "--steps", "300", "--bits", "364",
      "--form", "table1", "--form", "simple"],
     "57c27d7c96f3c832a95a49d2b2dd7f9f0cbde5f3031cb8a1e007e79530bdcd29"),
    # charts of budget-width values, of ints on a range index, and of subnormals
    (["map3", "--r", "4", "--x0", "0.3", "--steps", "300", "--bits", "364", "--form", "r4",
      "--format", "svg"],
     "8e81138b12ed81acedcd842541b64e81f99f4be3a11c5362f2433eba9670a5ac"),
    (["rng", "--x0", "0.3", "--count", "5000", "--burn-in", "7", "--format", "svg"],
     "8ac080e3875b0d383faffc56b3a345f09b98e74f07e8c0dd5c85ec8c096bb486"),
    (["map3", "--r", "0.5", "--x0", "0.3", "--steps", "1100", "--format", "svg"],
     "8cba40dffcd76c748f6bbbe6ab886b93911e310612733e9ae1feb3b1779a245f"),
    # the cosine forms at 53 bits over 1,100 steps: from about step 1,020 on,
    # (-2)^n times table1's phase is no double, and its angle takes libmp calls
    (["compare", "--r", "-2", "--x0", "0.9", "--form", "table1", "--form", "simple",
      "--steps", "1100", "--format", "csv"],
     "12e155a0e0e3e8a54bf7f7c4b95cbe2527ea9c467d1197eccf569c440096bcb6"),
    (["compare", "--r", "4", "--x0", "0.3", "--form", "r4", "--steps", "1100",
      "--format", "csv"],
     "5eaa0dad0d7e237bb144b09ea6aa5e0c2e5ae3ef367e8bd0a782c69af90244be"),
    # tapered references whose steps from 1,000 bits up are squared where x
    # lies in [2^-8, 1 - 2^-8]: an orbit that decays out of that interval,
    # and one whose squares reach CPython's Karatsuba range (past 2,100 bits)
    (["compare", "--r", "0.5", "--x0", "0.3", "--steps", "2000", "--format", "csv"],
     "745501fae3b76ae318ffdf77dca8f0f0cf3eded64d7437d1e54f26484b00536f"),
    (["compare", "--r", "3.7", "--x0", "0.3", "--steps", "5000", "--format", "csv"],
     "9388f8096e8e0e5f30a124da352826579bc31dbda0821e5b2b6677487bae5eb7"),
    # three series on one tuple of 10,001 grid times, formatted once for all
    # three: the shared column crosses two 4,096-row batch boundaries
    (["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.14", "--gamma", "0.25",
      "--t-end", "10", "--dt", "0.001"],
     "860b2a4d4d8507872def047687f0c1cd11aafb9483ca09fbdf117093f698f3bb"),
    (["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.14", "--gamma", "0.25",
      "--t-end", "10", "--dt", "0.001", "--format", "json"],
     "e53ac3e9ac8af6c3505fc3a341333cf2ff5524c5d0152f1bebed2020765fba3b"),
    # captured with the tapered reference: a chaotic orbit whose reference is
    # now sized by the orbit's own stretching, and an orbit in a periodic
    # window at 3,000 steps, below that route's crossover, and at 4,000, past
    # it, where the widths fall to 256 bits
    (["compare", "--r", "3.9", "--x0", "0.3", "--steps", "6000", "--format", "csv"],
     "2a375cdd199e9283ec0ba42541c79437dd0e41b8001a58e6b9a37a5cef3dafd8"),
    (["compare", "--r", "3.83", "--x0", "0.3", "--steps", "3000", "--format", "csv"],
     "9c8339070d3dd7e1c6304fd4bbaf5ed25029283b8a9505b2c93410fc7efab5a0"),
    (["compare", "--r", "3.83", "--x0", "0.3", "--steps", "4000", "--format", "csv"],
     "eae9248f43f8dd57c9ebc3089c215ceae467e17338f9780df221ce0be25a55d9"),
    # captured with the tapered reference: a decay past the doubles, whose
    # errors read 0 from step 1,022 on and are now certified by the sized
    # reference's bound
    (["compare", "--r", "0.5", "--x0", "0.3", "--steps", "4000", "--format", "csv"],
     "72fa31401d41c803a69240d0c15bef9580850ac1f0e4a765c07da2bef2fcaa19"),
    # the float producers' other paths, captured before their columns were
    # packed: a decay that overflows, so the sigmoid kernel evaluates point by
    # point and ends on 0.0; c = 0, a constant column; and the coupled map's
    # fixed-point member, whose seed x0 + 1/gamma is 0
    (["ode", "--r", "-3", "--x0", "0.5", "--t-end", "400", "--dt", "0.5"],
     "20706ea18b04ed138de157a8b9a6133c7a47ca60a5195eb471768c8d4718634b"),
    (["ode", "--r", "-3", "--x0", "0.5", "--t-end", "400", "--dt", "0.5", "--format", "json"],
     "fe8b0b6fb85b494a8ee4096d08d626f926e11836f2e653a43c550d303370be01"),
    (["ode", "--r", "1.7", "--x0", "1.0", "--t-end", "2", "--dt", "0.5"],
     "105a70dd33ccc77037862c78e737a83225bffdd1dc607a5247868ef39b7a0151"),
    (["ode", "--r", "1.7", "--x0", "1.0", "--t-end", "2", "--dt", "0.5", "--format", "json"],
     "7142a42d7fed0b70b84a0245189506b93775626863160db9785eb43056539995"),
    (["map4", "--r", "1.8", "--x0", "0.25", "--steps", "5", "--gamma", "-4"],
     "1521364460c0af02daa2630e844621dc5280f0c289a5b64d877a0b4c4fcc94a9"),
    (["map4", "--r", "1.8", "--x0", "0.25", "--steps", "5", "--gamma", "-4", "--format", "json"],
     "1507b6026428a6b83e1a210d46d4ffd3ed8baded223b6bf18a2a73da2c6c6172"),
    # the cosine forms at a budget width where most cosines take
    # exponential_series, captured while the samples still came from mpf_cos
    # and their texts from mp.nstr
    (["map3", "--r", "4", "--x0", "0.3", "--steps", "400", "--bits", "464", "--form", "r4"],
     "46ed0cce0eac570cc444084a28f72a526f7a2100944771a3bf88f51b42672fb2"),
    (["map3", "--r", "-2", "--x0", "0.9", "--steps", "400", "--bits", "464",
      "--form", "table1", "--form", "simple", "--format", "json"],
     "882bb2eec498a22b6d0c71d3e51e4b8e11b41c18fc1c8dfe6ddd28b72e5fae12"),
]
GOLDEN_IDS = ["compare", "compare-csv", "compare-svg", "compare-phase", "map3-r2"] + [
    f"figure{w}-{f}" for w in "123" for f in ("csv", "json", "svg")] + [
    "ode-gammas", "map4-gammas-json", "rng-json", "compare-long", "compare-periodic-200",
    "compare-forms-long", "map3-long", "map3-subnormal", "compare-decay", "compare-decay-json",
    "compare-periodic-200-json", "rng-csv", "map3-subnormal-csv", "ode-json", "compare-r4-csv",
    "map3-rm2-forms-json", "map3-r4-budget-json", "map3-rm2-forms-budget",
    "map3-r4-budget-svg", "rng-svg", "map3-subnormal-svg", "compare-rm2-forms-long-csv",
    "compare-r4-long-csv", "compare-decay-squared-csv", "compare-squared-long-csv",
    "ode-members-long-csv", "ode-members-long-json", "compare-sized-csv",
    "compare-periodic-3000-csv", "compare-sized-periodic-csv", "compare-sized-decay-csv",
    "ode-decay-overflow-csv", "ode-decay-overflow-json", "ode-constant-csv", "ode-constant-json",
    "map4-fixed-point-csv", "map4-fixed-point-json", "map3-r4-wide-csv",
    "map3-rm2-forms-wide-json"]


@pytest.mark.parametrize("argv,digest", GOLDEN_SHA256, ids=GOLDEN_IDS)
def test_golden_artifacts(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


# runs through every mpmath-backed route: the iterated reference with closed
# forms, the sized and the phase references, budgeted iteration, r2's squaring
# at 120 bits and figure 2's oracle and 53-bit closed forms
MP_CONTEXT_RUNS = {
    "compare-forms": ["compare", "--r", "-2", "--x0", "0.9", "--form", "table1",
                      "--form", "simple"],
    "compare-sized": ["compare", "--r", "3.9", "--x0", "0.3", "--steps",
                      str(map_standard._SIZED_MIN_STEPS)],
    "compare-phase": ["compare", "--r", "4", "--x0", "0.3", "--steps",
                      str(map_standard._PHASE_MIN_STEPS)],
    "map3-364-bits": ["map3", "--r", "3.9", "--x0", "0.3", "--steps", "300", "--bits", "364"],
    "map3-r2-120-bits": ["map3", "--r", "2", "--x0", "0.3", "--steps", "60", "--bits", "120",
                         "--form", "r2"],
    "figure2": ["figure", "2", "--format", "json"],
}


@pytest.mark.parametrize("argv", MP_CONTEXT_RUNS.values(), ids=MP_CONTEXT_RUNS.keys())
def test_artifacts_do_not_depend_on_the_mpmath_context(argv, capsys):
    # every rounding is made at a width the library passes, and no run sets
    # the global context; digests, since a diff of two long artifacts is slow
    def digest():
        return hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()

    assert main(argv) == 0
    expected = digest()
    for prec in (10, 30, 2000):
        with workprec(prec):
            assert main(argv) == 0
            assert mp.prec == prec
        assert digest() == expected, prec


# Peak RSS of runs in one fresh interpreter, before the first cli.main and
# after the last, once every library module is imported and the parser built:
# Linux's VmHWM, in kB.  The runners import their modules on first use, which
# would count the compiling of those modules in the first run's growth.
# Unlike ru_maxrss, VmHWM starts afresh at exec, not at the launching
# process's peak.
PEAK = """
import json
import sys
from logistic_exact import cli, continuous, map_riccati, map_standard


def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


cli._parser()
before = peak()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(max(codes), before, peak())
"""


def peak_growth(*argvs):
    """Bytes by which the runs, one after another, grow their interpreter's peak RSS."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", PEAK, json.dumps(argvs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    code, before, after = map(int, out.split())
    assert code == 0
    return (after - before) * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS that Linux reports")
class TestPeakMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_artifact_is_held_once(self, fmt, tmp_path):
        # 5.6 MB of CSV, 15.2 MB of JSON and 4.0 MB of SVG, each written to the
        # file a batch at a time: the peak grows by 0.31, 0.56 and 0.68 MiB, for
        # 300 kB of bits as bytes, a batch and the interpreter's own (1.03,
        # 1.02 and 1.17 times the artifact while it was held whole)
        path = tmp_path / f"rng.{fmt}"
        growth = peak_growth(["rng", "--x0", "0.3", "--count", "300000", "--format", fmt,
                              "--out", str(path)])
        assert growth < 0.5 * path.stat().st_size

    def test_four_series_ode_holds_its_columns_and_artifact(self, tmp_path):
        # 16.3 MiB of CSV for 4 series of 100,001 points: the peak grows by
        # about 4.7 MiB: 3.8 MiB of float columns as array('d') (the four
        # series and their shared grid times), those times formatted once for
        # the four series, and a batch (20.4 MiB while the columns were tuples
        # of floats, 36.6 MiB while the artifact was held whole).  The same
        # for 5 series of 100,001 points as 25.7 MiB of JSON: about 6.0 MiB
        # (28.5 MiB with tuples)
        for argv, bound in [
                (["--gamma", "0.14", "--gamma", "0.17", "--gamma", "0.25", "--t-end", "100",
                  "--dt", "0.001"], 0.4),
                (["--gamma", "0.14", "--gamma", "0.25", "--gamma", "0.5", "--gamma", "2.0",
                  "--t-end", "100000", "--dt", "1", "--format", "json"], 0.33)]:
            path = tmp_path / "ode.out"
            growth = peak_growth(["ode", "--r", "1.7", "--x0", "0.11", *argv,
                                  "--out", str(path)])
            assert growth < bound * path.stat().st_size, argv

    def test_artifacts_leave_no_heap_behind(self, tmp_path):
        # No artifact is held, so the runs after the ode run fit in the heap it
        # left: the four grow the peak by 1.1 MiB, against 1.2 for the ode run
        # alone (3.1 against 3.25 while its columns were tuples of floats, 9.2
        # against 5.6 while each artifact was held whole, in a memory map of its
        # own), for 6.95 MiB of JSON last
        ode = ["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.14", "--gamma", "0.25",
               "--t-end", "40", "--dt", "0.002", "--out", str(tmp_path / "ode.csv")]
        growth = peak_growth(ode, *[["rng", "--x0", "0.3", "--count", str(count), "--format",
                                     "json", "--out", str(tmp_path / "rng.json")]
                                    for count in (105000, 134000, 145000)])
        assert growth < peak_growth(ode) + 2**20

    def test_iteration_only_compare_holds_no_reference(self, tmp_path):
        # a tapered reference of 9,001 samples holds about 5 MB as a list
        growth = peak_growth(["compare", "--r", "3.9", "--x0", "0.3", "--steps", "9000",
                              "--out", str(tmp_path / "compare.json")])
        assert growth < 3 * 2**20

    def test_form_compare_holds_no_reference(self, tmp_path):
        # every column is compared with one pass over the reference, 256 pairs
        # at a time: about 4.7 MiB, 31.8 MiB while a --form run held its
        # reference as a list of 20,001 samples of up to 20,064 bits
        growth = peak_growth(["compare", "--r", "2", "--x0", "0.3", "--steps", "20000",
                              "--form", "r2", "--out", str(tmp_path / "compare.json")])
        assert growth < 8 * 2**20


class TestRngCommand:
    def test_bits_and_determinism(self, capsys):
        rows1 = run_csv(["rng", "--x0", "0.3", "--count", "64", "--burn-in", "10"],
                        capsys)
        rows2 = run_csv(["rng", "--x0", "0.3", "--count", "64", "--burn-in", "10"],
                        capsys)
        assert rows1 == rows2
        assert all(r[3] in ("0", "1") for r in rows1)

    def test_degenerate_seed_exit_code(self, capsys):
        assert main(["rng", "--x0", "0.5", "--count", "10"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,x,step", [
        (["--x0", "0.5", "--count", "3", "--burn-in", "2"], "1.0", 1),
        (["--x0", "0.14644660940672624", "--count", "3", "--burn-in", "2"], "1.0", 2),
        (["--x0", "0.25", "--count", "5"], "0.75", 1),
        (["--x0", "0.5", "--count", "1"], "1.0", 1),
        (["--x0", "0.14644660940672624", "--count", "2"], "1.0", 2),
    ], ids=["burn-in", "burn-in-step-2", "first-step", "last-step", "last-step-2"])
    def test_degenerate_seed_names_its_step(self, argv, x, step, capsys):
        # 0.14644660940672624 maps to 0.5, then to 1.0; an orbit that ends on
        # 1.0 has not yet fallen to 0
        assert main(["rng", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: orbit hit the fixed-point set (x={x} at step {step}); "
                                "choose a different seed\n")


class TestFigurePresets:
    def test_reference_parameters(self):
        assert FIGURE_PRESETS["1"]["r"] == 1.7
        assert FIGURE_PRESETS["1"]["x0"] == 0.11
        assert FIGURE_PRESETS["1"]["gammas"] == (0.14, 0.15, 0.17, 0.25)
        assert FIGURE_PRESETS["2"]["r"] == -2.0
        assert FIGURE_PRESETS["2"]["x0"] == 0.9
        assert FIGURE_PRESETS["3"]["r"] == 1.73
        assert FIGURE_PRESETS["3"]["x0"] == 0.333

    def test_figure1_series(self, capsys):
        rows = run_csv(["figure", "1"], capsys)
        labels = {r[1] for r in rows}
        assert labels == {"particular", "gamma=0.14", "gamma=0.15",
                          "gamma=0.17", "gamma=0.25"}

    def test_figure2_series(self, capsys):
        rows = run_csv(["figure", "2"], capsys)
        assert {r[1] for r in rows} == {"iterated", "table1", "simple", "oracle"}

    def test_figure2_oracle_is_the_iteration_at_its_width(self, capsys):
        # both are the one iterated orbit of x0 at 124 bits, every step at that width
        oracle = [(k, v) for k, series, _, v in run_csv(["figure", "2"], capsys)
                  if series == "oracle"]
        iterated = [(k, v) for k, series, _, v in run_csv(
            ["map3", "--r", "-2", "--x0", "0.9", "--steps", "60", "--bits", "124"], capsys)
            if series == "iterated"]
        assert len(oracle) == 61 and oracle == iterated

    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_byte_identical_runs(self, which, tmp_path):
        paths = [tmp_path / f"fig{which}-{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(["figure", which, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestOutputsAndErrors:
    def test_json_shape(self, capsys):
        assert main(["map3", "--r", "4", "--x0", "0.5", "--steps", "2",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["subcommand"] == "map3"
        assert doc["series"][0]["label"] == "iterated"
        assert doc["series"][0]["samples"][0] == [0, 0.5]

    def test_json_high_precision_values_are_strings(self, capsys):
        assert main(["map3", "--r", "4", "--x0", "0.3", "--steps", "2",
                     "--bits", "100", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc["series"][0]["samples"][1][1], str)

    def test_a_value_prints_as_a_double_only_when_one_equals_it(self):
        # mantissas of 1 to 53 bits whose lowest and top bits straddle the
        # subnormal and overflow ends of the doubles
        for bc in (1, 2, 30, 52, 53):
            for exp in (-1076, -1075, -1074, -1073, -1022 - bc, -1021 - bc,
                        1023 - bc, 1024 - bc, 1025 - bc):
                for man in (1 << (bc - 1), (1 << bc) - 1):
                    v = mpf((man, exp))
                    shown = cli._value(v, 53)
                    assert isinstance(shown, float) == (float(v) == v), (man, exp)
                    with workprec(53):
                        assert mpf(shown) == v

    def test_svg_output(self, capsys):
        assert main(["figure", "3", "--format", "svg"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("<svg")
        assert text.count("<polyline") == 7  # iterated + particular + 5 gammas

    @pytest.mark.parametrize("argv", [
        ["map4", "--r", "0.5", "--x0", "1e16", "--steps", "0"],
        ["map4", "--r", "0.5", "--x0=-3e300", "--steps", "0"],
        ["map3", "--r", "0.5", "--x0", "0.5", "--steps", "0"],
        ["map3", "--r", "0.5", "--x0", "0", "--steps", "0"],
    ])
    def test_svg_of_a_flat_series(self, argv, capsys):
        # one sample each: from 2^53 on, ymin + 1.0 == ymin gave a zero y-span
        assert main(argv + ["--format", "svg"]) == 0
        points = [xy for line in svg_polylines(capsys.readouterr().out) for xy in line]
        assert points
        assert all(math.isfinite(c) for xy in points for c in xy)

    @pytest.mark.parametrize("argv,ylabels", [
        (["map3", "--r", "0.5", "--x0", "1.7e308", "--steps", "0"],
         ("1.615e+308", "1.79769e+308")),
        (["map4", "--r", "0.5", "--x0=-1.79e308", "--steps", "0"],
         ("-1.79769e+308", "8.95e+306")),
        (["ode", "--r", "1", "--x0", "1.75e308", "--t-end", "1", "--dt", "0.5"],
         ("-8.75e+306", "1.79769e+308")),
        (["ode", "--r", "-1", "--x0=-1.75e308", "--t-end", "1", "--dt", "0.5"],
         ("-1.79769e+308", "8.75e+306")),
    ], ids=["map3-flat", "map4-flat", "ode-decay", "ode-rise"])
    def test_svg_of_values_near_the_largest_double(self, argv, ylabels, capsys):
        # ymin + |ymin| or the 5% pad overflowed: the labels read inf and the
        # points nan; the y axis now ends at the largest double
        assert main(argv + ["--format", "svg"]) == 0
        text = capsys.readouterr().out
        assert "inf" not in text and "nan" not in text
        assert svg_y_labels(text) == ylabels
        for line in svg_polylines(text):
            assert all(60 <= x <= 560 and 36 <= y <= 434 for x, y in line)

    @pytest.mark.parametrize("out", ["file", "-", "text"])
    def test_artifact_is_streamed_to_its_sink(self, out, tmp_path, monkeypatch):
        # about 2.7 MB of CSV, written in order as it is formatted, 4,096 rows
        # at a time: to the file, to stdout's binary buffer once the text layer
        # holds nothing, or decoded to text for a stdout with no buffer
        argv = ["rng", "--x0", "0.3", "--count", "150000"]
        expected = render(cli._render_csv, cli._run_rng(**cli.parse_args(argv).parameters))
        assert len(expected) > 2**21
        writes = []
        real_open = open

        class Recording:
            def __init__(self, sink):
                self.sink = sink

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.sink.__exit__(*exc)

            def write(self, data):
                writes.append(data)
                return self.sink.write(data)

        class RecordingBuffer(io.BytesIO):
            def write(self, data):
                writes.append(bytes(data))
                return super().write(data)

        if out == "file":
            path = tmp_path / "rng.csv"
            monkeypatch.setattr("builtins.open", lambda *a, **k: Recording(real_open(*a, **k)))
            assert main(argv + ["--out", str(path)]) == 0
            assert path.read_bytes() == expected
        elif out == "-":
            stdout = io.TextIOWrapper(RecordingBuffer(), encoding="ascii")
            stdout.write("text ")  # held by the text layer until it is flushed
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(argv) == 0
            assert writes.pop(0) == b"text "
        else:
            text = io.StringIO()
            monkeypatch.setattr(sys, "stdout", Recording(text))
            assert main(argv) == 0
            assert text.getvalue() == expected.decode("ascii")
            writes = [w.encode("ascii") for w in writes]
        assert b"".join(writes) == expected
        assert len(writes) > 10 and max(map(len, writes)) < len(expected) // 10

    def test_out_file(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main(["map3", "--r", "4", "--x0", "0.5", "--steps", "1",
                     "--out", str(path)]) == 0
        assert path.read_text().startswith("index_or_time")

    @pytest.mark.parametrize("out", [".", "missing/x.csv"], ids=["directory", "missing-dir"])
    def test_unwritable_out_exits_2(self, out, tmp_path, capsys):
        # IsADirectoryError and FileNotFoundError ended in a traceback and exit 1
        path = tmp_path / out
        assert main(["rng", "--x0", "0.3", "--count", "5", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert str(path) in captured.err
        assert sorted(tmp_path.iterdir()) == []

    def test_a_stdout_closed_by_its_reader_exits_1_without_an_error(self):
        # as `| head` closes it: exit 1 with no `error:` line, and no second
        # BrokenPipeError from the flush at exit
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "logistic_exact", "rng", "--x0", "0.3", "--count", "300000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"index_or_time,series,method,value\n"
        proc.stdout.close()  # the artifact is 5.6 MB, far more than a pipe holds
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["map3", "--r", "4"])
        assert err.value.code == 2

    def test_form_rate_mismatch_exits_2(self, capsys):
        assert main(["map3", "--r", "3", "--x0", "0.5", "--steps", "3",
                     "--form", "r4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_core_domain_error_exits_3(self, capsys):
        assert main(["map3", "--r", "4", "--x0", "1.5", "--steps", "3",
                     "--form", "r4"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_sub_double_bits_exit_2(self, capsys):
        assert main(["map3", "--r", "4", "--x0", "0.5", "--steps", "3",
                     "--bits", "40"]) == 2
        # zero is rejected too, not silently replaced by the default
        assert main(["map3", "--r", "4", "--x0", "0.5", "--steps", "3",
                     "--bits", "0"]) == 2
        assert main(["compare", "--r", "-2", "--x0", "0.9", "--steps", "5",
                     "--threshold", "0"]) == 2

    def test_json_determinism(self, capsys):
        args = ["compare", "--r", "-2", "--x0", "0.9", "--form", "simple",
                "--steps", "20"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_non_finite_parameter_exit_2(self, capsys):
        assert main(["map3", "--r", "nan", "--x0", "0.5", "--steps", "3"]) == 2

    @pytest.mark.parametrize("argv,where,value", [
        (["compare", "--r", "-2", "--x0", "-6.4e-05", "--steps", "3"], "x0", -6.4e-05),
        (["ode", "--r", "-1e0", "--x0", "0.5", "--t-end", "1", "--dt", "0.5"], "r", -1.0),
    ])
    def test_a_negative_value_in_exponent_notation_is_read(self, argv, where, value,
                                                            capsys):
        # argparse's pattern of negative numbers has no exponent, so it took
        # -6.4e-05 for an option and exited 2 with "expected one argument"
        assert cli.parse_args(argv).parameters[where] == value
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("option", ["--steps", "--bits", "--oracle-bits"])
    def test_an_int_option_in_exponent_notation_still_exits_2(self, option):
        argv = ["compare", "--r", "-2", "--x0", "0.9", "--steps", "3", option, "-1e3"]
        with pytest.raises(SystemExit) as err:
            cli.parse_args(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("subcommand,option", [
        (name, action.option_strings[0])
        for name, parser in next(a for a in cli.build_parser()._actions
                                 if a.dest == "subcommand").choices.items()
        for action in parser._actions if action.type is float])
    def test_a_non_finite_option_is_named_as_the_parser_spells_it(self, subcommand, option,
                                                                   capsys):
        required = {"ode": ["--r", "1.7", "--x0", "0.11"],
                    "map3": ["--r", "4", "--x0", "0.3", "--steps", "3"],
                    "map4": ["--r", "1.73", "--x0", "0.333", "--steps", "3"],
                    "compare": ["--r", "-2", "--x0", "0.9", "--steps", "5"],
                    "rng": ["--x0", "0.3", "--count", "8"]}[subcommand]
        assert main([subcommand, *required, f"{option}=nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be a finite number, got nan\n"

    def test_run_config_programmatic(self, capsys):
        config = RunConfig("map3", {"r": 4.0, "x0": 0.5, "steps": 1},
                           output_format="csv")
        assert run(config) == 0
        assert "iterated" in capsys.readouterr().out

    def test_run_rejects_unknown_format(self):
        config = RunConfig("map3", {"r": 4.0, "x0": 0.5, "steps": 1},
                           output_format="yaml")
        with pytest.raises(ValueError):
            run(config)


def render(renderer, doc):
    """The bytes that ``renderer`` writes for ``doc``, written into memory; the
    renderer's result counts them."""
    sink = io.BytesIO()
    assert len(renderer(doc, sink.write)) == sink.tell()
    return sink.getvalue()


def json_reference(doc):
    """The artifact as ``json.dumps`` writes the emitter's document object."""
    obj = {"config": doc["config"]}
    if "series" in doc:
        obj["series"] = [{
            "label": label,
            "method": traj.method_tag,
            "precision_bits": traj.precision.significand_bits,
            "samples": [[i, cli._value(v, traj.precision.significand_bits)]
                        for i, v in zip(traj.indices, traj.values)],
        } for label, traj in doc["series"]]
    else:
        config = doc["config"]
        obj["reports"] = [{
            "label": label,
            "method": label if label == "iterated" else f"closed-form:{label}",
            "working_bits": config["bits"],
            "oracle_bits": config["oracle_bits"],
            "threshold": rep.threshold,
            "first_divergent_index": rep.first_divergent_index,
            "max_error": rep.max_error,
            "per_step_abs_error": rep.per_step_abs_error,
        } for label, rep in doc["reports"]]
    return json.dumps(obj, indent=2) + "\n"


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300)
doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(EDGE_FLOATS))
labels = st.text(max_size=12)  # non-ASCII, quotes, backslashes and control characters
# CSV writes labels as they are, and an artifact is ASCII
ascii_labels = st.text(st.characters(max_codepoint=127), max_size=12)


@st.composite
def mpf_values(draw, bits):
    """An mpf of at most ``bits`` significand bits between 2^-1200 and 2^1200."""
    man = draw(st.integers(1, (1 << bits) - 1)) * draw(st.sampled_from((1, -1)))
    ends = st.integers(-1080, -1020) | st.integers(1020, 1030)  # of the doubles' range
    exp = draw(st.integers(-1200, 1200 - bits) | ends.map(lambda e: min(e, 1200 - bits)))
    with workprec(bits):
        return mpf((man, exp))


@st.composite
def series(draw, labels=labels, times=None):
    """A labelled series of 1-8 samples, or one on the tuple ``times``."""
    bits = draw(st.just(53) | st.integers(54, 200))
    values = mpf_values(bits)
    if bits == 53:
        values = st.one_of(values, doubles, st.integers(0, 1))
    sizes = {"min_size": 1, "max_size": 8} if times is None else {
        "min_size": len(times), "max_size": len(times)}
    vs = draw(st.lists(values, **sizes))
    if times is not None:
        index = times
    elif draw(st.booleans()):
        index = range(len(vs))
    else:  # ode times
        dt = draw(st.floats(1e-3, 1e3))
        index = [k * dt for k in range(len(vs))]
    traj = Trajectory(draw(labels.filter(bool)), index, vs, PrecisionPolicy(bits))
    return draw(labels), traj


# labels that a format string or a template would read as fields
FORMAT_LABELS = ('100% "sure" {x}', "%s", "%%r\0", '"{0}"', "%(t)s")


@st.composite
def series_lists(draw, labels=labels):
    """Up to three series; or two to four that share one tuple of times, as
    the members of an ode run do, among up to two others."""
    if draw(st.booleans()):
        return draw(st.lists(series(labels), max_size=3))
    dt = draw(st.floats(1e-3, 1e3))
    times = tuple(k * dt for k in range(draw(st.integers(1, 8))))
    shared = draw(st.lists(series(labels | st.sampled_from(FORMAT_LABELS), times),
                           min_size=2, max_size=4))
    return draw(st.permutations(shared + draw(st.lists(series(labels), max_size=2))))


@st.composite
def reports(draw, labels=labels):
    errors = st.floats(0, 1e300) | st.sampled_from((0.0, 5e-324, 1e-320))
    rep = DivergenceReport(tuple(draw(st.lists(errors, max_size=8))),
                           draw(st.floats(1e-300, 1e300)))
    return draw(st.sampled_from(("iterated", "table1", "simple")) | labels), rep


config_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | labels,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(labels, inner, max_size=3),
    max_leaves=6)
configs = st.dictionaries(labels, config_values, max_size=4)


def documents(labels=labels):
    return st.builds(lambda config, entries: {"config": config, "series": entries},
                     configs, series_lists(labels)) | st.builds(
        lambda config, bits, oracle_bits, entries: {
            "config": config | {"bits": bits, "oracle_bits": oracle_bits}, "reports": entries},
        configs, st.integers(53, 300), st.integers(53, 9000),
        st.lists(reports(labels), max_size=3))


SHARED = (0.0, 0.1, 0.2)
SHARED_DOC = {"config": {}, "series": [
    ('100% "sure" {x}', Trajectory("ode-closed-form", SHARED, (0.5, 0.25, 2.0**-1074),
                                   PrecisionPolicy(53))),
    ("unshared", Trajectory("iterated", range(3), (0, 1, 1), PrecisionPolicy(53))),
    ("%s\0%%", Trajectory('"{0}" %r', SHARED, (mpf("0.1"), -0.0, 10**30),
                           PrecisionPolicy(80)))]}


@given(documents())
@example({"config": {}, "series": []})
@example(SHARED_DOC)
@example({"config": {"bits": 53, "oracle_bits": 124}, "reports": []})
@example({"config": {"bits": 53, "oracle_bits": 124},
          "reports": [("iterated", DivergenceReport((), 0.01))]})
@settings(max_examples=300, deadline=None)
def test_json_is_what_json_dumps_writes(doc):
    assert render(cli._render_json, doc) == json_reference(doc).encode("ascii")


def csv_reference(doc):
    """The artifact as a writer of one f-string per row writes it."""
    lines = ["index_or_time,series,method,value\n"]
    for label, traj in doc.get("series", ()):
        bits = traj.precision.significand_bits
        lines += (f"{i},{label},{traj.method_tag},{cli._value(v, bits)}\n"
                  for i, v in zip(traj.indices, traj.values))
    for label, rep in doc.get("reports", ()):
        lines += (f"{i},{label},abs-error,{cli._value(e, 53)}\n"
                  for i, e in enumerate(rep.per_step_abs_error))
    return "".join(lines)


@given(documents(ascii_labels))
@example({"config": {}, "series": []})
@example({"config": {}, "series": [
    ('100% "sure" {x}', Trajectory("closed-form:%s {0}", range(4),
                                   (0, 1.5, mpf(2) ** -1100, 10**30), PrecisionPolicy(53))),
    ("%d%%", Trajectory('"%r"', (0.0, 0.25), (mpf("0.1"), -0.0), PrecisionPolicy(80)))]})
@example({"config": {"bits": 53, "oracle_bits": 124},
          "reports": [('"%}', DivergenceReport((0.0, 5e-324, 0.5), 0.01))]})
@example(SHARED_DOC)
@settings(max_examples=300, deadline=None)
def test_csv_is_what_the_row_writer_writes(doc):
    assert render(cli._render_csv, doc) == csv_reference(doc).encode("ascii")


@st.composite
def wide_values(draw):
    """(v, bits): a column width of 54 to 2,000 bits and a value for it, at a
    decimal exponent anywhere from -1,200 to 1,200, past which to_str scales
    the value first, or next to either end of to_str's fixed-point form at
    repr_dps(bits) digits.  The value is zero, a random value of ``bits``
    bits, or m + 1 - 10^-j at 80 bits more, a run of 9s about as long as the
    digits printed, which rounding may carry into m's digits or, from m = 0,
    into a new leading digit; any of them may be negative."""
    bits = draw(st.integers(54, 2000))
    dps = repr_dps(bits)
    least = min(-(dps // 3), -5)
    ten = draw(st.integers(-1200, 1200) | st.integers(least - 2, least + 2)
               | st.integers(dps - 2, dps + 2))
    kind = draw(st.sampled_from(("zero", "random", "nines")))
    with workprec(bits if kind == "random" else bits + 80):
        if kind == "zero":
            v = mpf(0)
        elif kind == "random":
            v = mpf((draw(st.integers(1, (1 << bits) - 1)), -bits)) * mpf(10) ** ten
        else:
            m = draw(st.integers(0, 10**6))
            v = (m + 1 - mpf(10) ** -draw(st.integers(dps - 6, dps + 3))) * mpf(10) ** ten
        return (-v if draw(st.booleans()) else v), bits


@given(wide_values())
@settings(max_examples=400, deadline=None)
def test_a_wide_value_prints_as_nstr_writes_it(case):
    v, bits = case
    text = mp.nstr(v, repr_dps(bits))
    assert cli._value(v, bits) == text
    assert cli._json_value(v, bits) == json.dumps(text)


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_rows_are_formatted_in_batches(rows):
    values = tuple(k / 7 for k in range(rows))
    labelled = "%s," + "100% sure,".replace("%", "%%") + "%r\n"
    cases = [("%r\n", lambda: (values,)),
             ("%r\n", lambda: (iter(values),)),
             (labelled, lambda: (range(rows), values)),
             (labelled, lambda: (range(rows), map(float, values))),
             (labelled, lambda: (iter(range(rows)), values))]
    for fmt, columns in cases:
        batches = list(cli._batches(fmt, *columns()))
        assert len(batches) == -(-rows // 4096)  # one text per batch, the last not empty
        assert "".join(batches) == "".join(fmt % row for row in zip(*columns()))
    # series that share one tuple of times, whose rows are written from its
    # batches formatted once; a trajectory holds one sample at least, and a
    # stand-in, whose floats a scan of their types would find, holds none
    times = tuple(k * 0.001 for k in range(rows))
    members = [SimpleNamespace(method_tag=tag, indices=times, values=values,
                               precision=PrecisionPolicy(53), _native=True)
               for tag in ("closed-form", '%s "{0}"')]
    doc = {"config": {}, "series": [("100% sure", members[0]), ("%d\0", members[1])]}
    assert all(isinstance(indices, cli._Formatted)
               for _, _, _, indices, _ in cli._rows(doc, None, "%s"))
    assert render(cli._render_csv, doc) == csv_reference(doc).encode("ascii")
    assert render(cli._render_json, doc) == json_reference(doc).encode("ascii")


@pytest.mark.parametrize("values,native", [
    ((0, 1.5, 10**30), True),
    ((0.25, -0.0, 5e-324), True),
    (bytes((1, 0, 1)), True),
    ((0, 1.5, mpf(2) ** -1100), False),
    ((mpf("0.1"), 2, 0.5), False)])
def test_rows_read_the_type_scan_of_the_trajectory(values, native):
    # the constructor's scan of the value types decides whether the emitters
    # convert a column; ints and floats pass through as the same column
    traj = Trajectory("iterated", range(len(values)), values, PrecisionPolicy(80))
    assert traj._native is native
    doc = {"config": {}, "series": [('"%s"', traj)]}
    (_, _, _, _, column), = cli._rows(doc, cli._value)
    assert (column is traj.values) is native
    assert render(cli._render_csv, doc) == csv_reference(doc).encode("ascii")
    assert render(cli._render_json, doc) == json_reference(doc).encode("ascii")


def test_a_label_that_is_not_ascii_is_refused():
    traj = Trajectory("iterated", range(2), (0.5, 0.25), PrecisionPolicy(53))
    doc = {"config": {"subcommand": "map3"}, "series": [("\u03b3=0.5", traj)]}
    assert b'"label": "\\u03b3=0.5"' in render(cli._render_json, doc)  # json escapes it
    for renderer in (cli._render_csv, cli._render_svg):
        with pytest.raises(UnicodeEncodeError):
            render(renderer, doc)


# Edge values of the fuzz below: signed zeros, subnormals, the largest double,
# 1e16 (beyond 2^53), r = -1, the seed intervals' ends, a few rates of the forms
# and negatives whose repr is in exponent notation
MAX = sys.float_info.max
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX, 1e16, -1e16,
         -1.0, 1.0, 0.5, -0.5, 1.5, 0.3, 2.0, 4.0, -2.0, 3.9, -6.4e-05, -1e-07,
         -2.2250738585072014e-308)
edges = st.sampled_from(EDGES)
FIGURE_SIZES = {"1": (5, 501), "2": (4, 61), "3": (7, 51)}  # (series, samples)


@st.composite
def argvs(draw):
    """An argv of one subcommand drawn from edge values, with the series count
    and the samples per series of its artifact (None for a grid too large to
    sample)."""
    sub = draw(st.sampled_from(sorted(cli._RUNNERS)))
    if sub == "figure":
        which = draw(st.sampled_from(sorted(FIGURE_SIZES)))
        return ["figure", which], *FIGURE_SIZES[which]

    def option(name, value):  # a float option as one argument or as two
        return [f"{name}={value!r}"] if draw(st.booleans()) else [name, repr(value)]

    steps = draw(st.integers(0, 3000))
    if sub == "rng":
        argv = ["rng", *option("--x0", draw(edges)), "--count", str(steps)]
        return argv + ["--burn-in", str(draw(st.integers(0, 3)))], 1, steps
    argv = [sub, *option("--r", draw(edges)), *option("--x0", draw(edges))]
    if sub in ("ode", "map4"):
        gammas = draw(st.lists(edges, max_size=2))
        argv += [a for g in gammas for a in option("--gamma", g)]
        if sub == "map4":
            return argv + ["--steps", str(steps)], 2 + len(set(gammas)), steps + 1
        t_end = draw(st.sampled_from((0.5, 1.0, 10.0, 5e-324, MAX)))
        dt = draw(st.sampled_from((0.5, 0.01, 5e-324, MAX)))
        n = t_end / dt
        points = round(n) + 1 if n < continuous.MAX_GRID_POINTS else None
        argv += [*option("--t-end", t_end), *option("--dt", dt)]
        return argv, 1 + len(set(gammas)), points
    forms = draw(st.lists(st.sampled_from(cli._FORM_CHOICES), unique=True, max_size=2))
    argv += ["--steps", str(steps)] + [a for f in forms for a in ("--form", f)]
    return argv, 1 + len(forms), steps + 1


def artifact_sizes(fmt, text):
    """The sample count of each series or report of an artifact, in order."""
    if fmt == "csv":
        labels = [row[1] for row in rows_of(text)]
        return [labels.count(label) for label in dict.fromkeys(labels)]
    if fmt == "json":
        def finite_only(constant):
            raise AssertionError(f"the JSON artifact holds {constant}")

        doc = json.loads(text, parse_constant=finite_only)
        return ([len(s["samples"]) for s in doc["series"]] if "series" in doc else
                [len(rep["per_step_abs_error"]) for rep in doc["reports"]])
    assert "inf" not in text and "nan" not in text
    lines = svg_polylines(text)
    assert all(math.isfinite(c) for line in lines for xy in line for c in xy)
    return list(map(len, lines))


@settings(max_examples=200, deadline=None)
@given(argvs(), st.sampled_from(("csv", "json", "svg")))
@example((["map3", "--r=0.5", "--x0=1.7e308", "--steps", "0"], 1, 1), "svg")
@example((["map4", "--r=0.5", f"--x0={MAX!r}", "--steps", "0"], 2, 1), "svg")
def test_every_argv_exits_0_2_or_3_with_a_whole_artifact(case, fmt):
    argv, series, samples = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2, 3)
    assert len(errors) == (code != 0), err.getvalue()
    if code:
        assert out.getvalue() == ""
        return
    assert samples is not None  # a grid beyond the limit is refused with exit 2
    assert artifact_sizes(fmt, out.getvalue()) == [samples] * series
