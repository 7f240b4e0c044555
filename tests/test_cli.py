import contextlib
import hashlib
import io
import json
import math
import sys
import warnings
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from logistic_exact import cli, continuous, map_riccati, map_standard
from logistic_exact.cli import FIGURE_PRESETS, RunConfig, main, run
from logistic_exact.precision import DivergenceReport, PrecisionPolicy, Trajectory


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
            raise AssertionError("the coefficient products were computed")

        monkeypatch.setattr("logistic_exact.map_riccati.coefficients", never)
        rows = run_csv(["map4", "--r", "1.73", "--x0", "0.333", "--steps", "10000",
                        "--gamma", "2"], capsys)
        assert len(rows) == 3 * 10_001


    def test_huge_seed_has_no_pole_at_n0(self, capsys):
        rows = run_csv(["map4", "--r", "1", "--x0", "1e17", "--steps", "3"], capsys)
        particular = [r[3] for r in rows if r[1] == "particular"]
        assert particular[:2] == ["1e+17", "2.0"]


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

    def test_one_oracle_serves_every_report(self, monkeypatch, capsys):
        calls = []
        real_oracle = map_standard._iterated_reference

        def counting_oracle(*args, **kwargs):
            calls.append(args)
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(map_standard, "_iterated_reference", counting_oracle)
        assert main(["compare", "--r", "-2", "--x0", "0.9",
                     "--form", "table1", "--form", "simple"]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [rep["label"] for rep in doc["reports"]] == ["iterated", "table1", "simple"]

    def test_impossible_form_is_refused_before_evaluating(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("evaluated a run that should be refused")

        for name in ("oracle", "phase_oracle", "iterate"):
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
        for name in ("iterate", "_iterated_reference", "_phase_reference"):
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
        assert cli.parse_args(["compare", "--r", "4", "--x0", "0.3"]).parameters["forms"] is None
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

    @pytest.mark.parametrize("argv", [
        ["map3", "--r", "4", "--x0", "0.3", "--steps", "1000000000"],
        ["map3", "--r", "4", "--x0", "0.3", "--steps", "10000000", "--form", "r4"],
        ["map4", "--r", "1.73", "--x0", "0.333", "--steps", "10000000"],
        ["compare", "--r", "-2", "--x0", "0.9", "--steps", "1000000000"],
        ["rng", "--x0", "0.3", "--count", "1000000000"],
        ["rng", "--x0", "0.3", "--count", "10000001"],
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
        monkeypatch.setattr(map_standard, "_iterated_reference",
                            lambda p, n, policy, taper_to:
                            sizes.append((n, policy.significand_bits)))
        monkeypatch.setattr(map_standard, "iterate",
                            lambda p, n, policy: Trajectory("iterated", (0,), (0.0,), policy))
        monkeypatch.setattr(map_standard, "_compare_pairs",
                            lambda a, b, bits, threshold: DivergenceReport((), threshold))
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
    (["figure", "1"], "da94ad86401f377e394871354f13672987d1b53417a8daa11b2a1f061cbaedef"),
    (["figure", "1", "--format", "json"],
     "2a46c962853927ee3f4f45e7783eedb5ed02b60e62aa725eadd00144d344da6c"),
    (["figure", "1", "--format", "svg"],
     "fff304be014d64b86c8084e108f5b0735386d0e8ff26ce1d16d2425b388727b4"),
    (["figure", "2"], "a8f3627ada28c8f8e8df0763598e5a61793720a9ca0f6a5f6d7846f332f5fe2a"),
    (["figure", "2", "--format", "json"],
     "d0e0669a589391a9e31ad5a75f76fdbbfe603e9df8c7d2671f7db59cd2a25657"),
    (["figure", "2", "--format", "svg"],
     "3d6c7c90b4fd2a0be0ad53269332b5294ec5d54503bc8723560ffffd1dd07920"),
    (["figure", "3"], "27d983fa2eb6de83bbf0d448cd58a39aea7fd5b93048b861be8ced0c460477e1"),
    (["figure", "3", "--format", "json"],
     "16385c262e0cf47f73dc0de2bf8bcd46818f140963a4bf74aeced45ff04b70ed"),
    (["figure", "3", "--format", "svg"],
     "c384d680c99312f72f642e9b1630dde3ad79a39352c100751ab0a7f35df7c268"),
    (["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.25", "--gamma", "0.14",
      "--t-end", "2", "--dt", "0.05"],
     "ed807d2c4b61ed3b0b1d89d5e1f91c2ca5549fb6be33fde1892a1c66ec54ce54"),
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
     "5116b2ddb75ea87deb9584dc1f3890c8323fe2315f8def246cec0dc8f55662ea"),
    (["compare", "--r", "0.5", "--x0", "0.3", "--steps", "1100"],
     "3b731a8a768885ee401129f1f0aef75926c70f7f0af8ca6e8660a20c202720b0"),
    (["compare", "--r", "3.83", "--x0", "0.3", "--steps", "1000", "--bits", "200"],
     "9a6dd18f6af7b03e5f34b9d05fca0483f90f7c7391410b4de4feab725d6182df"),
    (["rng", "--x0", "0.3", "--count", "5000", "--burn-in", "7"],
     "2df70b9f98db85bcb3a4d301ccc128d1d5ab0dc76edff4f434b9b77a02c899d5"),
    (["map3", "--r", "0.5", "--x0", "0.3", "--steps", "1100"],
     "edb1eda0daad2736d54a3fd1826bbf1475c6cd1b0dcb026d591de06caf3dc4b7"),
    (["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.25", "--t-end", "2", "--dt", "0.05",
      "--format", "json"],
     "7b45a97937e796ac240aa3fcc51aa6ec27b33b8d7beabb968cf19d52849818fd"),
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
]
GOLDEN_IDS = ["compare", "compare-csv", "compare-svg", "compare-phase", "map3-r2"] + [
    f"figure{w}-{f}" for w in "123" for f in ("csv", "json", "svg")] + [
    "ode-gammas", "map4-gammas-json", "rng-json", "compare-long", "compare-periodic-200",
    "compare-forms-long", "map3-long", "map3-subnormal", "compare-decay", "compare-decay-json",
    "compare-periodic-200-json", "rng-csv", "map3-subnormal-csv", "ode-json", "compare-r4-csv",
    "map3-rm2-forms-json", "map3-r4-budget-json", "map3-rm2-forms-budget"]


@pytest.mark.parametrize("argv,digest", GOLDEN_SHA256, ids=GOLDEN_IDS)
def test_golden_artifacts(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


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

    @pytest.mark.parametrize("out", ["-", "file"])
    def test_artifact_is_written_in_1_mib_slices(self, out, tmp_path, monkeypatch, capsys):
        # about 2.7 MB of CSV: two slices of 2^20 characters and the rest
        argv = ["rng", "--x0", "0.3", "--count", "150000"]
        expected = cli._render_csv(cli._run_rng(cli.parse_args(argv).parameters))
        sizes = []
        real_open = open

        class Recording:
            def __init__(self, sink):
                self.sink = sink

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.sink.__exit__(*exc)

            def write(self, text):
                sizes.append(len(text))
                return self.sink.write(text)

        if out == "-":
            monkeypatch.setattr(sys, "stdout", Recording(sys.stdout))
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
        else:
            path = tmp_path / "rng.csv"
            monkeypatch.setattr("builtins.open", lambda *a, **k: Recording(real_open(*a, **k)))
            assert main(argv + ["--out", str(path)]) == 0
            with real_open(path, encoding="ascii", newline="") as fh:
                assert fh.read() == expected
        assert len(expected) > 2**21
        assert sizes == [len(expected[i:i + 2**20]) for i in range(0, len(expected), 2**20)]

    def test_out_file(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main(["map3", "--r", "4", "--x0", "0.5", "--steps", "1",
                     "--out", str(path)]) == 0
        assert path.read_text().startswith("index_or_time")

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


@st.composite
def mpf_values(draw, bits):
    """An mpf of at most ``bits`` significand bits between 2^-1200 and 2^1200."""
    man = draw(st.integers(1, (1 << bits) - 1)) * draw(st.sampled_from((1, -1)))
    ends = st.integers(-1080, -1020) | st.integers(1020, 1030)  # of the doubles' range
    exp = draw(st.integers(-1200, 1200 - bits) | ends.map(lambda e: min(e, 1200 - bits)))
    with workprec(bits):
        return mpf((man, exp))


@st.composite
def series(draw):
    bits = draw(st.just(53) | st.integers(54, 200))
    values = mpf_values(bits)
    if bits == 53:
        values = st.one_of(values, doubles, st.integers(0, 1))
    vs = draw(st.lists(values, min_size=1, max_size=8))
    if draw(st.booleans()):
        index = range(len(vs))
    else:  # ode times
        dt = draw(st.floats(1e-3, 1e3))
        index = [k * dt for k in range(len(vs))]
    traj = Trajectory(draw(labels.filter(bool)), index, vs, PrecisionPolicy(bits))
    return draw(labels), traj


@st.composite
def reports(draw):
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
documents = st.builds(lambda config, entries: {"config": config, "series": entries},
                      configs, st.lists(series(), max_size=3)) | st.builds(
    lambda config, bits, oracle_bits, entries: {
        "config": config | {"bits": bits, "oracle_bits": oracle_bits}, "reports": entries},
    configs, st.integers(53, 300), st.integers(53, 9000), st.lists(reports(), max_size=3))


@given(documents)
@example({"config": {}, "series": []})
@example({"config": {"bits": 53, "oracle_bits": 124}, "reports": []})
@example({"config": {"bits": 53, "oracle_bits": 124},
          "reports": [("iterated", DivergenceReport((), 0.01))]})
@settings(max_examples=300, deadline=None)
def test_json_is_what_json_dumps_writes(doc):
    assert cli._render_json(doc) == json_reference(doc)


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


@given(documents)
@example({"config": {}, "series": []})
@example({"config": {}, "series": [
    ('100% "sure" {x}', Trajectory("closed-form:%s {0}", range(4),
                                   (0, 1.5, mpf(2) ** -1100, 10**30), PrecisionPolicy(53))),
    ("%d%%", Trajectory('"%r"', (0.0, 0.25), (mpf("0.1"), -0.0), PrecisionPolicy(80)))]})
@example({"config": {"bits": 53, "oracle_bits": 124},
          "reports": [('"%}', DivergenceReport((0.0, 5e-324, 0.5), 0.01))]})
@settings(max_examples=300, deadline=None)
def test_csv_is_what_the_row_writer_writes(doc):
    assert cli._render_csv(doc) == csv_reference(doc)


# Edge values of the fuzz below: signed zeros, subnormals, the largest double,
# 1e16 (beyond 2^53), r = -1, the seed intervals' ends and a few rates of the forms
MAX = sys.float_info.max
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX, 1e16, -1e16,
         -1.0, 1.0, 0.5, -0.5, 1.5, 0.3, 2.0, 4.0, -2.0, 3.9)
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
    steps = draw(st.integers(0, 3000))
    if sub == "rng":
        argv = ["rng", f"--x0={draw(edges)!r}", "--count", str(steps)]
        return argv + ["--burn-in", str(draw(st.integers(0, 3)))], 1, steps
    argv = [sub, f"--r={draw(edges)!r}", f"--x0={draw(edges)!r}"]
    if sub in ("ode", "map4"):
        gammas = draw(st.lists(edges, max_size=2))
        argv += [f"--gamma={g!r}" for g in gammas]
        if sub == "map4":
            return argv + ["--steps", str(steps)], 2 + len(set(gammas)), steps + 1
        t_end = draw(st.sampled_from((0.5, 1.0, 10.0, 5e-324, MAX)))
        dt = draw(st.sampled_from((0.5, 0.01, 5e-324, MAX)))
        n = t_end / dt
        points = round(n) + 1 if n < continuous.MAX_GRID_POINTS else None
        return argv + [f"--t-end={t_end!r}", f"--dt={dt!r}"], 1 + len(set(gammas)), points
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
