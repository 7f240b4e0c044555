"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported (not asserted) divergence indices.
"""

import json
import math
import random
import re
import shlex
from pathlib import Path

from mpmath import mpf, workprec

from logistic_exact import continuous, map_riccati, map_standard
from logistic_exact.cli import FIGURE_PRESETS, main
from logistic_exact.map_standard import ClosedForm
from logistic_exact.precision import PrecisionPolicy
from routes import general_solution_correction_form, linearized_general_solution, rk4_oracle


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def gamma_lower_bound(x0):
    """x0/(1 - x0), the smallest gamma >= 0 whose member from a seed in (0, 1)
    is bounded for all t >= 0."""
    return x0 / (1.0 - x0)


def random_ode_parameters(count, seed=20260811):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.uniform(-3.0, 3.0)
        if abs(r) < 0.05:
            continue
        x0 = rng.uniform(0.02, 0.98)
        gamma = gamma_lower_bound(x0) * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0))
        out.append((r, x0, gamma))
    return out


TS = [10.0 * k / 19 for k in range(20)]


def test_criterion_1_reinitialization_theorem():
    worst = 0.0
    for r, x0, gamma in random_ode_parameters(200):
        p = continuous.ContinuousParams(r, x0)
        shift = continuous.RiccatiShift(gamma)
        x_eff = continuous.general_solution(0.0, p, shift)
        restarted = continuous.ContinuousParams(r, x_eff)
        for t in TS:
            diff = abs(continuous.general_solution(t, p, shift)
                       - continuous.particular_solution(t, restarted))
            worst = max(worst, diff)
    report("criterion 1: general solution == particular with shifted x0",
           worst < 1e-12, f"max abs err {worst:.3e}")


def test_criterion_2_two_forms_identity():
    worst = 0.0
    for r, x0, gamma in random_ode_parameters(200):
        p = continuous.ContinuousParams(r, x0)
        shift = continuous.RiccatiShift(gamma)
        for t in TS:
            a = continuous.general_solution(t, p, shift)
            b = general_solution_correction_form(t, p, shift)
            rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
            worst = max(worst, rel)
    report("criterion 2: correction form == re-initialized form",
           worst < 1e-12, f"max rel err {worst:.3e}")


def test_criterion_3_rk4_agreement():
    p = continuous.ContinuousParams(1.7, 0.11)
    traj = rk4_oracle(p, 10.0, 1e-3)
    worst = max(abs(v - continuous.particular_solution(t, p))
                for t, v in zip(traj.indices, traj.values))
    report("criterion 3: RK4 oracle vs closed form", worst < 1e-10,
           f"max abs err {worst:.3e}")


SEED_RANGES = {
    ClosedForm.R2_POWER: (0.02, 0.98),
    ClosedForm.R4_COSINE: (0.02, 0.98),
    ClosedForm.RM2_COMPOSED: (-0.48, 1.48),
    ClosedForm.RM2_DIRECT: (-0.48, 1.48),
}


def test_criterion_4_closed_forms_match_oracle():
    n_max = 40
    rng = random.Random(4)
    ok = True
    worst_margin = math.inf
    for variant in ClosedForm:
        lo, hi = SEED_RANGES[variant]
        for _ in range(100):
            x0 = rng.uniform(lo, hi)
            p = map_standard.MapParams(variant.required_r, x0)
            ref = map_standard.oracle(p, n_max)
            for n in range(n_max + 1):
                workbits = n + 64
                value = map_standard.closed_form(p, n, variant,
                                                 PrecisionPolicy(workbits))
                with workprec(workbits + 64):
                    err = abs(value - ref.values[n])
                    bound = mpf(2) ** -(workbits - n - 10)
                    ok = ok and err < bound
                    if err > 0:
                        worst_margin = min(worst_margin, float(bound / err))
    report("criterion 4: closed forms track the budgeted oracle (n <= 40)",
           ok, f"worst bound/err margin {worst_margin:.2e}")


def test_criterion_5_direct_form_litmus():
    p = map_standard.MapParams(-2.0, 0.9)
    at0 = float(map_standard.closed_form(p, 0, ClosedForm.RM2_DIRECT))
    at1 = float(map_standard.closed_form(p, 1, ClosedForm.RM2_DIRECT,
                                         PrecisionPolicy(128)))
    # the commonly printed argument arccos(1 - 2*x0) fails the n=0 identity:
    # it returns 3/2 - 2*x0 instead of x0 (documented negative check)
    literal = 0.5 + math.cos(math.acos(1.0 - 2.0 * 0.9))
    ok = (abs(at0 - 0.9) < 1e-15
          and abs(at1 - (-0.18)) < 1e-12
          and abs(literal - (-0.3)) < 1e-15
          and abs(literal - 0.9) > 0.5)
    report("criterion 5: direct-form argument litmus (n=0 identity)", ok,
           f"n0 {at0!r}, n1 {at1!r}, literal-form n0 {literal!r}")


def test_criterion_6_rm2_forms_equivalent():
    n_max = 40
    rng = random.Random(6)
    ok = True
    for _ in range(100):
        x0 = rng.uniform(-0.48, 1.48)
        p = map_standard.MapParams(-2.0, x0)
        for n in range(n_max + 1):
            workbits = n + 64
            policy = PrecisionPolicy(workbits)
            a = map_standard.closed_form(p, n, ClosedForm.RM2_DIRECT, policy)
            b = map_standard.closed_form(p, n, ClosedForm.RM2_COMPOSED, policy)
            with workprec(workbits + 64):
                ok = ok and abs(a - b) < mpf(2) ** -(workbits - n - 10)
    report("criterion 6: the two r=-2 forms agree numerically", ok)


def test_criterion_7_divergence_experiment(tmp_path):
    p = map_standard.MapParams(-2.0, 0.9)
    indices = {}
    rep = map_standard.iteration_divergence(p, 65, 53, 0.01, oracle_bits=512)
    indices["iterated"] = rep.first_divergent_index
    for variant in (ClosedForm.RM2_COMPOSED, ClosedForm.RM2_DIRECT):
        rep = map_standard.divergence_analysis(p, variant, 65, 53, 0.01,
                                               oracle_bits=512)
        indices[variant.value] = rep.first_divergent_index
    out = tmp_path / "reports.json"
    status = main(["compare", "--r", "-2", "--x0", "0.9", "--form", "table1",
                   "--form", "simple", "--steps", "65", "--bits", "53",
                   "--threshold", "0.01", "--oracle-bits", "512",
                   "--out", str(out)])
    doc = json.loads(out.read_text())
    cli_indices = {r["label"]: r["first_divergent_index"] for r in doc["reports"]}
    ok = (status == 0
          and set(cli_indices) == {"iterated", "table1", "simple"}
          and cli_indices == indices
          and all(i is not None and 20 <= i <= 65 for i in indices.values()))
    # the indices are reported, not ordered: one seed does not rank the two r=-2
    # forms (here simple leaves first); criterion 12 ranks them over 200 seeds
    report("criterion 7: 53-bit methods leave the 512-bit oracle in [20, 65]",
           ok, f"first divergent indices {indices}")


def test_criterion_8_general_solution_solves_the_map():
    preset = FIGURE_PRESETS["3"]
    p = map_riccati.RiccatiMapParams(preset["r"], preset["x0"])
    coeffs = map_riccati.coefficients(p, 51)
    worst = 0.0
    ok = True
    for gamma in (0.5, 1.0, 2.0, 5.0, 10.0):
        xs = [linearized_general_solution(p, gamma, n, coeffs) for n in range(52)]
        for n in range(51):
            residual = abs((xs[n + 1] - xs[n]) - p.r * xs[n] * (1.0 - xs[n + 1]))
            worst = max(worst, residual)
        ok = ok and abs(xs[50] - 1.0) < 1e-6
    ok = ok and worst < 1e-10
    report("criterion 8: the one-parameter family solves the coupled map",
           ok, f"max residual {worst:.3e}")


def test_criterion_9_discrete_continuous_correspondence():
    worst = 0.0
    for r in (0.5, 1.0, 1.73):
        rho = math.log(1.0 + r)
        for x0 in (0.11, 0.333, 0.7):
            p = map_riccati.RiccatiMapParams(r, x0)
            c = continuous.ContinuousParams(rho, x0)
            for n in range(31):
                diff = abs(map_riccati.particular_solution(p, n)
                           - continuous.particular_solution(float(n), c))
                worst = max(worst, diff)
    report("criterion 9: map solution == ODE solution at rate log(1+r)",
           worst < 1e-13, f"max abs err {worst:.3e}")


def test_criterion_10_prng_sanity():
    bits = map_standard.prng_bits(0.3, 10_000, 100)
    again = map_standard.prng_bits(0.3, 10_000, 100)
    ones = sum(bits) / len(bits)
    ok = bits == again and 0.40 <= ones <= 0.60
    report("criterion 10: chaos bits are balanced and reproducible", ok,
           f"ones proportion {ones:.4f}")


def test_criterion_11_figure_presets_deterministic(tmp_path):
    ok = True
    for which in ("1", "2", "3"):
        paths = [tmp_path / f"fig{which}-{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(["figure", which, "--out", str(path)]) == 0
        ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    # the presets carry exactly the reference parameter values
    ok = ok and FIGURE_PRESETS["1"] == {
        "r": 1.7, "x0": 0.11, "gammas": (0.14, 0.15, 0.17, 0.25),
        "t_end": 10.0, "dt": 0.02}
    ok = ok and FIGURE_PRESETS["2"]["r"] == -2.0 and FIGURE_PRESETS["2"]["x0"] == 0.9
    ok = ok and FIGURE_PRESETS["3"]["r"] == 1.73 and FIGURE_PRESETS["3"]["x0"] == 0.333
    fig1 = (tmp_path / "fig1-0.csv").read_text().strip().split("\n")
    gammas = {line.split(",")[1] for line in fig1[1:] if line.startswith("0.0,gamma")}
    ok = ok and gammas == {"gamma=0.14", "gamma=0.15", "gamma=0.17", "gamma=0.25"}
    report("criterion 11: figure presets byte-identical, reference parameters", ok)


def test_criterion_12_simple_outlasts_table1():
    # ROADMAP item 8: does the paper's simple r=-2 form leave the orbit later
    # than table1 at 53 bits?  A two-sided sign test over 200 seeds, ties dropped
    rng = random.Random(2009)
    later = earlier = 0
    for _ in range(200):
        p = map_standard.MapParams(-2.0, round(rng.uniform(-0.48, 1.48), 6))
        reports = dict(map_standard.divergence_reports(p, 120, 53, 0.01, ("table1", "simple")))
        kept = [121 if rep.first_divergent_index is None else rep.first_divergent_index
                for rep in (reports["table1"], reports["simple"])]
        later += kept[1] > kept[0]
        earlier += kept[1] < kept[0]
    m = later + earlier
    p_value = min(1.0, 2 * sum(math.comb(m, k) for k in range(min(later, earlier) + 1)) / 2**m)
    report("criterion 12: simple leaves the orbit later than table1 (sign test)",
           later > earlier and p_value < 1e-3,
           f"later on {later} seeds, earlier on {earlier}, {200 - m} ties, p = {p_value:.1e}")


def test_readme_python_blocks_run():
    # the README's library sketch runs as written, on whichever logistic_exact
    # is imported, so an API change that breaks the documented example fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    report("README: every python block runs", len(blocks) >= 1, f"{len(blocks)} block(s)")


def test_readme_command_lines_run(capsys):
    # each `logistic-exact` line of the README's sh blocks, continuation lines
    # joined and comments dropped, exits 0 through the console script's entry
    # point, so the documented commands cannot drift from the CLI
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [shlex.split(line, comments=True)
             for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["logistic-exact"]]
    codes = [main(argv) for argv in commands]
    capsys.readouterr()
    report("README: every command line exits 0", len(commands) >= 8 and not any(codes),
           f"{len(commands)} command(s), exit codes {codes}")
