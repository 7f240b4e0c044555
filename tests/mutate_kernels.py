"""Mutation check for the integer kernels of ``logistic_exact.map_standard``
that must equal libmp bit for bit.

Each mutant changes one operator or one integer constant in one kernel
function: a comparison swapped (< and <=, > and >=, == and !=), + and -,
<< and >>, & and |, or an integer constant plus 1.  The mutant is written into
a temporary copy of the package, and the kernel test modules run against it,
one mutant at a time, with ``-x``, a fixed hypothesis seed, a timeout and a
cap on the child's address space.  A mutant is killed when the tests fail or
time out.  The check fails on any survivor that is not in ``EQUIVALENT``,
the reviewed list of mutants that no test can kill because they compute the
same results, and on any mutant in that list that the tests kill.

Run it from anywhere; the name keeps it out of the test suite:

    python tests/mutate_kernels.py                       # every site
    python tests/mutate_kernels.py --function _cosine_samples
    python tests/mutate_kernels.py --sample 8            # a fixed sample

Before any mutant it runs the tests once on the copy with every kernel
rewritten unmutated (``ast.unparse``), and stops if those fail.
"""

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logistic_exact"
MODULE = "map_standard.py"
KERNELS = ("_nearest", "_orbit", "_cos_fixed", "_cos_bound", "_cos_sin", "_margins",
           "_turn", "_cosine_samples", "_compare_pairs", "_subnormal", "_bounded")
# the fastest first: with -x a mutant stops at its first failing test
TESTS = ("test_map_standard.py", "test_precision.py", "test_libmp_kernel.py",
         "test_phase_oracle.py")
MEMORY_BYTES = 1 << 30  # a shift mutant can ask for integers of any size
TIMEOUT_S = 120  # a mutant whose tests take longer is killed (a loop that never ends)

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&",
    ast.BitOr: "|",
}

_LIBMP_ONCE = ("at that edge the integer route's difference has at most bits bits, "
               "which mpf_sub forms exactly and the libmp route rounds once, as "
               "the integer route does")
_FIRST_ROUNDING = ("the bound is 0 until the first rounding, which sets bs to its q "
                   "whatever bs was, as bs lies far below q either way")
_WIDE_ANYWAY = ("for |x| in [2^-(w + 2), 2^-w) the step rounds 1 - x to a significand of "
                "w bits, so its result has at least w bits and counts as rounded already")
_SCALED_SUM = ("at d = 100 both arms round bf*2^bs + 2^q once as a double, scaled by "
               "a power of 2 that is exact for bf near (2^-200, 2^200)")

_SHIFT_BY_0 = "at e + point = 0 both arms shift m by 0"
_TURN_OF_PI = ("a d of exactly pi_f needs a turn of pi, which is past reach, so the loop "
               "leaves the recurrence either way")
_LIMIT = ("at err = limit the turn's err * 2^-F is still below 2^-40, so the next "
          "bound holds and E stays below 2^-(bits + 15)")

# Mutants that no test kills, by site name (function, line from the ``def``,
# column, change), each with its reason: most compute what the kernel
# computes; the two marked "not proven" change a sample only at inputs too
# rare to find.
EQUIVALENT = {
    "_nearest:3:16 1 -> 2":
        "h is odd there, so (h + 2) >> 1 equals (h + 1) >> 1",
    "_nearest:3:22 & -> |":
        "h | 1 is always true; for an even h, (h + 1) >> 1 equals h >> 1",
    "_orbit:15:12 > -> >=":
        "shifting a significand of exponent 0 by 0 leaves it as it is",
    "_orbit:22:15 0 -> 1":
        "d = 1 only at x = 2^e or 1 - 2^e, e >= -8; there both arms are exact "
        "for an r of at most w - 18 bits, so for every double r at the squared "
        "widths of 1,000 bits and more",
    "_orbit:33:29 + -> -":
        "the test is then never true (e <= 0 there), and the general arm rounds "
        "1 - x to 1 wherever the shortcut does",
    "_orbit:33:33 < -> <=":
        "1 - x rounds to 1 at w bits for every |x| < 2^-(w + 1), which the "
        "shortcut then covers; the general arm gives 1 there as well",
    "_orbit:33:41 1 -> 2":
        "the shortcut covers less, and the general arm rounds 1 - x to 1 there",
    "_orbit:45:16 0 -> 1":
        "a zero pair of exponent 1 reads as 0 wherever a pair is read, as (0, 0) does",
    "_orbit:46:31 > -> >=":
        "at 332 bits the exact test against 1e100 that follows is false as well",
    "_bounded:47:26 < -> <=":
        "renormalising the bound at exactly 2^-200 is exact (frexp): the same "
        "double times the same power of 2",
    "_bounded:47:31 < -> <=":
        "renormalising the bound at exactly 2^200 is exact (frexp): the same "
        "double times the same power of 2",
    "_cos_fixed:17:12 0 -> 1":
        "not proven: one doubling more, only for an angle below about "
        "2^-(sqrt(w)/2), where the series keeps 30 or more guard bits; 4,000 "
        "random angles showed no difference",
    "_cosine_samples:76:36 <= -> <":
        "table1's angle at 53 bits: the integer route rounds pi - (-2)^k*phase and "
        "its quotient by 3 as the two IEEE operations do, so it may take one more "
        "binade",
    "_cosine_samples:76:40 1020 -> 1021":
        "the two IEEE operations of table1's angle round as the integer route "
        "does while (-2)^k*phase is a finite double, below 2^1024, not only 2^1020",
    "_cosine_samples:87:32 > -> >=":
        "where r = 0 the quotient is exact, and a sticky bit below it does not "
        "change its value rounded to bits (checked on 300,000 random "
        "significands); a zero difference becomes an angle below "
        "2^-(2*bits), whose cosine the loop takes as 1, as it takes that of 0",
    "_cosine_samples:87:35 0 -> 1":
        "the sticky bit decides a rounding only when the two quotient bits cut "
        "below it read 10, and m*2^(bits + 3)/3 ends in 10 only where r = 2 "
        "(checked on 300,000 random significands)",
    "_cosine_samples:89:18 > -> >=":
        "the quotient and its sticky bit have at least bits + 3 bits, so the cut "
        "is at least 3, or the difference is 0 and nothing is cut",
    "_cosine_samples:89:21 0 -> 1":
        "the quotient and its sticky bit have at least bits + 3 bits, so the cut "
        "is at least 3, or the difference is 0 and nothing is cut",
    "_cosine_samples:93:50 > -> >=":
        "at mag = 0 both arms take 2*pi at wr bits",
    "_cosine_samples:93:53 0 -> 1":
        "an angle below 2 is below 2*pi at any width, so its remainder is the "
        "angle itself, on either arm of the reduction",
    "_cosine_samples:95:16 >= -> >":
        "at e = texp the angle takes _reduce_raw, whose branch there is the same "
        "exact remainder at the same width; it also takes a remainder carried up "
        "to 2*pi to 0, and the cosine of either rounds to 1",
    "_cosine_samples:98:25 0 -> 1":
        "not proven: a remainder of exactly bits + 1 bits reaches the cosine "
        "unrounded; that needs an angle within about 2^-16 of a multiple of 2*pi, "
        "where the extra bit moves the cosine by under 2^-33 of its ulp, so a "
        "sample changes about once in 2^50; no such input is known",
    "_cosine_samples:123:20 >= -> >":
        "an angle in [2^-(wc + 1), 2^-wc) has a cosine within 2^-(2*wc + 1) of 1, "
        "whose significand rounds to 1 at bits, as the branch for smaller angles "
        "gives",
    "_cosine_samples:150:17 0 -> 1":
        "not proven: a cosine significand of exactly bits + 1 bits reaches the "
        "tail unrounded, so the tail rounds once where it rounded twice; the two "
        "differ only where the first rounding lands on a tie of the second, about "
        "once in 2^59 samples; no such input is known",
    "_cosine_samples:71:33 0 -> 1": "r4 and simple never read half",
    "_cosine_samples:72:22 0 -> 1":
        "C, S and err are set by a seed before a turn reads them; R is read "
        "before a seed only where the first sample's angle is 0 or below 2^-wc, "
        "and then decides no more than whether the next sample seeds",
    "_cosine_samples:104:45 >= -> >": _SHIFT_BY_0,
    "_cosine_samples:104:49 0 -> 1": _SHIFT_BY_0,
    "_cosine_samples:105:28 - -> +":
        "table1's d + 2*half, half being pi_f or 0: the loops that take 2*pi_f "
        "off d leave the same integer",
    "_cosine_samples:107:19 > -> >=": _TURN_OF_PI,
    "_cosine_samples:109:19 < -> <=": _TURN_OF_PI,
    "_cosine_samples:111:25 < -> <=":
        "a d of exactly reach still meets the turn's |d| * 2^-F < 2^-14, and its "
        "Taylor term T is read off d itself, so the bound holds",
    "_cosine_samples:116:26 < -> <=": _LIMIT,
    "_cosine_samples:119:33 < -> <=": _LIMIT,
    "_cosine_samples:122:26 < -> <=": _LIMIT,
    "_cosine_samples:126:49 >= -> >": _SHIFT_BY_0,
    "_cosine_samples:126:53 0 -> 1": _SHIFT_BY_0,
    "_cosine_samples:136:34 > -> >=":
        "not proven: the mutant calls _nearest with a cut of 0, which raises, only "
        "where C + E has exactly bits bits, a cosine in [2^-95, 2^-94) at F = bits "
        "+ 94; no input the tests know lands there (simple from x0 = 1/2 reaches "
        "a cut of 1 at 93 bits)",
    "_cosine_samples:136:37 0 -> 1":
        "at a cut of 1 the two ends C -+ E, at least 2^66 units apart, never round "
        "alike to a multiple of 2, so both arms take the pipeline",
    "_cos_sin:6:41 10 -> 11":
        "the seed at point + 11 bits: mod_pi2 and cos_sin_basecase there are "
        "within _cos_bound of that width, and the bound returned is the one of "
        "that width",
    "_turn:18:22 10 -> 11":
        "T read off |d| + 11 is never below T read off |d| + 10: a looser bound, "
        "which only ends a block a step sooner",
    "_turn:20:53 > -> >=": "at t = 0, 1 << 0 is the 1 of the other arm",
    "_compare_pairs:13:38 256 -> 257":
        "the block size sets how often pairs are drawn, not a difference",
    "_compare_pairs:23:38 <= -> <": _LIBMP_ONCE,
    "_compare_pairs:23:45 <= -> <": _LIBMP_ONCE,
    "_compare_pairs:24:26 >= -> >": "at a gap of 0 both arms shift nothing",
    "_compare_pairs:24:30 0 -> 1": "at a gap of 0 both arms shift nothing",
    "_compare_pairs:29:24 <= -> <": _LIBMP_ONCE,
    "_compare_pairs:29:42 <= -> <": _LIBMP_ONCE,
    "_compare_pairs:33:28 > -> >=":
        "a difference of exactly 1,023 bits cut to 55 with a sticky bit rounds to "
        "the double that float() of the whole integer gives",
    "_subnormal:6:13 0 -> 1":
        "at cut = 1, d < 2^53 converts exactly, and ldexp rounds d * 2^-1075 to "
        "the subnormal grid, to nearest even, as the cut does",
    "_bounded:27:20 1 -> 2": _FIRST_ROUNDING,
    "_bounded:27:25 40 -> 41": _FIRST_ROUNDING,
    "_bounded:35:43 > -> >=": "at cut = 0, m >> 0 is m",
    "_bounded:38:44 < -> <=": _WIDE_ANYWAY,
    "_bounded:38:49 - -> +": _WIDE_ANYWAY,
    "_bounded:43:16 < -> <=": _SCALED_SUM,
    "_bounded:43:19 100 -> 101": _SCALED_SUM,
    "_bounded:47:23 200 -> 201":
        "renormalising the bound from 2^-201 is exact (frexp), and every later "
        "step rounds the same value",
    "_bounded:47:41 200 -> 201":
        "renormalising the bound from 2^201 is exact (frexp), and every later "
        "step rounds the same value",
    "_bounded:51:16 > -> >=":
        "not proven: a floor stops the pairs one step early only where it is "
        "exactly the double 2e100, about once in 2^52 steps",
}


def _site(func: ast.FunctionDef, line: int, column: int, change: str, apply) -> tuple:
    return line, column, f"{func.name}:{line - func.lineno}:{column} {change}", apply


def _sites(func: ast.FunctionDef) -> list:
    """(name, apply) for every mutant of ``func``, in source order; ``apply``
    makes the change in place.  A name is the function, the line counted from
    its ``def``, the column and the change; an operator is placed where the
    operand before it ends, a constant where it starts."""
    found = []

    def swap(holder, attr, index=None):
        def apply():
            old = getattr(holder, attr)
            if index is None:
                setattr(holder, attr, _SWAPS[type(old)]())
            else:
                old[index] = _SWAPS[type(old[index])]()
        return apply

    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    change = f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_SWAPS[type(op)]]}"
                    left = node.left if i == 0 else node.comparators[i - 1]
                    found.append(_site(func, left.end_lineno, left.end_col_offset, change,
                                       swap(node, "ops", i)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            change = f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[_SWAPS[type(node.op)]]}"
            left = node.left if isinstance(node, ast.BinOp) else node.target
            found.append(_site(func, left.end_lineno, left.end_col_offset, change,
                               swap(node, "op")))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            def bump(node=node):
                node.value += 1
            change = f"{node.value} -> {node.value + 1}"
            found.append(_site(func, node.lineno, node.col_offset, change, bump))
    return [(name, apply) for *_, name, apply in sorted(found, key=lambda site: site[:3])]


def _kernels(tree: ast.Module) -> dict:
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    missing = [name for name in KERNELS if name not in funcs]
    if missing:
        raise SystemExit(f"no such function in {MODULE}: {', '.join(missing)}")
    return {name: funcs[name] for name in KERNELS}


def all_sites(source: str) -> list:
    """The names of every mutant, in a fixed order."""
    names = [name for func in _kernels(ast.parse(source)).values() for name, _ in _sites(func)]
    assert len(set(names)) == len(names), "two sites share a name"
    return names


def mutant_source(source: str, name: str | None) -> str:
    """``source`` with every kernel rewritten by ``ast.unparse``, and the one
    named mutant applied (none for ``None``)."""
    kernels = _kernels(ast.parse(source))
    if name is not None:
        apply, = (apply for func in kernels.values()
                  for site, apply in _sites(func) if site == name)
        apply()
    lines = source.splitlines(keepends=True)
    for func in sorted(kernels.values(), key=lambda f: f.lineno, reverse=True):
        lines[func.lineno - 1:func.end_lineno] = [ast.unparse(func) + "\n"]
    return "".join(lines)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tests(workdir: Path, source: str) -> tuple:
    """("passed" | "failed" | "timeout", seconds) of the kernel test modules
    on a copy of the package whose map_standard is ``source``."""
    shutil.rmtree(workdir, ignore_errors=True)
    package = workdir / "src" / "logistic_exact"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    (package / MODULE).write_text(source)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(workdir / ".hypothesis"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(workdir / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *(str(ROOT / "tests" / name) for name in TESTS)]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
    return ("passed" if done.returncode == 0 else "failed"), time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--function", action="append", choices=KERNELS,
                        help="mutate only this kernel (repeatable)")
    parser.add_argument("--sample", type=int,
                        help="run this many sites, the same ones for the same kernels")
    args = parser.parse_args(argv)

    source = (PACKAGE / MODULE).read_text()
    every = all_sites(source)
    names = [name for name in every if not args.function or name.split(":")[0] in args.function]
    if args.sample is not None:
        names = sorted(random.Random(0).sample(names, min(args.sample, len(names))),
                       key=names.index)
    stale = sorted(set(EQUIVALENT) - set(every))
    if stale:
        print("listed as equivalent but no such site:", *stale, sep="\n  ")
        return 1

    failures = []
    with tempfile.TemporaryDirectory(prefix="mutate-kernels-") as tmp:
        workdir = Path(tmp) / "copy"
        outcome, seconds = run_tests(workdir, mutant_source(source, None))
        print(f"unmutated: {outcome} ({seconds:.0f} s)", flush=True)
        if outcome != "passed":
            return 1
        for i, name in enumerate(names, 1):
            outcome, seconds = run_tests(workdir, mutant_source(source, name))
            survived = outcome == "passed"
            if survived != (name in EQUIVALENT):
                failures.append(name)
            label = ("equivalent" if name in EQUIVALENT else "SURVIVED") if survived else (
                "KILLED, listed as equivalent" if name in EQUIVALENT else f"killed ({outcome})")
            print(f"[{i}/{len(names)}] {name}: {label} ({seconds:.0f} s)", flush=True)
    if failures:
        print(f"{len(failures)} of {len(names)} mutants need a test or a reviewed entry in "
              "EQUIVALENT:", *failures, sep="\n  ")
        return 1
    print(f"all {len(names)} mutants killed or listed as equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
