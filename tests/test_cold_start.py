"""What a fresh ``python -m logistic_exact`` run imports: each subcommand loads
the library modules its runner needs and no others, no run loads
``dataclasses`` or the ``inspect`` module that it pulls in, and a run on
doubles alone (``ode``, ``map4``, figures 1 and 3) loads no mpmath.  A bare
import of the package loads none of its submodules, and the benchmark's
tracer, which wraps library functions by name, installs in a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import logistic_exact

# ``python -m logistic_exact`` with the arguments after the script, then the
# names of every module loaded, one line
RUN = """
import runpy
import sys

try:
    runpy.run_module("logistic_exact", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
print(" ".join(sorted(sys.modules)))
"""

STDLIB = {"dataclasses", "inspect"}
MPMATH = "mpmath"
CONTINUOUS, RICCATI, STANDARD = ("logistic_exact.continuous", "logistic_exact.map_riccati",
                                 "logistic_exact.map_standard")


def fresh(code, *args):
    """The standard output of ``python -c code args`` in a fresh interpreter
    that imports this package, which must exit 0."""
    package_root = str(Path(logistic_exact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(argv, out):
    """The modules loaded by a fresh interpreter that runs ``argv`` as
    ``python -m logistic_exact`` does, its artifact written to ``out``."""
    modules = set(fresh(RUN, *argv, "--out", str(out)).split())
    assert out.stat().st_size > 0
    return modules


@pytest.mark.parametrize("argv, needed, unloaded", [
    (["compare", "--r", "-2", "--x0", "0.3", "--form", "table1"], {STANDARD},
     STDLIB | {CONTINUOUS, RICCATI}),
    (["map3", "--r", "4", "--x0", "0.3", "--steps", "100", "--bits", "164", "--form", "r4"],
     {STANDARD}, STDLIB | {CONTINUOUS, RICCATI}),
    (["figure", "2"], {STANDARD}, STDLIB | {CONTINUOUS, RICCATI}),
    (["ode", "--r", "1.7", "--x0", "0.11", "--gamma", "0.25"], {CONTINUOUS},
     STDLIB | {STANDARD, RICCATI, MPMATH}),
    (["figure", "1"], {CONTINUOUS}, STDLIB | {STANDARD, RICCATI, MPMATH}),
    (["rng", "--x0", "0.3", "--count", "64"], {STANDARD}, STDLIB | {CONTINUOUS, RICCATI}),
    (["map4", "--r", "1.73", "--x0", "0.333", "--steps", "50", "--gamma", "2"],
     {CONTINUOUS, RICCATI}, STDLIB | {STANDARD, MPMATH}),
    (["figure", "3"], {CONTINUOUS, RICCATI}, STDLIB | {STANDARD, MPMATH}),
], ids=["compare", "map3-r4-164-bits", "figure2", "ode", "figure1", "rng", "map4", "figure3"])
def test_a_run_loads_only_what_its_runner_needs(argv, needed, unloaded, tmp_path):
    modules = loaded(argv, tmp_path / "artifact")
    assert needed <= modules
    assert not unloaded & modules



# a bare import of the package, then each of its names looked up
NAMES = """
import sys

import logistic_exact

print(" ".join(m for m in sys.modules if m.startswith("logistic_exact.")) or "-")
for name in logistic_exact.__all__:
    getattr(logistic_exact, name)
print(logistic_exact.errors.__name__, logistic_exact.MapParams.__module__)
assert set(logistic_exact.__all__) <= set(dir(logistic_exact))
from logistic_exact import *  # noqa: F403
print(PrecisionPolicy(53), cli.__name__)  # noqa: F405
"""


def test_the_package_loads_its_names_on_first_use():
    assert fresh(NAMES).splitlines() == [
        "-", "logistic_exact.errors logistic_exact.precision",
        "PrecisionPolicy(significand_bits=53) logistic_exact.cli"]


# perfbench's worker imported as its script imports it, then its tracer
# installed, which reads each library name that it wraps with getattr
TRACER = """
import sys

sys.path.insert(0, sys.argv[1])
import worker

worker.Tracer().install()
"""


def test_the_benchmark_tracer_installs():
    fresh(TRACER, str(Path(__file__).resolve().parents[1] / "perfbench"))
