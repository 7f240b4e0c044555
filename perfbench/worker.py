"""Benchmark worker: runs ``logistic-exact`` jobs sent one at a time on stdin.

Protocol, one JSON object per line.  The parent sends ``{"argv": [...],
"out": path}``; the worker runs the yardstick, then ``cli.main(argv + ["--out",
path])``, timing only that call, and answers ``{"code", "elapsed", "yard",
"exc", "message"}``.  When stdin closes it answers ``{"maxrss_kib", "spans",
"tallies"}`` and exits.

With ``--trace`` the worker wraps the public functions each CLI runner calls,
and the CLI's emitters, so every job leaves spans (name, start, end, parent,
job id, counts) in memory.  Functions called once per sample are tallied per
parent span (busy time and call count) instead, which keeps the tracing cost
small.  Wrapping replaces module attributes in this process only; the library
itself is unchanged and the untraced worker runs it untouched.
"""

import contextlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import yardstick  # noqa: E402
from logistic_exact import cli, continuous, map_riccati, map_standard  # noqa: E402


def _tier(policy):
    return "d53" if policy.significand_bits == 53 else "budget"


def _oracle_counts(a, res):
    bits = res.precision.significand_bits
    return {"calls": 1, "bit_steps": bits * a["n"], "key": [a["p"].r, a["p"].x0, a["n"], bits]}


# (module, attribute): (span name, or a function of the bound arguments giving
# it; counts from the bound arguments and the result).
SPANS = {
    (map_standard, "iterate"):
        (lambda a: f"map_standard.iterate.{_tier(a['policy'])}", lambda a, res: {"steps": a["n"]}),
    (map_standard, "closed_form_trajectory"):
        (lambda a: f"map_standard.closed_form_trajectory.{_tier(a['policy'])}",
         lambda a, res: {"samples": len(res)}),
    (map_standard, "oracle"): ("map_standard.oracle", _oracle_counts),
    (map_standard, "divergence_analysis"): ("map_standard.divergence_analysis", None),
    (map_standard, "iteration_divergence"): ("map_standard.iteration_divergence", None),
    (map_standard, "compare_trajectories"):
        ("precision.compare_trajectories", lambda a, res: {"samples": len(a["a"])}),
    (map_standard, "prng_bits"): ("map_standard.prng_bits", lambda a, res: {"bits": len(res)}),
    (map_riccati, "iterate"): ("map_riccati.iterate", None),
    (map_riccati, "particular_trajectory"): ("map_riccati.particular_trajectory", None),
    (map_riccati, "coefficients"): ("map_riccati.coefficients", None),
    (map_riccati, "general_trajectory"):
        ("map_riccati.general_trajectory", lambda a, res: {"samples": len(res)}),
}
# Called once per sample: tallied, not spanned.  (name, what one call counts as)
TALLIES = {
    (map_standard, "reduce_mod_2pi"): ("precision.reduce_mod_2pi", "calls"),
    (continuous, "particular_solution"): ("continuous.grid", "points"),
    (continuous, "general_solution"): ("continuous.grid", "points"),
}


class Tracer:
    """In-memory spans and per-parent tallies of one worker process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, job, counts, error]
        self.tallies = {}  # (parent span, name, unit) -> [busy_s, calls]
        self.stack = []
        self.job = None

    def _enter(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job, None, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def run(self, name, fn, *args):
        rec = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(rec)

    def span(self, fn, name, counts):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            rec = self._enter(None)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[6] = True
                raise
            finally:
                self._exit(rec)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[0] = name(bound.arguments) if callable(name) else name
            if counts is not None:
                rec[5] = counts(bound.arguments, result)
            return result
        return wrapper

    def tally(self, fn, name, unit):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                slot = self.tallies.setdefault((self.stack[-1], name, unit), [0.0, 0])
                slot[0] += busy
                slot[1] += 1
        return wrapper

    def install(self):
        for (module, attr), (name, counts) in SPANS.items():
            setattr(module, attr, self.span(getattr(module, attr), name, counts))
        for (module, attr), (name, unit) in TALLIES.items():
            setattr(module, attr, self.tally(getattr(module, attr), name, unit))
        # The emitters have no public name; the CLI looks them up in this table.
        # Their output is ASCII, so characters count bytes.
        for fmt, render in list(cli._RENDERERS.items()):
            cli._RENDERERS[fmt] = self.span(render, f"cli.emit.{fmt}",
                                            lambda a, res: {"bytes": len(res)})

    def export(self):
        return {"spans": self.spans,
                "tallies": [[parent, name, unit, busy, calls]
                            for (parent, name, unit), (busy, calls) in self.tallies.items()]}


def _diagnose(argv):
    """Class of the exception behind a failed job, found by running it again."""
    try:
        cli.run(cli.parse_args(argv))
    except SystemExit:
        return "SystemExit"
    except Exception as exc:  # report any class; the job has already failed
        return type(exc).__name__
    return None


def main():
    tracer = Tracer() if "--trace" in sys.argv[1:] else None
    if tracer is not None:
        tracer.install()
    proto = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol stream for replies only
    for line in iter(sys.stdin.readline, ""):
        job = json.loads(line)
        argv = job["argv"] + ["--out", job["out"]]
        exc = None
        yard = yardstick.measure()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.job = job["id"]
            start = time.perf_counter()
            try:
                code = (tracer.run("cli.job", cli.main, argv) if tracer is not None
                        else cli.main(argv))
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 2
                exc = "SystemExit"
            except Exception as e:  # an escaped exception is a failed job, not a crash
                code, exc = 1, type(e).__name__
            elapsed = time.perf_counter() - start
            if code != 0 and exc is None and tracer is None:
                exc = _diagnose(argv)
        proto.write(json.dumps({"code": code, "elapsed": elapsed, "yard": yard, "exc": exc,
                                "message": err.getvalue().strip()[-500:]}) + "\n")
        proto.flush()
    final = {"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final.update(tracer.export())
    proto.write(json.dumps(final) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
