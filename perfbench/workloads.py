"""Workload generators: each turns a seed into ``logistic-exact`` argument vectors.

A workload is a sequence of cycles.  A cycle is a ladder of job kinds and
sizes in a fixed order; the seed draws the values (seeds x0, gammas, rates,
time spans, burn-in).  Cycle ``c`` places its sizes at offset
``c * 0.618... mod 1`` inside each rung of the ladder, so a run of several
cycles covers every rung evenly and its latency distribution has no gaps for
a percentile to fall into.  Sizes, series counts, formats and order do not
depend on the seed, so every seed gives a run of the same cost profile (the
heap a job inherits from the jobs before it included), while the inputs
themselves differ from seed to seed.

The first job of every cycle is the workload's probe: the smallest job of the
workload's defining kind.  Set-up time is measured on the first cycle's probe.
"""

import math
import random

# Seed intervals of the closed forms, kept inside the arccos domains by the
# same margin the acceptance suite uses.
_SEEDS = {"r2": (0.02, 0.98), "r4": (0.02, 0.98),
          "table1": (-0.48, 1.48), "simple": (-0.48, 1.48)}
_FORM_R = {"r2": "2", "r4": "4", "table1": "-2", "simple": "-2"}
# Chaotic iteration at generic r: (r, seed interval).  Every orbit stays bounded.
_ORBITS = (("3.7", (0.02, 0.98)), ("3.9", (0.02, 0.98)),
           ("4", (0.02, 0.98)), ("-2", (-0.48, 1.48)))


def _num(x):
    return repr(float(x))


def _ladder(lo, hi, rungs, offset):
    """One size per equal rung of [lo, hi], at ``offset`` (0..1) inside each rung."""
    return [int(lo + (hi - lo) * (i + offset) / rungs) for i in range(rungs)]


def _seed(rng, interval):
    return _num(round(rng.uniform(*interval), 6))


def device_divergence(rng, offset):
    """53-bit closed forms against the default oracle, past the divergence window."""
    jobs = []
    for r, forms in (("-2", ("table1", "simple")), ("4", ("r4",))):
        for steps in _ladder(60, 250, 20, offset):
            argv = ["compare", "--r", r, "--x0", _seed(rng, _SEEDS[forms[0]])]
            for f in forms:
                argv += ["--form", f]
            jobs.append(argv + ["--steps", str(steps), "--bits", "53",
                                "--threshold", "0.01"])
    return jobs


def oracle_verify(rng, offset):
    """Long iteration-only comparisons plus closed forms at the step budget."""
    jobs = []
    for i, form in enumerate(("r2", "r4", "table1", "simple")):
        for k, steps in enumerate(_ladder(100, 500, 3, offset)):
            jobs.append(["map3", "--r", _FORM_R[form], "--x0", _seed(rng, _SEEDS[form]),
                         "--steps", str(steps), "--bits", str(steps + 64),
                         "--form", form, "--format", ("csv", "json")[(i + k) % 2]])
    jobs.insert(0, jobs.pop(3))  # the probe: the r4 job on the lowest rung
    for i, steps in enumerate(_ladder(2000, 8500, 2 * len(_ORBITS), offset)):
        r, interval = _ORBITS[i % len(_ORBITS)]
        jobs.append(["compare", "--r", r, "--x0", _seed(rng, interval),
                     "--steps", str(steps), "--bits", "53", "--threshold", "0.01"])
    return jobs


def double_sweep(rng, offset):
    """Double-precision producers and every emitter."""
    jobs = [["figure", w, "--format", f] for w in "213" for f in ("json", "csv", "svg")]
    for i, steps in enumerate(_ladder(1000, 10000, 4, offset)):
        r, interval = _ORBITS[i]
        jobs.append(["map3", "--r", r, "--x0", _seed(rng, interval), "--steps", str(steps),
                     "--format", ("csv", "json")[i % 2]])
    # Past about step 300/log10(1+r) (690 at the figure-3 rate 1.73) the general
    # solution's coefficient product leaves its guarded range and the CLI exits
    # 3.  Those jobs stay in the mix and count as failures; the rate moves with
    # the cycle so that where they stop, and so what they cost, varies.
    map4_r = _num(round(1.5 + offset, 3))
    for i, steps in enumerate(_ladder(50, 1000, 6, offset)):
        argv = ["map4", "--r", map4_r, "--x0", _seed(rng, (0.25, 0.45)),
                "--steps", str(steps)]
        for g in sorted(round(rng.uniform(0.5, 10.0) + j, 3) for j in range(2 + i % 4)):
            argv += ["--gamma", _num(g)]
        jobs.append(argv + ["--format", ("csv", "json")[i % 2]])
    # Dense grids only: the grid that exhausts memory (t_end/dt near 1e18) would
    # kill the worker, so it is left out.
    for i, points in enumerate(_ladder(2000, 20000, 4, offset)):
        x0 = round(rng.uniform(0.05, 0.5), 6)
        t_end = round(rng.uniform(10.0, 40.0), 3)
        argv = ["ode", "--r", _num(round(rng.uniform(0.5, 3.0), 3)), "--x0", _num(x0),
                "--t-end", _num(t_end), "--dt", _num(t_end / points)]
        low = x0 / (1.0 - x0)  # admissible gammas lie above x0/(1-x0)
        for g in sorted(round(low * (1.05 + j + rng.random()), 6) for j in range(1 + i % 3)):
            argv += ["--gamma", _num(g)]
        jobs.append(argv + ["--format", ("csv", "json")[i % 2]])
    for i, count in enumerate(_ladder(10000, 200000, 4, offset)):
        jobs.append(["rng", "--x0", _seed(rng, (0.01, 0.99)), "--count", str(count),
                     "--burn-in", str(rng.randint(0, 100)),
                     "--format", ("json", "csv")[i % 2]])
    return jobs


WORKLOADS = {
    "device-divergence": device_divergence,
    "oracle-verify": oracle_verify,
    "double-sweep": double_sweep,
}

# Cost of one cycle in seconds at reference speed, measured at the seed commit.
# A run of S seconds is round(S / CYCLE_S) whole cycles, so every commit does
# the same work and the job count, hence the tail percentile's rank, is fixed.
CYCLE_S = {"device-divergence": 1.4, "oracle-verify": 4.2, "double-sweep": 3.0}

# Tail percentile per workload: the highest that leaves at least ten jobs
# beyond it in a 20-second run.  Shorter runs are lengthened until it does.
TAIL_PERCENTILE = {"device-divergence": 98.0, "oracle-verify": 90.0, "double-sweep": 95.0}


def cycle_count(workload, seconds, cycle_length):
    """Whole cycles in a run of ``seconds`` with ``cycle_length`` jobs per cycle."""
    beyond = 1 - TAIL_PERCENTILE[workload] / 100
    at_least = math.ceil(round(10 / beyond / cycle_length, 6))
    return max(at_least, round(seconds / CYCLE_S[workload]))


def cycles(workload, seed):
    """Yield the workload's cycles for ``seed``; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload]
    c = 0
    while True:
        yield make(rng, (c * 0.6180339887498949) % 1.0)
        c += 1
