"""Benchmark of the ``logistic-exact`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload as argument vectors (see ``workloads.py``).
One client runs them in a closed loop: each job is sent to a single-threaded
worker process only after the previous one has completed, and goes through
``cli.main`` with its output in a scratch file.  S sets the amount of work:
as many whole cycles of the workload as take S seconds at the seed commit's
speed, so every commit runs the same jobs for a seed.  Every artifact is
checked independently (``checks.py``) and hashed.

Job times are reported at a reference machine speed (``yardstick.py``): the
worker times a fixed reference computation right before each job and scales
the job's wall time by its ratio to the reference.  The host is shared and its
speed drifts by up to a half over seconds to minutes; the scaling removes most
of that drift and no change to the program can move the yardstick.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
Set-up time is the median of several cold starts: a fresh interpreter
importing ``logistic_exact`` and finishing the workload's first job.

``--trace 1`` runs half as many cycles untraced, then replays the same jobs
in a fresh worker that wraps each layer's public functions (``worker.py``),
asserts that every replayed artifact is byte-identical, and reports the
per-layer metrics named in BENCHMARK.json plus the tracing overhead.

Human-readable lines (metrics with units, the error rate, digests, failures,
provenance) come first; the last line of standard output is the JSON result.
The full report and the spans go to ``.bench_build/perfbench/``, which also
remembers each run's digests so that a later run of the same code and seed
that produces different bytes is reported as incorrect.  The exit code is 0
when every artifact passed its check and every digest agreed, 1 otherwise,
and 2 when the program under test is missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

COLD_STARTS = 9
WALL_LIMIT_S = 120.0   # stop starting cycles past this, whatever the run length says
BASELINE_BACKEND = "python"  # mpmath backend of the recorded baselines


class Worker:
    """One single-threaded worker process, fed one job at a time."""

    def __init__(self, env, trace):
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)

    def run(self, job_id, argv, out):
        self.proc.stdin.write(json.dumps({"id": job_id, "argv": argv, "out": str(out)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker died (exit {self.proc.wait()}) on {argv}")
        return json.loads(line)

    def finish(self):
        self.proc.stdin.close()
        final = json.loads(self.proc.stdout.readline())
        self.proc.stdout.close()
        self.proc.wait(timeout=60)
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def scaled(elapsed, yard):
    """A wall time at the yardstick's reference speed."""
    return elapsed * yardstick.REFERENCE_S / yard


def scale_to_reference(records):
    """Set each job's ``elapsed``: its wall time at reference speed.

    The speed is the median yardstick of the job and its three neighbours on
    either side; one yardstick alone is noisier than the drift it tracks.
    """
    yards = [r["yard"] for r in records]
    for k, rec in enumerate(records):
        rec["elapsed"] = scaled(rec["wall"], statistics.median(yards[max(0, k - 3):k + 4]))
    return records


def job_record(job_id, argv, reply, out, check=True):
    """The worker's reply plus the artifact's digest, sample count and check result."""
    rec = {"id": job_id, "argv": argv, "code": reply["code"], "elapsed": None,
           "wall": reply["elapsed"], "yard": reply["yard"], "exc": reply["exc"],
           "message": reply["message"], "sha256": None, "samples": 0, "problem": None}
    if reply["code"] == 0:
        try:
            data = out.read_bytes()
        except FileNotFoundError:
            rec["problem"] = "exit 0 without an artifact"
            return rec
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        if not check:
            return rec
        try:
            rec["samples"] = checks.check(argv, data.decode("ascii"))
        except Exception as exc:  # any defect in parsing or checking fails the job
            rec["problem"] = f"{type(exc).__name__}: {exc}"
    elif out.exists():
        rec["problem"] = f"exit {reply['code']} but an artifact was written"
    return rec


def run_jobs(worker, jobs, work, first_id=0, check=True):
    out = work / "artifact"
    records = []
    for k, argv in enumerate(jobs):
        out.unlink(missing_ok=True)
        reply = worker.run(first_id + k, argv, out)
        records.append(job_record(first_id + k, argv, reply, out, check))
    out.unlink(missing_ok=True)
    return records


def closed_loop(workload, seed, n_cycles, work, env, started):
    """``n_cycles`` whole cycles, one job at a time through one untraced worker."""
    worker = Worker(env, trace=False)
    records, cycle_lengths = [], []
    try:
        for cycle in workloads.cycles(workload, seed):
            records += run_jobs(worker, cycle, work, len(records))
            cycle_lengths.append(len(cycle))
            if len(cycle_lengths) == n_cycles:
                break
            if time.monotonic() - started > WALL_LIMIT_S:
                print(f"warning: stopped at the {WALL_LIMIT_S:g} s wall limit", file=sys.stderr)
                break
        final = worker.finish()
    finally:
        worker.kill()
    return scale_to_reference(records), cycle_lengths, final


def cold_starts(argv, work, env):
    """Wall times of fresh interpreters running one job, and their artifact digests."""
    times, digests = [], set()
    out = work / "cold"
    for k in range(COLD_STARTS + 1):  # the first launch fills the bytecode cache
        out.unlink(missing_ok=True)
        yard = yardstick.measure()
        start = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls in 50 ms steps
        code = subprocess.Popen([sys.executable, "-m", "logistic_exact", *argv, "--out", str(out)],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL).wait()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"cold start exited {code}: {argv}")
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        if k:
            times.append(scaled(elapsed, yard))
    return times, digests


def cycle_digests(records, cycle_lengths):
    """SHA-256 per cycle over each job's argv, exit code and artifact bytes."""
    out, k = [], 0
    for n in cycle_lengths:
        h = hashlib.sha256()
        for rec in records[k:k + n]:
            h.update(json.dumps([rec["argv"], rec["code"], rec["sha256"]]).encode())
        out.append(h.hexdigest())
        k += n
    return out


def code_digest():
    """SHA-256 of the library sources and of this benchmark."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_history(state, key, digests):
    """Compare with the digests an earlier run of the same code and seed recorded."""
    path = state / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    earlier = history.get(key, [])
    agree = all(a == b for a, b in zip(earlier, digests))
    if agree and len(digests) > len(earlier):
        history[key] = digests
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(history, indent=1))
        os.replace(tmp, path)
    return agree, min(len(earlier), len(digests))


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, code):
    import mpmath
    backend = mpmath.libmp.BACKEND
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": backend,
            "backend_matches_baseline": backend == BASELINE_BACKEND,
            "nproc": os.cpu_count(), "pinned_cpu": max(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "code_sha256": code}


def percentile(values, p):
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(records, final, setup_times, workload):
    latencies = [r["elapsed"] for r in records]
    busy = sum(latencies)
    ok = [r for r in records if r["code"] == 0 and r["problem"] is None]
    p = workloads.TAIL_PERCENTILE[workload]
    tail, beyond = percentile(latencies, p)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (sum(r["samples"] for r in ok) / busy, "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mib": (final["maxrss_kib"] / 1024, "MiB"),
        "error_rate": ((len(records) - len(ok)) / len(records), "ratio"),
    }
    notes = {"job_tail_ms": f"p{p:g} of {len(records)} jobs, {beyond} beyond it",
             "setup_s": f"median of {len(setup_times)} cold starts",
             "samples_per_s": f"{sum(r['samples'] for r in ok)} samples in {busy:.3f} s",
             "error_rate": f"{len(records) - len(ok)} of {len(records)} jobs"}
    if beyond < 10:
        print(f"warning: only {beyond} jobs beyond p{p:g}; the run was cut short",
              file=sys.stderr)
    return metrics, notes


def per_layer(final, overhead_pct, scale):
    """Layer metrics from the traced worker's spans and tallies.

    Busy times are multiplied by ``scale`` to bring them to reference speed.
    """
    spans, tallies = final["spans"], final["tallies"]
    busy, counts, errors = defaultdict(float), defaultdict(float), defaultdict(int)
    covered = defaultdict(float)  # span index -> time covered by its children
    keys = defaultdict(set)       # job id -> distinct oracle arguments
    for name, start, end, parent, job, cnt, err in spans:
        busy[name] += end - start
        if parent is not None:
            covered[parent] += end - start
        errors[name] += err
        for k, v in (cnt or {}).items():
            if k == "key":
                keys[job].add(tuple(v))
            else:
                counts[f"{name}.{k}"] += v
    for parent, name, unit, b, calls in tallies:
        busy[name] += b
        counts[f"{name}.{unit}"] += calls
        covered[parent] += b
    for i, (name, start, end, *_rest) in enumerate(spans):
        if covered[i] > (end - start) + 1e-6:
            raise RuntimeError(f"children of span {i} ({name}) overlap")
    jobs = [i for i, s in enumerate(spans) if s[0] == "cli.job"]
    job_busy = sum(spans[i][2] - spans[i][1] for i in jobs)
    job_self = sum(spans[i][2] - spans[i][1] - covered[i] for i in jobs)
    metrics = {f"{name}.busy_s": (v * scale, "s") for name, v in busy.items()}
    metrics.update({name: (v, "count") for name, v in counts.items()})
    oracle_calls = counts["map_standard.oracle.calls"]
    metrics.update({
        "map_standard.oracle.distinct_ratio":
            (sum(len(v) for v in keys.values()) / oracle_calls if oracle_calls else 0.0, "ratio"),
        "map_riccati.general_trajectory.errors": (errors["map_riccati.general_trajectory"], "count"),
        "cli.job.self_s": (job_self * scale, "s"),
        "trace.coverage": ((job_busy - job_self) / job_busy, "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    # One core for the client, the worker and the cold starts, so that the
    # yardstick measures the core the jobs run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "logistic_exact" / "__init__.py").is_file():
        print(f"error: no logistic_exact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    state = ROOT / ".bench_build" / "perfbench"
    state.mkdir(parents=True, exist_ok=True)
    env = child_env()
    code = code_digest()
    prov = provenance(args.workload, args.seed, code)
    if not prov["backend_matches_baseline"]:
        print(f"warning: mpmath backend {prov['mpmath_backend']!r} differs from the "
              f"baseline's {BASELINE_BACKEND!r}; numbers are not comparable", file=sys.stderr)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=state))
    problems = []
    try:
        first = next(workloads.cycles(args.workload, args.seed))
        if args.trace:
            n_cycles = max(1, round(args.seconds / 2 / workloads.CYCLE_S[args.workload]))
        else:
            n_cycles = workloads.cycle_count(args.workload, args.seconds, len(first))
            setup_times, cold_digests = cold_starts(first[0], work, env)
        records, lengths, final = closed_loop(args.workload, args.seed, n_cycles, work,
                                              env, started)
        if not args.trace and cold_digests != {records[0]["sha256"]}:
            problems.append("cold-start artifacts differ from the loop's first artifact")
        digests = cycle_digests(records, lengths)
        agree, compared = check_history(state, f"{args.workload}|{args.seed}|{code}", digests)
        if not agree:
            problems.append("digests differ from an earlier run of the same code and seed")
        if args.trace:
            traced = Worker(env, trace=True)
            replay = []
            try:
                for n in lengths:
                    jobs = [r["argv"] for r in records[len(replay):len(replay) + n]]
                    replay += run_jobs(traced, jobs, work, len(replay), check=False)
                trace_final = traced.finish()
            finally:
                traced.kill()
            scale_to_reference(replay)
            if [r["sha256"] for r in replay] != [r["sha256"] for r in records]:
                problems.append("traced replay artifacts differ from the untraced run")
            overhead = sum(r["elapsed"] for r in replay) / sum(r["elapsed"] for r in records)
            yards = statistics.median(r["yard"] for r in replay)
            layers = per_layer(trace_final, 100 * (overhead - 1), yardstick.REFERENCE_S / yards)
            (state / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
                {"provenance": prov, "jobs": [r["argv"] for r in records], **trace_final}))
            metrics, notes, names = layers, {}, spec["per_layer"]
        else:
            metrics, notes = end_to_end(records, final, setup_times, args.workload)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["code"] != 0 or r["problem"] is not None]
    problems += [f"job {r['id']}: {r['problem']}" for r in records if r["problem"]]
    problems += [f"job {r['id']}: uncaught {r['exc']}" for r in records if r["code"] == 1]
    print(f"{args.workload}  seed {args.seed}  {len(records)} jobs in {len(lengths)} cycles  "
          f"closed loop, 1 client, 1 single-threaded worker")
    for name, (value, unit) in sorted(metrics.items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<52} {value:>16.6g} {unit}{note}")
    print(f"times at reference speed: the yardstick took a median "
          f"{statistics.median(r['yard'] for r in records) * 1e3:.3f} ms against "
          f"{yardstick.REFERENCE_S * 1e3:.3f} ms")
    print(f"digest sha256:{digests[0]}  (cycle 1, {lengths[0]} jobs; "
          f"{compared} cycles matched an earlier run)")
    for r in failed:
        print(f"failed job {r['id']}: exit {r['code']} {r['exc']} {r['problem'] or ''} "
              f"argv={' '.join(r['argv'])}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("provenance " + json.dumps(prov))
    report = {"provenance": prov, "metrics": {k: {"value": v, "unit": u}
                                              for k, (v, u) in metrics.items()},
              "digests": digests, "problems": problems,
              "jobs": [{k: r[k] for k in ("id", "argv", "code", "elapsed", "wall", "yard")}
                       for r in records],
              "failures": [{k: r[k] for k in ("id", "argv", "code", "exc", "message", "problem")}
                           for r in failed]}
    (state / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    result = {"correct": not problems, "attempted": len(records), "failed": len(failed),
              "metrics": {m["name"]: {"value": metrics.get(m["name"], (0.0, m["unit"]))[0],
                                      "unit": m["unit"]} for m in names}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
