"""Independent checks of ``logistic-exact`` artifacts.

Every check reads the artifact as bytes on disk and the job's argument vector,
and never calls the library: references are plain-float loops, a float
evaluation of the sigmoid written out here, mpmath used directly as a
calculator, or consistency between two series of the same artifact.
``check`` returns the artifact's sample count (trajectory samples plus per-step
error entries) and raises ``CheckError`` on the first defect.
"""

import json
import math
import xml.etree.ElementTree as ET

from mpmath import mpf, workprec

CSV_HEADER = "index_or_time,series,method,value"

# Reference parameters of the figure presets (see the README's command list).
FIG1 = {"r": 1.7, "x0": 0.11, "gammas": [0.14, 0.15, 0.17, 0.25], "t_end": 10.0, "dt": 0.02}
FIG2 = {"r": -2.0, "x0": 0.9, "steps": 60}
FIG3 = {"r": 1.73, "x0": 0.333, "gammas": [0.5, 1.0, 2.0, 5.0, 10.0], "steps": 50}


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def parse_argv(argv):
    """Subcommand, positional arguments and ``--option`` values (always lists)."""
    opts, pos = {}, []
    i = 1
    while i < len(argv):
        if argv[i].startswith("--"):
            opts.setdefault(argv[i][2:], []).append(argv[i + 1])
            i += 2
        else:
            pos.append(argv[i])
            i += 1
    return argv[0], pos, opts


def _opt(opts, key, default=None, cast=float):
    return cast(opts[key][-1]) if key in opts else default


# ---------------------------------------------------------------- readers

def _read_series(text, fmt):
    """{label: [(index, value), ...]} in artifact order; values are str or float."""
    series = {}
    if fmt == "csv":
        lines = text.split("\n")
        _require(lines[0] == CSV_HEADER and lines[-1] == "", "bad CSV framing")
        for line in lines[1:-1]:
            index, label, _method, value = line.split(",")
            series.setdefault(label, []).append((index, value))
        return series
    doc = json.loads(text)
    for s in doc["series"]:
        _require(s["label"] not in series, f"duplicate series {s['label']!r}")
        series[s["label"]] = [(i, v) for i, v in s["samples"]]
    return series


def _read_svg(text):
    """Point lists of the chart's polylines, in order."""
    root = ET.fromstring(text)
    lines = []
    for el in root.iter("{http://www.w3.org/2000/svg}polyline"):
        pts = [tuple(float(c) for c in p.split(",")) for p in el.get("points").split()]
        _require(all(math.isfinite(c) for p in pts for c in p), "non-finite SVG point")
        lines.append(pts)
    return lines


def _labels_and_lengths(series, labels, length, indexed=True):
    """Series labels in order, each with ``length`` samples indexed 0, 1, ..."""
    _require(list(series) == labels, f"series {list(series)} != {labels}")
    for label, samples in series.items():
        _require(len(samples) == length, f"{label}: {len(samples)} samples, want {length}")
        _require(not indexed or all(str(i) == str(k) for k, (i, _v) in enumerate(samples)),
                 f"{label}: indices are not 0..{length - 1}")


def _floats(samples):
    return [float(v) for _i, v in samples]


# ------------------------------------------------------------ references

def _double_orbit(r, x0, steps):
    xs = [x0]
    for _ in range(steps):
        xs.append(r * xs[-1] * (1.0 - xs[-1]))
    return xs


def _reference_orbit(r, x0, steps, bits):
    with workprec(bits):
        xs = [mpf(x0)]
        for _ in range(steps):
            xs.append(r * xs[-1] * (1 - xs[-1]))
    return xs


def _check_double_orbit(samples, r, x0, steps, label):
    got = _floats(samples)
    want = _double_orbit(r, x0, steps)
    bad = next((k for k in range(steps + 1) if got[k] != want[k]), None)
    _require(bad is None, f"{label}: differs from the float recurrence at step {bad}")


def _sigmoid(t, r, x0):
    if x0 == 1.0:
        return 1.0
    return 1.0 / (1.0 + (1.0 / x0 - 1.0) * math.exp(-r * t))


def _check_ode(series, r, x0, gammas, t_end, dt):
    n = int(round(t_end / dt))
    labels = ["particular"] + [f"gamma={g!r}" for g in sorted(gammas)]
    _labels_and_lengths(series, labels, n + 1, indexed=False)
    starts = [x0] + [g * x0 / (g - x0) for g in sorted(gammas)]
    for label, start in zip(labels, starts):
        for k, (t, v) in enumerate(series[label]):
            t = float(t)
            _require(t == k * dt, f"{label}: time {t!r} is not {k}*dt")
            want = _sigmoid(t, r, start)
            _require(math.isclose(float(v), want, rel_tol=1e-12, abs_tol=1e-300),
                     f"{label}: {v!r} != {want!r} at t={t!r}")
    return len(labels) * (n + 1)


def _check_map4(series, r, x0, gammas, steps):
    labels = ["iterated", "particular"] + [f"gamma={g!r}" for g in sorted(gammas)]
    _labels_and_lengths(series, labels, steps + 1)
    it, pa = _floats(series["iterated"]), _floats(series["particular"])
    worst = max(abs(a - b) for a, b in zip(it, pa))
    _require(worst <= 1e-12, f"particular vs iterated differ by {worst:.3e}")
    _require(it[0] == x0, "iterated series does not start at x0")
    for g in sorted(gammas):
        v0 = float(series[f"gamma={g!r}"][0][1])
        _require(math.isclose(v0, x0 + 1.0 / g, rel_tol=1e-12),
                 f"gamma={g!r}: n=0 value {v0!r} is not x0 + 1/gamma")
    return len(labels) * (steps + 1)


def _check_svg(lines, count, length):
    _require(len(lines) == count, f"{len(lines)} polylines, want {count}")
    _require(all(len(pts) == length for pts in lines), f"polylines need {length} points")
    return count * length


# --------------------------------------------------------------- per kind

def _check_compare(text, opts):
    steps = _opt(opts, "steps", 60, int)
    bits = _opt(opts, "bits", 53, int)
    threshold = _opt(opts, "threshold", 0.01)
    forms = opts.get("form", [])
    oracle_bits = _opt(opts, "oracle-bits", None, int)
    if oracle_bits is None:  # one bit per step plus 64, and 64 above the method
        oracle_bits = max(max(53, steps + 64), bits + 64)
    doc = json.loads(text)
    _require(doc["config"]["oracle_bits"] == oracle_bits, "config oracle_bits")
    reports = doc["reports"]
    _require([rep["label"] for rep in reports] == ["iterated"] + forms, "report labels")
    samples = 0
    for rep in reports:
        errors = rep["per_step_abs_error"]
        label = rep["label"]
        _require(rep["oracle_bits"] == oracle_bits,
                 f"{label}: oracle_bits {rep['oracle_bits']} != {oracle_bits}")
        _require(rep["working_bits"] == bits and rep["threshold"] == threshold,
                 f"{label}: working bits or threshold")
        _require(len(errors) == steps + 1, f"{label}: {len(errors)} errors")
        _require(all(isinstance(e, float) and math.isfinite(e) and e >= 0 for e in errors),
                 f"{label}: an error is not a finite non-negative number")
        first = next((i for i, e in enumerate(errors) if e > threshold), None)
        _require(rep["first_divergent_index"] == first,
                 f"{label}: first_divergent_index {rep['first_divergent_index']} != {first}")
        _require(rep["max_error"] == max(errors), f"{label}: max_error")
        _require(errors[0] <= 1e-15, f"{label}: error at step 0 is {errors[0]!r}")
        samples += len(errors)
    return samples


def _check_map3(text, fmt, opts):
    r, x0, steps = _opt(opts, "r"), _opt(opts, "x0"), _opt(opts, "steps", cast=int)
    bits = _opt(opts, "bits", 53, int)
    forms = opts.get("form", [])
    series = _read_series(text, fmt)
    _labels_and_lengths(series, ["iterated"] + forms, steps + 1)
    if bits == 53:
        _require(not forms, "53-bit map3 jobs carry no closed forms")
        _check_double_orbit(series["iterated"], r, x0, steps, "iterated")
        return steps + 1
    # Criterion 4 at scale: at ``bits`` of working precision the closed form is
    # within 2^-(bits-n-10) of the true orbit at step n.  The reference orbit is
    # iterated here at 3*bits, which covers the worst case of two bits lost per
    # step (|f'| <= 4 on every seed interval used).  The artifact's own
    # iteration is not a reference: near the ends of the seed interval it loses
    # up to two bits a step, so it only has to meet 2^-(bits-2n-10).
    ref = _reference_orbit(r, x0, steps, 3 * bits)
    with workprec(3 * bits):
        for label, rate in [("iterated", 2)] + [(form, 1) for form in forms]:
            for n, (_i, v) in enumerate(series[label]):
                if bits - rate * n - 10 <= 0:
                    break
                err = abs(mpf(v) - ref[n])
                _require(err < mpf(2) ** -(bits - rate * n - 10),
                         f"{label}: step {n} misses the budget bound ({float(err):.3e})")
    return (1 + len(forms)) * (steps + 1)


def _check_rng(text, fmt, opts):
    x0, count = _opt(opts, "x0"), _opt(opts, "count", cast=int)
    burn_in = _opt(opts, "burn-in", 0, int)
    series = _read_series(text, fmt)
    _labels_and_lengths(series, ["bits"], count)
    got = [int(v) for _i, v in series["bits"]]
    want, x = [], x0
    for step in range(1, burn_in + count + 1):
        x = 4.0 * x * (1.0 - x)
        if step > burn_in:
            want.append(1 if x > 0.5 else 0)
    _require(got == want, "bits differ from the float reference loop")
    return count


def _check_figure(text, fmt, which):
    if which == "1":
        n = int(round(FIG1["t_end"] / FIG1["dt"]))
        if fmt == "svg":
            return _check_svg(_read_svg(text), 1 + len(FIG1["gammas"]), n + 1)
        return _check_ode(_read_series(text, fmt), FIG1["r"], FIG1["x0"], FIG1["gammas"],
                          FIG1["t_end"], FIG1["dt"])
    if which == "3":
        if fmt == "svg":
            return _check_svg(_read_svg(text), 2 + len(FIG3["gammas"]), FIG3["steps"] + 1)
        return _check_map4(_read_series(text, fmt), FIG3["r"], FIG3["x0"], FIG3["gammas"],
                           FIG3["steps"])
    steps = FIG2["steps"]
    labels = ["iterated", "table1", "simple", "oracle"]
    if fmt == "svg":
        return _check_svg(_read_svg(text), len(labels), steps + 1)
    series = _read_series(text, fmt)
    _labels_and_lengths(series, labels, steps + 1)
    r, x0 = FIG2["r"], FIG2["x0"]
    _check_double_orbit(series["iterated"], r, x0, steps, "iterated")
    for form in ("table1", "simple"):
        xs = _floats(series[form])
        _require(abs(xs[0] - x0) < 1e-15, f"{form}: n=0 value is not x0")
        _require(all(-0.5 - 1e-12 <= x <= 1.5 + 1e-12 for x in xs), f"{form}: leaves [-1/2, 3/2]")
    with workprec(256):  # the oracle must satisfy its own recurrence
        o = [mpf(v) for _i, v in series["oracle"]]
        _require(abs(o[0] - x0) < mpf(2) ** -120, "oracle does not start at x0")
        worst = max(abs(o[k + 1] - r * o[k] * (1 - o[k])) for k in range(steps))
        _require(worst < mpf(2) ** -110, f"oracle recurrence residual {float(worst):.3e}")
    return len(labels) * (steps + 1)


def check(argv, text):
    """Check one artifact against its job; return its sample count."""
    sub, pos, opts = parse_argv(argv)
    fmt = _opt(opts, "format", "json" if sub == "compare" else "csv", str)
    if sub == "compare":
        return _check_compare(text, opts)
    if sub == "map3":
        return _check_map3(text, fmt, opts)
    if sub == "map4":
        return _check_map4(_read_series(text, fmt), _opt(opts, "r"), _opt(opts, "x0"),
                           [float(g) for g in opts.get("gamma", [])],
                           _opt(opts, "steps", cast=int))
    if sub == "ode":
        return _check_ode(_read_series(text, fmt), _opt(opts, "r"), _opt(opts, "x0"),
                          [float(g) for g in opts.get("gamma", [])],
                          _opt(opts, "t-end", 10.0), _opt(opts, "dt", 0.02))
    if sub == "rng":
        return _check_rng(text, fmt, opts)
    if sub == "figure":
        return _check_figure(text, fmt, pos[0])
    raise CheckError(f"no check for subcommand {sub!r}")
