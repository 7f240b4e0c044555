"""Command-line front end.

Subcommands: ``ode`` (closed-form curves of the growth equation), ``map3``
(quadratic map iteration / closed forms), ``map4`` (backward-coupled map),
``compare`` (round-off divergence reports against the oracle), ``figure``
(presets 1-3 reproducing the reference parameter sets), and ``rng`` (chaos
bits).  The runners return labelled library ``Trajectory`` values, and
``compare`` emits the labelled library ``DivergenceReport`` values of
``map_standard.divergence_reports``; the emitters read method, precision,
samples and errors from them.  Output is CSV (default), JSON (default for
``compare``), or a minimal dependency-free SVG line chart.  Library warnings
are printed as ``warning:`` lines on stderr.

Exit codes: 0 success, 2 usage/validation problems, 3 mathematical
domain/pole errors raised by the core modules.
"""

import argparse
import functools
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

from mpmath import mp
from mpmath.libmp import repr_dps

from . import continuous, map_riccati, map_standard
from .errors import DegeneracyError, DomainError, EscapeError, PoleError
from .precision import DOUBLE, METHOD_CLOSED_FORM, METHOD_ITERATED, PrecisionPolicy, Trajectory

FIGURE_PRESETS = {
    "1": {"r": 1.7, "x0": 0.11, "gammas": (0.14, 0.15, 0.17, 0.25),
          "t_end": 10.0, "dt": 0.02},
    "2": {"r": -2.0, "x0": 0.9, "steps": 60, "bits": 53,
          "forms": ("table1", "simple")},
    "3": {"r": 1.73, "x0": 0.333, "gammas": (0.5, 1.0, 2.0, 5.0, 10.0),
          "steps": 50},
}

_FORM_CHOICES = tuple(v.value for v in map_standard.ClosedForm)

# A series may hold no more samples than an ode grid may have points, and no
# more significand bits in all than MAX_SERIES_BITS; larger ones would exhaust
# memory.  Its values may be no wider than MAX_BITS: set-up alone (one arccos)
# takes 0.55 s at 2^16 bits and 2.1 s at 2^17 on mpmath's pure-Python backend.
MAX_SERIES_BITS = 2**33
MAX_BITS = 2**16


@dataclass
class RunConfig:
    """A fully resolved invocation: subcommand, its parameters, and output routing."""

    subcommand: str
    parameters: dict = field(default_factory=dict)
    output_format: str = "csv"
    output_path: str = "-"


def _require_finite(name, value):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"--{name} must be a finite number, got {value!r}")


def _get(params, key, default):
    value = params.get(key)
    return default if value is None else value


def _check_series(samples, bits=53):
    """Refuse a series too large to hold or too wide to set up, before any of
    it is evaluated."""
    if samples > continuous.MAX_GRID_POINTS:
        raise ValueError(f"a series of {samples} samples exceeds the limit of "
                         f"{continuous.MAX_GRID_POINTS} samples")
    if samples * bits > MAX_SERIES_BITS:
        raise ValueError(f"{samples} samples of {bits} bits exceed the limit of "
                         f"{MAX_SERIES_BITS} significand bits per series")
    if bits > MAX_BITS:
        raise ValueError(f"values of {bits} bits exceed the limit of {MAX_BITS} "
                         "significand bits per value")


# ---------------------------------------------------------------- runners

def _run_ode(params):
    r, x0 = params["r"], params["x0"]
    t_end = _get(params, "t_end", 10.0)
    dt = _get(params, "dt", 0.02)
    gammas = sorted(set(params.get("gammas") or ()))  # one series per value
    p = continuous.ContinuousParams(r, x0)
    series = [("particular", continuous.grid_trajectory(p, t_end, dt))]
    for g in gammas:
        shift = continuous.RiccatiShift(g)
        series.append((f"gamma={g!r}", continuous.grid_trajectory(p, t_end, dt, shift)))
    config = {"subcommand": "ode", "r": r, "x0": x0, "gammas": list(gammas),
              "t_end": t_end, "dt": dt}
    return {"config": config, "series": series}


def _run_map3(params):
    r, x0 = params["r"], params["x0"]
    steps = params["steps"]
    bits = _get(params, "bits", 53)
    forms = params.get("forms") or ()
    policy = PrecisionPolicy(bits)
    _check_series(steps + 1, bits)
    p = map_standard.MapParams(r, x0)
    series = [("iterated", map_standard.iterate(p, steps, policy))]
    for name in forms:
        series.append((name, map_standard.closed_form_trajectory(
            p, steps, map_standard.ClosedForm(name), policy)))
    config = {"subcommand": "map3", "r": r, "x0": x0, "steps": steps,
              "bits": bits, "forms": list(forms)}
    return {"config": config, "series": series}


def _run_map4(params):
    r, x0 = params["r"], params["x0"]
    steps = params["steps"]
    gammas = sorted(set(params.get("gammas") or ()))  # one series per value
    _check_series(steps + 1)
    p = map_riccati.RiccatiMapParams(r, x0)
    series = [("iterated", map_riccati.iterate(p, steps)),
              ("particular", map_riccati.particular_trajectory(p, steps))]
    series += [(f"gamma={g!r}", map_riccati.general_trajectory(p, g, steps)) for g in gammas]
    config = {"subcommand": "map4", "r": r, "x0": x0, "steps": steps,
              "gammas": list(gammas)}
    return {"config": config, "series": series}


def _run_compare(params):
    r, x0 = params["r"], params["x0"]
    steps = _get(params, "steps", 60)
    bits = _get(params, "bits", 53)
    threshold = _get(params, "threshold", 0.01)
    forms = params.get("forms") or ()
    oracle_bits = params.get("oracle_bits")
    resolved = map_standard.oracle_policy(steps, bits, oracle_bits).significand_bits
    _check_series(steps + 1, resolved)  # the oracle, the largest series
    p = map_standard.MapParams(r, x0)
    reports = map_standard.divergence_reports(p, steps, bits, threshold, forms, oracle_bits)
    config = {"subcommand": "compare", "r": r, "x0": x0, "steps": steps,
              "bits": bits, "threshold": threshold, "forms": list(forms),
              "oracle_bits": resolved}
    return {"config": config, "reports": reports}


def _run_rng(params):
    x0 = params["x0"]
    count = params["count"]
    burn_in = _get(params, "burn_in", 0)
    _check_series(count)
    if burn_in + count > continuous.MAX_GRID_POINTS:  # burn-in steps cost as samples do
        raise ValueError(f"{burn_in} burn-in steps and {count} samples exceed the "
                         f"limit of {continuous.MAX_GRID_POINTS} steps")
    bits = map_standard.prng_bits(x0, count, burn_in)
    series = [("bits", Trajectory("prng", tuple(enumerate(bits)), DOUBLE))]
    config = {"subcommand": "rng", "x0": x0, "count": count, "burn_in": burn_in}
    return {"config": config, "series": series}


def _run_figure(params):
    which = params["which"]
    preset = FIGURE_PRESETS[which]
    doc = {"1": _run_ode, "2": _run_map3, "3": _run_map4}[which](preset)
    if which == "2":
        p = map_standard.MapParams(preset["r"], preset["x0"])
        doc["series"].append(("oracle", map_standard.oracle(p, preset["steps"])))
    doc["config"] = {"subcommand": "figure", "which": which,
                     "preset": doc["config"]}
    return doc


_RUNNERS = {
    "ode": _run_ode,
    "map3": _run_map3,
    "map4": _run_map4,
    "compare": _run_compare,
    "figure": _run_figure,
    "rng": _run_rng,
}


# --------------------------------------------------------------- emitters

def _value(v, bits):
    """Lossless value for CSV and JSON: ints and floats as they are, a value of
    at most 53 bits as the double equal to it if there is one, else a string of
    enough digits to read it back exactly at its width."""
    if isinstance(v, (int, float)):
        return v
    _, _, exp, bc = v._mpf_  # v = man * 2^exp, man of bc <= bits bits
    if bits <= 53 and exp >= -1074 and exp + bc <= 1024:  # the doubles' exponents
        return float(v)
    return mp.nstr(v, repr_dps(bits))


def _joined(render):
    """``render`` as one string, joined in batches: no list of every row or token."""
    def text(doc):
        chunks = render(doc)
        return "".join(iter(lambda: "".join(itertools.islice(chunks, 4096)), ""))
    return text


def _rows(doc):
    """(label, method, bits, samples) of each series, and of each report's errors by step."""
    for label, traj in doc.get("series", ()):
        yield label, traj.method_tag, traj.precision.significand_bits, traj.samples
    for label, rep in doc.get("reports", ()):
        yield label, "abs-error", 53, enumerate(rep.per_step_abs_error)


@_joined
def _render_csv(doc):
    yield "index_or_time,series,method,value\n"
    for label, method, bits, samples in _rows(doc):
        for i, v in samples:
            yield f"{i},{label},{method},{_value(v, bits)}\n"


def _json_value(v, bits):
    """``_value(v, bits)`` as json writes it.  repr is json's text for an int
    and a finite float, and a Trajectory holds finite values only."""
    v = _value(v, bits)
    return json.dumps(v) if isinstance(v, str) else repr(v)


def _json_entries(doc):
    """(fields, list key, items) of each series or report: its scalar fields,
    then the text of each item of its one list, at that list's fixed depth."""
    if "series" in doc:
        for label, method, bits, samples in _rows(doc):
            yield ({"label": label, "method": method, "precision_bits": bits}, "samples",
                   (f"\n        [\n          {i!r},\n          {_json_value(v, bits)}\n        ]"
                    for i, v in samples))
        return
    config = doc["config"]
    for label, rep in doc["reports"]:
        yield ({"label": label,
                "method": label if label == METHOD_ITERATED else f"{METHOD_CLOSED_FORM}:{label}",
                "working_bits": config["bits"],
                "oracle_bits": config["oracle_bits"],
                "threshold": rep.threshold,
                "first_divergent_index": rep.first_divergent_index,
                "max_error": rep.max_error}, "per_step_abs_error",
               (f"\n        {e!r}" for e in rep.per_step_abs_error))


@_joined
def _render_json(doc):
    """The bytes ``json.dumps(obj, indent=2) + "\\n"`` writes for obj, the config
    and one object per series or report, each value written at its fixed
    depth: with an indent set, json encodes in pure Python, token by token."""
    key = "series" if "series" in doc else "reports"
    # the config is small and nests (a figure's preset): the encoder writes it
    yield '{\n  "config": ' + json.dumps(doc["config"], indent=2).replace("\n", "\n  ")
    yield f',\n  "{key}": ['
    entry = "\n    {"
    for fields, list_key, items in _json_entries(doc):
        yield entry + "".join(f'\n      "{k}": {json.dumps(v)},' for k, v in fields.items())
        yield f'\n      "{list_key}": '
        opener = "["
        for item in items:
            yield opener + item
            opener = ","
        yield "[]\n    }" if opener == "[" else "\n      ]\n    }"
        entry = ",\n    {"
    yield "]\n}\n" if entry == "\n    {" else "\n  ]\n}\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _render_svg(doc):
    """Minimal line chart: axes, one polyline per series, legend.  Meant for
    eyeballing the curves, not for publication."""
    named = [(label, [(float(i), float(v)) for i, v in samples])
             for label, _, _, samples in _rows(doc)]
    width, height = 720, 480
    ml, mr, mt, mb = 60, 160, 36, 46
    xs = [x for _, pts in named for x, _ in pts]
    ys = [y for _, pts in named for _, y in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def sx(x):
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb)

    title = doc["config"].get("subcommand", "")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{ml}" y="{height - mb + 18}" font-size="11" '
        f'text-anchor="middle">{xmin:g}</text>',
        f'<text x="{width - mr}" y="{height - mb + 18}" font-size="11" '
        f'text-anchor="middle">{xmax:g}</text>',
        f'<text x="{ml - 6}" y="{height - mb + 4}" font-size="11" '
        f'text-anchor="end">{ymin:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" font-size="11" '
        f'text-anchor="end">{ymax:.6g}</text>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{mt - 14}" font-size="13" '
        f'text-anchor="middle">{title}</text>',
    ]
    for idx, (label, pts) in enumerate(named):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        ly = mt + 16 * idx
        parts.append(f'<line x1="{width - mr + 10}" y1="{ly}" '
                     f'x2="{width - mr + 30}" y2="{ly}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{width - mr + 36}" y="{ly + 4}" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_RENDERERS = {"csv": _render_csv, "json": _render_json, "svg": _render_svg}


# ------------------------------------------------------------ entry point

def run(config: RunConfig) -> int:
    """Execute one resolved configuration, writing the artifact to its sink."""
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    renderer = _RENDERERS.get(config.output_format)
    if renderer is None:
        raise ValueError(f"unknown output format {config.output_format!r}")
    for key, value in config.parameters.items():
        if isinstance(value, (list, tuple)):
            for v in value:
                _require_finite(key, v)
        else:
            _require_finite(key, value)
    text = renderer(runner(config.parameters))
    if config.output_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="logistic-exact",
        description="Exact solutions of logistic dynamics with "
                    "arbitrary-precision iteration oracles.")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    r_x0 = argparse.ArgumentParser(add_help=False)  # ode, map3, map4 and compare
    r_x0.add_argument("--r", type=float, required=True)
    r_x0.add_argument("--x0", type=float, required=True)

    def common(sp, default_format="csv"):
        sp.add_argument("--format", choices=("csv", "json", "svg"),
                        default=default_format, help="output format")
        sp.add_argument("--out", default="-", metavar="PATH",
                        help="output path ('-' for stdout)")

    sp = sub.add_parser("ode", parents=[r_x0], help="closed-form curves of dx/dt = r*x*(1-x)")
    sp.add_argument("--gamma", type=float, action="append", dest="gammas",
                    help="general-solution member (repeatable)")
    sp.add_argument("--t-end", type=float)
    sp.add_argument("--dt", type=float)
    common(sp)

    sp = sub.add_parser("map3", parents=[r_x0], help="quadratic map x' = r*x*(1-x)")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--bits", type=int)
    sp.add_argument("--form", choices=_FORM_CHOICES, action="append",
                    dest="forms", help="closed form to evaluate (repeatable)")
    common(sp)

    sp = sub.add_parser("map4", parents=[r_x0], help="backward-coupled map x'-x = r*x*(1-x')")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--gamma", type=float, action="append", dest="gammas",
                    help="general-solution member (repeatable)")
    common(sp)

    sp = sub.add_parser("compare", parents=[r_x0],
                        help="divergence of low-precision methods vs the oracle")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--bits", type=int)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--form", choices=_FORM_CHOICES, action="append",
                    dest="forms", help="closed form to compare (repeatable)")
    sp.add_argument("--oracle-bits", type=int)
    common(sp, default_format="json")

    sp = sub.add_parser("figure", help="reference parameter presets 1-3")
    sp.add_argument("which", choices=("1", "2", "3"))
    common(sp)

    sp = sub.add_parser("rng", help="chaos bits from the r=4 orbit")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--burn-in", type=int, dest="burn_in")
    common(sp)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # once per process: building costs more than parsing


def parse_args(argv=None) -> RunConfig:
    params = vars(_parser().parse_args(argv))
    subcommand, fmt, out = (params.pop(k) for k in ("subcommand", "format", "out"))
    return RunConfig(subcommand, params, fmt, out)


def main(argv=None) -> int:
    config = parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = run(config)
        except (PoleError, DomainError, EscapeError, DegeneracyError) as exc:
            code, error = 3, exc
        except ValueError as exc:
            code, error = 2, exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code
