"""Command-line front end.

Subcommands: ``ode`` (closed-form curves of the growth equation), ``map3``
(quadratic map iteration / closed forms), ``map4`` (backward-coupled map),
``compare`` (round-off divergence reports against the oracle), ``figure``
(presets 1-3 reproducing the reference parameter sets), and ``rng`` (chaos
bits).  Each runner takes its subcommand's options as keyword arguments,
with every default in its signature: an option not given on the command line
stays out of ``RunConfig.parameters``.  Each runner imports the library
modules it calls, so a run loads those alone: ``ode`` loads no map module,
and only ``ode``, ``map4`` and figures 1 and 3 load ``continuous``.  The
runners return labelled library ``Trajectory`` values, and ``compare`` emits
the labelled library ``DivergenceReport`` values of
``map_standard.divergence_reports``; the emitters read method, precision,
index and value columns, and errors from them.  Output is CSV (default),
JSON (default for ``compare``), or a minimal dependency-free SVG line chart,
written to its sink as it is formatted, one 4,096-row batch at a time, so no
artifact is held whole.  Library warnings are printed as ``warning:`` lines
on stderr.

Exit codes: 0 success, 1 a stdout closed by its reader before the artifact
was written (no ``error:`` line), 2 usage/validation problems, 3
mathematical domain/pole errors raised by the core modules.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
import warnings
from array import array
from collections import Counter
from collections.abc import Sequence

from mpmath.libmp import numeral, repr_dps, to_str

from .errors import MAX_GRID_POINTS, DegeneracyError, DomainError, EscapeError, PoleError
from .precision import (
    DOUBLE,
    METHOD_CLOSED_FORM,
    METHOD_ITERATED,
    PrecisionPolicy,
    Trajectory,
    _Record,
)

FIGURE_PRESETS = {
    "1": {"r": 1.7, "x0": 0.11, "gammas": (0.14, 0.15, 0.17, 0.25),
          "t_end": 10.0, "dt": 0.02},
    "2": {"r": -2.0, "x0": 0.9, "steps": 60, "bits": 53,
          "forms": ("table1", "simple")},
    "3": {"r": 1.73, "x0": 0.333, "gammas": (0.5, 1.0, 2.0, 5.0, 10.0),
          "steps": 50},
}

# the values of map_standard.ClosedForm, spelled out so that parsing loads no map
_FORM_CHOICES = ("r2", "r4", "table1", "simple")

# A run may hold no more samples in all than an ode grid may have points, and
# its series wider than doubles no more significand bits in all than
# MAX_SERIES_BITS; larger runs would exhaust memory.  Values may be no wider
# than MAX_BITS: set-up alone (one arccos) takes 0.55 s at 2^16 bits and 2.1 s
# at 2^17 on mpmath's pure-Python backend.
MAX_SERIES_BITS = 2**33
MAX_BITS = 2**16


class RunConfig(_Record):
    """A fully resolved invocation: subcommand, its parameters, and output
    routing.  Unlike the library's values it may be changed, so it has no hash."""

    __match_args__ = ("subcommand", "parameters", "output_format", "output_path")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, subcommand: str, parameters: dict | None = None,
                 output_format: str = "csv", output_path: str = "-"):
        self.subcommand = subcommand
        self.parameters = {} if parameters is None else parameters
        self.output_format = output_format
        self.output_path = output_path


def _check_series(*series):
    """Refuse a run too large to hold or too wide to set up, before any of it
    is evaluated, from one (samples, bits) pair per series it holds.  A
    series of 53 bits holds doubles, which its samples already bound."""
    samples = sum(n for n, _ in series)
    if samples > MAX_GRID_POINTS:
        raise ValueError(f"a run of {len(series)} series and {samples} samples exceeds "
                         f"the limit of {MAX_GRID_POINTS} samples")
    wide = sum(n * bits for n, bits in series if bits > DOUBLE.significand_bits)
    if wide > MAX_SERIES_BITS:
        raise ValueError(f"a run of {wide} significand bits in series wider than doubles "
                         f"exceeds the limit of {MAX_SERIES_BITS} significand bits")
    bits = max(bits for _, bits in series)
    if bits > MAX_BITS:
        raise ValueError(f"values of {bits} bits exceed the limit of {MAX_BITS} "
                         "significand bits per value")


# ---------------------------------------------------------------- runners

def _run_ode(r, x0, gammas=(), t_end=10.0, dt=0.02):
    from . import continuous

    gammas = sorted(set(gammas))  # one series per value
    p = continuous.ContinuousParams(r, x0)
    points = continuous._grid_steps(t_end, dt) + 1
    _check_series(*[(points, DOUBLE.significand_bits)] * (1 + len(gammas)))
    series = [("particular", continuous.grid_trajectory(p, t_end, dt))]
    for g in gammas:
        shift = continuous.RiccatiShift(g)
        series.append((f"gamma={g!r}", continuous.grid_trajectory(p, t_end, dt, shift)))
    config = {"subcommand": "ode", "r": r, "x0": x0, "gammas": gammas,
              "t_end": t_end, "dt": dt}
    return {"config": config, "series": series}


def _run_map3(r, x0, steps, bits=53, forms=()):
    from . import map_standard

    policy = PrecisionPolicy(bits)
    _check_series(*[(steps + 1, bits)] * (1 + len(forms)))
    p = map_standard.MapParams(r, x0)
    series = [("iterated", map_standard.iterate(p, steps, policy))]
    for name in forms:
        series.append((name, map_standard.closed_form_trajectory(
            p, steps, map_standard.ClosedForm(name), policy)))
    config = {"subcommand": "map3", "r": r, "x0": x0, "steps": steps,
              "bits": bits, "forms": list(forms)}
    return {"config": config, "series": series}


def _run_map4(r, x0, steps, gammas=()):
    from . import map_riccati

    gammas = sorted(set(gammas))  # one series per value
    _check_series(*[(steps + 1, DOUBLE.significand_bits)] * (2 + len(gammas)))
    p = map_riccati.RiccatiMapParams(r, x0)
    series = [("iterated", map_riccati.iterate(p, steps)),
              ("particular", map_riccati.particular_trajectory(p, steps))]
    series += [(f"gamma={g!r}", map_riccati.general_trajectory(p, g, steps)) for g in gammas]
    config = {"subcommand": "map4", "r": r, "x0": x0, "steps": steps, "gammas": gammas}
    return {"config": config, "series": series}


def _run_compare(r, x0, steps=60, bits=53, threshold=0.01, forms=(), oracle_bits=None):
    from . import map_standard

    resolved = map_standard.oracle_policy(steps, bits, oracle_bits).significand_bits
    # the oracle, then the iteration and each closed form
    _check_series((steps + 1, resolved), *[(steps + 1, bits)] * (1 + len(forms)))
    p = map_standard.MapParams(r, x0)
    reports = map_standard.divergence_reports(p, steps, bits, threshold, forms, oracle_bits)
    config = {"subcommand": "compare", "r": r, "x0": x0, "steps": steps,
              "bits": bits, "threshold": threshold, "forms": list(forms),
              "oracle_bits": resolved}
    return {"config": config, "reports": reports}


def _run_rng(x0, count, burn_in=0):
    from . import map_standard

    _check_series((count, DOUBLE.significand_bits))
    if burn_in + count > MAX_GRID_POINTS:  # burn-in steps cost as samples do
        raise ValueError(f"{burn_in} burn-in steps and {count} samples exceed the "
                         f"limit of {MAX_GRID_POINTS} steps")
    bits = map_standard.prng_bits(x0, count, burn_in)
    series = [("bits", Trajectory("prng", range(count), bits, DOUBLE))]
    config = {"subcommand": "rng", "x0": x0, "count": count, "burn_in": burn_in}
    return {"config": config, "series": series}


def _run_figure(which):
    preset = FIGURE_PRESETS[which]
    doc = {"1": _run_ode, "2": _run_map3, "3": _run_map4}[which](**preset)
    if which == "2":
        from . import map_standard

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
    at most 53 bits as the double equal to it if there is one, else the text
    ``mp.nstr(v, repr_dps(bits))``, enough digits to read it back exactly at
    its width, from ``_decimal``."""
    if isinstance(v, (int, float)):
        return v
    x = v._mpf_
    _, _, exp, bc = x  # v = man * 2^exp, man of bc <= bits bits
    if bits <= 53 and exp >= -1074 and exp + bc <= 1024:  # the doubles' exponents
        return float(v)
    return _decimal(x, *_digits(bits))


_LOG2_10 = math.log(10, 2)  # as to_str's steps compute it


@functools.lru_cache(maxsize=64)
def _digits(bits):
    """``to_str``'s values for a column ``bits`` wide, worked out once per
    width: the digits it writes, ``repr_dps(bits)``, the significant bits of
    its fixed-point step, and the decimal exponent from which down it writes
    the exponent form."""
    dps = repr_dps(bits)
    return dps, int((dps + 3) * _LOG2_10) + 10, min(-(dps // 3), -5)


@functools.lru_cache(maxsize=256)
def _ten(n):
    """10^n, cached per number of fixed-point digits."""
    return 10 ** n


def _decimal(x, dps, bitprec, least):
    """``to_str(x, dps)``, which ``mp.nstr`` writes for a finite raw value x,
    from to_str's own steps with ``_digits``' values: the significand at
    fixed point with ``bitprec`` significant bits, its decimal digits, the
    first ``dps`` of them rounded half up on the next, then the fixed-point
    form for a decimal exponent above ``least`` and below ``dps``, else the
    exponent form, with trailing zeros stripped.  A value more than 2^3500
    from 1, which to_str scales first, takes ``to_str``."""
    sign, man, exp, bc = x
    if not man:
        return "0.0"
    if abs(exp + bc) > 3500:
        return to_str(x, dps)
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = exp + fixprec
    digits = numeral((man << offset if offset >= 0 else man >> -offset) * _ten(fixdps)
                     >> fixprec, 10, dps + 3)
    exponent = len(digits) - fixdps - 1
    if digits[dps:dps + 1] > "4":  # round up, carrying past 9s
        head = digits[:dps].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1) + "0" * (dps - len(head))
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    sign = "-" if sign else ""
    if least < exponent < 0:  # 0.0...0d...: digits[0] is not 0
        return sign + "0." + "0" * (-1 - exponent) + digits.rstrip("0")
    split = 1
    if 0 <= exponent < dps:
        split, exponent = exponent + 1, 0
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if not exponent:
        return sign + text
    return f"{sign}{text}e+{exponent}" if exponent > 0 else f"{sign}{text}e{exponent}"


def _rows(doc, convert=None, share=False):
    """(label, method, bits, indices, values) of each series, and of each
    report's errors by step.  A series' values pass through ``convert(v,
    bits)`` unless the trajectory's own scan of their types found only ints
    and floats (``Trajectory._native``), which ``_value`` passes through
    unchanged.  Given ``share``, an index column that two or more series
    share, one object and not a range, is formatted once for all of them and
    comes as a ``_Formatted`` column."""
    series = doc.get("series", ())
    uses = Counter(id(traj.indices) for _, traj in series)
    formatted = {}
    for label, traj in series:
        bits, indices, values = traj.precision.significand_bits, traj.indices, traj.values
        if convert is not None and not traj._native:
            values = map(convert, values, itertools.repeat(bits))
        if share and uses[id(indices)] > 1 and not isinstance(indices, range):
            if id(indices) not in formatted:
                formatted[id(indices)] = _Formatted(indices)
            indices = formatted[id(indices)]
        yield label, traj.method_tag, bits, indices, values
    for label, rep in doc.get("reports", ()):
        errors = rep.per_step_abs_error  # floats
        yield label, "abs-error", 53, range(len(errors)), errors


class _Sink:
    """Writes each text it is given to ``write`` as ASCII bytes, which refuses
    a label that is not ASCII, and counts them: ``len()`` is the number of
    bytes written."""

    def __init__(self, write):
        self._write, self._bytes = write, 0

    def write(self, text):
        data = text.encode("ascii")
        self._write(data)
        self._bytes += len(data)

    def __len__(self):
        return self._bytes


_BATCH = 4096


class _Formatted(list):
    """An index column formatted once, for the series that share it, and for
    either row format: ``str(t)`` of each of its times t, joined by ``\0``, as
    one text per 4,096-row batch, the last holding the rows left.  No string
    is held per row, and a row's text costs its time and one byte."""

    def __init__(self, column):  # repr is str for an int and a float
        super().__init__("\0".join(map(repr, column[a:a + _BATCH]))
                         for a in range(0, len(column), _BATCH))

    def formats(self, head, tail):
        """The batch formats of ``_batches`` for rows ``head + t + tail``,
        whose fields still to fill are in ``head`` and ``tail``: one
        ``str.replace`` a batch."""
        between = tail + head
        return ("".join((head, text.replace("\0", between), tail)) for text in self)


def _batches(fmt, *columns):
    """Yield ``fmt % row`` for each row of the columns, 4,096 rows to a text.
    One ``%`` against ``fmt * 4096`` formats 4,096 rows, with one argument
    tuple interleaved from the columns' slices: a sequence's own slice, or an
    iterator's next 4,096 items; an array's slice goes through ``tolist()``,
    which list slice assignment would read item by item.  So no tuple or
    string is made per row.
    ``fmt`` may instead be an iterable of one format per batch, whose k-th
    formats the k-th 4,096 rows and whose last the rows left: the formats of
    a ``_Formatted`` index column, with the rows' other fields still to fill."""
    width = len(columns)
    batches = itertools.repeat(fmt * _BATCH) if isinstance(fmt, str) else iter(fmt)
    for a in itertools.count(0, _BATCH):
        parts = [c[a:a + _BATCH].tolist() if isinstance(c, array)
                 else c[a:a + _BATCH] if isinstance(c, Sequence)
                 else tuple(itertools.islice(c, _BATCH)) for c in columns]
        rows = len(parts[0])
        if not rows:
            return
        args = [None] * (width * rows)
        for j, part in enumerate(parts):
            args[j::width] = part
        batch = next(batches)
        if rows < _BATCH and isinstance(fmt, str):
            batch = fmt * rows
        yield batch % tuple(args)
        if rows < _BATCH:
            return


def _render_csv(doc, write):
    out = _Sink(write)
    out.write("index_or_time,series,method,value\n")
    # %s writes what an f-string field writes: str() of the value, as a shared
    # index column's texts hold it
    for label, method, _, indices, values in _rows(doc, _value, share=True):
        tail = f",{label},{method},".replace("%", "%%") + "%s\n"
        if isinstance(indices, _Formatted):
            batches = _batches(indices.formats("", tail), values)
        else:
            batches = _batches("%s" + tail, indices, values)
        for text in batches:
            out.write(text)
    return out


def _json_value(v, bits):
    """``_value(v, bits)`` as json writes it.  repr is json's text for an int
    and a finite float, and a Trajectory holds finite values only; a text of
    ``_decimal``'s digits, sign, point and exponent needs no escape."""
    v = _value(v, bits)
    return f'"{v}"' if isinstance(v, str) else repr(v)


def _json_entries(doc):
    """(fields, list key, item format, columns) of each series or report: its
    scalar fields, then the format of each item of its one list, at that
    list's fixed depth, or a shared index column formatted in such items
    (``_Formatted``), and the columns of the items it formats."""
    if "series" in doc:
        # an int's and a float's str is their repr, as _json_value writes them;
        # a shared index column comes formatted, with each item's value to fill
        head, tail = ",\n        [\n          ", ",\n          %s\n        ]"
        for label, method, bits, indices, values in _rows(doc, _json_value, share=True):
            fields = {"label": label, "method": method, "precision_bits": bits}
            if isinstance(indices, _Formatted):
                yield fields, "samples", indices.formats(head, tail), (values,)
            else:
                yield fields, "samples", head + "%s" + tail, (indices, values)
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
               ",\n        %r", (rep.per_step_abs_error,))


def _render_json(doc, write):
    """The bytes ``json.dumps(obj, indent=2) + "\\n"`` writes for obj, the config
    and one object per series or report, each value written at its fixed
    depth: with an indent set, json encodes in pure Python, token by token."""
    key = "series" if "series" in doc else "reports"
    out = _Sink(write)
    # the config is small and nests (a figure's preset): the encoder writes it
    out.write('{\n  "config": ' + json.dumps(doc["config"], indent=2).replace("\n", "\n  ")
              + f',\n  "{key}": [')
    entry = "\n    {"
    for fields, list_key, fmt, columns in _json_entries(doc):
        out.write(entry + "".join(f'\n      "{k}": {json.dumps(v)},' for k, v in fields.items())
                  + f'\n      "{list_key}": ')
        batches = _batches(fmt, *columns)
        first = next(batches, None)
        if first is None:
            out.write("[]\n    }")
        else:  # each item opens with a comma; the list's first with "["
            out.write("[" + first[1:])
            for text in batches:
                out.write(text)
            out.write("\n      ]\n    }")
        entry = ",\n    {"
    out.write("]\n}\n" if entry == "\n    {" else "\n  ]\n}\n")
    return out


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _render_svg(doc, write):
    """Minimal line chart: axes, one polyline per series, legend.  Meant for
    eyeballing the curves, not for publication.  Each series' columns are read
    where they are, and no point is copied: indices increase strictly, so a
    column's first and last index bound it, and each value column takes one
    min and one max pass."""
    columns = [(label, indices, values) for label, _, _, indices, values in _rows(doc)]
    width, height = 720, 480
    ml, mr, mt, mb = 60, 160, 36, 46
    xmin = min(float(indices[0]) for _, indices, _ in columns)
    xmax = max(float(indices[-1]) for _, indices, _ in columns)
    if xmax == xmin:
        xmax = xmin + 1.0
    ymin = min(min(map(float, values)) for _, _, values in columns)
    ymax = max(max(map(float, values)) for _, _, values in columns)
    # from 8e307 on, a flat series' widening, the 5% pad or the span can overflow:
    # the y range is worked in quarters there, and its pad stops at the largest double
    scale = 1.0 if max(ymax, -ymin) < 8e307 else 0.25
    lo, hi = ymin * scale, ymax * scale
    if hi == lo:  # from 2^53 on, lo + 1.0 is lo
        hi = lo + max(scale, abs(lo))
    pad, edge = 0.05 * (hi - lo), sys.float_info.max * scale
    lo, hi = max(lo - pad, -edge), min(hi + pad, edge)
    ymin, ymax = lo / scale, hi / scale

    def sx(x):
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(y):
        return height - mb - (y * scale - lo) / (hi - lo) * (height - mt - mb)

    title = doc["config"].get("subcommand", "")
    head = [
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
    out = _Sink(write)
    out.write("\n".join(head))
    for k, (label, indices, values) in enumerate(columns):
        color = _PALETTE[k % len(_PALETTE)]
        out.write(f'\n<polyline fill="none" stroke="{color}" stroke-width="1.5" points="')
        batches = _batches(" %.2f,%.2f", map(sx, map(float, indices)),
                           map(sy, map(float, values)))
        out.write(next(batches)[1:])  # every series has a point; the first has no separator
        for text in batches:
            out.write(text)
        ly = mt + 16 * k
        out.write(f'"/>\n<line x1="{width - mr + 10}" y1="{ly}" '
                  f'x2="{width - mr + 30}" y2="{ly}" stroke="{color}" '
                  'stroke-width="2"/>'
                  f'\n<text x="{width - mr + 36}" y="{ly + 4}" '
                  f'font-size="11">{label}</text>')
    out.write("\n</svg>\n")
    return out


_RENDERERS = {"csv": _render_csv, "json": _render_json, "svg": _render_svg}


# ------------------------------------------------------------ entry point

def run(config: RunConfig) -> int:
    """Execute one resolved configuration, writing the artifact to its sink.

    A float parameter that is not finite is refused, named by the option
    that sets it.  The runner is evaluated first, and only then is the
    ``--out`` file opened, in binary mode.  The renderer writes the artifact
    to its sink as it goes, as ASCII bytes, one 4,096-row batch at a time:
    to that file, or to stdout's binary buffer once the text layer is
    flushed.  Only a stdout with no binary buffer, such as an
    ``io.StringIO``, gets each piece decoded to text.  Returns 0, or 1 when
    the reader of stdout closes it before the artifact is written, as
    ``| head`` does; stdout is then pointed at ``os.devnull``, so that the
    flush at exit cannot fail again."""
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    renderer = _RENDERERS.get(config.output_format)
    if renderer is None:
        raise ValueError(f"unknown output format {config.output_format!r}")
    for key, value in config.parameters.items():
        for v in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{_option(config.subcommand, key)} must be a finite "
                                 f"number, got {v!r}")
    doc = runner(**config.parameters)
    if config.output_path not in (None, "-"):
        with open(config.output_path, "wb") as fh:
            renderer(doc, fh.write)
    elif hasattr(sys.stdout, "buffer"):
        try:
            sys.stdout.flush()  # what the text layer holds goes first
            renderer(doc, sys.stdout.buffer.write)
        except BrokenPipeError:  # caught here, not as main's unwritable --out
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    else:
        renderer(doc, lambda data: sys.stdout.write(str(data, "ascii")))
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


def _option(subcommand, key):
    """The option that sets the parameter ``key`` of the subcommand, as its
    parser spells it: ``--gamma`` for ``gammas``, ``--t-end`` for ``t_end``."""
    subparsers = next(a for a in _parser()._actions if a.dest == "subcommand")
    return next((a.option_strings[0] for a in subparsers.choices[subcommand]._actions
                 if a.dest == key and a.option_strings), f"--{key}")


@functools.cache
def _value_options() -> frozenset:
    """Every option string of the parser that takes a value."""
    subparsers = next(a for a in _parser()._actions if a.dest == "subcommand")
    return frozenset(s for sp in subparsers.choices.values() for a in sp._actions
                     if a.nargs != 0 for s in a.option_strings)


def _is_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _joined(argv) -> list:
    """``argv`` with each value that starts with '-' and that ``float()``
    reads joined to the option before it, as ``--x0=-6.4e-05``: argparse
    takes -6.4e-05 for an option, since its pattern of negative numbers has
    no exponent."""
    out = []
    for arg in argv:
        if arg.startswith("-") and out and out[-1] in _value_options() and _is_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def parse_args(argv=None) -> RunConfig:
    argv = sys.argv[1:] if argv is None else argv
    params = vars(_parser().parse_args(_joined(argv)))
    subcommand, fmt, out = (params.pop(k) for k in ("subcommand", "format", "out"))
    # an option not given stays out, and its runner's signature gives its default
    return RunConfig(subcommand, {k: v for k, v in params.items() if v is not None}, fmt, out)


def main(argv=None) -> int:
    config = parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # whatever filters the interpreter has
        try:
            code = run(config)
        except (PoleError, DomainError, EscapeError, DegeneracyError) as exc:
            code, error = 3, exc
        except (ValueError, OSError) as exc:  # OSError: an --out path that cannot be written
            code, error = 2, exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code
