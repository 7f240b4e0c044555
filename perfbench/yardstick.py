"""A fixed reference computation that measures how fast the machine is right now.

The benchmark's host is shared: other tenants slow the same core by up to a
half for stretches of seconds to minutes, which would swamp any change in the
program.  The yardstick does the kinds of work the program does (mpmath
arithmetic at a few hundred bits, big-integer products, float loops, repr and
JSON of floats) without touching the program, so a change to the program
cannot move it.  Each job is timed right after a yardstick, and its latency
is reported at the reference speed: ``elapsed * REFERENCE_S / yardstick``.
"""

import json
import time

from mpmath import mpf, workprec

# Typical yardstick time on the machine the bounds were set on (2 vCPUs,
# Python 3.11.7, mpmath 1.3.0 on its Python backend); scaled times are
# therefore close to that machine's wall times.
REFERENCE_S = 0.0007


def _once():
    start = time.perf_counter()
    with workprec(320):
        x = mpf(0.3)
        for _ in range(20):
            x = 3.9 * x * (1 - x)
    n, m = 3 ** 3000, 7 ** 1700
    for _ in range(6):
        n = (n * n) % m
    y, out = 0.3, []
    for _ in range(60):
        y = 3.9 * y * (1.0 - y)
        out.append(repr(y))
    json.dumps(out)
    return time.perf_counter() - start


def measure():
    """Best of three yardstick runs, in seconds."""
    return min(_once() for _ in range(3))
