"""A fixed reference load that measures how fast the host runs Python now.

The host this benchmark was written on (a 2-core KVM guest on a shared
Xeon, Python 3.11.7) changes speed by itself: for seconds to minutes at
a time, the same Python code takes 30-80% more CPU time, as a busy
neighbour contends for the cores and caches.  An op timed in such a
phase says more about the neighbour than about padicount.

`reference_s()` times `reference_load`, a few milliseconds of pure-Python
work of the kinds padicount does: rational sums, modular powers and
gcds, and building and formatting small containers.  It does not touch
padicount, so a change to padicount leaves it alone.  Over a 150 s trace
on that host, loads of these kinds slowed by the same factor as table,
tame and count ops, within about 10%, while a bare integer loop
understated the slowdown by a third.

A time t measured next to a reference time r is reported as
t * REFERENCE_QUIET_S / r: the time the same work would take on the
reference host in a quiet phase.
"""

from __future__ import annotations

import gc
import json
import math
import time
from fractions import Fraction

# CPU seconds of one reference_load() in a benchmark worker, between ops,
# on the reference host in a quiet phase (medians of 2.8-3.0 ms there).
REFERENCE_QUIET_S = 0.003


def reference_load() -> int:
    total = Fraction(0)
    for i in range(1, 360):
        total += Fraction(i % 7 + 1, i)
    acc = 0
    for q in (10007, 10009, 10037, 10039):
        for a in range(2, 120):
            acc += math.gcd(pow(a, q - 1, q * q) - 1, q * q)
    table = {f"k{i}": [i, str(i), (i % 5, i // 5)] for i in range(1200)}
    return total.denominator % 97 + acc + len(json.dumps(table))


def reference_s() -> float:
    """CPU seconds of one reference_load(), now.  The cyclic collector is
    paused meanwhile: its cost grows with the objects the process holds,
    which would make the reference depend on the program under test."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        reference_load()
        return time.process_time() - start
    finally:
        if paused:
            gc.enable()


def scale(reference: float) -> float:
    """The factor that takes a time measured next to a reference time
    of `reference` seconds to the reference host's quiet phase."""
    return REFERENCE_QUIET_S / reference
