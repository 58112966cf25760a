"""Correct timings for the speed of a shared host.

On a machine shared with other tenants the same code runs up to twice as
slowly for stretches of seconds to minutes, which no statistic over one run
removes.  A fixed reference computation, independent of gridtext, is timed
right before and after each timed unit of work; the unit's time is scaled by
``REF_SECONDS`` over the mean of those two probes.  A change to gridtext
moves the unit's time and not the probe's, so it shows in full.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The probe's duration on the machine the benchmark was tuned on
# (a 2-vCPU VM, Python 3.11, NumPy 2.4) at its fastest.
REF_SECONDS = 0.0087

_ROW = np.linspace(0.0, 1.0, 100, dtype=np.float32)


def _reference() -> int:
    # The kinds of work gridtext does: a small edit-distance table, tuple
    # keys in a dict, and tiny NumPy reductions.
    a = [(i * 7919) % 23 for i in range(40)]
    b = [(i * 104729) % 23 for i in range(40)]
    prev = list(range(len(b) + 1))
    for x in a:
        cur = [prev[0] + 1]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    table: dict[tuple[int, int], float] = {}
    for i in range(1500):
        key = (i % 61, i % 67)
        table[key] = table.get(key, 0.0) + i * 0.5
    total = 0
    for i in range(300):
        total += int(np.argmax(_ROW[i % 7 :]))
    return prev[-1] + len(table) + total


def probe() -> float:
    """Seconds eight runs of the reference computation take now.

    The garbage collector is off, so the program's own heap does not slow
    the probe.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(8):
            _reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A unit's time at reference host speed, from the probes around it."""
    return seconds * REF_SECONDS / (0.5 * (before + after))
