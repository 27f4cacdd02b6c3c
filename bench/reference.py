"""A fixed yardstick for the speed of the CPU a run gets.

The benchmark runs on a few cores of a shared host. Their speed drifts by
a third over seconds to minutes while user time tracks wall time, so a run
cannot tell its own slow-down apart from the program's. The benchmark
therefore brackets every verdict with blocks of this reference work, which
does not use lockstep, and scales the verdict's wall time to the speed at
which one reference unit takes ``NOMINAL_S`` seconds. A change to lockstep
does not change the reference, so the scaled times compare commits.

The reference is the same kind of work as the checker's: a depth-first
search over immutable tuple states with a dict memo.
"""

from __future__ import annotations

import statistics
import time

# Scaled times read as seconds at the speed where one unit takes this long.
NOMINAL_S = 0.1

# Reference time spent after each verdict, as a share of the verdict's time.
SHARE = 0.25


def unit():
    """One unit of reference work: DFS over four counters mod 12 and their
    running XOR. Returns the number of states, which is fixed."""
    start = (0, 0, 0, 0, (0,))
    seen = {start: None}
    stack = [start]
    while stack:
        s = stack.pop()
        for i in range(4):
            v = (s[i] + 1) % 12
            t = s[:i] + (v,) + s[i + 1:4] + ((s[4][0] ^ v,),)
            if t not in seen:
                seen[t] = s
                stack.append(t)
    return len(seen)


def block(budget_s):
    """Run reference units for about ``budget_s`` seconds, at least one;
    return their median time."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds, before, after):
    """``seconds`` measured between reference blocks of median ``before``
    and ``after``, scaled to the nominal speed."""
    return seconds * NOMINAL_S / (before * after) ** 0.5
