"""A fixed reference loop that gauges how fast the host runs Python now.

On a shared host the same sample's wall time swings by up to 1.9x, in
phases that last from seconds to minutes, because the CPU itself runs
slower (see "Host noise" in ``README.md``).  A run's median wall time then
measures the phase it landed in more than the program.  The benchmark
therefore times this loop between slices of every timed sample and
reports wall times in *reference seconds*: the wall time the sample would
have taken had one call of the loop taken its nominal time.

The loop is pure interpreter work on a small fixed working set (slot
attribute reads and writes, dict lookups, int arithmetic), the same kinds
of work the simulator's event loop does.  It allocates no container, so it
cannot start a garbage collection.  It lives in the benchmark, not in the
program, so a change to the program leaves it alone.
"""

from __future__ import annotations

import time

#: Iterations in one timed call of :func:`reference_loop`.
ITERATIONS = 20_000
#: Iterations that make one reference second.  On the 2-core Xeon VM the
#: benchmark was built on, one reference second is about one wall second
#: in the host's faster phases.
ITERATIONS_PER_REF_S = 5_000_000

_TABLE = {i: 3 * i for i in range(4096)}


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0


_SLOTS = [_Slot(i) for i in range(256)]


def reference_loop() -> float:
    """Runs :data:`ITERATIONS` iterations; returns the wall seconds taken."""
    table = _TABLE
    slots = _SLOTS
    total = 0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        slot = slots[i & 255]
        total += table[(slot.key * 17 + i) & 4095]
        slot.value = total & 1023
    return time.perf_counter() - start


def ref_seconds(wall_s: float, call_s: float) -> float:
    """``wall_s`` wall seconds, taken while one loop call took ``call_s``,
    in reference seconds."""
    return wall_s * ITERATIONS / (call_s * ITERATIONS_PER_REF_S)
