"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by tens of percent over minutes
(CPU time tracks wall time, so it is not scheduling). A fixed chunk of stdlib
work that never touches fanoslope is timed in the same process, between
segments of about 0.1 s of the workload, and each segment's timings are
scaled to a host on which the chunk takes ``REFERENCE_CHUNK_S``. Drift then
cancels between runs; a change to fanoslope moves the scaled figures exactly
as it moves the raw ones, since the chunk does not depend on it. The report
prints the raw throughput and the measured speed too.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_CHUNK_S = 0.005


def chunk():
    """Time one fixed chunk of Fraction and dict work, with the collector
    paused so that the heap the workload left behind does not matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for i in range(1, 600):
            x = Fraction(i, i + 1) * Fraction(3, 7) - Fraction(i // 2, 5)
            table[x] = table.get(x, 0) + x.numerator % 7
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
