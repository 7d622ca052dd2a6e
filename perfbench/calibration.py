"""The benchmark's measure of machine speed.

Built-in modules only: the set-up probe imports this module before it
times ``import lrflags``, and must load nothing that ``lrflags`` could
share with it.
"""

import gc
import time


def calibrate() -> float:
    """Seconds for a fixed loop of tuple and dict operations.

    The machine's speed drifts by tens of percent as other tenants come
    and go; this loop slows down with it but not with the program, so the
    benchmark scales its times by it (see run.py).
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection would scan the program's heap
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(8000):
            key = (i & 63, (i >> 6) & 7)
            counts[key] = counts.get(key, 0) + i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
