"""The tail order statistic and the machine-speed reference loop."""

from __future__ import annotations

import time

MIN_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest sample with MIN_BEYOND samples above it.

    That is the highest percentile with at least ten samples beyond it.  With
    few samples it sits below the median (p41 for 18), and with MIN_BEYOND or
    fewer it is the minimum.
    """
    xs = sorted(values)
    idx = max(len(xs) - 1 - MIN_BEYOND, 0)
    return xs[idx], 100.0 * idx / max(len(xs) - 1, 1)


REFERENCE_ITERATIONS = 60_000
REFERENCE_S = 0.0053  # reference_loop() on an idle core of the Xeon box, CPython 3.11


def reference_loop() -> float:
    """Seconds for a fixed interpreter loop: tuples, list appends, modulo.

    Timed between ops, it tracks how fast the machine runs Python code at
    that moment, which other tenants of a shared host change by tens of
    percent for seconds to minutes at a time.
    """
    start = time.perf_counter()
    acc = []
    for i in range(REFERENCE_ITERATIONS):
        acc.append((i, i % 7))
        if len(acc) == 512:
            acc.clear()
    return time.perf_counter() - start
