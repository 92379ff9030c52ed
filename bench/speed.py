"""Machine-speed reference for the end-to-end timings.

On a shared virtual machine the same Python code runs up to 1.8x slower
for stretches that last from seconds to minutes, with no steal time visible
to the guest.  The fastest of many passes removes the short stretches but
not a run that falls wholly inside a long one.  So the benchmark also times
this fixed kernel (integer elimination, Fraction sums, dict churn and a
small numpy expression: the kind of work reebmin does, but none of
reebmin's code) between passes, and scales its fastest timings by
NOMINAL_MS / (the kernel's fastest time in the same run).  A slower or
faster program moves the scaled figures; a slower machine mostly does not.
The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

import numpy as np

# the kernel's fastest time on a 2-vCPU Xeon VM at 2.1 GHz in a quiet stretch
NOMINAL_MS = 1.4
SAMPLES = 5


def _kernel():
    rng = random.Random(7)
    m = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(7)]
    for _ in range(30):
        a = [row[:] for row in m]
        prev = 1
        for k in range(6):
            if a[k][k] == 0:
                a[k][k] = 1
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
    s = Fraction(0)
    for x in range(2, 300):
        s += Fraction(1, x)
    d = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i
    x = np.arange(20000, dtype=float)
    return s, float((x * 1.5 + np.round(x / 3)).sum())


def reference_ms() -> float:
    """Fastest of a few back-to-back runs of the kernel, in ms.

    The collector is off meanwhile, so the heap the benchmark has built up
    does not slow the kernel down.
    """
    times = []
    gc.disable()
    try:
        for _ in range(SAMPLES):
            t0 = perf_counter()
            _kernel()
            times.append((perf_counter() - t0) * 1000.0)
    finally:
        gc.enable()
    return min(times)
