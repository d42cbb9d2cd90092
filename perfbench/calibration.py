"""The speed of the CPU at this moment, from a fixed pure-Python kernel.

On a shared host, other tenants slow a CPU down to about half speed for
stretches of a tenth of a second to minutes, and how much of a run falls in
the slow stretches changes from one run to the next. So the benchmark times
this kernel just before and just after every operation and divides the
operation's time by the kernel's: what is left is the work done, whatever
the speed it was done at. Multiplied by REFERENCE_S, it reads as the seconds
the operation takes at the reference speed.

The kernel does what faultring's engines do, big-integer arithmetic, list
and dict indexing and Fraction reduction, and nothing of faultring itself,
so no change to the package changes it. This module imports nothing from
the package, so that a fresh interpreter can time itself before importing it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's time on an Intel Xeon KVM guest with Python 3.11.7 at full
# speed. Changing it rescales every normalised metric; keep it fixed.
REFERENCE_S = 5.0e-5
REPEATS = 3


def kernel() -> Fraction:
    x, table = 1, [0] * 64
    for i in range(400):
        x = x * 3 + i
        table[i & 63] = x & 0xFFFF
    counts = {k: table[k] for k in range(0, 64, 4)}
    return Fraction(x, 7) + Fraction(sum(counts.values()), 3)


def kernel_seconds() -> float:
    """The fastest of REPEATS kernel runs: the CPU's speed now, as a time."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def reference_seconds(seconds: float, kernel_s: float) -> float:
    """Seconds measured while the kernel took kernel_s, at the reference speed."""
    return seconds / kernel_s * REFERENCE_S
