"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds, so raw times of the same code differ from run to run
by more than any bound worth having. A fixed pure-Python kernel, which uses no
``ducg`` code, is timed before every invocation and every ``EVERY_LINES``
lines the program pulls, outside every timed interval. Both are fixed points
of the input, so the kernel's cache traffic disturbs the same ticks in every
run. Each end-to-end time taken over an interval is then scaled by
``REFERENCE_S / k``, where ``k`` is the median kernel time from ``WINDOW_S``
seconds before the interval to ``WINDOW_S`` seconds after it: the time the
program would have taken at the host speed the reference was taken at.

The kernel has two halves, because the host's contention slows code that
stays in cache and code that misses it by different amounts, and the program
does both. One half does what the program does most: builds small frozen
dataclasses, dedups them in a dict, sorts them, sums floats. The other
follows a fixed 20,000-step path through a random cyclic permutation spread
over a 16 MiB array, so nearly every step misses the cache and the TLB.
Over a few seconds the program's time moves with the sum of the two about
one to one (slope 0.9-1.0 on long-stream, deep-expand and plant-narrowing
units on the 2-vCPU host), where either half alone gives 0.6 or 1.3. The
kernel uses its own objects with the cyclic garbage collector off, so
neither the program's heap nor its caches change the kernel's time: a
program that gets slower still reads slower. The array counts towards the
process's peak memory.
"""

from __future__ import annotations

import gc
import random
import statistics
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.008  # median kernel time over the baseline runs on the 2-vCPU host
EVERY_LINES = 1500  # also time the kernel before every this many lines pulled
WINDOW_S = 1.0  # kernel runs within this much time of an interval set its speed
CHAIN_STEPS = 20_000


@dataclass(frozen=True, order=True)
class _Literal:
    var: int
    state: int
    weight: float


def cyclic_chain(size: int, seed: int = 2) -> array:
    """A random cyclic permutation (Sattolo's algorithm): following
    ``i = chain[i]`` from any start visits every index once."""
    chain = array("l", range(size))
    rng = random.Random(seed)
    for i in range(size - 1, 0, -1):
        j = int(rng.random() * i)
        chain[i], chain[j] = chain[j], chain[i]
    return chain


def kernel(chain: array) -> float:
    """Seconds one fixed run of the calibration kernel takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rng = random.Random(5)
        total = 0.0
        for _ in range(4):
            items = [_Literal(rng.randrange(50), rng.randrange(5), rng.random()) for _ in range(300)]
            unique: dict[tuple[int, int], _Literal] = {}
            for item in items:
                unique.setdefault((item.var, item.state), item)
            total += sum(item.weight for item in sorted(unique.values()))
        i = 0
        for _ in range(CHAIN_STEPS):
            i = chain[i]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Kernel times over a run, and the speed factor they give each moment."""

    def __init__(self) -> None:
        self.chain = cyclic_chain(1 << 21)  # 16 MiB of 8-byte entries
        self.at: list[float] = []  # midpoint of each kernel run
        self.took: list[float] = []

    def run(self) -> float:
        """Time the kernel once; return the seconds spent here."""
        start = perf_counter()
        took = kernel(self.chain)
        self.at.append(start + took / 2)
        self.took.append(took)
        return perf_counter() - start

    def between(self, line: int) -> float:
        """Before line ``line`` of a feed is pulled: time the kernel on every
        ``EVERY_LINES``-th line; return the seconds spent (0.0 on others)."""
        return self.run() if line % EVERY_LINES == 0 else 0.0

    def factor(self, start: float, end: float | None = None) -> float:
        """``REFERENCE_S`` over the median kernel time of the runs from
        ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end`` (default:
        ``start``), or of the nearest run if none is that close; 1.0 if the
        kernel never ran."""
        if not self.at:
            return 1.0
        end = start if end is None else end
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            if lo == len(self.at) or (lo > 0 and start - self.at[lo - 1] < self.at[lo] - end):
                lo -= 1
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def speed_factors(self) -> list[float]:
        """The factor at every kernel run, for the run's notes."""
        return [self.factor(a) for a in self.at]
