"""Measurement helpers: fixed-memory latency samples, the reference loop
that tracks the machine's speed, and the relative gap used by output checks.

A sample buffer is allocated and touched when the sample set is created, during
set-up, so the process's peak resident memory does not grow with the number
of operations a run completes (a faster program completes more). Past
`capacity` samples, reservoir sampling with a seeded generator keeps a
uniform subsample; the count and the sum stay exact.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from array import array

CAPACITY = 100_000


class Samples:
    def __init__(self, seed: str, capacity: int = CAPACITY) -> None:
        self._buffer = array("q", bytes(8 * capacity))
        self._rng = random.Random(seed)
        self.capacity = capacity
        self.count = 0
        self.total = 0

    def add(self, value: int) -> None:
        k = self.count
        self.count = k + 1
        self.total += value
        if k < self.capacity:
            self._buffer[k] = value
        else:
            slot = self._rng.randrange(k + 1)
            if slot < self.capacity:
                self._buffer[slot] = value

    def values(self) -> list[int]:
        return list(self._buffer[:min(self.count, self.capacity)])

    def median(self) -> float:
        return statistics.median(self.values())

    def trimmed_mean(self, cut: float = 0.2) -> float:
        """Mean of the values left after dropping `cut` of them at each end."""
        ordered = sorted(self.values())
        k = int(len(ordered) * cut)
        return statistics.fmean(ordered[k:len(ordered) - k] or ordered)

    def __len__(self) -> int:
        return self.count


# The reference loop is plain Python (float arithmetic, tuple building,
# function calls), independent of ammlab, so no change to the package moves
# it. The machine's effective speed drifts by 20% and more over seconds when
# other work shares its cores, and the loop slows with it. A run interleaves
# the loop with its timed work and reports timings multiplied by
# speed_factor(loop samples), i.e. as they would read with the loop at its
# nominal speed. The loop runs on one thread: on several threads it is
# dominated by interpreter-lock hand-offs and tracks the machine worse.
REFERENCE_NOMINAL_NS = 2_000_000


def reference_loop() -> int:
    """Run the fixed reference loop once; return its wall time in ns."""
    start = time.perf_counter_ns()
    acc = 0.0
    scales = (1.0, 2.0, 3.0)
    for k in range(1, 1500):
        terms = tuple(s * k for s in scales)
        acc += math.fsum(terms) / (k + 1.0) + math.sqrt(k)
    return time.perf_counter_ns() - start


def speed_factor(loop: Samples) -> float:
    """REFERENCE_NOMINAL_NS over the typical loop time. Every timed request
    lasts 10 ms or more and so averages over the machine's fast and slow
    stretches; the typical loop is therefore a trimmed mean, which moves
    smoothly with the mix of stretches, where the median jumps between
    them."""
    return REFERENCE_NOMINAL_NS / loop.trimmed_mean()


def relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0
