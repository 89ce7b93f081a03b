"""Machine-speed reference for normalizing op times.

The CPU speed this benchmark sees can drift by tens of percent within a
second on a shared host, which swamps the differences between two versions
of the program. So the worker times a fixed reference kernel (pure Python,
no crossmod code) every REFERENCE_EVERY_S seconds between ops, and scales
each op's measured latency by NOMINAL_S / (latest kernel time): the result
is the latency the op would have at the speed at which the kernel takes
NOMINAL_S. The latest sample tracks the drift better than a median over a
longer window. Raw wall-clock figures are printed beside the normalized ones.

The kernel mixes the two kinds of work the program does: exact rational
arithmetic (allocation and gcd) and interpreted loops of small-integer
method calls over tuples.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import exact

NOMINAL_S = 2.5e-3          # typical kernel time on one 2.1 GHz Xeon core
REFERENCE_EVERY_S = 0.05

_rng = random.Random(0)
_Q = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(8)] for _ in range(8)]
_Z = [[(i * 7 + j * 3) % 5 for j in range(12)] for i in range(12)]


class _Ring:
    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


_RING = _Ring()


def kernel():
    exact.matmul(_Q, _Q)
    f = _RING
    for _ in range(4):
        tuple(tuple(_dot(f, _Z[i], j) for j in range(12)) for i in range(12))


def _dot(f, row, j):
    acc = 0
    for k in range(12):
        acc = f.add(acc, f.mul(row[k], _Z[k][j]))
    return acc


class Speed:
    """The latest kernel timing and the scale factor it gives."""

    def __init__(self):
        self.latest = None
        self.last = float("-inf")

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.latest = self.last - t0
        return self.latest

    def tick(self):
        """Sample the kernel when the last sample is older than the interval."""
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return NOMINAL_S / self.latest

    def settled_scale(self, warmup=3, n=9) -> float:
        """The scale from the median of n samples taken now, after a few
        unrecorded ones: the first calls in a fresh process run slow."""
        for _ in range(warmup):
            self.sample()
        return NOMINAL_S / statistics.median(self.sample() for _ in range(n))
