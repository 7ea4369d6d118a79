"""Host-speed calibration: a fixed reference task timed between items.

The benchmark's development machine is a shared VM whose speed drifts by up
to a factor of two over minutes, with process CPU time moving with wall time.
No statistic taken over the library's items alone can tell such drift from a
change in the library. So every timed run also times a fixed reference task,
in short samples spread over the run, and reports each timing scaled to the
speed the reference task has on the development machine:

    reported time = measured time * REF_TASK_S / (mean reference time nearby)

where "nearby" is the ``2 * WINDOW + 1`` samples centred on the one taken
just before the item, half a second to a second of the run.

The reference task is benchmark code, so no change to the library moves it.
It does the kind of work the library does (exact ``Fraction`` elimination
and products of large integers) in about 2 ms.

A sample is taken before every ``every``-th item, never on a timer. A timer
that runs out while the process waits for the processor is only seen when
the process runs again, at the start of a fresh time slice, so timed samples
would miss exactly the waits they are there to measure. An item boundary
falls anywhere in the process's running time, and so does a sample taken
there. The mean of the samples, not their median, is the slowdown the items
around them saw: a sample that waited stands for items that waited.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from time import perf_counter

# Mean duration of ``reference_task`` on the development machine (2-core VM,
# Python 3.11). Only ratios of runs made with one value are ever compared.
REF_TASK_S = 0.0018
WINDOW = 5  # samples on each side of an item's own sample

_MATRIX = tuple(tuple(Fraction((7 * i + 3 * j) % 11 - 5, (i + 2 * j) % 4 + 1) for j in range(8)) for i in range(6))
_POLY = tuple((-1) ** k * (5 ** k + k) for k in range(16))
_EXPECT = (6, 343659)


def reference_task():
    """Reduce a fixed 6 x 8 Fraction matrix and square a fixed integer polynomial."""
    m = [list(r) for r in _MATRIX]
    rk = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = 1 / m[rk][c]
        m[rk] = [a * inv for a in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    q = [0] * (2 * len(_POLY) - 1)
    for i, a in enumerate(_POLY):
        for j, b in enumerate(_POLY):
            q[i + j] += a * b
    return rk, sum(q) % 1000003


class Calibration:
    """Reference-task samples of one run."""

    def __init__(self, every=1):
        self.every = every
        self.samples = []
        self.items = 0

    def sample(self):
        t0 = perf_counter()
        result = reference_task()
        self.samples.append(perf_counter() - t0)
        if result != _EXPECT:
            raise SystemExit(f"reference task gave {result}, not {_EXPECT}")

    def tick(self):
        """Call before each item: takes a sample before every ``every``-th
        item and returns the index of the last sample taken."""
        if self.items % self.every == 0:
            self.sample()
        self.items += 1
        return len(self.samples) - 1

    def factors(self):
        """Per sample, ``REF_TASK_S`` over the mean of the samples within
        ``WINDOW`` of it."""
        n = len(self.samples)
        prefix = [0.0, *accumulate(self.samples)]
        out = []
        for k in range(n):
            lo, hi = max(0, k - WINDOW), min(n, k + WINDOW + 1)
            out.append(REF_TASK_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out

    def factor(self):
        """``REF_TASK_S`` over the mean of all samples."""
        return REF_TASK_S * len(self.samples) / sum(self.samples)
