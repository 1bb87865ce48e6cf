"""The machine's speed, gauged by a reference task timed between operations.

The host this benchmark was written on runs the same code up to twice as
slowly for stretches of seconds to minutes, as other guests load it.  A
fixed reference task, timed right before and right after an operation,
slows down with it, so an operation's time scaled by the reference's
nominal time over its measured time is nearly free of that drift.

The reference is half the benchmark's own brute-force closure of S1
(tuples, sets and small loops) and half a loop of integer arithmetic, the
two kinds of work the library does; on this host their sum slows down
with the library more closely than either part alone.  It runs none of
the library's code, so a change to the library does not move it.
"""

from __future__ import annotations

import statistics
import time

from inputs import CONES, S1, ConeTest, brute_gaps

# the reference: the closure of S1 up to REF_GRADE, then REF_LOOP rounds of
# integer arithmetic; its time at nominal speed (the faster of this host's
# speeds), and how often it runs at most
REF_GRADE = 100
REF_LOOP = 50_000
REF_NOMINAL_S = 0.007
REF_EVERY_S = 0.1


def reference(cone):
    brute_gaps(S1, cone, REF_GRADE)
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return total


class Gauge:
    """Reference times, in order; ``mark`` points between two of them."""

    def __init__(self):
        cone = ConeTest(CONES["s1cone"])
        self.reference = lambda: reference(cone)
        self.samples = []
        self.last = 0.0

    @property
    def mark(self):
        """The position of a timing that starts now: after every sample so far."""
        return len(self.samples)

    def sample(self):
        """Time the reference once."""
        start = time.perf_counter()
        self.reference()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def tick(self):
        """Time the reference if ``REF_EVERY_S`` has passed since it last ran."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def factor(self, mark):
        """The scale of a timing at ``mark``: nominal over the samples beside it."""
        near = self.samples[max(mark - 1, 0) : mark + 1]
        return REF_NOMINAL_S / statistics.fmean(near)
