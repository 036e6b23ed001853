"""Host-speed sampling inside a benchmark child.

The benchmark host is a shared virtual machine whose speed changes by up
to a factor of two within seconds.  A timer interrupts the child every
PERIOD_S and times one sample of two kinds of work, neither of which calls
polarlab: LOOKUPS dict lookups of int keys in a table of about 2 MB, in a
fixed shuffled order, then LOOP_STEPS steps of integer arithmetic.  The
lookups slow with the host's cache contention, the loop with its plain
speed; polarlab's work slows with both, and each kind alone over- or
under-corrected in some stretches.  A time measured in the child is then
reported in reference seconds: the measured time, less the samples taken
within it, times REF_S over the mean sample taken within it.  A slower
polarlab makes the measured time longer and leaves the samples as they
were, so the scaled time shows it in full.  README.md ("Host speed") gives
the measurements behind this.
"""

from __future__ import annotations

import random
import signal
import time

TABLE_SIZE = 20000  # keys of the sampled table
LOOKUPS = 1000      # lookups per sample
LOOP_STEPS = 3000   # integer arithmetic steps per sample
PERIOD_S = 0.02     # one sample per 20 ms of the child's run time
REF_S = 0.0008      # one sample on the reference machine in its usual state
MIN_SAMPLES = 5     # an interval with fewer uses the latest MIN_SAMPLES


class Sampler:
    """Start once per process; take `i = sampler.mark()` before an
    interval and `sampler.window(i)` after it."""

    def __init__(self):
        self.samples: list[float] = []
        self.build_s = 0.0          # time start() took to build the table
        self._table: dict[int, int] = {}
        self._order: list[int] = []
        self._pos = 0

    def start(self):
        start = time.perf_counter()
        self._table = {(k * 2654435761) & 0xFFFFFFF: k for k in range(TABLE_SIZE)}
        self._order = random.Random(1).sample(list(self._table), TABLE_SIZE)
        self.build_s = time.perf_counter() - start
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        table, pos = self._table, self._pos
        acc = 0
        for key in self._order[pos:pos + LOOKUPS]:
            acc += table[key]
        for i in range(LOOP_STEPS):
            acc += i * i & 1023
        self._pos = (pos + LOOKUPS) % TABLE_SIZE
        self.samples.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.samples)

    def window(self, since: int = 0) -> tuple[float, float]:
        """(scale, seconds sampled) for the samples from index `since` on:
        REF_S over their mean, and the time they took.  A time t measured
        over that window is (t - seconds sampled) * scale reference
        seconds."""
        inside = self.samples[since:]
        basis = inside if len(inside) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        scale = REF_S * len(basis) / sum(basis) if basis else 1.0
        return scale, sum(inside)
