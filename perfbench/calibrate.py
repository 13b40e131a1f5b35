"""Measure how fast this process's CPU runs while the workload runs.

On a shared host the same repetition can take anywhere from 1x to 2x its
quiet time, depending on what other tenants do, in phases that last from
under a second to tens of seconds.  ``SpeedSampler`` times a fixed sliver
of pure-Python reference work from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time, in the same process and so on the same CPU as
the workload.  The time spent in the handler is subtracted from the timed
regions, and the mean sample time over a region gives the speed the region
ran at.  Multiplying a measured time by ``REFERENCE_S / mean sample`` gives
the time at the reference speed.  The reference work touches no program
code, so no change to the program can change it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# Mean sample time on an idle 2-core Xeon VM (2.0 GHz, Python 3.11).
REFERENCE_S = 0.0005


def _work() -> float:
    acc = 0.0
    table = {}
    for i in range(1200):
        x = (i * 0.5 + acc) % 7.0
        table[i & 31] = x
        acc += x * 0.25 - table.get((i + 1) & 31, 0.0) * 0.125
    return acc


class SpeedSampler:
    """Samples the reference work from a timer signal while active.

    ``mark()`` starts a region; ``region()`` returns, for the region since
    the last mark, the elapsed wall time minus handler time and the mean
    reference sample time (``None`` when no sample fell in the region).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._mark = (0.0, 0, 0.0)
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.mark()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> None:
        self._mark = (time.perf_counter(), len(self.samples), self.spent)

    def region(self) -> tuple[float, float | None]:
        now = time.perf_counter()
        t0, n0, spent0 = self._mark
        samples = self.samples[n0:]
        busy = now - t0 - (self.spent - spent0)
        return busy, (sum(samples) / len(samples) if samples else None)
