"""Host-speed calibration for the benchmark's times.

On a shared host the speed of the CPU the benchmark gets swings by tens of
percent for stretches of seconds to minutes, and isoact's suites slow down
with it.  A ``HostClock`` measures that swing while the program runs: a
timer signal interrupts the main thread every ``PERIOD`` seconds and times
one fixed probe (pure-Python integer work, ``Fraction`` arithmetic, dict
and tuple allocation, small numpy products: the kinds of work isoact
does).  ``scaled`` turns the time the program spent in an interval into
reference seconds, the time it would have taken on a host where the probe
takes ``PROBE_REF_S``:

    scaled = (elapsed - probe time inside the interval) * mean(PROBE_REF_S / probe)

over the probes taken inside the interval, the highest and lowest tenth
dropped; an interval holding fewer than ``MIN_PROBES`` is widened by
``PERIOD`` at both ends until it holds enough.  Probes are evenly spaced
in time, so the mean of their speeds is the host's mean speed over the
interval.  The probe is fixed benchmark code, so a change to isoact moves
the scaled time exactly as it moves the work done.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD = 0.1
MIN_PROBES = 3
MAX_MARGIN = 5.0
TRIM = 0.1
WARMUP = 5
BURST = 8
# The median probe time on the host the bounds were set on (see README.md).
PROBE_REF_S = 0.0025


def probe(matrix) -> float:
    """Seconds taken by one fixed unit of mixed Python and numpy work on an 8x8 ``matrix``."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    acc = Fraction(0)
    table = {}
    for i in range(1, 500):
        acc += Fraction(i % 13, 1 + i % 7)
        table[(i, i % 5)] = [i, total]
    product = matrix
    for _ in range(250):
        product = matrix @ product * 0.5
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class HostClock:
    """Probes the host's speed every ``PERIOD`` seconds while running."""

    def __init__(self):
        # Imported here, after run.py has pinned numpy's thread pools.
        import numpy

        self.matrix = numpy.linspace(-1.0, 1.0, 64).reshape(8, 8)
        self.probes = []  # (start, seconds) of each probe, in time order
        self._previous = None
        for _ in range(WARMUP):
            probe(self.matrix)

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probes.append((start, probe(self.matrix)))

    def burst(self, count: int = BURST) -> None:
        """Probe ``count`` times back to back, for work that runs outside this process.

        Timer probes taken while this process waits for a child time a
        cold, just-woken process, not the host, so such intervals are
        bracketed by bursts instead, on a clock that is not running.
        """
        for _ in range(count):
            self._tick()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: float, end: float) -> float:
        """Trimmed mean of ``PROBE_REF_S / probe`` over the probes in ``[start, end]``."""
        margin = 0.0
        while True:
            speeds = sorted(
                PROBE_REF_S / seconds
                for at, seconds in self.probes
                if start - margin <= at <= end + margin
            )
            if len(speeds) >= MIN_PROBES:
                break
            if margin >= MAX_MARGIN:
                raise RuntimeError(f"under {MIN_PROBES} host-speed probes within {margin} s")
            margin += PERIOD
        cut = int(len(speeds) * TRIM)
        kept = speeds[cut : len(speeds) - cut]
        return sum(kept) / len(kept)

    def scaled(self, start: float, end: float, busy: float = None) -> float:
        """Reference seconds of ``[start, end]``, or of ``busy`` seconds of work within it."""
        if busy is None:
            inside = sum(s for at, s in self.probes if start <= at < end)
            busy = end - start - inside
        return busy * self.speed(start, end)
