"""Core speed sampled during a run, to take the host's drift out of its times.

The benchmark runs on a few cores of a shared host, and their speed drifts by
tens of percent within seconds as other tenants load them: a fixed CPU loop
that takes 15 ms on a quiet core takes 24 ms under load, and two cores drift
independently, so a probe on another core cannot stand in for the core the
workload runs on.  So the probe runs on the same thread as the workload:
``Pacer`` interrupts the pass every INTERVAL_S with SIGALRM and times
``probe()`` once.  A pass's figure is its wall time minus the probes' time,
multiplied by the mean of ``REFERENCE_S / probe time``: the seconds the pass
would have taken on a core that runs ``probe()`` in REFERENCE_S.  (Samples are
uniform in wall time, and a stretch dt of wall time holds
dt * REFERENCE_S / probe time reference seconds, so the mean of the ratio is
the right average; a probe slowed by a stray pause adds close to nothing.)

``probe()`` is plain Python on dicts and tuples, like most of btamari's work.
Over the passes of one run it brought the spread of pass times from a
coefficient of variation of 4 to 14% down to 2 to 3%, where a probe on a
preallocated list of ints tracked the drift about half as well.  It runs with
the collector switched off, so that it never collects the workload's objects
and its time does not depend on the workload's heap.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Only figures taken with one value are compared, so it only sets the scale
# of the seconds.  On the 2-core x86-64 host the seed baseline was recorded
# on (CPython 3.11), probe() run back to back took 0.6 ms on a quiet core and
# 1.1 ms on a loaded one, and about 1.15 ms interleaved with a workload that
# leaves the caches cold; with 1 ms the scaled pass times came out within
# about 15% of the wall times there.  The scale of a sample taken back to
# back differs from that of a Pacer, so a figure is only ever compared with
# the same figure.
REFERENCE_S = 0.001
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes now, on this thread."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(3000):
        key = (i, i ^ 5, i & 7)
        table[key] = acc
        acc += key[0] * key[2] % 11
    elapsed = time.perf_counter() - start
    del table
    if enabled:
        gc.enable()
    return elapsed


def speed_factor(samples: list[float]) -> float:
    """Reference seconds per wall second, from probe times."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


def sample_factor() -> float:
    """Speed factor from 40 probes run back to back, about 60 ms."""
    return speed_factor([probe() for _ in range(40)])


class Pacer:
    """Probes the core every INTERVAL_S of wall time while it is running.

    Use as ``with Pacer() as pacer: ...``; afterwards ``pacer.wall_s`` is the
    block's wall time, probes included, and ``pacer.scaled()`` its figure.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0
        self.wall_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        # The first probe comes almost at once, so that every block has one.
        signal.setitimer(signal.ITIMER_REAL, 0.001, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        # Stop the timer before reading the clock, so that a probe still
        # pending runs inside the interval it is subtracted from.
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self) -> float:
        """The block's wall time without the probes, at the reference speed."""
        return (self.wall_s - self.spent) * speed_factor(self.probes)
