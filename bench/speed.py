"""How fast the host runs, sampled through a pass, and times scaled by it.

On a shared host other tenants can slow the processor by half or more, for
seconds or minutes at a time, so two runs of the same code can differ by
more than any bound worth setting. The sampler measures that slowdown while
the program runs: a ``SIGALRM`` interval timer runs ``probe``, a fixed piece
of work that calls no ringlab code, every ``INTERVAL_S`` of wall time, in
the main thread between two bytecodes of whatever the program is doing.

A timed interval is then reported twice: its *net* seconds, less the time
the probes inside it took, and the probe times sampled in it and next to
it. ``at_reference_speed`` scales net seconds to the speed at which the
probe takes ``REFERENCE_PROBE_S``: work that took ``t`` while the probe took
``k`` times that would have taken ``t / k``. Times so scaled measure the
program's own cost, in seconds of a host running at the reference speed,
whatever share of the processor the other tenants leave it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# About half a millisecond of work on a current x86 core.
PROBE_ITERATIONS = 600
INTERVAL_S = 0.02
# The probe's time at the reference speed: close to its fastest on the
# 2-vCPU Xeon host, running Python 3.11, on which the bounds were set.
REFERENCE_PROBE_S = 0.35e-3


def probe() -> float:
    """Seconds a fixed piece of allocation-heavy work takes right now.

    The work is like ringlab's own (frozensets as dict keys, small tuples)
    but calls no ringlab code, so its time changes with the host's speed and
    not with the program. The collector is off while it runs, so the size of
    the program's heap does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        start = time.perf_counter()
        for i in range(PROBE_ITERATIONS):
            table[frozenset((i, i * 7 % 101, i * 13 % 997))] = tuple(range(i % 17))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs ``probe`` from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds.

    ``starts``, ``ends`` and ``probes`` hold, per sample, the
    ``perf_counter`` time the handler began and ended and the probe's own
    seconds. Use it in the main thread only, between ``start`` and ``stop``.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self._previous = None
        self._busy = False

    def start(self) -> None:
        """Take a first sample, so every later interval has one before it, and arm the timer."""
        probe()  # the first run of the probe in a process is slower than the rest
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer and take a last sample, so every interval has one after it.

        Does nothing if the sampler was not started.
        """
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self._sample(None, None)

    def _sample(self, _signum, _frame) -> None:
        if self._busy:  # a late alarm that arrived while probing
            return
        self._busy = True
        start = time.perf_counter()
        secs = probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.probes.append(secs)
        self._busy = False

    def measure(self, *spans: tuple[float, float]) -> tuple[float, list[float]]:
        """Net seconds of the ``(start, end)`` spans and the probe seconds that describe them.

        A span's probes are those sampled inside it and the nearest one on
        each side of it. Without samples, the net seconds are the plain ones.
        """
        net, probes = 0.0, []
        for start, end in spans:
            lo = bisect_left(self.starts, start)
            hi = bisect_right(self.starts, end)
            net += end - start - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
            probes += self.probes[max(lo - 1, 0):hi + 1]
        return net, probes

    def spent(self) -> float:
        """Seconds all samples so far took."""
        return sum(e - s for s, e in zip(self.starts, self.ends))


def at_reference_speed(net_s: float, probes: list[float]) -> float:
    """``net_s`` scaled to the speed at which the probe takes ``REFERENCE_PROBE_S``.

    The scale is the mean of ``REFERENCE_PROBE_S / p`` over the nearby
    probes: with probes spread evenly in time, that is the share of the
    reference speed the interval ran at.
    """
    return net_s * statistics.fmean(REFERENCE_PROBE_S / p for p in probes)
