"""Host speed, sampled while a unit runs, so its times read at one speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts
by up to 2x within seconds and can stay off for minutes: on the 2-vCPU
reference box a fixed pure-Python loop took from 28 to 55 ms within one
40 s stretch, and one seeded unit of ``rpc-w3`` took from 2.4 to 3.9 s
while dispatching the same number of events to within 4%.  A median
over a run cannot cancel a drift that outlasts the run.

So every unit is timed together with the host's speed at the time.  A
``SIGALRM`` timer interrupts the unit every ``INTERVAL_S`` and times a
fixed probe of interpreter work (heap, dict and attribute operations, the
simulator's staples).  A span of ``t`` seconds over which ``n`` probes
took ``c_1 .. c_n`` is reported as::

    (t - (c_1 + .. + c_n)) * mean(REFERENCE_PROBE_S / c_i)

the time the span would have taken at the speed at which one probe
takes ``REFERENCE_PROBE_S``: host seconds on a steady reference box.
The probes' own time is taken out first; they cost about 1% of a unit.
A change that makes the program do less work lowers these times just as
it lowers raw ones; a change of host speed does not move them.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from dataclasses import dataclass

#: Seconds between probes.
INTERVAL_S = 0.02
#: Seconds before the first probe, so even a short span gets one.
FIRST_PROBE_S = 1e-4
#: Probe time at the reference speed, about the median probe of an
#: ``rpc-w3`` unit on the 2-vCPU reference box in a fast stretch, so
#: reported times read close to raw ones there.  Fixed for good: every
#: reported time scales with it.
REFERENCE_PROBE_S = 1.6e-4
#: Loop trips of one probe.
PROBE_TRIPS = 200


class _Slot:
    __slots__ = ("value", "total")


def probe() -> int:
    """A fixed amount of interpreter work, like an event loop's."""
    heap = []
    table = {}
    slot = _Slot()
    slot.value = 1
    slot.total = 0
    for i in range(PROBE_TRIPS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 63] = slot.value + i
        slot.value = table[i & 63] & 1023
        slot.total += len(heap)
    while heap:
        heapq.heappop(heap)
    return slot.total


@dataclass(frozen=True)
class Speed:
    """How fast the host ran over a span, and what the probes took of it."""

    #: Mean of ``REFERENCE_PROBE_S / c_i``: above 1 on a fast host.
    factor: float
    #: Wall time the probes added to the span.
    probe_wall_s: float
    #: CPU time the probes took.
    probe_cpu_s: float
    probes: int

    def wall(self, seconds: float) -> float:
        """A wall time of the span, at the reference speed."""
        return (seconds - self.probe_wall_s) * self.factor

    def cpu(self, seconds: float) -> float:
        """A CPU time of the span, at the reference speed."""
        return (seconds - self.probe_cpu_s) * self.factor


def of_samples(samples: list) -> Speed:
    if not samples:
        raise RuntimeError("no host-speed probe ran in the span")
    spent = sum(samples)
    factor = statistics.fmean(REFERENCE_PROBE_S / c for c in samples)
    return Speed(factor, spent, spent, len(samples))


def of_parallel(speeds: list) -> Speed:
    """One speed for processes that ran side by side over the same span:
    each one's probes delayed it, so the span by about their mean, while
    their CPU adds up."""
    probes = sum(s.probes for s in speeds)
    return Speed(
        factor=sum(s.factor * s.probes for s in speeds) / probes,
        probe_wall_s=statistics.fmean(s.probe_wall_s for s in speeds),
        probe_cpu_s=sum(s.probe_cpu_s for s in speeds),
        probes=probes,
    )


class Sampler:
    """Probes the host's speed on a timer while a span of work runs.

    One sampler at a time per process: it owns ``SIGALRM`` and the real
    interval timer from ``start()`` to ``stop()``.
    """

    def __init__(self):
        self._samples = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self._samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, FIRST_PROBE_S, INTERVAL_S)

    def stop(self) -> Speed:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return of_samples(self._samples)
