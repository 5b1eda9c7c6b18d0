"""Host-speed scaling: the arithmetic, and the sampler's timer and signal.

    python3 -m pytest perfbench/tests/test_hostspeed.py -q
"""

from __future__ import annotations

import signal
import time

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REFERENCE_PROBE_S as REF


def test_a_span_reads_at_the_reference_speed_without_its_probes():
    # One probe at the reference speed, one twice as slow: the host ran at
    # 0.75 of the reference on average over the span.
    speed = hostspeed.of_samples([REF, 2 * REF])
    assert speed.factor == pytest.approx(0.75)
    assert speed.probes == 2
    assert speed.wall(1.0) == pytest.approx((1.0 - 3 * REF) * 0.75)
    assert speed.cpu(1.0) == speed.wall(1.0)


def test_parallel_workers_share_the_span_but_add_up_their_cpu():
    fast = hostspeed.Speed(factor=1.0, probe_wall_s=0.01, probe_cpu_s=0.01, probes=30)
    slow = hostspeed.Speed(factor=0.5, probe_wall_s=0.03, probe_cpu_s=0.03, probes=10)
    both = hostspeed.of_parallel([fast, slow])
    assert both.factor == pytest.approx((1.0 * 30 + 0.5 * 10) / 40)
    assert both.probe_wall_s == pytest.approx(0.02)
    assert both.probe_cpu_s == pytest.approx(0.04)
    assert both.probes == 40


def test_a_span_without_probes_is_refused():
    with pytest.raises(RuntimeError):
        hostspeed.of_samples([])


def test_sampler_probes_a_busy_span_and_hands_back_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    sampler.start()
    end = time.perf_counter() + 10 * hostspeed.INTERVAL_S
    while time.perf_counter() < end:
        pass
    speed = sampler.stop()
    assert speed.probes >= 5
    assert 0 < speed.probe_wall_s < 10 * hostspeed.INTERVAL_S
    assert speed.factor > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
