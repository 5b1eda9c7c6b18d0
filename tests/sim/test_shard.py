"""Differential tests for the sharded conservative-PDES kernel.

The central claim of :mod:`repro.sim.shard` is that the partitioning is
unobservable: a loaded cluster run under 1, 2 and 4 time domains (and on
either carrier) produces bit-identical delivery order, books, slowdown
statistics and event totals.  These tests run the claim directly over
seeded workloads; on a mismatch they print a ``REPRODUCING SEED`` line
naming the exact seed so the failure replays from one number.
"""

import math
import signal
from contextlib import contextmanager

import pytest

from repro.errors import SimulationError
from repro.load.distributions import HOMA_W4
from repro.load.shard import (
    measure_baselines,
    merge_load_results,
    merged_requests_served,
)
from repro.net.headers import IPv4Header, TransportHeader
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.sim.shard import ShardPlan, ShardRunner
from repro.sim.shard.boundary import (
    OutboundQueue,
    decode_batch,
    encode_message,
    merge_batches,
)
from repro.sim.shard.runner import next_window

WORKLOAD = "repro.load.shard:build_domain_workload"
#: Test workloads below, resolved by name like any shard workload factory.
HERE = "tests.sim.test_shard"
#: Linux's largest default pipe buffer; a larger blob cannot be written
#: unless the peer reads concurrently.
PIPE_BUFFER = 256 * 1024


@contextmanager
def _deadline(seconds):
    """Fail (instead of hanging the suite) if the block outlives ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _probe_packet(src, dst, size=0, msg_id=0):
    # Protocol 17 has no transport on a shard host: a delivered probe is
    # counted in the receiving host's rx_dropped and goes no further.
    return Packet(
        IPv4Header(src, dst, 17, 0), TransportHeader(7, 9, msg_id), bytes(size)
    )


class _Burst:
    """Domains 0 and 1 each send the other ``count`` boundary packets of
    ``size`` payload bytes in one window; done once handed the peer's."""

    def __init__(self, domain, args):
        self.expected = args["count"]
        self.received = 0
        plan = domain.plan
        peer = 1 - domain.domain
        src = plan.addr_of(domain.local_racks[0], 0)
        dst = plan.addr_of(plan.racks_of_domain(peer)[0], 0)
        deliver = domain.fabric.deliver

        def counted(spine, packet, arrival, seq):
            self.received += 1
            deliver(spine, packet, arrival, seq)

        def burst():
            for i in range(self.expected):
                packet = _probe_packet(src, dst, args["size"], i)
                # Arrivals spread out so the spine buffers never overflow.
                arrival = domain.loop.now + plan.lookahead + i * 1e-6
                domain.outbound.emit(peer, 0, packet, domain.loop.now, arrival)

        domain.fabric.deliver = counted
        domain.loop.call_later(1e-9, burst)

    def done(self):
        return self.received == self.expected

    def result(self):
        return self.received


def burst_workload(domain, args):
    return _Burst(domain, args)


class _NeverDone:
    def done(self):
        return False

    def result(self):
        return None


def failing_workload(domain, args):
    if domain.domain == args["fail"]:
        raise RuntimeError("workload factory failed on purpose")
    return _NeverDone()


class _EdgeProbe:
    """Domain 0 sends one boundary packet at exactly ``args["at"]``, when
    nothing else is pending anywhere; domain 1 records the virtual time
    at which the packet was injected and whether its host received it."""

    def __init__(self, domain, args):
        self.domain = domain
        self.record = None
        plan = domain.plan
        if domain.domain == 0:
            src = plan.addr_of(0, 0)
            dst = plan.addr_of(plan.racks_of_domain(1)[0], 0)

            def emit():
                now = domain.loop.now
                arrival = now + plan.lookahead  # as a trunk port computes it
                domain.outbound.emit(1, 0, _probe_packet(src, dst), now, arrival)
                self.record = (now, arrival)

            domain.loop.call_at(args["at"], emit)
        else:
            deliver = domain.fabric.deliver

            def counted(spine, packet, arrival, seq):
                self.record = (domain.loop.now, arrival)
                deliver(spine, packet, arrival, seq)

            domain.fabric.deliver = counted

    def done(self):
        if self.domain.domain == 0:
            return self.record is not None
        return sum(host.rx_dropped for host in self.domain.hosts) == 1

    def result(self):
        return self.record


def edge_workload(domain, args):
    return _EdgeProbe(domain, args)


def _loaded_signature(plan, domains, system, seed, baselines, duration=4e-5,
                      use_processes=False):
    """Everything observable about one sharded loaded run, as one tuple."""
    args = {
        "system": system,
        "distribution": HOMA_W4,
        "load": 0.5,
        "duration": duration,
        "seed": seed,
        "baselines": baselines,
    }
    run = ShardRunner(
        plan.with_domains(domains),
        workload_factory=WORKLOAD,
        workload_args=args,
        use_processes=use_processes,
    ).run()
    merged = merge_load_results(
        system, 0.5, duration, run.workloads(), baselines, run.spine_spread()
    )
    completions = sorted(
        (record for payload in run.workloads()
         for record in payload["completions"]),
        key=lambda r: (r[0], r[1], r[2]),
    )
    return {
        "events": run.events,
        "windows": run.windows,
        "final_barrier": run.final_barrier,
        "issued": merged.issued,
        "completed": merged.completed,
        "failed": merged.failed,
        "integrity_errors": merged.integrity_errors,
        "achieved_bytes": merged.achieved_bytes,
        "p50": merged.p50,
        "p99": merged.p99,
        "mean": merged.mean,
        "spine_spread": tuple(run.spine_spread()),
        "fabric_stats": str(run.fabric_stats()),
        "served": tuple(sorted(merged_requests_served(run.workloads()).items())),
        # The merged completion stream IS the delivery order: completion
        # virtual times, sources, serials, sizes and slowdowns, in
        # canonical order.
        "completions": tuple(completions),
    }


class TestDifferentialDomains:
    """1 vs 2 vs 4 domains must be bit-identical, several seeds deep."""

    # homa seed 7 has arrivals that tie with a spine port's end of
    # serialisation: filed at the barrier instead of where the single
    # loop files them, they run in the wrong order (see runner docstring).
    @pytest.mark.parametrize("system", ["smt", "tcp", "homa"])
    def test_domain_count_is_unobservable(self, system):
        plan = ShardPlan(num_racks=4, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, system, HOMA_W4)
        for seed in (3, 7, 11):
            reference = _loaded_signature(plan, 1, system, seed, baselines)
            for domains in (2, 4):
                candidate = _loaded_signature(
                    plan, domains, system, seed, baselines
                )
                for key, expected in reference.items():
                    if candidate[key] != expected:
                        print(
                            f"REPRODUCING SEED: seed={seed} system={system} "
                            f"domains={domains} field={key}"
                        )
                    assert candidate[key] == expected, (
                        f"{key} diverged at {domains} domains (seed {seed})"
                    )

    def test_rerun_is_bit_identical(self):
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        first = _loaded_signature(plan, 2, "smt", 7, baselines)
        second = _loaded_signature(plan, 2, "smt", 7, baselines)
        if first != second:
            print("REPRODUCING SEED: seed=7 system=smt domains=2 (rerun)")
        assert first == second

    def test_multiprocessing_carrier_matches_in_process(self):
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        inproc = _loaded_signature(plan, 2, "smt", 5, baselines)
        piped = _loaded_signature(
            plan, 2, "smt", 5, baselines, use_processes=True
        )
        if inproc != piped:
            print("REPRODUCING SEED: seed=5 system=smt domains=2 (mp carrier)")
        assert inproc == piped

    def test_four_domain_pipe_carrier_matches_in_process_and_one_domain(self):
        plan = ShardPlan(num_racks=4, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "homa", HOMA_W4)
        reference = _loaded_signature(plan, 1, "homa", 7, baselines)
        inproc = _loaded_signature(plan, 4, "homa", 7, baselines)
        with _deadline(300):
            piped = _loaded_signature(
                plan, 4, "homa", 7, baselines, use_processes=True
            )
        for name, candidate in (("in-process", inproc), ("pipes", piped)):
            if candidate != reference:
                print(f"REPRODUCING SEED: seed=7 system=homa domains=4 ({name})")
            assert candidate == reference, name

    def test_traffic_actually_crosses_domains(self):
        """The parity above must not be vacuous: cross-rack RPCs exist."""
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        sig = _loaded_signature(plan, 2, "smt", 11, baselines)
        assert sum(sig["spine_spread"]) > 0
        assert any(record[4] for record in sig["completions"])  # cross flag


class TestShardPlan:
    def test_contiguous_rack_blocks(self):
        plan = ShardPlan(num_racks=4, hosts_per_rack=2, domains=2)
        assert plan.racks_of_domain(0) == [0, 1]
        assert plan.racks_of_domain(1) == [2, 3]
        assert [plan.domain_of_rack(r) for r in range(4)] == [0, 0, 1, 1]

    def test_every_domain_owns_a_rack(self):
        plan = ShardPlan(num_racks=3, hosts_per_rack=1, domains=3)
        assert [plan.racks_of_domain(d) for d in range(3)] == [[0], [1], [2]]

    def test_domains_bounded_by_racks(self):
        with pytest.raises(SimulationError):
            ShardPlan(num_racks=2, domains=3)
        with pytest.raises(SimulationError):
            ShardPlan(num_racks=2, domains=0)

    def test_with_domains_repartitions(self):
        plan = ShardPlan(num_racks=4, domains=1)
        again = plan.with_domains(4)
        assert again.domains == 4
        assert [again.domain_of_rack(r) for r in range(4)] == [0, 1, 2, 3]
        assert plan.domains == 1  # original untouched

    def test_global_index_round_trip(self):
        plan = ShardPlan(num_racks=3, hosts_per_rack=4, domains=3)
        for rack in range(3):
            for slot in range(4):
                g = plan.global_index(rack, slot)
                assert plan.rack_of_index(g) == rack
                assert plan.domain_of_index(g) == plan.domain_of_rack(rack)


class TestBoundaryCodec:
    def _packet(self, **meta):
        payload = b"hello boundary"
        pkt = Packet(
            IPv4Header(0x0A010001, 0x0A020001, 17, 0),
            TransportHeader(7, 9, 42),
            payload,
        )
        pkt.meta.update(meta)
        return pkt

    def test_round_trip_preserves_wire_and_times(self):
        blob = encode_message(1, self._packet(), 2.5e-6, 3.0e-6)
        [(arrival, departure, seq, spine, pkt)] = decode_batch(blob)
        assert (arrival, departure, seq, spine) == (3.0e-6, 2.5e-6, 0, 1)
        assert pkt.payload == b"hello boundary"
        assert pkt.ip.src_addr == 0x0A010001
        assert pkt.ip.dst_addr == 0x0A020001

    def test_round_trip_preserves_receiver_visible_meta(self):
        cases = [
            ({}, {}),
            ({"trimmed": True}, {"trimmed": True}),
            ({"segment_end": False}, {"segment_end": False}),
            ({"segment_end": True}, {"segment_end": True}),
        ]
        for meta_in, meta_out in cases:
            blob = encode_message(0, self._packet(**meta_in), 1.0, 2.0)
            [(_, _, _, _, pkt)] = decode_batch(blob)
            for key, value in meta_out.items():
                assert pkt.meta.get(key) == value
            if "segment_end" not in meta_in:
                assert "segment_end" not in pkt.meta

    def test_merge_batches_orders_by_arrival_then_source(self):
        q0, q1 = OutboundQueue(), OutboundQueue()
        q0.emit(0, 0, self._packet(), 0.5, 2.0)
        q0.emit(0, 1, self._packet(), 0.1, 1.0)
        q1.emit(0, 0, self._packet(), 0.2, 1.0)
        (blob0, min0) = q0.drain()[0]
        (blob1, min1) = q1.drain()[0]
        assert (min0, min1) == (1.0, 1.0)
        merged = merge_batches([(1, blob1), (0, blob0)])
        arrivals = [arrival for arrival, _, _ in merged]
        assert arrivals == [1.0, 1.0, 2.0]
        # Tie at arrival 1.0 breaks by departure time: q0's message left
        # at 0.1, q1's at 0.2, matching shared-loop scheduling order.
        assert merged[0][1] == 1  # spine of q0's arrival-1.0 message
        assert merged[1][1] == 0  # then q1's


class TestNextEventTime:
    def test_empty_loop_has_none(self):
        assert EventLoop().next_event_time() is None

    def test_reports_earliest_pending(self):
        loop = EventLoop()
        loop.call_later(2.0, lambda: None)
        loop.call_later(0.5, lambda: None)
        assert loop.next_event_time() == 0.5

    def test_skips_cancelled_head(self):
        loop = EventLoop()
        handle = loop.timer_later(0.5, lambda: None)
        loop.call_later(2.0, lambda: None)
        handle.cancel()
        assert loop.next_event_time() == 2.0

    def test_peek_does_not_advance(self):
        loop = EventLoop()
        seen = []
        loop.call_later(1.0, lambda: seen.append(True))
        assert loop.next_event_time() == 1.0
        assert seen == [] and loop.now == 0.0
        loop.run()
        assert seen == [True]


class TestRunnerProtocol:
    def test_workloadless_run_terminates(self):
        # No workload: only construction-time events (host/NIC setup)
        # exist, so the barrier loop drains them and stops on its own.
        plan = ShardPlan(num_racks=2, hosts_per_rack=1, domains=2)
        result = ShardRunner(plan).run()
        assert result.hosts == 2
        assert result.final_barrier < 1e-3
        assert sum(result.spine_spread()) == 0

    def test_deadline_bounds_virtual_time(self):
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, domains=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        args = {
            "system": "smt", "distribution": HOMA_W4, "load": 0.5,
            "duration": 1.0, "seed": 1, "baselines": baselines,
        }
        run = ShardRunner(
            plan, workload_factory=WORKLOAD, workload_args=args,
            deadline=2e-5,
        ).run()
        assert run.final_barrier <= 2e-5 + plan.lookahead
        for domain in run.domains:
            assert domain.final_now <= 2e-5 + plan.lookahead

    def test_domain_results_cover_all_racks(self):
        plan = ShardPlan(num_racks=4, hosts_per_rack=1, domains=4)
        result = ShardRunner(plan).run()
        assert sorted(r for d in result.domains for r in d.racks) == [0, 1, 2, 3]


class TestWindowBound:
    L = 0.5e-6

    def test_full_lookahead_exclusive_bound(self):
        for earliest in (0.0, 1e-9, 3.3e-6, 1.0 / 3.0, 12.5):
            reports = [(earliest, None, False), (earliest + 1e-6, None, False)]
            until = next_window(reports, self.L, None, True)
            assert until == math.nextafter(earliest + self.L, -math.inf)
            # A message created at exactly E arrives after the window.
            assert earliest + self.L > until

    def test_undelivered_arrivals_bound_the_window(self):
        reports = [(5e-6, 2e-6, False), (None, None, False)]
        until = next_window(reports, self.L, None, True)
        assert until == math.nextafter(2e-6 + self.L, -math.inf)

    def test_stop_conditions(self):
        done = [(1e-6, None, True), (2e-6, 3e-6, True)]
        assert next_window(done, self.L, None, True) is None
        # Without a workload the done flags mean nothing.
        assert next_window(done, self.L, None, False) is not None
        assert next_window([(None, None, False)] * 2, self.L, None, True) is None
        late = [(2e-6, None, False), (None, None, False)]
        assert next_window(late, self.L, 1e-6, True) is None

    def test_deadline_caps_the_window(self):
        reports = [(1e-6, None, False)]
        assert next_window(reports, self.L, 1.2e-6, True) == 1.2e-6

    @pytest.mark.parametrize("use_processes", [False, True])
    def test_message_emitted_at_window_start_is_delivered_next_window(
        self, use_processes
    ):
        plan = ShardPlan(num_racks=2, hosts_per_rack=1, domains=2)
        at = 1e-3  # after every construction-time event
        with _deadline(60):
            run = ShardRunner(
                plan, workload_factory=f"{HERE}:edge_workload",
                workload_args={"at": at}, use_processes=use_processes,
            ).run()
        (emitted_at, arrival), (injected_at, received_arrival) = run.workloads()
        assert emitted_at == at
        assert received_arrival == arrival == at + plan.lookahead
        # The window that ran the emission ended at the largest float
        # below the arrival; the packet was injected at that barrier and
        # reached the destination host (the done flag demands it).
        assert injected_at == math.nextafter(arrival, -math.inf)
        assert run.boundary_messages == 1


class TestPipeMesh:
    def test_blob_larger_than_pipe_buffer_crosses_both_ways(self):
        plan = ShardPlan(num_racks=2, hosts_per_rack=1, domains=2)
        args = {"count": 300, "size": 1000}
        with _deadline(120):
            piped = ShardRunner(
                plan, workload_factory=f"{HERE}:burst_workload",
                workload_args=args, use_processes=True,
            ).run()
        assert piped.workloads() == [300, 300]
        assert all(d.boundary_bytes > PIPE_BUFFER for d in piped.domains)
        inproc = ShardRunner(
            plan, workload_factory=f"{HERE}:burst_workload", workload_args=args,
        ).run()
        assert (piped.windows, piped.final_barrier, piped.events) == (
            inproc.windows, inproc.final_barrier, inproc.events
        )

    @pytest.mark.parametrize("fail", [0, 1])
    def test_failing_worker_raises_instead_of_hanging(self, fail):
        plan = ShardPlan(num_racks=2, hosts_per_rack=1, domains=2)
        with _deadline(60), pytest.raises(SimulationError, match="on purpose"):
            ShardRunner(
                plan, workload_factory=f"{HERE}:failing_workload",
                workload_args={"fail": fail}, use_processes=True,
            ).run()


class TestRunnerTelemetry:
    def test_counts_and_wall_split(self):
        plan = ShardPlan(num_racks=2, hosts_per_rack=2, num_spines=2)
        baselines = measure_baselines(plan, "smt", HOMA_W4)
        args = {
            "system": "smt", "distribution": HOMA_W4, "load": 0.5,
            "duration": 4e-5, "seed": 7, "baselines": baselines,
        }
        runs = {
            (domains, procs): ShardRunner(
                plan.with_domains(domains), workload_factory=WORKLOAD,
                workload_args=args, use_processes=procs,
            ).run()
            for domains, procs in ((1, False), (2, False), (2, True))
        }
        one, two, piped = runs[1, False], runs[2, False], runs[2, True]
        assert one.boundary_messages == one.boundary_bytes == 0
        assert two.boundary_messages > 0 and two.boundary_bytes > 0
        assert (piped.boundary_messages, piped.boundary_bytes) == (
            two.boundary_messages, two.boundary_bytes
        )
        assert one.windows == two.windows == piped.windows
        for run in runs.values():
            telemetry = run.telemetry()
            assert telemetry["windows"] == run.windows
            assert len(telemetry["busy_s"]) == len(telemetry["blocked_s"])
            assert len(telemetry["busy_s"]) == run.plan.domains
            assert all(busy > 0 for busy in telemetry["busy_s"])
        assert two.telemetry()["blocked_s"] == [0.0, 0.0]
        assert all(blocked > 0 for blocked in piped.telemetry()["blocked_s"])
