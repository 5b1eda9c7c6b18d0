"""Leaf-spine fabric: ECMP routing, trunks, and ClosTestbed parity."""

import random

import pytest

from repro.errors import SimulationError
from repro.homa import HomaSocket, HomaTransport
from repro.net import ClosFabric, ecmp_hash
from repro.net.faults import FaultConfig
from repro.net.headers import HEADERS_SIZE, IPv4Header, TransportHeader
from repro.net.packet import Packet
from repro.sim.event_loop import EventLoop
from repro.testbed import ClosTestbed


def _packet(src, dst, sport=1000, dport=2000, payload=b"", proto=146):
    return Packet(
        IPv4Header(src, dst, proto, HEADERS_SIZE + len(payload)),
        TransportHeader(sport, dport, 1),
        payload,
    )


class TestEcmpHash:
    def test_same_flow_same_hash(self):
        # The hash ignores payload and msg_id: every packet of a flow
        # must ride the same spine or records reorder across paths.
        a = _packet(1, 2, payload=b"x" * 100)
        b = Packet(a.ip, TransportHeader(1000, 2000, 999), b"other bytes")
        assert ecmp_hash(a) == ecmp_hash(b)

    def test_deterministic(self):
        p = _packet(7, 8, sport=42)
        assert ecmp_hash(p, salt=3) == ecmp_hash(p, salt=3)

    def test_salt_reshuffles(self):
        packets = [_packet(1, 2, sport=s) for s in range(1000, 1032)]
        base = [ecmp_hash(p, 0) % 2 for p in packets]
        salted = [ecmp_hash(p, 1) % 2 for p in packets]
        assert base != salted

    def test_flows_spread_over_spines(self):
        choices = {ecmp_hash(_packet(1, 2, sport=s)) % 2 for s in range(1000, 1032)}
        assert choices == {0, 1}

    def test_fabric_memo_matches_direct_hash(self):
        rng = random.Random(9)
        fabric = ClosFabric(EventLoop(), num_racks=2, num_spines=3)
        for salt in (0, 0, 17):
            fabric.reconverge(salt=salt)
            for _ in range(300):
                p = _packet(rng.getrandbits(32), rng.getrandbits(32),
                            sport=rng.getrandbits(16), dport=rng.getrandbits(16),
                            proto=rng.choice((6, 146, 147)))
                expected = ecmp_hash(p, salt) % 3
                assert fabric.spine_for(p) == expected
                assert fabric.spine_for(p) == expected  # memo hit


class TestClosFabric:
    def _build(self, **kwargs):
        loop = EventLoop()
        fabric = ClosFabric(loop, num_racks=2, num_spines=2, **kwargs)
        received = {}
        addrs = {}
        for rack, name in ((0, "a"), (0, "b"), (1, "c")):
            addr = 0x0A000000 + len(addrs) + 1
            addrs[name] = addr
            port = fabric.attach_host(rack, addr)
            port.attach("x", lambda p, name=name: received.setdefault(name, []).append(p))
        return loop, fabric, addrs, received

    def test_bad_topologies_rejected(self):
        with pytest.raises(SimulationError):
            ClosFabric(EventLoop(), num_racks=0, num_spines=2)
        with pytest.raises(SimulationError):
            ClosFabric(EventLoop(), num_racks=2, num_spines=0)

    def test_attach_errors(self):
        loop, fabric, addrs, _ = self._build()
        with pytest.raises(SimulationError):
            fabric.attach_host(5, 99)  # rack out of range
        with pytest.raises(SimulationError):
            fabric.attach_host(0, addrs["a"])  # duplicate address
        with pytest.raises(SimulationError):
            fabric.port(99)
        with pytest.raises(SimulationError):
            fabric.rack_of(99)

    def test_intra_rack_skips_spines(self):
        loop, fabric, addrs, received = self._build()
        fabric.port(addrs["a"]).send("x", _packet(addrs["a"], addrs["b"]))
        loop.run(until=1e-3)
        assert len(received["b"]) == 1
        assert fabric.spine_spread() == [0, 0]

    def test_cross_rack_single_flow_single_spine(self):
        loop, fabric, addrs, received = self._build()
        for _ in range(20):
            fabric.port(addrs["a"]).send("x", _packet(addrs["a"], addrs["c"]))
        loop.run(until=1e-3)
        assert len(received["c"]) == 20
        spread = fabric.spine_spread()
        assert sorted(spread) == [0, 20]  # all packets on one spine
        # and all of them were steered by rack 0's leaf.
        assert fabric.spine_packets[1] == [0, 0]

    def test_cross_rack_flows_spread(self):
        loop, fabric, addrs, received = self._build()
        for sport in range(1000, 1032):
            fabric.port(addrs["a"]).send(
                "x", _packet(addrs["a"], addrs["c"], sport=sport)
            )
        loop.run(until=1e-3)
        assert len(received["c"]) == 32
        spread = fabric.spine_spread()
        assert sum(spread) == 32
        assert min(spread) > 0

    def test_unknown_destination_raises(self):
        loop, fabric, addrs, _ = self._build()
        with pytest.raises(SimulationError):
            fabric.leaves[0].inject(_packet(addrs["a"], 0xDEAD))

    def test_stats_shape(self):
        loop, fabric, addrs, _ = self._build()
        fabric.port(addrs["a"]).send("x", _packet(addrs["a"], addrs["c"]))
        loop.run(until=1e-3)
        stats = fabric.stats()
        assert set(stats) == {"leaf", "spine", "spine_spread"}
        assert stats["leaf"]["dropped"] == 0
        assert stats["spine"]["dropped"] == 0
        assert sum(stats["spine_spread"]) == 1

    def test_trunk_overflow_trims(self):
        # A burst of one flow into a tiny trunk buffer: with trimming on,
        # overflowing packets forward headers-only instead of vanishing.
        loop, fabric, addrs, received = self._build(
            trunk_buffer_bytes=4096, trimming=True
        )
        for _ in range(10):
            fabric.leaves[0].inject(_packet(addrs["a"], addrs["c"], payload=b"z" * 1400))
        loop.run(until=1e-3)
        stats = fabric.stats()
        assert stats["leaf"]["trimmed"] > 0
        trimmed = [p for p in received["c"] if p.meta.get("trimmed")]
        full = [p for p in received["c"] if not p.meta.get("trimmed")]
        assert trimmed and full
        assert all(p.payload == b"" for p in trimmed)
        assert len(received["c"]) == 10 - stats["leaf"]["dropped"]


class TestEcmpResalt:
    """Re-salt / reconvergence correctness after spine failures."""

    N_SPINES = 4

    def _fabric(self, num_spines=N_SPINES):
        loop = EventLoop()
        fabric = ClosFabric(loop, num_racks=2, num_spines=num_spines)
        a = fabric.attach_host(0, 0x0A000001)
        fabric.attach_host(1, 0x0A010001)
        return loop, fabric

    def _flows(self, n=64):
        return [_packet(0x0A000001, 0x0A010001, sport=1000 + s) for s in range(n)]

    def test_all_flows_map_to_survivors_after_kill(self):
        loop, fabric = self._fabric()
        flows = self._flows()
        fabric.fail_spine(2)
        live = fabric.reconverge()
        assert live == (0, 1, 3)
        for p in flows:
            assert fabric.spine_for(p) in live, (
                f"flow sport={p.transport.src_port} still maps to a dead spine"
            )

    def test_surviving_flows_untouched_without_resalt(self):
        # Reconverging without a new salt migrates only the orphaned
        # flows: anything already on a surviving spine stays put as long
        # as the survivor keeps its position in the live tuple.
        loop, fabric = self._fabric()
        flows = self._flows()
        before = {p.transport.src_port: fabric.spine_for(p) for p in flows}
        fabric.fail_spine(self.N_SPINES - 1)  # survivors keep indices 0..2
        fabric.reconverge()
        moved = sum(
            1
            for p in flows
            if before[p.transport.src_port] != self.N_SPINES - 1
            and fabric.spine_for(p) != before[p.transport.src_port]
        )
        # The modulo shrink (4 -> 3) does remap some surviving flows, but
        # every flow previously on the dead spine *must* have moved and
        # every flow must land on a survivor.
        orphans = [p for p in flows if before[p.transport.src_port] == 3]
        assert orphans, "hash never used the dead spine: test is vacuous"
        for p in orphans:
            assert fabric.spine_for(p) != 3
        assert moved < len(flows)  # not a full reshuffle

    def test_identity_reconverge_is_a_noop_mapping(self):
        # All spines alive, salt unchanged: reconverge must not move a
        # single flow (salt=None keeps the current salt; the live set is
        # the full set, so indices are stable).
        loop, fabric = self._fabric()
        flows = self._flows()
        before = [fabric.spine_for(p) for p in flows]
        fabric.reconverge()
        assert [fabric.spine_for(p) for p in flows] == before
        # Explicitly re-asserting the current salt is equally identity.
        fabric.reconverge(salt=fabric.ecmp_salt)
        assert [fabric.spine_for(p) for p in flows] == before

    def test_resalt_reshuffles_and_stays_on_survivors(self):
        loop, fabric = self._fabric()
        flows = self._flows()
        fabric.fail_spine(0)
        before = [fabric.spine_for(p) for p in flows]
        live = fabric.reconverge(salt=17)
        after = [fabric.spine_for(p) for p in flows]
        assert after != before  # the salt actually reshuffled
        assert set(after) <= set(live)
        assert fabric.ecmp_salt == 17

    def test_restored_spine_rejoins_routing(self):
        loop, fabric = self._fabric(num_spines=2)
        fabric.fail_spine(1)
        assert fabric.reconverge() == (0,)
        flows = self._flows()
        assert {fabric.spine_for(p) for p in flows} == {0}
        fabric.restore_spine(1)
        # Routing tables only change at reconverge, not at revival.
        assert fabric.routing_spines() == (0,)
        assert fabric.reconverge() == (0, 1)
        assert {fabric.spine_for(p) for p in flows} == {0, 1}

    def test_no_live_spines_rejected(self):
        loop, fabric = self._fabric(num_spines=2)
        fabric.fail_spine(0)
        fabric.fail_spine(1)
        with pytest.raises(SimulationError):
            fabric.reconverge()

    def test_blackhole_window_then_clean_after_reconverge(self):
        # Packets of a flow hashed to the dead spine blackhole until the
        # tables are reprogrammed; after reconverge the same flow flows.
        loop = EventLoop()
        fabric = ClosFabric(loop, num_racks=2, num_spines=2)
        received = []
        a = fabric.attach_host(0, 0x0A000001)
        c = fabric.attach_host(1, 0x0A010001)
        c.attach("x", received.append)
        probe = _packet(0x0A000001, 0x0A010001, sport=1000)
        victim = fabric.spine_for(probe)
        fabric.fail_spine(victim)
        fabric.port(0x0A000001).send("x", probe)
        loop.run(until=1e-3)
        assert received == []
        assert fabric.stats()["spine"]["blackholed"] == 1
        fabric.reconverge()
        fabric.port(0x0A000001).send("x", _packet(0x0A000001, 0x0A010001, sport=1000))
        loop.run(until=2e-3)
        assert len(received) == 1
        assert fabric.stats()["spine"]["blackholed"] == 1  # no new losses

    def test_kill_reconverge_sequence_is_deterministic(self):
        def run_once():
            loop, fabric = self._fabric()
            mapping = []
            fabric.fail_spine(1)
            fabric.reconverge(salt=5)
            mapping.append([fabric.spine_for(p) for p in self._flows()])
            fabric.restore_spine(1)
            fabric.fail_spine(3)
            fabric.reconverge(salt=9)
            mapping.append([fabric.spine_for(p) for p in self._flows()])
            return mapping, fabric.routing_spines(), fabric.reconvergences

        assert run_once() == run_once()


class TestClosTestbed:
    def test_construction(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=2, num_spines=2)
        assert [h.name for h in bed.hosts] == ["r0h0", "r0h1", "r1h0", "r1h1"]
        assert bed.host(1, 0).name == "r1h0"
        # Rack is readable off the address: 10.(1+r).0.(1+i).
        assert bed.host(1, 1).addr == (10 << 24) | (2 << 16) | 2
        for host in bed.hosts:
            rack = bed.fabric.rack_of(host.addr)
            assert bed.host(rack, 0).addr >> 16 == host.addr >> 16

    def test_cross_rack_rpc_uses_spines(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        server, client = bed.host(1, 0), bed.host(0, 0)
        st = HomaTransport(server)
        ssock = HomaSocket(st, 7000)

        def echo():
            thread = server.app_thread(0)
            rpc = yield from ssock.recv_request(thread)
            yield from ssock.reply(thread, rpc, rpc.payload[::-1])

        bed.loop.process(echo())

        def call():
            ct = HomaTransport(client)
            sock = HomaSocket(ct, client.alloc_port())
            reply = yield from sock.call(
                client.app_thread(0), server.addr, 7000, b"spine"
            )
            assert reply == b"enips"

        done = bed.loop.process(call())
        bed.run(until=1.0)
        assert done.ok
        assert sum(bed.fabric.spine_spread()) > 0

    def test_enable_obs_idempotent_with_spine_gauges(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        obs = bed.enable_obs()
        assert bed.enable_obs() is obs
        snap = obs.snapshot()
        assert "clos.spine0.packets" in snap["metrics"]
        assert "clos.spine1.packets" in snap["metrics"]

    def test_enable_ctrl_idempotent(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        planes = bed.enable_ctrl()
        assert len(planes) == len(bed.hosts)
        assert bed.enable_ctrl() is planes

    def test_install_faults_on_downlinks(self):
        bed = ClosTestbed.leaf_spine(num_racks=2, hosts_per_rack=1, num_spines=2)
        bed.install_faults(FaultConfig(drop_rate=1.0))
        assert set(bed.fault_injectors) == {h.addr for h in bed.hosts}
        dst = bed.host(1, 0)
        bed.fabric.leaves[1].inject(_packet(bed.host(0, 0).addr, dst.addr))
        bed.run(until=1e-3)
        stats = bed.fault_stats()
        assert stats[dst.name]["dropped"] == 1
        assert stats[dst.name]["delivered"] == 0
