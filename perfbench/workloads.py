"""The benchmark's workloads, driven only through public entry points.

Each workload turns a seed into one *unit*: a seeded SMT/kTLS
experiment.  ``prepare(seed)`` does the set-up a user waits for before a
simulation starts (testbeds, PKI, baseline calibration) and returns a
unit whose ``measure()`` runs the experiment and checks its outputs.

The simulated latencies a unit produces are the model's outputs, not
host performance: they are deterministic per seed, and a change that
only makes the simulator faster must leave them bit for bit the same.
So they are checked (books balance, integrity, smt beats ktls at p99)
and printed with a digest for information, but never compared against
a bound -- a "no worse than" bound would let them drift.
"""

from __future__ import annotations

import os
import random
import statistics
import time
import weakref
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.codec import SmtCodec
from repro.core.endpoint import SmtEndpoint
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto import P256, AesGcm, FastAead
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.ctrl import CtrlConfig, TicketCache, TicketRotator
from repro.dns.resolver import InternalDns
from repro.errors import ReproError
from repro.homa import HomaConfig, HomaTransport
from repro.ktls import KtlsConnection
from repro.load import (
    HOMA_W3,
    HOMA_W4,
    HOMA_W5,
    CdfSizes,
    ClusterHarness,
    OpenLoopEngine,
)
from repro.load import shard as load_shard
from repro.net.faults import FaultConfig
from repro.obs import merge_digest
from repro.sim.shard import OutboundQueue, ShardPlan, ShardRunner
from repro.tcp import TcpConnection
from repro.testbed import ClosTestbed, Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials
from repro.units import KB, USEC

from perfbench import hostspeed
from perfbench import tracer as tracing

#: Receiver-driven pacing for a shared-buffer leaf-spine fabric, the same
#: values the repo's loaded-slowdown experiments use.
HOMA_CONFIG = HomaConfig(
    unscheduled_bytes=16 * KB,
    grant_window=16 * KB,
    resend_interval=200 * USEC,
    max_resends=100,
)


class StratifiedSizes(CdfSizes):
    """A size CDF whose draws follow its exact proportions in every deck.

    Each caller RNG (one per sender in the open-loop engines) walks its
    own shuffled deck holding every size in its CDF proportion, so each
    sender's mix matches the CDF every ``deck`` messages, not only on
    average.  The marginal distribution is unchanged; what goes away is
    most of the unit-to-unit variance in bytes offered, which for the
    heavy-tailed Homa mixes otherwise swamps host-time differences.
    """

    def __init__(self, base: CdfSizes):
        super().__init__(base.name, base.points)
        deck = next(
            n for n in range(1, 1001)
            if all(abs(cum * n - round(cum * n)) < 1e-6 for _, cum in self.points)
        )
        self.deck = []
        prev = 0
        for size, cum in self.points:
            self.deck += [size] * (round(cum * deck) - prev)
            prev = round(cum * deck)
        self._pending: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def sample(self, rng: random.Random) -> int:
        pending = self._pending.get(rng)
        if not pending:
            pending = self._pending[rng] = list(self.deck)
            rng.shuffle(pending)
        return pending.pop()

    # Under a spawn or forkserver start method the shard workers receive
    # the workload arguments pickled; the per-RNG decks stay behind.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_pending"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pending = weakref.WeakKeyDictionary()


def new_tracer() -> tracing.LayerTracer:
    """A tracer that also counts EC and AEAD operations and records the
    transport, record-layer and codec objects whose counters the traced
    report reads."""
    return tracing.LayerTracer(
        count={
            "crypto.ec_ops": [P256.scalar_mult],
            "crypto.aead_calls": [
                FastAead.seal, FastAead.seal_many, FastAead.open,
                AesGcm.seal, AesGcm.open,
            ],
            "shard.boundary_msgs": [OutboundQueue.emit],
        },
        capture=(HomaTransport, TcpConnection, KtlsConnection, SmtCodec),
    )


@dataclass
class UnitResult:
    """What one measured unit did, and whether its outputs were right."""

    attempted: int
    failed: int
    #: Output checks by name; every one must hold.
    checks: dict
    #: Virtual-time outputs, printed for information only (see module doc).
    outputs: dict
    #: Simulation events dispatched in the measured phase.
    events: int
    #: Counter deltas over the measured phase (traced units only).
    counters: dict = field(default_factory=dict)
    #: Set-up that happens inside ``measure()`` (spawning shard domains).
    setup_in_measure_s: float = 0.0
    #: CPU the shard domain workers spent building their domains.
    child_setup_cpu_s: float = 0.0
    #: ``(interval_s, totals)`` per traced shard domain worker.
    child_traces: list = field(default_factory=list)
    #: Host speed over ``measure()``, when worker processes sampled it.
    speed: Optional[hostspeed.Speed] = None


def _failed_ops(issued: int, completed: int, integrity_errors: int) -> int:
    """RPCs that failed, never completed, or came back corrupted."""
    return min(issued, issued - completed + integrity_errors)


# -- counters ----------------------------------------------------------------------


def host_counters(hosts, fabric_stats: list, fault_drops: int) -> dict:
    """Cumulative public counters of NICs and switches."""
    nics = [host.nic for host in hosts]
    return {
        "net.packets": sum(nic.packets_sent for nic in nics),
        "net.drops": fault_drops + sum(
            stats[tier]["dropped"] for stats in fabric_stats
            for tier in ("leaf", "spine")
        ),
        "nic.segments": sum(nic.segments_sent for nic in nics),
        "nic.records_offloaded": sum(nic.records_offloaded for nic in nics),
    }


def object_counters(found: dict) -> dict:
    """Cumulative public counters of the objects a tracer captured."""
    transports = found.get(HomaTransport, [])
    homa_hosts = {id(t.host): t.host for t in transports}.values()
    return {
        "homa.messages": sum(t.messages_sent for t in transports),
        "homa.resend_requests": sum(t.resend_requests for t in transports),
        "homa.retransmitted": sum(t.packets_retransmitted for t in transports),
        "homa.packets": sum(host.nic.packets_sent for host in homa_hosts),
        "tcp.retransmits": sum(c.retransmits for c in found.get(TcpConnection, [])),
        "ktls.records": sum(
            c.records_sealed for c in found.get(KtlsConnection, [])
        ),
        "core.records": sum(c.records_sealed for c in found.get(SmtCodec, [])),
    }


def add_counters(total: dict, more: dict) -> dict:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value
    return total


def counter_delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _fault_drops(bed) -> int:
    return sum(stats.get("dropped", 0) for stats in bed.fault_stats().values())


# -- rpc-w3 / bulk-w5-lossy: smt vs ktls on one leaf-spine fabric ------------------


@dataclass(frozen=True)
class FabricPair:
    """smt and ktls at the same open-loop offered load on a 2x2x2 leaf-spine."""

    name: str
    distribution: object
    load: float
    duration: float
    #: Host seconds one unit takes on the reference box (see ``run.py``).
    unit_s: float
    drop_rate: float = 0.0
    #: Whether the host speed over ``measure()`` is sampled in worker
    #: processes, not in this one (see ``run.py``).
    SAMPLES_IN_WORKERS: ClassVar[bool] = False

    def prepare(self, seed: int, tracer=None) -> "FabricPairUnit":
        engines = {}
        for system in ("smt", "ktls"):
            bed = ClosTestbed.leaf_spine(
                num_racks=2, hosts_per_rack=2, num_spines=2, num_app_cores=12,
                seed=1,
            )
            harness = ClusterHarness(bed, system, config=HOMA_CONFIG)
            engine = OpenLoopEngine(
                harness, self.distribution, load=self.load,
                duration=self.duration, seed=seed,
            )
            engine.calibrate()
            if self.drop_rate:
                # After calibration: baselines are unloaded, loss-free RTTs.
                bed.install_faults(
                    FaultConfig(drop_rate=self.drop_rate), fault_seed=seed
                )
            engines[system] = engine
        return FabricPairUnit(engines, tracer)

    def run_checks(self, results: list) -> dict:
        """The paper's headline, over the whole run: smt's p99 slowdown is
        below ktls's.  One unit's p99 rests on its few slowest RPCs, so the
        check compares the median over the run's units of each unit's p99."""
        smt, ktls = (
            statistics.median(r.outputs[system]["p99_slowdown"] for r in results)
            for system in ("smt", "ktls")
        )
        return {"smt p99 slowdown < ktls p99 slowdown (median over units)": smt < ktls}


class FabricPairUnit:
    def __init__(self, engines: dict, tracer):
        self.engines = engines
        self.tracer = tracer

    def _counters(self) -> dict:
        total = object_counters(self.tracer.instances)
        for engine in self.engines.values():
            bed = engine.bed
            add_counters(
                total,
                host_counters(bed.hosts, [bed.fabric.stats()], _fault_drops(bed)),
            )
        return total

    def measure(self) -> UnitResult:
        before = self._counters() if self.tracer else {}
        start_events = {s: e.bed.loop.dispatched for s, e in self.engines.items()}
        results = {s: e.run() for s, e in self.engines.items()}
        events = sum(
            e.bed.loop.dispatched - start_events[s] for s, e in self.engines.items()
        )
        checks = {}
        outputs = {}
        attempted = failed = 0
        for system, r in results.items():
            checks[f"{system}: completed + failed == issued"] = (
                r.completed + r.failed == r.issued
            )
            checks[f"{system}: 0 failed RPCs"] = r.failed == 0
            checks[f"{system}: 0 integrity errors"] = r.integrity_errors == 0
            attempted += r.issued
            failed += _failed_ops(r.issued, r.completed, r.integrity_errors)
            outputs[system] = {
                "issued": r.issued,
                "p50_slowdown": r.p50,
                "p99_slowdown": r.p99,
                "fault_drops": _fault_drops(self.engines[system].bed),
            }
        counters = {}
        if self.tracer:
            counters = counter_delta(self._counters(), before)
            counters["load.issued"] = attempted
            counters["load.completed"] = sum(r.completed for r in results.values())
        return UnitResult(attempted, failed, checks, outputs, events, counters)


# -- session-churn: connection set-up through the control plane ---------------------

CHURN_VARIANTS = ("1rtt", "smt", "fs")
CHURN_PORT = 7000
CHURN_DNS_NAME = "server.dc.internal"
TICKET_LIFETIME = 5e-3
GRACE_WINDOW = 2.5e-3
REFRESH_MARGIN = 2.5e-3
DNS_LATENCY = 2e-6
CONNECT_SPACING = 1e-3


@dataclass
class _Combo:
    """One variant x key-pool setting: a back-to-back bed ready to churn."""

    variant: str
    pooled: bool
    bed: Testbed
    roots: tuple
    cc: Optional[object]
    sc: Optional[object]
    dns: InternalDns
    rotator: Optional[TicketRotator]
    cache: Optional[TicketCache]
    seed: int
    latencies: list = field(default_factory=list)
    failed: int = 0


@dataclass(frozen=True)
class SessionChurn:
    """Sequential connection set-up: 1-RTT, 0-RTT and 0-RTT+FS, each with
    and without standby key pools, with ticket rotation through DNS."""

    name: str
    connections: int
    unit_s: float
    session_capacity: int = 4
    SAMPLES_IN_WORKERS: ClassVar[bool] = False

    def prepare(self, seed: int, tracer=None) -> "SessionChurnUnit":
        rng = random.Random(seed)
        ca = CertificateAuthority("dc-root", rng)
        key = EcdsaKeyPair.generate(rng)
        chain = ca.chain_for(ca.issue("server", KEY_ALG_ECDSA, key.public_bytes()))
        creds = ServerCredentials(chain=chain, signing_key=key)
        roots = (ca.certificate,)
        combos = []
        for v, variant in enumerate(CHURN_VARIANTS):
            for pooled in (False, True):
                combo_seed = seed * 16 + 2 * v + pooled
                combos.append(
                    self._build(variant, pooled, creds, chain, key, roots, combo_seed)
                )
        return SessionChurnUnit(self, combos, tracer)

    def run_checks(self, results: list) -> dict:
        return {}

    def _build(self, variant, pooled, creds, chain, key, roots, seed) -> _Combo:
        bed = Testbed.back_to_back()
        cc = sc = None
        if pooled:
            cc, sc = bed.enable_ctrl(
                config=CtrlConfig(
                    ecdh_pool_capacity=16,
                    ecdh_low_watermark=4,
                    session_capacity=self.session_capacity,
                ),
                seed=seed,
            )
        server = SmtEndpoint(bed.server, CHURN_PORT, ctrl=sc)
        dns = InternalDns(lookup_latency=DNS_LATENCY)
        rotator = cache = None
        if variant == "1rtt":
            hs_rng = random.Random(seed + 1)

            def server_cfg():
                if sc is not None:
                    return sc.handshake_config(trust_roots=roots)
                return HandshakeConfig(rng=hs_rng, trust_roots=roots)

            server.listen(bed.server.app_thread(0), creds, server_cfg)
        else:
            zserver = ZeroRttServer(
                "server", chain, key, random.Random(seed + 2),
                lifetime=TICKET_LIFETIME, grace_window=GRACE_WINDOW,
            )
            rotator = TicketRotator(
                bed.loop, zserver, dns, CHURN_DNS_NAME, ttl=TICKET_LIFETIME
            )
            rotator.start()
            cache = TicketCache(dns, roots, refresh_margin=REFRESH_MARGIN)
            server.serve_zero_rtt(
                bed.server.app_thread(0), zserver, pregenerate=False,
                keypool=sc.ecdh_pool if sc is not None else None,
            )

        def echo():
            thread = bed.server.app_thread(1)
            while True:
                rpc = yield from server.socket.recv_request(thread)
                yield from server.socket.reply(thread, rpc, rpc.payload)

        bed.loop.process(echo())
        return _Combo(variant, pooled, bed, roots, cc, sc, dns, rotator, cache, seed)


class SessionChurnUnit:
    def __init__(self, workload: SessionChurn, combos: list, tracer):
        self.workload = workload
        self.combos = combos
        self.tracer = tracer

    def _client(self, combo: _Combo):
        bed = combo.bed
        thread = bed.client.app_thread(0)
        for i in range(self.workload.connections):
            client = SmtEndpoint(bed.client, bed.client.alloc_port(), ctrl=combo.cc)
            payload = random.Random(combo.seed * 1000 + i).randbytes(64)
            try:
                if combo.variant == "1rtt":
                    if combo.cc is not None:
                        cfg = combo.cc.handshake_config(
                            server_name="server", trust_roots=combo.roots
                        )
                    else:
                        cfg = HandshakeConfig(
                            rng=random.Random(combo.seed + 100 + i),
                            server_name="server", trust_roots=combo.roots,
                        )
                    stats = yield from client.connect(
                        thread, bed.server.addr, CHURN_PORT, cfg
                    )
                else:
                    ticket = yield from combo.cache.get(CHURN_DNS_NAME, bed.loop)
                    stats = yield from client.connect_zero_rtt(
                        thread, bed.server.addr, CHURN_PORT, ticket, combo.roots,
                        forward_secrecy=combo.variant == "fs",
                        rng=random.Random(combo.seed + 200 + i),
                        pregenerated=(
                            combo.cc.ecdh_pool.take() if combo.cc is not None
                            else None
                        ),
                        share_fingerprint=True,
                    )
                reply = yield from client.socket.call(
                    thread, bed.server.addr, CHURN_PORT, payload
                )
            except ReproError:
                combo.failed += 1
            else:
                if reply == payload:
                    combo.latencies.append(stats.finished_at - stats.started_at)
                else:
                    combo.failed += 1
            yield bed.loop.timeout(CONNECT_SPACING)
        if combo.rotator is not None:
            combo.rotator.stop()

    def _counters(self) -> dict:
        hosts = [h for c in self.combos for h in (c.bed.client, c.bed.server)]
        counts = object_counters(self.tracer.instances)
        add_counters(counts, host_counters(hosts, [], 0))
        planes = [p for c in self.combos for p in (c.cc, c.sc) if p is not None]
        counts["ctrl.pool_misses"] = sum(p.ecdh_pool.misses for p in planes)
        counts["ctrl.evicted"] = sum(p.table.evicted_lru for p in planes)
        counts["dns.queries"] = sum(c.dns.queries for c in self.combos)
        return counts

    def measure(self) -> UnitResult:
        before = self._counters() if self.tracer else {}
        start_events = [c.bed.loop.dispatched for c in self.combos]
        n = self.workload.connections
        checks = {}
        outputs = {}
        for combo in self.combos:
            done = combo.bed.loop.process(self._client(combo))
            combo.bed.loop.run(until=5.0)
            label = f"{combo.variant}/{'pool' if combo.pooled else 'inline'}"
            checks[f"{label}: client finished"] = done.triggered and done.ok
            checks[f"{label}: every echo reply verified"] = (
                len(combo.latencies) == n and combo.failed == 0
            )
            outputs[label] = sorted(combo.latencies)
        events = sum(
            c.bed.loop.dispatched - e for c, e in zip(self.combos, start_events)
        )
        attempted = n * len(self.combos)
        completed = sum(len(c.latencies) for c in self.combos)
        counters = {}
        if self.tracer:
            counters = counter_delta(self._counters(), before)
            counters["tls.handshakes"] = completed
            counters["load.issued"] = attempted
            counters["load.completed"] = completed
        return UnitResult(
            attempted, attempted - completed, checks, outputs, events, counters
        )


# -- fabric-sharded: the W4 mesh through ShardRunner over the pipe carrier ----------

DOMAIN_FACTORY = "perfbench.workloads:domain_workload"
STRATIFIED_W4 = StratifiedSizes(HOMA_W4)


@dataclass(frozen=True)
class FabricSharded:
    """The scale plan's W4 mesh (smt, observed) in parallel time domains,
    one worker process per domain."""

    name: str
    num_racks: int
    hosts_per_rack: int
    domains: int
    load: float
    duration: float
    unit_s: float
    #: The domain workers sample their own CPUs: a probe in this process
    #: would time a CPU shared with a worker, and slow that worker.
    SAMPLES_IN_WORKERS: ClassVar[bool] = True

    def prepare(self, seed: int, tracer=None) -> "FabricShardedUnit":
        plan = ShardPlan(
            num_racks=self.num_racks, hosts_per_rack=self.hosts_per_rack,
            num_spines=2, seed=1, observe=True, domains=self.domains,
        )
        args = {
            "system": "smt",
            "config": HOMA_CONFIG,
            "distribution": STRATIFIED_W4,
            "load": self.load,
            "duration": self.duration,
            "seed": seed,
            "baselines": load_shard.measure_baselines(
                plan, "smt", STRATIFIED_W4, config=HOMA_CONFIG
            ),
            "trace": tracer is not None,
        }
        return FabricShardedUnit(self, plan, args)

    def run_checks(self, results: list) -> dict:
        return {}


class _DomainWorkload:
    """Wraps one domain's engine, in its worker process, to report when
    the domain was ready, the CPU its set-up took, and the host speed
    after it (untraced) or the worker's layer totals (traced)."""

    def __init__(self, domain, args: dict):
        self.tracer = None
        if args["trace"]:
            # A forked worker inherits the coordinator's running tracer;
            # a spawned one starts its own.
            self.tracer = tracing.ACTIVE or new_tracer()
            if not self.tracer.active:
                self.tracer.start()
            for found in self.tracer.instances.values():
                found.clear()
        self.domain = domain
        # One CPU per domain worker, like taskset: the lockstep barrier
        # otherwise waits on every cross-CPU wake-up and migration, which
        # on a 2-vCPU box made wall time vary by a quarter between runs.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[domain.domain % len(cpus)]})
        self.engine = load_shard.build_domain_workload(domain, args)
        self.boundary_bytes = 0
        if self.tracer is not None:
            drain = domain.outbound.drain

            def counting_drain():
                out = drain()
                self.boundary_bytes += sum(len(blob) for blob, _ in out.values())
                return out

            domain.outbound.drain = counting_drain
            self.tracer.reset()
            self.before = self._counters()
        self.ready_at = time.monotonic()  # system-wide clock on Linux
        self.setup_cpu_s = time.process_time()
        self.sampler = None
        if self.tracer is None:
            self.sampler = hostspeed.Sampler()
            self.sampler.start()

    def _counters(self) -> dict:
        counts = object_counters(self.tracer.instances)
        add_counters(
            counts,
            host_counters(self.domain.hosts, [self.domain.fabric.stats()], 0),
        )
        counts.update(self.tracer.totals()["counts"])
        counts["shard.boundary_bytes"] = self.boundary_bytes
        return counts

    def done(self) -> bool:
        return self.engine.done()

    def result(self) -> dict:
        out = {
            "load": self.engine.result(),
            "ready_at": self.ready_at,
            "setup_cpu_s": self.setup_cpu_s,
        }
        if self.sampler is not None:
            out["speed"] = self.sampler.stop()
        if self.tracer is not None:
            interval = self.tracer.elapsed()
            out["trace"] = (
                interval,
                self.tracer.totals(),
                counter_delta(self._counters(), self.before),
            )
        return out


def domain_workload(domain, args: dict) -> _DomainWorkload:
    """Shard workload factory (``perfbench.workloads:domain_workload``)."""
    return _DomainWorkload(domain, args)


class FabricShardedUnit:
    def __init__(self, workload: FabricSharded, plan: ShardPlan, args: dict):
        self.workload = workload
        self.plan = plan
        self.args = args

    def measure(self) -> UnitResult:
        start = time.monotonic()
        run = ShardRunner(
            self.plan, workload_factory=DOMAIN_FACTORY, workload_args=self.args,
            use_processes=True,
        ).run()
        wrapped = run.workloads()
        payloads = [w["load"] for w in wrapped]
        merged = load_shard.merge_load_results(
            "smt", self.args["load"], self.args["duration"], payloads,
            self.args["baselines"], run.spine_spread(),
        )
        digest = merge_digest(run.obs_snapshots())
        books = merged.completed + merged.failed == merged.issued
        checks = {
            "merged books: completed + failed == issued": books,
            "0 failed RPCs": merged.failed == 0,
            "0 integrity errors": merged.integrity_errors == 0,
            "every domain ran": len(payloads) == self.plan.domains,
        }
        outputs = {
            "issued": merged.issued,
            "p50_slowdown": merged.p50,
            "p99_slowdown": merged.p99,
            "obs_digest": digest,
        }
        counters = {}
        traces = []
        if self.args["trace"]:
            for w in wrapped:
                interval, totals, counts = w["trace"]
                traces.append((interval, totals))
                add_counters(counters, counts)
            counters["shard.windows"] = run.windows
            counters["obs.spans"] = sum(
                layer["spans"] for layer in digest["spans"].values()
            )
            counters["load.issued"] = merged.issued
            counters["load.completed"] = merged.completed
        return UnitResult(
            attempted=merged.issued,
            failed=_failed_ops(
                merged.issued, merged.completed, merged.integrity_errors
            ),
            checks=checks,
            outputs=outputs,
            events=run.events,
            counters=counters,
            setup_in_measure_s=max(w["ready_at"] for w in wrapped) - start,
            child_setup_cpu_s=sum(w["setup_cpu_s"] for w in wrapped),
            child_traces=traces,
            speed=None if self.args["trace"] else hostspeed.of_parallel(
                [w["speed"] for w in wrapped]
            ),
        )


#: Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        FabricPair(
            "rpc-w3", StratifiedSizes(HOMA_W3), load=0.05, duration=4e-3,
            unit_s=3.5,
        ),
        FabricPair(
            "bulk-w5-lossy", StratifiedSizes(HOMA_W5), load=0.065,
            duration=16e-3, unit_s=7.0, drop_rate=0.001,
        ),
        SessionChurn("session-churn", connections=12, unit_s=4.0),
        FabricSharded(
            "fabric-sharded", num_racks=4, hosts_per_rack=2, domains=2,
            load=0.2, duration=1e-3, unit_s=4.3,
        ),
    )
}
