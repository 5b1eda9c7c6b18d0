"""One time domain: an event loop, a fabric slice, hosts and a workload.

A :class:`ShardDomain` is everything the conservative scheduler advances
between two barriers: its own :class:`EventLoop`, the local racks' hosts
(built exactly like ``ClosTestbed.leaf_spine`` builds them -- same names,
addresses, cost model and NIC configuration), the
:class:`~repro.net.clos.ShardClosFabric` slice, and optionally a workload
driving traffic.  Cross-domain packets leave through the fabric's
boundary senders into an :class:`OutboundQueue` and arrive via
:meth:`inject`, which schedules them at their precomputed arrival times
in deterministic merged order.

Workloads are resolved from a dotted ``module:function`` path (the same
name-not-closure rule the bench fleet uses), so a domain can be rebuilt
from its plan inside a worker process.  The factory is called as
``factory(domain, args)`` and must return an object with ``done()`` and
``result()``; ``result()`` must be picklable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Optional

from repro.errors import SimulationError
from repro.host.host import Host
from repro.net.clos import ShardClosFabric
from repro.nic.device import Nic
from repro.sim.event_loop import EventLoop
from repro.sim.shard.boundary import OutboundQueue, merge_batches
from repro.sim.shard.plan import ShardPlan

#: Spacing of the tie-break keys injected arrivals get between two keys
#: the loop handed out.  While those stay below 2**32, ``base + j * step``
#: is exact in a double for every ``j`` below 2**20.
_INJECT_STEP = 2.0**-20


def resolve_workload_factory(path: str):
    """``"pkg.mod:fn"`` -> the callable (importable in any process)."""
    module_name, _, attr = path.partition(":")
    return getattr(import_module(module_name), attr)


@dataclass
class DomainResult:
    """One domain's picklable contribution to the merged run result."""

    domain: int
    racks: list[int]
    hosts: int
    events: int
    final_now: float
    #: {rack: per-spine upward packet counts} -- merged by stacking rows.
    spine_packets: dict[int, list[int]]
    fabric_stats: dict
    workload: Any = None
    obs_snapshot: Optional[dict] = None
    #: Barrier windows run (every domain of a run runs the same ones).
    windows: int = 0
    #: Boundary packets this domain sent, and their encoded blob bytes.
    boundary_messages: int = 0
    boundary_bytes: int = 0
    #: Wall seconds spent injecting and running windows, and inside the
    #: barrier exchange (mostly waiting for slower peers; always 0 on
    #: the in-process carrier, which steps domains one after another).
    busy_s: float = 0.0
    blocked_s: float = 0.0


class ShardDomain:
    """Build and step one time domain of a sharded cluster."""

    def __init__(
        self,
        plan: ShardPlan,
        domain: int,
        workload_factory: Optional[str] = None,
        workload_args: Optional[dict] = None,
    ):
        self.plan = plan
        self.domain = domain
        self.loop = EventLoop()
        self.outbound = OutboundQueue()
        #: The last window's outbound blobs: ``{dest: (blob, min_arrival)}``.
        self.sent: dict[int, tuple[bytes, float]] = {}
        self.windows = 0
        self.busy_s = 0.0
        #: Barrier-exchange wall time; the pipe carrier accounts it here.
        self.blocked_s = 0.0
        # Loop sequence number when the last window started, and how many
        # arrivals have been keyed above it (see inject()).
        self._window_seq = 0
        self._injected = 0
        self.local_racks = plan.racks_of_domain(domain)
        self.fabric = ShardClosFabric(
            self.loop,
            domain,
            self.local_racks,
            list(plan._domain_of_rack),
            plan.rack_of_addr_map(),
            plan.num_spines,
            emit=self.outbound.emit,
            bandwidth_bps=plan.bandwidth_bps,
            trunk_bandwidth_bps=plan.trunk_bandwidth_bps,
            host_link_delay=plan.host_link_delay,
            trunk_delay=plan.trunk_delay,
            mtu=plan.mtu,
            buffer_bytes=plan.buffer_bytes,
            trunk_buffer_bytes=plan.trunk_buffer_bytes,
            trimming=plan.trimming,
            ecmp_salt=plan.ecmp_salt,
        )
        costs = plan.cost_model()
        self.racks: dict[int, list[Host]] = {}
        #: Local hosts in rack-major order, alongside their global indices.
        self.hosts: list[Host] = []
        self.global_indices: list[int] = []
        for rack in self.local_racks:
            row = []
            for slot in range(plan.hosts_per_rack):
                host = Host(
                    self.loop,
                    plan.host_name(rack, slot),
                    plan.addr_of(rack, slot),
                    costs,
                    num_app_cores=plan.num_app_cores,
                    num_softirq_cores=plan.num_softirq_cores,
                )
                port = self.fabric.attach_host(rack, host.addr)
                host.attach_nic(
                    Nic(self.loop, port, "a", costs, tso_mode=plan.tso_mode)
                )
                row.append(host)
                self.hosts.append(host)
                self.global_indices.append(plan.global_index(rack, slot))
            self.racks[rack] = row
        self.obs = None
        if plan.observe:
            from repro.obs import Observability

            self.obs = Observability(self.loop)
            for host in self.hosts:
                self.obs.observe_host(host)
        self.workload = None
        if workload_factory is not None:
            factory = resolve_workload_factory(workload_factory)
            self.workload = factory(self, workload_args or {})

    # -- stepping (driven by the runner) ------------------------------------------

    def report(self) -> tuple[Optional[float], Optional[float], bool]:
        """This domain's barrier report: next event time, earliest arrival
        of the boundary messages sent in the last window, workload done."""
        arrivals = [arrival for _, arrival in self.sent.values()]
        return (
            self.loop.next_event_time(),
            min(arrivals) if arrivals else None,
            self.workload is None or self.workload.done(),
        )

    def step(self, until: float, inbox: list[tuple[int, bytes]]) -> None:
        """Inject a barrier's inbox, then run the window up to ``until``."""
        start = time.perf_counter()
        self.inject(inbox)
        if self.loop.seq != self._window_seq:
            self._window_seq = self.loop.seq
            self._injected = 0
        self.loop.run(until=until)
        self.sent = self.outbound.drain()
        self.busy_s += time.perf_counter() - start
        self.windows += 1

    def inject(self, batches: list[tuple[int, bytes]]) -> None:
        """Deliver a barrier's cross-domain inbox in deterministic order.

        The packets departed during the window just run.  A single loop
        would have filed each arrival at its departure, so among events
        due at the same time it would run after everything this domain
        filed before that window and before everything filed after the
        departure.  Each arrival is keyed just above the loop's sequence
        number at the window's start, in merge order, which reproduces
        that order (see :mod:`repro.sim.shard.runner`).
        """
        if not batches:
            return
        merged = merge_batches(batches)
        if self._window_seq >= 2**32 or self._injected + len(merged) >= 2**20:
            raise SimulationError("shard inbox tie-break keys exhausted")
        base = self._window_seq
        for arrival, spine, packet in merged:
            self._injected += 1
            self.fabric.deliver(
                spine, packet, arrival, base + self._injected * _INJECT_STEP
            )

    # -- results ------------------------------------------------------------------

    def result(self) -> DomainResult:
        return DomainResult(
            domain=self.domain,
            racks=self.local_racks,
            hosts=len(self.hosts),
            events=self.loop.dispatched,
            final_now=self.loop.now,
            spine_packets={
                rack: list(row) for rack, row in self.fabric.spine_packets.items()
            },
            fabric_stats=self.fabric.stats(),
            workload=None if self.workload is None else self.workload.result(),
            obs_snapshot=None if self.obs is None else self.obs.snapshot(),
            windows=self.windows,
            boundary_messages=self.outbound.sent_messages,
            boundary_bytes=self.outbound.sent_bytes,
            busy_s=self.busy_s,
            blocked_s=self.blocked_s,
        )
