"""Conservative parallel execution of sharded domains.

The scheduler is a windowed (bounded-lag) variant of null-message time
synchronization.  At a barrier every domain has processed all events up
to the barrier time, so each domain's next pending event is strictly in
the future.  Let ``E`` be the global minimum next-event time, counting
the boundary messages sent in the window just closed (not yet injected),
and ``L`` the lookahead -- the propagation delay of every boundary link.
Every event still to run happens at some ``t >= E``, and a boundary
message it creates arrives at ``fl(t + L) >= fl(E + L)`` because IEEE
addition is monotone.  So no domain can receive work from another before
``fl(E + L)``, and every domain may advance in parallel through the
half-open window ``[E, fl(E + L))``.  The event loop's ``run(until=U)``
is inclusive, so the bound is ``U = nextafter(fl(E + L), -inf)``, the
largest float below ``fl(E + L)``: a message created at exactly ``E``
arrives after ``U``, in the next window.  :func:`next_window` makes
that decision; both carriers call it on the same per-domain reports, so
they step through the same barriers.

Same-time order.  The loop breaks ties in time by filing order, and a
single loop files a boundary arrival when its packet departs, at ``t``;
the destination domain learns of it only at the next barrier, up to
``L`` later.  :meth:`ShardDomain.inject` therefore keys each arrival
just above the destination loop's sequence number at the start of the
window the packet departed in (``EventLoop.call_at_seq``): it runs after
every same-time event filed before that window and before every one
filed during it.  That is the single loop's order for everything filed
before the window or after ``t`` -- notably the spine port's end of
serialisation, filed one transmission time (< ``L``) before it fires.
It could differ only for a same-time event at the same spine shard
filed inside the window but before ``t``, i.e. more than ``L`` ahead;
a spine shard files nothing that far ahead (an arrival from a local
leaf is filed exactly ``L`` ahead, and one that departed at the same
instant as a remote packet runs after it, a tie a single loop breaks
by filing order).  Filing arrivals at the barrier itself, after every
event the window filed, breaks the serialisation-end tie the other
way as soon as the window is wider than ``L`` minus a transmission
time.

Two carriers execute the protocol:

- in-process (default): all domains in one process, stepped one after
  another.  Virtual-time results are identical to the multiprocessing
  carrier, and every dispatched event is visible to this process's
  ``events_dispatched()`` counter -- which is what lets CI pin the scale
  bench's event count exactly.
- ``multiprocessing``: one worker process per domain and one duplex pipe
  per pair of workers.  Each round every worker sends each peer one
  message -- its outbound blob for that peer plus its report (next-event
  time, earliest arrival it sent this window, workload-done flag) -- and
  receives the same from every peer.  Every worker then evaluates
  :func:`next_window` over the identical reports and runs the window or
  stops, so no coordinator sits in the barrier.  A pair's lower domain
  id sends first and the higher id receives first, and every worker
  walks its peers in ascending id order, which is one global order over
  the pairs: the exchange cannot deadlock, whatever the blob size.  The
  parent process only starts the workers, waits for them to be ready,
  and collects each domain's result; a worker that fails is reported as
  a :class:`SimulationError` and its peers are terminated.

Determinism: every domain's computation is a pure function of (plan,
domain id, injected batches, barrier sequence), every domain derives the
barrier sequence from the same deterministic reports, and inboxes are
merged in a deterministic order -- so an N-domain run replays bit for
bit, on either carrier.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.shard.domain import DomainResult, ShardDomain
from repro.sim.shard.plan import ShardPlan

#: One domain's barrier report: (next event time, earliest arrival of the
#: boundary messages it sent in the window just closed, workload done).
Report = tuple[Optional[float], Optional[float], bool]

#: How often the parent checks that every worker it waits on is alive.
_LIVENESS_POLL_S = 0.05


def next_window(
    reports: list[Report],
    lookahead: float,
    deadline: Optional[float],
    has_workload: bool,
) -> Optional[float]:
    """The next barrier time, or ``None`` to stop.

    The run stops once every workload is done (when there is one), when
    no event or boundary arrival is left, or when the earliest of them
    is past ``deadline``.  Otherwise the window ends just below
    ``earliest + lookahead`` (see the module docstring), capped at
    ``deadline``.
    """
    if has_workload and all(done for _, _, done in reports):
        return None
    candidates = [t for report in reports for t in report[:2] if t is not None]
    if not candidates:
        return None
    earliest = min(candidates)
    if deadline is not None and earliest > deadline:
        return None
    until = math.nextafter(earliest + lookahead, -math.inf)
    return until if deadline is None else min(until, deadline)


@dataclass
class ShardRunResult:
    """The merged outcome of one sharded run."""

    plan: ShardPlan
    domains: list[DomainResult]
    windows: int
    final_barrier: float

    @property
    def events(self) -> int:
        """Total simulation events dispatched across every domain loop."""
        return sum(d.events for d in self.domains)

    @property
    def hosts(self) -> int:
        return sum(d.hosts for d in self.domains)

    @property
    def boundary_messages(self) -> int:
        """Packets that crossed a domain boundary (0 with one domain)."""
        return sum(d.boundary_messages for d in self.domains)

    @property
    def boundary_bytes(self) -> int:
        """Encoded size of every boundary blob sent."""
        return sum(d.boundary_bytes for d in self.domains)

    def telemetry(self) -> dict:
        """Barrier and wall-clock accounting, for a report's ``perf`` key.

        Everything but ``windows`` depends on the partitioning or the
        wall clock, so it never belongs in a report's compared body.
        """
        return {
            "windows": self.windows,
            "busy_s": [round(d.busy_s, 4) for d in self.domains],
            "blocked_s": [round(d.blocked_s, 4) for d in self.domains],
            "boundary_messages": self.boundary_messages,
            "boundary_bytes": self.boundary_bytes,
        }

    def workloads(self) -> list[Any]:
        """Per-domain workload payloads, domain order."""
        return [d.workload for d in self.domains]

    def spine_spread(self) -> list[int]:
        """Cluster-wide upward packets per spine (sums exactly match the
        single-loop fabric's counters)."""
        spread = [0] * self.plan.num_spines
        for d in self.domains:
            for row in d.spine_packets.values():
                for s, count in enumerate(row):
                    spread[s] += count
        return spread

    def fabric_stats(self) -> dict:
        """Merged per-tier fabric counters, ClosFabric.stats() shape."""
        leaf = {"dropped": 0, "trimmed": 0, "queued": 0, "blackholed": 0}
        spine = {"dropped": 0, "trimmed": 0, "queued": 0, "blackholed": 0}
        for d in self.domains:
            for key, value in d.fabric_stats["leaf"].items():
                leaf[key] += value
            for key, value in d.fabric_stats["spine"].items():
                spine[key] += value
        return {"leaf": leaf, "spine": spine, "spine_spread": self.spine_spread()}

    def obs_snapshots(self) -> list[dict]:
        """Per-domain observability snapshots (empty if unobserved)."""
        return [d.obs_snapshot for d in self.domains if d.obs_snapshot is not None]


def _domain_worker(parent, peers, plan, domain, factory, args, deadline):
    """Worker-process main: build the domain, then run the mesh barrier.

    ``peers`` is ``[(peer_domain, conn), ...]`` in ascending peer order.
    Replies to ``parent`` with ``("ready",)`` once built, then
    ``("result", DomainResult)``; an exception is sent as
    ``("error", traceback)`` instead.
    """
    try:
        shard = ShardDomain(plan, domain, factory, args)
        parent.send(("ready",))
        reports: list = [None] * plan.domains
        while True:
            reports[domain] = report = shard.report()
            inbox = []
            start = time.perf_counter()
            for peer, conn in peers:
                mine = (shard.sent[peer][0] if peer in shard.sent else b"", report)
                if domain < peer:
                    conn.send(mine)
                    blob, reports[peer] = conn.recv()
                else:
                    blob, reports[peer] = conn.recv()
                    conn.send(mine)
                if blob:
                    inbox.append((peer, blob))
            shard.blocked_s += time.perf_counter() - start
            until = next_window(
                reports, plan.lookahead, deadline, factory is not None
            )
            if until is None:
                break
            shard.step(until, inbox)
        parent.send(("result", shard.result()))
    except Exception:
        parent.send(("error", traceback.format_exc()))
    parent.close()


def _gather(conns, procs, tag: str) -> list[tuple]:
    """One ``tag`` reply from every worker, domain order.

    Blocks in ``Connection.poll`` (time blocked on a pipe, like any other
    barrier wait), checking between polls that each worker still lives.
    """
    replies: list = [None] * len(conns)
    waiting = list(range(len(conns)))
    while waiting:
        ready = [d for d in waiting if conns[d].poll()]
        if not ready:
            for d in waiting:
                # A worker's last reply is written before it exits.
                if procs[d].exitcode is not None and not conns[d].poll():
                    raise SimulationError(
                        f"shard worker {d} exited with code "
                        f"{procs[d].exitcode} before its {tag!r} reply"
                    )
            conns[waiting[0]].poll(_LIVENESS_POLL_S)
            continue
        for d in ready:
            try:
                reply = conns[d].recv()
            except EOFError:
                raise SimulationError(
                    f"shard worker {d} closed its pipe before its {tag!r} reply"
                ) from None
            if reply[0] == "error":
                raise SimulationError(f"shard worker {d} failed:\n{reply[1]}")
            if reply[0] != tag:  # pragma: no cover - protocol guard
                raise SimulationError(f"unexpected shard worker reply {reply[0]!r}")
            replies[d] = reply
            waiting.remove(d)
    return replies


@dataclass
class ShardRunner:
    """Drive a :class:`ShardPlan` to completion under a workload."""

    plan: ShardPlan
    workload_factory: Optional[str] = None
    workload_args: Optional[dict] = None
    #: Virtual-time budget; the run stops once no event precedes it.
    deadline: Optional[float] = None
    #: True fans each domain out to a ``multiprocessing`` worker.
    use_processes: bool = False

    def run(self) -> ShardRunResult:
        if self.use_processes:
            domains = self._run_processes()
        else:
            domains = self._run_in_process()
        # Every domain stepped through the same barriers.  Undelivered
        # final inboxes (and pending events past the stop time) are
        # intentionally left unrun -- the workload's books have balanced,
        # exactly like a single-loop drain that stops once
        # completed + failed == issued.
        steps = {(d.windows, d.final_now) for d in domains}
        if len(steps) != 1:  # pragma: no cover - protocol guard
            raise SimulationError(f"shard domains disagree on barriers: {steps}")
        ((windows, barrier),) = steps
        return ShardRunResult(
            plan=self.plan, domains=domains, windows=windows,
            final_barrier=barrier,
        )

    def _run_in_process(self) -> list[DomainResult]:
        plan = self.plan
        shards = [
            ShardDomain(plan, d, self.workload_factory, self.workload_args)
            for d in range(plan.domains)
        ]
        has_workload = self.workload_factory is not None
        while True:
            until = next_window(
                [shard.report() for shard in shards],
                plan.lookahead, self.deadline, has_workload,
            )
            if until is None:
                break
            inboxes = [
                [(src, s.sent[dest][0]) for src, s in enumerate(shards)
                 if dest in s.sent]
                for dest in range(len(shards))
            ]
            for shard, inbox in zip(shards, inboxes):
                shard.step(until, inbox)
        return [shard.result() for shard in shards]

    def _run_processes(self) -> list[DomainResult]:
        plan = self.plan
        ctx = mp.get_context()
        n = plan.domains
        peers: list[list] = [[] for _ in range(n)]
        mesh = []
        for a in range(n):
            for b in range(a + 1, n):
                end_a, end_b = ctx.Pipe()
                peers[a].append((b, end_a))
                peers[b].append((a, end_b))
                mesh += [end_a, end_b]
        conns, procs = [], []
        try:
            for d in range(n):
                conn, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_domain_worker,
                    args=(child, peers[d], plan, d, self.workload_factory,
                          self.workload_args, self.deadline),
                    daemon=True,
                )
                proc.start()
                child.close()
                conns.append(conn)
                procs.append(proc)
            _gather(conns, procs, "ready")
            return [reply[1] for reply in _gather(conns, procs, "result")]
        except BaseException:
            for proc in procs:
                proc.terminate()
            raise
        finally:
            for end in mesh + conns:
                end.close()
            for proc in procs:
                proc.join()
