"""Cluster scale: the sharded conservative-PDES kernel under load.

The single-loop loaded experiment tops out around six hosts per
wall-clock budget; this experiment runs the same open-loop RPC mesh on
:mod:`repro.sim.shard`, which partitions the leaf-spine fabric into
per-rack time domains advanced in parallel windows (trunk propagation
delay as lookahead).  Two claims are checked, both count-based:

- *parity*: an N-domain run of the loaded mesh is bit-identical to the
  1-domain run -- same dispatched event total, same issued/completed
  books, same slowdown percentiles and means (completion records merge
  in canonical order before any histogram sees them), same ECMP spine
  spread, same integer observability digest.  This is the property that
  makes sharding admissible as a scaling tool rather than a different
  simulator.
- *scale*: a sweep over rack counts drives clusters an order of
  magnitude past the single-loop bench's host count (64 hosts full mode
  vs loaded's 6) while every RPC still completes with zero integrity
  errors across ECMP paths.

Every value in the report's tables and checks is virtual-time or
count derived; wall-clock throughput (hosts x events/sec per cell) is
printed to stdout during the run and summarised only under the
report's ``perf`` key, which CI's rerun-identity diff excludes.  So is
each run's runner telemetry (``perf.shard``: windows, per-domain busy
and blocked wall, boundary messages and bytes), whose boundary counts
depend on the partitioning.  Because
dispatched-event totals are invariant to the partitioning, even
``perf.events`` matches across ``--domains`` settings -- CI pins it.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.bench.loaded import LOAD_HOMA_CONFIG
from repro.bench.report import ExperimentReport
from repro.load import HOMA_W4
from repro.load.shard import (
    measure_baselines,
    merge_load_results,
    merged_requests_served,
)
from repro.obs import merge_digest
from repro.sim.shard import ShardPlan, ShardRunner

SYSTEMS = ("homa", "smt", "tcp", "ktls")
LOAD = 0.5
SEED = 11
WORKLOAD_FACTORY = "repro.load.shard:build_domain_workload"

#: The parity cell: big enough for real cross-domain traffic on every
#: spine, small enough to run every system twice.
PARITY_RACKS = 4
PARITY_HOSTS_PER_RACK = 2


def _plan(num_racks: int, hosts_per_rack: int, observe: bool = False) -> ShardPlan:
    return ShardPlan(
        num_racks=num_racks,
        hosts_per_rack=hosts_per_rack,
        num_spines=2,
        seed=1,
        observe=observe,
    )


def _run_cell(plan: ShardPlan, domains: int, args: dict):
    """One sharded loaded run; returns (ShardRunResult, LoadResult, wall_s)."""
    start = time.perf_counter()
    run = ShardRunner(
        plan.with_domains(domains),
        workload_factory=WORKLOAD_FACTORY,
        workload_args=args,
    ).run()
    wall_s = time.perf_counter() - start
    merged = merge_load_results(
        args["system"], args["load"], args["duration"],
        run.workloads(), args["baselines"], run.spine_spread(),
    )
    return run, merged, wall_s


def run(quick: bool = False, domains: Optional[int] = None) -> ExperimentReport:
    report = ExperimentReport(
        "Cluster scale: sharded time domains, loaded RPC mesh"
        + (" (quick)" if quick else "")
    )
    parity_domains = domains if domains is not None else PARITY_RACKS
    parity_domains = max(1, min(parity_domains, PARITY_RACKS))
    parity_duration = 1.0e-4 if quick else 3.0e-4

    # -- parity: 1 domain vs N domains, every system --------------------------
    # Both runs always happen (1 vs 1 under --domains 1) so the bench
    # dispatches the same event total no matter the domain setting.
    # Runner telemetry per sharded run, filed under the report's perf key.
    shard_perf = report.perf.setdefault("shard", {})
    parity_rows = []
    agree = {"events": 0, "stats": 0, "books": 0, "spread": 0}
    digests_equal = 0
    n_results = {}
    for system in SYSTEMS:
        observe = system == "smt"
        plan = _plan(PARITY_RACKS, PARITY_HOSTS_PER_RACK, observe=observe)
        baselines = measure_baselines(
            plan, system, HOMA_W4, config=LOAD_HOMA_CONFIG
        )
        args = {
            "system": system,
            "config": LOAD_HOMA_CONFIG,
            "distribution": HOMA_W4,
            "load": LOAD,
            "duration": parity_duration,
            "seed": SEED,
            "baselines": baselines,
        }
        (run1, merged1, _), (run_n, merged_n, wall_n) = (
            _run_cell(plan, 1, args),
            _run_cell(plan, parity_domains, args),
        )
        shard_perf[f"parity/{system}/reference"] = run1.telemetry()
        shard_perf[f"parity/{system}/partitioned"] = run_n.telemetry()
        n_results[system] = merged_n
        agree["events"] += run1.events == run_n.events
        agree["stats"] += (
            merged1.p50 == merged_n.p50
            and merged1.p99 == merged_n.p99
            and merged1.mean == merged_n.mean
        )
        agree["books"] += (
            merged1.issued == merged_n.issued
            and merged1.completed == merged_n.completed
            and merged1.failed == merged_n.failed
            and merged1.integrity_errors == merged_n.integrity_errors
        )
        agree["spread"] += run1.spine_spread() == run_n.spine_spread()
        if observe:
            digest1 = merge_digest(run1.obs_snapshots())
            digest_n = merge_digest(run_n.obs_snapshots())
            digests_equal += digest1 == digest_n
            report.obs["smt/scale-digest"] = digest_n
        eps = round(run_n.events / wall_n) if wall_n > 0 else 0
        print(
            f"[scale] parity {system}: hosts={run_n.hosts} "
            f"domains={run_n.plan.domains} events={run_n.events} "
            f"windows={run_n.windows} boundary={run_n.boundary_messages} "
            f"wall={wall_n:.1f}s eps={eps}",
            flush=True,
        )
        parity_rows.append((
            system,
            run_n.hosts,
            merged_n.issued,
            merged_n.completed,
            round(merged_n.p50, 2),
            round(merged_n.p99, 2),
            merged_n.integrity_errors,
            run_n.events,
        ))
    report.add_table(
        ["system", "hosts", "issued", "done", "p50 slow", "p99 slow",
         "integ errs", "events"],
        parity_rows,
    )

    n_sys = len(SYSTEMS)
    report.check(
        "parity: dispatched event totals identical across domain counts",
        agree["events"], n_sys, n_sys,
    )
    report.check(
        "parity: slowdown p50/p99/mean bit-identical across domain counts",
        agree["stats"], n_sys, n_sys,
    )
    report.check(
        "parity: issued/completed/failed/integrity books identical",
        agree["books"], n_sys, n_sys,
    )
    report.check(
        "parity: ECMP spine spread identical across domain counts",
        agree["spread"], n_sys, n_sys,
    )
    report.check(
        "parity: integer obs digest identical across domain counts",
        digests_equal, 1, 1,
    )
    # The loaded experiment's headline bands, reproduced on the sharded
    # kernel: message transports beat bytestreams at the tail.
    report.check(
        "homa p99 slowdown below tcp (sharded)",
        float(n_results["homa"].p99 < n_results["tcp"].p99), 1, 1,
    )
    report.check(
        "smt p99 slowdown below ktls (sharded)",
        float(n_results["smt"].p99 < n_results["ktls"].p99), 1, 1,
    )
    report.check(
        "parity cell: RPCs completed (all systems)",
        sum(r.completed for r in n_results.values()),
        sum(r.issued for r in n_results.values()),
        sum(r.issued for r in n_results.values()),
    )

    # -- scale sweep: rack count vs events, smt only ---------------------------
    sweep_duration = 0.8e-4 if quick else 2.0e-4
    cells = [(2, 2), (4, 2)] if quick else [(4, 4), (8, 4), (16, 4)]
    plan0 = _plan(cells[0][0], cells[0][1])
    baselines = measure_baselines(plan0, "smt", HOMA_W4, config=LOAD_HOMA_CONFIG)
    sweep_rows = []
    sweep_issued = 0
    sweep_completed = 0
    sweep_integrity = 0
    hosts_all_serving = 0
    max_hosts = 0
    for num_racks, hosts_per_rack in cells:
        plan = _plan(num_racks, hosts_per_rack)
        cell_domains = max(1, min(parity_domains, num_racks))
        args = {
            "system": "smt",
            "config": LOAD_HOMA_CONFIG,
            "distribution": HOMA_W4,
            "load": LOAD,
            "duration": sweep_duration,
            "seed": SEED,
            "baselines": baselines,
        }
        run_c, merged, wall_s = _run_cell(plan, cell_domains, args)
        shard_perf[f"sweep/racks={num_racks}"] = run_c.telemetry()
        eps = round(run_c.events / wall_s) if wall_s > 0 else 0
        print(
            f"[scale] sweep racks={num_racks} hosts={run_c.hosts} "
            f"domains={run_c.plan.domains} events={run_c.events} "
            f"windows={run_c.windows} boundary={run_c.boundary_messages} "
            f"wall={wall_s:.1f}s eps={eps}",
            flush=True,
        )
        served = merged_requests_served(run_c.workloads())
        hosts_all_serving += sum(1 for c in served.values() if c > 0)
        sweep_issued += merged.issued
        sweep_completed += merged.completed
        sweep_integrity += merged.integrity_errors
        max_hosts = max(max_hosts, run_c.hosts)
        sweep_rows.append((
            num_racks,
            run_c.hosts,
            merged.issued,
            merged.completed,
            round(merged.p50, 2),
            round(merged.p99, 2),
            merged.integrity_errors,
            run_c.events,
        ))
    report.add_table(
        ["racks", "hosts", "issued", "done", "p50 slow", "p99 slow",
         "integ errs", "events"],
        sweep_rows,
    )
    total_hosts = sum(r * h for r, h in cells)
    report.check(
        "scale sweep: max cluster size (hosts)",
        max_hosts, 8 if quick else 60, 1_000_000,
    )
    report.check(
        "scale sweep: every host served requests",
        hosts_all_serving, total_hosts, total_hosts,
    )
    report.check(
        "scale sweep: RPCs completed",
        sweep_completed, sweep_issued, sweep_issued,
    )
    report.check(
        "scale sweep: reassembly/fill integrity errors",
        sweep_integrity, 0, 0,
    )
    return report
