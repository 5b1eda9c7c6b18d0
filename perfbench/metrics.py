"""Every metric the benchmark prints, and the map from layer to end result.

``PER_LAYER`` records, for each per-layer metric, which end-to-end
metric it should move and on which workload, and the workload on which
the prediction is no change.  Issues that claim a per-layer gain cite
these names; the traced report prints the map beside the numbers.
"""

from __future__ import annotations

from typing import NamedTuple

from perfbench.tracer import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metrics this one should move (per-layer metrics only).
    moves: str = ""
    #: Workloads where it should move, and (after "/") where it should not.
    on: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower"),
    Metric("cpu_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)
#: Share of attempted operations that failed; 0 on every workload.  It is
#: printed with the end-to-end metrics and carried by the result line's
#: ``failed`` / ``attempted``, not listed as a metric that must be non-zero.
FAILED_FRAC = Metric("failed_frac", "ratio", "lower")

_MOVES = {
    "sim": ("wall_s", "rpc-w3 / session-churn"),
    "shard": ("wall_s cpu_s", "fabric-sharded / rpc-w3"),
    "net": ("wall_s", "bulk-w5-lossy / session-churn"),
    "nic": ("wall_s", "bulk-w5-lossy / session-churn"),
    "homa": ("wall_s", "rpc-w3 bulk-w5-lossy / session-churn"),
    "tcp": ("wall_s", "rpc-w3 bulk-w5-lossy / fabric-sharded"),
    "ktls": ("wall_s", "rpc-w3 bulk-w5-lossy / fabric-sharded"),
    "core": ("wall_s", "rpc-w3 / session-churn"),
    "tls": ("wall_s", "session-churn / rpc-w3"),
    "crypto": ("wall_s setup_s", "session-churn / rpc-w3"),
    "host": ("wall_s", "rpc-w3 / session-churn"),
    "ctrl": ("wall_s", "session-churn / rpc-w3"),
    "dns": ("wall_s", "session-churn / rpc-w3"),
    "obs": ("wall_s peak_rss_mb", "fabric-sharded / rpc-w3"),
    "load": ("wall_s", "rpc-w3 / session-churn"),
}

#: Counters per layer: (name, unit, better).
_COUNTERS = {
    "sim": [("sim.events", "count", "lower")],
    "shard": [
        ("shard.windows", "count", "lower"),
        ("shard.boundary_msgs", "count", "lower"),
        ("shard.boundary_bytes", "bytes", "lower"),
        ("shard.wait_s", "s", "lower"),
    ],
    "net": [("net.packets", "count", "lower"), ("net.drops", "count", "lower")],
    "nic": [
        ("nic.segments", "count", "lower"),
        ("nic.records_offloaded", "count", "higher"),
    ],
    "homa": [
        ("homa.messages", "count", "higher"),
        ("homa.resend_requests", "count", "lower"),
        ("homa.retransmitted", "count", "lower"),
        ("homa.useful_ratio", "ratio", "higher"),
    ],
    "tcp": [("tcp.retransmits", "count", "lower")],
    "ktls": [("ktls.records", "count", "higher")],
    "core": [("core.records", "count", "higher")],
    "tls": [("tls.handshakes", "count", "higher")],
    "crypto": [
        ("crypto.ec_ops", "count", "lower"),
        ("crypto.aead_calls", "count", "lower"),
    ],
    "ctrl": [
        ("ctrl.pool_misses", "count", "lower"),
        ("ctrl.evicted", "count", "lower"),
    ],
    "dns": [("dns.queries", "count", "lower")],
    "obs": [("obs.spans", "count", "lower")],
    "load": [
        ("load.issued", "count", "higher"),
        ("load.completed", "count", "higher"),
    ],
}


def _per_layer() -> tuple:
    rows = []
    for layer in LAYERS:
        moves, on = _MOVES[layer]
        rows.append(Metric(f"{layer}.self_s", "s", "lower", moves, on))
        rows.append(Metric(f"{layer}.calls", "count", "lower", moves, on))
        rows.extend(Metric(n, u, b, moves, on) for n, u, b in _COUNTERS.get(layer, ()))
    rows.extend((
        # Host time of the traced phase summed over processes (the
        # coordinator plus each shard domain worker).
        Metric("trace.traced_s", "s", "lower"),
        Metric("trace.overhead_s", "s", "lower"),
        Metric("trace.unattributed_s", "s", "lower"),
    ))
    return tuple(rows)


PER_LAYER = _per_layer()
