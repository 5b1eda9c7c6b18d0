"""Host cost of simulating SMT vs kTLS: the repository's benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload rpc-w3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload rpc-w3 --seed 1 --seconds 20 --trace 1

``--trace 0`` measures what a user of this reproduction waits for: it
runs seeded units of the workload (unit ``k`` uses seed
``seed * 1000 + k``) and reports the median unit's host wall time,
host CPU time (this process plus its children) and set-up time, each
read at a fixed reference host speed (see ``perfbench.hostspeed``), and
the peak resident memory of the run.  ``--seconds`` sets how many units
run: as many as take that long on the reference box (2 vCPUs, where
each workload's ``unit_s`` was measured), and at least ``MIN_UNITS``.
The count depends on nothing measured, so a run's work and memory are a
function of its arguments alone.

``--trace 1`` runs unit 0 alternately untraced and traced, at least
``MIN_TRACED`` times each, and reports per-layer self-time and counts
from the traced run with the median traced time (see
``perfbench.tracer``), plus the tracing overhead.  It also checks that
tracing is passive (same simulation events as the untraced run) and
that every count repeats exactly.

Every unit checks its outputs (see ``perfbench.workloads``); the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import resource
import statistics
import sys
import time

#: Fewest units an untraced run measures, however short ``--seconds`` is.
MIN_UNITS = 3
#: Fewest traced (and untraced) repetitions of unit 0 in a traced run.
MIN_TRACED = 2
#: Host time of one untraced plus one traced unit, in untraced units.
TRACED_PAIR_COST = 4


def _bootstrap() -> bool:
    """Put the checkout's ``src`` and root on the path; False if absent."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path[:0] = [src, root]
    return True


def _preload() -> None:
    """Import every simulator module up front, so no lazy import lands in
    a measured or traced phase."""
    import repro

    def walk(package) -> None:
        for info in pkgutil.iter_modules(package.__path__):
            if info.name in ("bench", "__main__"):
                continue
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            if info.ispkg:
                walk(module)

    walk(repro)


def _cpu_s() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def run_unit(workload, seed: int, tracer=None) -> dict:
    """Prepare and measure one unit; returns its timings and result.

    An untraced unit's ``setup_s``, ``wall_s`` and ``cpu_s`` are read at
    the reference host speed (see ``perfbench.hostspeed``); a traced
    unit's are raw.
    """
    from perfbench import hostspeed

    gc.collect()
    sampler = None if tracer else hostspeed.Sampler()
    t0 = time.perf_counter()
    if tracer:
        tracer.start()
    else:
        sampler.start()
    unit = workload.prepare(seed, tracer)
    if tracer:
        tracer.reset()
    else:
        setup_speed = sampler.stop()
        if not workload.SAMPLES_IN_WORKERS:
            sampler.start()
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    result = unit.measure()
    t2 = time.perf_counter()
    cpu1 = _cpu_s()
    record = {
        "seed": seed,
        "result": result,
        "setup_s": t1 - t0 + result.setup_in_measure_s,
        "wall_s": t2 - t1 - result.setup_in_measure_s,
        "cpu_s": cpu1 - cpu0 - result.child_setup_cpu_s,
        # Comparable between traced and untraced runs of the same unit.
        "measure_s": t2 - t1,
    }
    if tracer:
        record["traced_s"] = tracer.stop()
        record["totals"] = tracer.totals()
        return record
    speed = result.speed or sampler.stop()
    record["raw_wall_s"] = record["wall_s"]
    record["speed"] = speed.factor
    record["setup_s"] = (
        setup_speed.wall(t1 - t0) + setup_speed.factor * result.setup_in_measure_s
    )
    record["wall_s"] = speed.wall(record["wall_s"])
    record["cpu_s"] = speed.cpu(record["cpu_s"])
    return record


def _digest(outputs: list) -> str:
    blob = json.dumps(outputs, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _print_outputs(records: list) -> None:
    # The simulated latencies are deterministic outputs of the model: a
    # change that only speeds up the simulator must not move them at all,
    # so they are shown (with a digest to compare across commits) but are
    # never bounded metrics -- a "no worse than" bound would let them drift.
    print("virtual-time outputs (information only):")
    for rec in records:
        outputs = json.dumps(rec["result"].outputs, default=repr)
        print(f"  seed {rec['seed']}: {outputs}")
    print(f"  outputs digest: {_digest([r['result'].outputs for r in records])}")


def _books(workload, records: list, checks: dict) -> tuple[int, int, bool]:
    """Attempted and failed operations, and whether every check held.

    ``checks`` are run-level checks; a failed one fails every operation of
    the run, since the run's headline output is wrong.
    """
    attempted = sum(r["result"].attempted for r in records)
    failed = sum(r["result"].failed for r in records)
    correct = True
    for rec in records:
        for name, ok in rec["result"].checks.items():
            if not ok:
                correct = False
                print(f"CHECK FAILED (seed {rec['seed']}): {name}")
    checks = {**workload.run_checks([r["result"] for r in records]), **checks}
    for name, ok in checks.items():
        if not ok:
            correct = False
            failed = attempted
            print(f"CHECK FAILED: {name}")
    return attempted, failed, correct and failed == 0


def run_untraced(workload, seed: int, seconds: float) -> dict:
    from perfbench.metrics import END_TO_END, FAILED_FRAC

    records = []
    for k in range(max(MIN_UNITS, round(seconds / workload.unit_s))):
        records.append(run_unit(workload, seed * 1000 + k))
        rec = records[-1]
        print(
            f"unit seed={rec['seed']} setup={rec['setup_s']:.4f}s "
            f"wall={rec['wall_s']:.4f}s cpu={rec['cpu_s']:.4f}s "
            f"(raw wall={rec['raw_wall_s']:.4f}s, host speed "
            f"{rec['speed']:.3f}) events={rec['result'].events} "
            f"ops={rec['result'].attempted}",
            flush=True,
        )
    attempted, failed, correct = _books(workload, records, {})
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "cpu_s": statistics.median(r["cpu_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": _peak_rss_mb(),
    }
    _print_outputs(records)
    print(f"{workload.name}: median of {len(records)} units")
    for metric in END_TO_END:
        print(f"  {metric.name:<12} {values[metric.name]:.6g} {metric.unit}")
    print(f"  {FAILED_FRAC.name:<12} {failed / attempted:.6g} {FAILED_FRAC.unit}")
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END
    }
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }


def layer_values(rec: dict) -> dict:
    """Self-time rows of one traced unit, coordinator plus domain workers."""
    from perfbench.tracer import ROWS

    self_s = dict(rec["totals"]["self_s"])
    calls = dict(rec["totals"]["calls"])
    edges = dict(rec["totals"]["edges"])
    traced_s = rec["traced_s"]
    for interval, totals in rec["result"].child_traces:
        traced_s += interval
        for row in ROWS:
            self_s[row] += totals["self_s"][row]
            calls[row] += totals["calls"][row]
        for edge, n in totals["edges"].items():
            edges[edge] = edges.get(edge, 0) + n
    return {"self_s": self_s, "calls": calls, "edges": edges, "traced_s": traced_s}


def run_traced(workload, seed: int, seconds: float) -> dict:
    from perfbench.metrics import PER_LAYER
    from perfbench.tracer import LAYERS
    from perfbench.workloads import add_counters, new_tracer

    tracer = new_tracer()
    unit_seed = seed * 1000
    plain, traced = [], []
    checks = {}
    pairs = round(seconds / (TRACED_PAIR_COST * workload.unit_s))
    for _ in range(max(MIN_TRACED, pairs)):
        plain.append(run_unit(workload, unit_seed))
        traced.append(run_unit(workload, unit_seed, tracer))
        rec = traced[-1]
        rec["layers"] = layer_values(rec)
        rec["counts"] = add_counters(
            dict(rec["result"].counters), rec["totals"]["counts"]
        )
        print(
            f"unit seed={unit_seed} untraced={plain[-1]['measure_s']:.4f}s "
            f"traced={rec['measure_s']:.4f}s events={rec['result'].events}",
            flush=True,
        )
    first = traced[0]
    checks["tracing is passive: traced and untraced units dispatch the same "
           "sim events"] = all(
        r["result"].events == plain[0]["result"].events for r in plain + traced
    )
    # Span counts are not compared here: they include generator finalizers
    # that the cyclic garbage collector runs whenever its thresholds trip,
    # which depends on the heap the earlier units left behind.  They repeat
    # exactly across runs (each run starts from the same history), and the
    # calls are reported from the first traced unit.
    checks["counters repeat exactly across traced units"] = all(
        r["counts"] == first["counts"] for r in traced
    )
    attempted, failed, correct = _books(workload, plain + traced, checks)

    # The traced unit with the median traced time supplies every self-time,
    # so the rows and trace.unattributed_s sum to its traced time exactly.
    ranked = sorted(traced, key=lambda r: r["layers"]["traced_s"])
    median = ranked[(len(ranked) - 1) // 2]
    layers = median["layers"]
    counts = first["counts"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers["self_s"][layer]
        values[f"{layer}.calls"] = first["layers"]["calls"][layer]
    values["shard.wait_s"] = layers["self_s"]["shard.wait"]
    values["sim.events"] = first["result"].events
    sent = counts.get("homa.packets", 0)
    values["homa.useful_ratio"] = (
        (sent - counts.get("homa.retransmitted", 0)) / sent if sent else 0.0
    )
    values["trace.traced_s"] = layers["traced_s"]
    values["trace.unattributed_s"] = layers["self_s"]["unattributed"]
    values["trace.overhead_s"] = statistics.median(
        r["measure_s"] for r in traced
    ) - statistics.median(r["measure_s"] for r in plain)
    metrics = {}
    for metric in PER_LAYER:
        value = values.get(metric.name, counts.get(metric.name, 0))
        metrics[metric.name] = {"value": value, "unit": metric.unit}

    _print_outputs(plain[:1])
    _print_share_table(workload.name, layers, first["layers"]["calls"], values)
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }


def _print_share_table(name: str, layers: dict, calls: dict, values: dict) -> None:
    from perfbench.metrics import PER_LAYER

    total = layers["traced_s"]
    print(f"{name}: where the traced host time went "
          f"({total:.4f} s over all processes)")
    print(f"  {'layer':<14}{'self_s':>10}{'share':>8}{'calls':>12}  should move")
    moves = {m.name.split(".")[0]: f"{m.moves} on {m.on}" for m in PER_LAYER if m.on}
    rows = sorted(layers["self_s"].items(), key=lambda kv: -kv[1])
    for row, self_s in rows:
        share = 100.0 * self_s / total if total else 0.0
        print(f"  {row:<14}{self_s:>10.4f}{share:>7.1f}%{calls.get(row, 0):>12}"
              f"  {moves.get(row, '')}")
    covered = sum(layers["self_s"].values())
    print(f"  {'sum':<14}{covered:>10.4f}  (traced {total:.4f} s)")
    busiest = sorted(layers["edges"].items(), key=lambda kv: -kv[1])[:8]
    print("  most spans by caller>layer: "
          + ", ".join(f"{edge} {n}" for edge, n in busiest))
    print(f"  trace.overhead_s {values['trace.overhead_s']:.4f} s "
          f"(median traced minus median untraced measured phase)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _bootstrap():
        print("error: no simulator sources (src/repro) beside the benchmark",
              file=sys.stderr)
        return 2
    _preload()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.trace:
        line = run_traced(workload, args.seed, args.seconds)
    else:
        line = run_untraced(workload, args.seed, args.seconds)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
