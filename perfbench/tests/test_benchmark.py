"""The benchmark's own tests: determinism, passivity, the rpc-w3 knee,
the result contract and BENCHMARK.json's agreement with the code.

Run from the repository root (slow: every workload runs traced)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracer import ROWS
from perfbench.workloads import HOMA_CONFIG, WORKLOADS, new_tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: A seed no benchmark parameter was tuned on, so claims can be re-checked.
HELD_OUT_SEED = 7919


@pytest.fixture(scope="module", autouse=True)
def preloaded():
    run._preload()


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_repeat_counts_exactly_and_tracing_is_passive(name):
    lines = []
    for _ in range(2):
        out = _cli("--workload", name, "--seed", "1", "--seconds", "0", "--trace", "1")
        assert out.returncode == 0, out.stderr
        lines.append(json.loads(out.stdout.strip().splitlines()[-1]))
    first, second = lines
    # Each run checks that its traced and untraced units dispatch the same
    # simulation events, and that its counters repeat across traced units.
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m.name for m in PER_LAYER}
    counts = {m.name for m in PER_LAYER if m.unit != "s"}
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["sim.events"]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_sum_to_traced_time(name):
    workload = WORKLOADS[name]
    rec = run.run_unit(workload, seed=1000, tracer=new_tracer())
    layers = run.layer_values(rec)
    assert set(layers["self_s"]) == set(ROWS)
    assert sum(layers["self_s"].values()) == pytest.approx(
        layers["traced_s"], rel=1e-9
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_runs_without_failures(name):
    rec = run.run_unit(WORKLOADS[name], seed=HELD_OUT_SEED)
    result = rec["result"]
    assert result.attempted > 0
    assert result.failed == 0
    assert all(result.checks.values()), result.checks


def _smt_events_per_rpc(name: str, load: float, duration: float, seed: int) -> float:
    """Simulation events per issued RPC of the smt half of a fabric workload."""
    from repro.load import ClusterHarness, OpenLoopEngine
    from repro.net.faults import FaultConfig
    from repro.testbed import ClosTestbed

    workload = WORKLOADS[name]
    bed = ClosTestbed.leaf_spine(
        num_racks=2, hosts_per_rack=2, num_spines=2, num_app_cores=12, seed=1
    )
    engine = OpenLoopEngine(
        ClusterHarness(bed, "smt", config=HOMA_CONFIG), workload.distribution,
        load=load, duration=duration, seed=seed,
    )
    engine.calibrate()
    if workload.drop_rate:
        bed.install_faults(FaultConfig(drop_rate=workload.drop_rate), fault_seed=seed)
    start = bed.loop.dispatched
    result = engine.run()
    return (bed.loop.dispatched - start) / result.issued


@pytest.mark.parametrize(
    "name, seed",
    [("rpc-w3", 1000), ("rpc-w3", HELD_OUT_SEED), ("bulk-w5-lossy", HELD_OUT_SEED)],
)
def test_load_is_below_the_smt_backlog_knee(name, seed):
    # Below the knee, events per RPC do not depend on how long load runs;
    # past it, a resend storm makes them grow with the duration.
    workload = WORKLOADS[name]
    short = _smt_events_per_rpc(name, workload.load, workload.duration, seed)
    long = _smt_events_per_rpc(name, workload.load, 2 * workload.duration, seed)
    assert long / short == pytest.approx(1.0, abs=0.15)


def test_knee_probe_detects_a_resend_storm():
    # The same probe at 0.15 load, where smt's backlog grows without bound.
    short = _smt_events_per_rpc("rpc-w3", 0.15, 1e-3, 11)
    long = _smt_events_per_rpc("rpc-w3", 0.15, 2e-3, 11)
    assert long / short > 1.5


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_result_line_has_every_metric(capsys):
    line = run.run_untraced(WORKLOADS["session-churn"], seed=1, seconds=0)
    printed = capsys.readouterr().out
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "failed_frac  0 ratio" in printed


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _cli(
        "--workload", "rpc-w3", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

