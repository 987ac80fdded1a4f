"""The benchmark's own test: tiny-size runs of every workload.

Run from the repository root with ``python -m pytest perfbench`` (about a
minute).  It checks that a run prints every metric of ``BENCHMARK.json``
with its unit, that exact counts repeat across two traced runs, that tracing
changes no simulated result, and that a wrong reduction counts as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
#: Per-layer metrics that are exact counts: identical on every run of a seed.
EXACT = ["system.sim_cycles", "sim.events", "core.updates_received",
         "core.operand_reads_served", "core.operand_buffer_stalls",
         "network.injected", "network.hops", "network.bytes",
         "hmc.vault_accesses", "cpu.instructions", "cpu.l1_accesses",
         "dram.bytes", "experiments.jobs_simulated"]


def bench(workload: str, trace: int, seed: int = 7):
    """One tiny run: its readable table lines and its result object."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in SPEC[kind]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines[:-1]), f"{name} missing from the table"
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def untraced_counts(workload: str, seed: int = 7):
    path = ROOT / ".bench_build" / "perfbench" / "out" / \
        f"{workload}-seed{seed}-trace0.json"
    return [op["counts"] for op in json.loads(path.read_text())["ops"]
            if op["ok"] and not op.get("setup_probe")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_everything_and_tracing_changes_nothing(workload):
    bench(workload, trace=0)
    traced = bench(workload, trace=1)
    again = bench(workload, trace=1)
    for name in EXACT:
        assert traced[name] == again[name], name
    for counts in untraced_counts(workload):
        assert counts["sim.events"] == traced["sim.events"]
        assert counts["system.sim_cycles"] == traced["system.sim_cycles"]
    layers = sum(value for name, value in traced.items() if name.endswith(".self_s"))
    assert layers == pytest.approx(traced["trace.profiled_s"], rel=1e-9)
    assert traced["trace.overhead"] > 0


def test_a_wrong_reduction_is_a_failed_operation(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import ops
    import repro.system.results as results

    assert ops.attempt(ops.kernel_op, "mac-art", 7, True, None)["ok"]
    # A negative tolerance makes every gathered reduction a mismatch.
    monkeypatch.setattr(results, "RESULT_TOLERANCE", -1.0)
    failed = ops.attempt(ops.kernel_op, "mac-art", 7, True, None)
    assert not failed["ok"] and "mismatched" in failed["error"]
