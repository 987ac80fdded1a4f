"""Per-request counters read the same mid-run as at the end.

The per-load/store, per-Update and per-miss counts (``core<i>.mem_hits``,
``core<i>.mem_misses_issued``, ``core<i>.updates_issued``, ``hmcmem.*``)
are plain integers that the registry reads by name.  Reading part-way
through a run checks that each is published: a missing one would read low
against the identities below.
"""

import pytest

from repro.isa import LoadOp, StoreOp, UpdateOp
from repro.system.builder import build_system
from repro.system.config import SystemKind, make_system_config
from repro.workloads import WorkloadConfig, make_workload

from helpers import tiny_params

#: A horizon inside the tiny pagerank run of every configuration below.
MID_RUN_CYCLE = 200.0


def _start_tiny_pagerank(kind):
    config = make_system_config(kind)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload("pagerank", WorkloadConfig(num_threads=4, seed=3),
                            **tiny_params("pagerank")).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    return system


def _check_identities(system):
    counters = system.sim.stats.counters()
    for core in system.cmp.cores:
        retired = core.trace[:core.pc]
        retired_mem_ops = sum(1 for op in retired if op.__class__ in (LoadOp, StoreOp))
        issued = (counters.get(f"{core.name}.mem_hits", 0.0)
                  + counters.get(f"{core.name}.mem_misses_issued", 0.0))
        assert issued == retired_mem_ops, core.name
        retired_updates = sum(1 for op in retired if op.__class__ is UpdateOp)
        assert counters.get(f"{core.name}.updates_issued", 0.0) == retired_updates
    if system.config.kind is SystemKind.DRAM:
        assert not [name for name in counters if name.startswith("hmcmem.")]
        return
    controller_requests = sum(value for name, value in counters.items()
                              if name.startswith("hmcctrl")
                              and name.endswith(".requests"))
    assert counters.get("hmcmem.requests", 0.0) == controller_requests
    typed_bytes = sum(value for name, value in counters.items()
                      if name.startswith("hmcmem.bytes."))
    assert counters.get("hmcmem.bytes", 0.0) == typed_bytes


@pytest.mark.parametrize("kind", [SystemKind.HMC, SystemKind.DRAM, SystemKind.ARF_TID],
                         ids=lambda kind: kind.value)
def test_batched_counts_hold_mid_run_and_at_the_end(kind):
    system = _start_tiny_pagerank(kind)
    system.sim.run(until=MID_RUN_CYCLE)
    assert not system.cmp.all_done
    assert any(0 < core.pc < len(core.trace) for core in system.cmp.cores)
    _check_identities(system)
    # Not vacuous: the horizon falls after the first misses and offloads.
    counters = system.sim.stats.counters()
    counted = "updates_issued" if kind is SystemKind.ARF_TID else "mem_misses_issued"
    assert counters[f"core0.{counted}"] > 0
    if kind is SystemKind.HMC:
        assert counters["hmcmem.requests"] > 0
    # Reading changed nothing; finishing the run must not count anything
    # twice.
    system.sim.run_until_idle()
    assert system.cmp.all_done
    _check_identities(system)
