"""Tests for system configuration, machine building and the run driver."""

import pytest

from repro.dram import DRAMSystem
from repro.hmc import HMCMemorySystem
from repro.sim import StatsRegistry
from repro.system import (
    CONFIG_ORDER,
    SystemKind,
    all_system_configs,
    build_system,
    collect_results,
    make_system_config,
    run_program,
    run_workload,
    table_4_1,
)
from repro.workloads import make_workload, WorkloadConfig

from helpers import tiny_params


def test_system_kind_properties():
    assert SystemKind.DRAM.uses_hmc is False
    assert SystemKind.HMC.uses_hmc and not SystemKind.HMC.uses_active_routing
    assert SystemKind.ARF_TID.uses_active_routing
    assert SystemKind.ART.scheme is not None
    assert SystemKind.HMC.scheme is None
    assert SystemKind.from_name("arf-addr") is SystemKind.ARF_ADDR
    with pytest.raises(ValueError):
        SystemKind.from_name("weird")


def test_config_order_matches_paper():
    assert [k.value for k in CONFIG_ORDER] == ["DRAM", "HMC", "ART", "ARF-tid", "ARF-addr"]
    assert len(all_system_configs()) == 5


def test_make_system_config_profiles():
    paper = make_system_config("ARF-tid", profile="paper")
    scaled = make_system_config("ARF-tid", profile="scaled")
    assert paper.cmp.num_cores == 16
    assert paper.cmp.cache.l2_size == 16 * 1024 * 1024
    assert scaled.cmp.num_cores == 4
    assert scaled.cmp.cache.l2_size < paper.cmp.cache.l2_size
    with pytest.raises(ValueError):
        make_system_config("HMC", profile="huge")


def test_table_4_1_contents():
    rows = dict(table_4_1())
    assert "CPU Core" in rows and "16 O3cores" in rows["CPU Core"]
    assert "HMC-Net" in rows and "dragonfly" in rows["HMC-Net"]
    assert "DRAM Baseline" in rows


def test_build_system_kinds():
    dram = build_system("DRAM", num_cores=2)
    assert isinstance(dram.memory, DRAMSystem)
    assert dram.ar_host is None and dram.trace_mode == "baseline"
    hmc = build_system("HMC", num_cores=2)
    assert isinstance(hmc.memory, HMCMemorySystem)
    assert hmc.ar_host is None
    arf = build_system("ARF-tid", num_cores=2)
    assert arf.ar_host is not None and arf.trace_mode == "active"
    assert all(cube.are is not None for cube in arf.memory.cubes)


def test_run_program_rejects_wrong_mode():
    workload = make_workload("reduce", WorkloadConfig(num_threads=2), array_elements=128)
    active_program = workload.generate("active")
    config = make_system_config("DRAM", num_cores=2)
    with pytest.raises(ValueError):
        run_program(config, active_program)


def test_run_workload_rejects_too_many_threads():
    config = make_system_config("HMC", num_cores=2)
    with pytest.raises(ValueError):
        run_workload(config, "reduce", num_threads=4, array_elements=128)


@pytest.mark.parametrize("kind", ["DRAM", "HMC", "ART", "ARF-tid", "ARF-addr"])
def test_run_workload_mac_on_every_configuration(kind):
    result = run_workload(kind, "mac", num_threads=2, array_elements=512)
    assert result.cycles > 0
    assert result.instructions > 0
    assert result.energy.total_j > 0
    assert result.flows_verified
    assert result.config == kind
    summary = result.summary()
    assert summary["cycles"] == result.cycles
    if kind in ("ART", "ARF-tid", "ARF-addr"):
        assert result.mode == "active"
        assert result.update_roundtrip > 0
        checked, mismatched = result.flow_checks
        assert checked >= 1 and mismatched == 0
        assert result.data_movement["active_req"] > 0
    else:
        assert result.mode == "baseline"
        assert result.data_movement["active_req"] == 0.0


def test_speedup_and_result_helpers():
    slow = run_workload("DRAM", "rand_mac", num_threads=2, array_elements=768)
    fast = run_workload("ARF-tid", "rand_mac", num_threads=2, array_elements=768)
    assert fast.speedup_over(slow) == pytest.approx(slow.cycles / fast.cycles)
    assert fast.total_data_bytes > 0
    assert fast.ipc > 0


@pytest.mark.parametrize("name", ["pagerank", "lud", "sgemm", "spmv", "backprop"])
def test_benchmarks_run_and_verify_on_arf(name):
    result = run_workload("ARF-tid", name, num_threads=2, **tiny_params(name))
    assert result.flows_verified
    assert result.cycles > 0
    per_cube_updates = result.per_cube["updates_received"]
    assert sum(per_cube_updates.values()) > 0


# -- network-variant configuration labels ----------------------------------------

def test_network_labels_default_and_variant():
    from repro.hmc import HMCNetworkConfig, default_network

    default = make_system_config(SystemKind.ARF_TID)
    assert default.network_label is None
    assert default.label == "ARF-tid"                  # unchanged from PR 3
    assert default_network().label == "dragonfly16c4"

    variant = make_system_config(SystemKind.ARF_TID, topology="mesh")
    assert variant.network_label == "mesh16c4"
    assert variant.label == "ARF-tid@mesh16c4"

    # The DRAM baseline has no memory network: its label never forks, so one
    # cached baseline serves every network sweep.
    dram = make_system_config(SystemKind.DRAM, topology="mesh")
    assert dram.network_label is None and dram.label == "DRAM"

    # Non-shape deviations fold into a digest suffix so labels stay unique.
    import dataclasses
    tweaked = variant.with_network(
        dataclasses.replace(variant.hmc_net, router_delay=5.0))
    assert tweaked.network_label.startswith("mesh16c4-")
    assert tweaked.network_label != variant.network_label


def test_make_system_config_rejects_impossible_networks_eagerly():
    with pytest.raises(ValueError, match="exactly 18 cubes"):
        make_system_config(SystemKind.ART, topology="dragonfly", num_cubes=18)


def test_build_system_with_variant_network():
    config = make_system_config(SystemKind.HMC, topology="torus", num_cubes=8)
    system = build_system(config)
    assert isinstance(system.memory, HMCMemorySystem)
    assert len(system.memory.cubes) == 8
    assert system.memory.topology.name == "torus2x4"


def test_run_workload_does_not_mutate_callers_workload_config():
    wconfig = WorkloadConfig(num_threads=4)
    # A real parameter (unknown names now fail fast) that the override below
    # would clobber if run_workload wrote through into the caller's dict.
    wconfig.extra["array_elements"] = 64
    run_workload("HMC", "mac", num_threads=2, workload_config=wconfig,
                 array_elements=128)
    # The caller's object keeps its thread count and its extra dict untouched.
    assert wconfig.num_threads == 4
    assert wconfig.extra == {"array_elements": 64}


# -- result collection ----------------------------------------------------------

def _finished_pagerank(kind):
    config = make_system_config(kind)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload("pagerank", WorkloadConfig(num_threads=4),
                            **tiny_params("pagerank")).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    system.sim.run_until_idle()
    return system, program


@pytest.mark.parametrize("kind", ["DRAM", "HMC", "ARF-tid"])
def test_collect_results_reads_the_registry_once(kind, monkeypatch):
    """Collection reads its totals straight from the components: the
    registry's every-counter walk never runs, and its one read is the four
    Update-latency histograms (absent without Active-Routing engines)."""
    system, program = _finished_pagerank(kind)
    walks = []
    reads = []
    iter_counters = StatsRegistry._iter_counters
    histogram = StatsRegistry.histogram

    def counting_walk(registry):
        walks.append(registry)
        return iter_counters(registry)

    def recording_histogram(registry, name):
        hist = histogram(registry, name)
        reads.append((name, hist is not None))
        return hist

    monkeypatch.setattr(StatsRegistry, "_iter_counters", counting_walk)
    monkeypatch.setattr(StatsRegistry, "histogram", recording_histogram)
    collect_results(system, program)
    assert walks == []
    engines = system.ar_host is not None
    assert reads == [(f"ar.update_latency.{part}", engines)
                     for part in ("request", "stall", "response", "total")]


def test_per_cube_vault_accesses_counts_only_vault_accesses():
    system, program = _finished_pagerank("ARF-tid")
    result = collect_results(system, program)
    stats = system.sim.stats
    cubes = system.memory.cubes
    vault_accesses = result.per_cube["vault_accesses"]
    assert vault_accesses == {cube.node_id: cube.total_vault_accesses() for cube in cubes}
    # Every vault access enters through its cube's local_access().
    assert vault_accesses == {cube.node_id: stats.counter(f"{cube.name}.local_accesses")
                              for cube in cubes}
    assert sum(vault_accesses.values()) > 0
