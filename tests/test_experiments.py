"""Integration tests of the per-figure experiment harness at tiny scale."""

import hashlib

import pytest

from repro.experiments import (
    SCALES,
    EvaluationSuite,
    full_report,
    fig_data_movement,
    fig_dynamic_offload,
    fig_latency,
    fig_lud_heatmap,
    fig_power_energy,
    fig_speedup,
    render_table_3_1,
    render_table_4_1,
    scale_from_env,
    table_3_1,
)
from repro.system import SystemKind


@pytest.fixture(scope="module")
def suite():
    """One shared tiny-scale suite; figures reuse its cached runs."""
    s = EvaluationSuite("tiny", workloads=["mac", "rand_mac", "lud", "pagerank"])
    return s


#: sha256 of the report text on the module suite: the full report (both
#: tables and every figure section) and a subset named out of canonical
#: order (rendered in canonical order, without the tables).  The same under
#: any PYTHONHASHSEED; a refactor of the figure layer must keep both.
REPORT_SHA256 = "a2f0de12d7837e4ed5ea2bb64812f528da208e1fde3a58cf707513f955218ec9"
SUBSET_REPORT_SHA256 = "43a1d55211677973fbb9cefbac30e2d03ae0459939546d620532a53a9726bcee"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_bytes_are_pinned(suite):
    assert _sha256(full_report(suite)) == REPORT_SHA256
    assert _sha256(full_report(suite, figures=["degraded", "speedup"])) == \
        SUBSET_REPORT_SHA256


def test_scales_registry(monkeypatch):
    assert set(SCALES) == {"tiny", "small", "default"}
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert scale_from_env().name == "tiny"
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        scale_from_env()


def test_tables_render():
    rows = dict(table_3_1())
    assert "flow_id" in rows and "Gather" in rows["gflag"]
    assert "Flow Table" in render_table_3_1()
    assert "dragonfly" in render_table_4_1()


def test_suite_caches_results(suite):
    first = suite.result("mac", "ARF-tid")
    second = suite.result("mac", SystemKind.ARF_TID)
    assert first is second
    assert suite.speedup("mac", "ARF-tid") > 0
    assert suite.verified()


def test_fig_5_1_speedup_structure(suite):
    data = fig_speedup.compute(suite)
    panels = data["panels"]
    assert "mac" in panels["microbenchmarks"]
    assert "lud" in panels["benchmarks"]
    row = panels["microbenchmarks"]["mac"]
    assert row["DRAM"] == pytest.approx(1.0)
    assert set(row) == {"DRAM", "HMC", "ART", "ARF-tid", "ARF-addr"}
    assert "ARF-tid" in data["improvement_over_hmc"]
    text = fig_speedup.render(data)
    assert "Figure 5.1" in text and "gmean" in text


def test_fig_5_2_latency_structure(suite):
    data = fig_latency.compute(suite)
    row = data["microbenchmarks"]["mac"]
    assert row["ARF-tid.request"] >= 0
    assert row["ARF-tid.total"] >= row["ARF-tid.request"]
    assert "Figure 5.2" in fig_latency.render(data)


def test_fig_5_3_heatmap_structure(suite):
    data = fig_lud_heatmap.compute(suite)
    assert set(data) == {"ARF-tid", "ARF-addr"}
    per_cube = data["ARF-tid"]["updates_received"]
    assert len(per_cube) == 16
    assert sum(per_cube.values()) > 0
    assert data["ARF-tid"]["summary"]["updates_received"]["imbalance"] >= 1.0
    assert "Figure 5.3" in fig_lud_heatmap.render(data)


def test_fig_5_4_data_movement_structure(suite):
    data = fig_data_movement.compute(suite)
    row = data["microbenchmarks"]["mac"]
    assert row["HMC.total"] == pytest.approx(1.0)
    assert row["ARF-tid.active_req"] > 0
    assert row["HMC.active_req"] == 0.0
    assert "Figure 5.4" in fig_data_movement.render(data)


def test_fig_5_5_to_5_7_power_energy_edp(suite):
    power = fig_power_energy.compute_power(suite)
    energy = fig_power_energy.compute_energy(suite)
    edp = fig_power_energy.compute_edp(suite)
    for data in (power, energy):
        row = data["microbenchmarks"]["mac"]
        assert row["DRAM.total"] == pytest.approx(1.0)
        assert row["ARF-tid.network"] >= 0.0
    edp_row = edp["panels"]["microbenchmarks"]["mac"]
    assert edp_row["DRAM"] == pytest.approx(1.0)
    assert "ARF-tid" in edp["edp_reduction_vs_hmc"]
    assert "Figure 5.5" in fig_power_energy.render_power(power)
    assert "Figure 5.6" in fig_power_energy.render_energy(energy)
    assert "Figure 5.7" in fig_power_energy.render_edp(edp)


def test_fig_5_8_dynamic_offload(suite):
    data = fig_dynamic_offload.compute(suite)
    assert set(data["runs"]) == {"HMC", "ARF-tid", "ARF-tid-adaptive"}
    assert data["speedups"]["HMC"] == pytest.approx(1.0)
    # The adaptive scheme never does worse than always-offloading at tiny scale,
    # because it keeps cache-friendly phases on the host.
    assert data["speedups"]["ARF-tid-adaptive"] >= data["speedups"]["ARF-tid"] * 0.9
    assert data["threshold"] > 0
    assert "Figure 5.8" in fig_dynamic_offload.render(data)


def test_topology_sweep_figure(suite):
    from repro.experiments import fig_topology

    data = fig_topology.plan(suite).compute(suite)
    assert list(data["rows"]) == ["dragonfly16c4", "mesh16c4", "torus16c4"]
    assert data["kinds"] == ["HMC", "ARF-tid"]
    assert data["workloads"] == ["mac", "pagerank"]
    for net in data["rows"]:
        for kind in data["kinds"]:
            assert data["speedup"][net][kind] > 0
            assert data["queue_delay_per_hop"][net][kind] >= 0.0
    # The default-network column reuses the plain matrix runs: the dragonfly
    # cells must agree exactly with the headline speedup figure.
    assert data["per_workload"]["dragonfly16c4"]["ARF-tid"]["mac"] == \
        pytest.approx(suite.speedup("mac", "ARF-tid"))
    text = fig_topology.FIGURE.render(data)
    assert "Topology sweep" in text and "mesh16c4" in text


def test_topology_figure_prefetch_batches_variant_runs(tmp_path):
    from repro.experiments import fig_topology

    cold = EvaluationSuite("tiny", workloads=["mac"], workers=2,
                           cache_dir=tmp_path)
    stats = cold.prefetch(figures=["topology"])
    # 1 DRAM baseline pair + 3 networks x 2 schemes (the dragonfly cells are
    # the default network, so they double as plain matrix runs).
    assert stats == {"pairs": 7, "reused": 0, "disk_hits": 0, "simulated": 7}
    before = cold.simulations_run
    fig_topology.run(cold)
    assert cold.simulations_run == before      # figure served from the batch

    warm = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)
    warm_stats = warm.prefetch(figures=["topology"])
    assert warm_stats["simulated"] == 0
    assert warm_stats["disk_hits"] == 7


def test_suite_with_network_variant_runs_every_figure(tmp_path):
    """A non-default suite parameterizes the whole figure family by network
    shape: same API, distinct labels and cache entries."""
    from repro.hmc import HMCNetworkConfig

    net = HMCNetworkConfig(topology="mesh", num_cubes=8)
    mesh_suite = EvaluationSuite("tiny", workloads=["mac"],
                                 kinds=[SystemKind.DRAM, SystemKind.HMC,
                                        SystemKind.ARF_TID],
                                 net=net, cache_dir=tmp_path)
    data = fig_speedup.compute(mesh_suite)
    row = data["panels"]["microbenchmarks"]["mac"]
    # Figure columns stay scheme-keyed (the network is suite-wide context)...
    assert set(row) == {"DRAM", "HMC", "ARF-tid"}
    assert row["DRAM"] == pytest.approx(1.0)
    # ...but the runs themselves carry the variant label, and the result
    # matrix + cache key on it.
    result = mesh_suite.result("mac", SystemKind.HMC)
    assert result.config == "HMC@mesh8c4"
    assert ("mac", "HMC@mesh8c4") in mesh_suite._results
    assert ("mac", "HMC") not in mesh_suite._results


def test_lud_heatmap_renders_at_the_suite_cube_count(tmp_path):
    from repro.experiments import fig_lud_heatmap
    from repro.hmc import HMCNetworkConfig

    suite = EvaluationSuite("tiny", workloads=["lud"],
                            net=HMCNetworkConfig(topology="mesh", num_cubes=8))
    text = fig_lud_heatmap.run(suite)
    assert "Figure 5.3" in text
    data = fig_lud_heatmap.compute(suite)
    # 8-cube network: per-cube counts stop at cube 7, no phantom cubes.
    assert set(data["ARF-tid"]["updates_received"]) == set(range(8))
    assert " c8" not in text and "c15" not in text


def test_dynamic_offload_respects_suite_network():
    from repro.experiments import fig_dynamic_offload
    from repro.hmc import HMCNetworkConfig

    suite = EvaluationSuite("tiny", net=HMCNetworkConfig(topology="mesh"))
    jobs = fig_dynamic_offload.jobs(suite)
    # The bespoke LUD replays must run on the suite's network, with the
    # variant label keeping their cache entries apart from the default's.
    assert {config.label for _key, config, _w, _p in jobs} == \
        {"HMC@mesh16c4", "ARF-tid@mesh16c4"}


def test_degraded_network_zero_rate_is_the_plain_topology_config():
    from repro.experiments import fig_degraded
    from repro.system.config import make_network_config

    # The failure-free anchor row IS the topology-sweep config (same
    # label), so the two figures share runs and cache entries.
    anchor = fig_degraded.degraded_network("mesh", 0.0)
    assert anchor == make_network_config(topology="mesh")
    assert anchor.failure_rate == 0.0
    degraded = fig_degraded.degraded_network("mesh", 2.0)
    assert degraded.failure_rate == 2.0
    assert degraded.failure_seed == fig_degraded.DEGRADED_SEED
    assert degraded.label == "mesh16c4-f2s7"


def test_degraded_sweep_networks_dedup_and_order():
    from repro.experiments import fig_degraded

    suite = EvaluationSuite("tiny")
    sweep = fig_degraded.plan(suite, ["mesh", "mesh"], [0.0, 2.0, 2.0])
    assert [headings for headings, _net in sweep.rows.values()] == \
        [("mesh", 0.0), ("mesh", 2.0)]
    default = fig_degraded.plan(suite)
    assert [headings for headings, _net in default.rows.values()] == \
        [(t, r) for t in fig_degraded.SWEEP_TOPOLOGIES
         for r in fig_degraded.SWEEP_FAILURE_RATES]


def test_degraded_figure_structure(suite):
    from repro.experiments import fig_degraded

    data = fig_degraded.plan(suite, topologies=["mesh"],
                             failure_rates=[0.0, 2.0],
                             kinds=[SystemKind.ARF_TID],
                             workloads=["mac"]).compute(suite)
    assert data["rows"] == {"mesh16c4": ("mesh", 0.0),
                            "mesh16c4-f2s7": ("mesh", 2.0)}
    # The failure-free anchor delivers everything; the degraded cell still
    # runs to completion (parked hops retransmit) but records interruptions.
    delivered = data["delivered_fraction"]
    assert delivered["mesh16c4"]["ARF-tid"] == pytest.approx(1.0)
    assert 0.0 < delivered["mesh16c4-f2s7"]["ARF-tid"] <= 1.0
    for label in data["rows"]:
        assert data["speedup"][label]["ARF-tid"] > 0
    text = fig_degraded.FIGURE.render(data)
    assert "Degraded-mode sweep" in text
    assert "mesh16c4-f2s7" not in text  # tables key topology + rate
    assert "Delivered-traffic fraction" in text
