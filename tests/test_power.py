"""Unit tests for the energy/power/EDP model."""

import pytest

from repro.power import EnergyBreakdown, EnergyModel
from repro.sim import Publisher, Simulator, StatsRegistry


class _Energy(Publisher):
    """A minimal publisher: one ``energy_pj`` total and one other counter."""

    COUNTERS = (("energy_pj", "energy_pj"), ("unrelated_counter", "other"))

    def __init__(self, stats, name, energy_pj=0.0, other=0.0):
        self.name = name
        self.energy_pj = energy_pj
        self.other = other
        stats.register(self)


def test_energy_classification_by_prefix():
    stats = StatsRegistry()
    _Energy(stats, "cache", 1000.0)
    _Energy(stats, "noc", 500.0)
    _Energy(stats, "dram", 2000.0)
    _Energy(stats, "hmc.cube3.vault1", 700.0)
    _Energy(stats, "link.0->1", 300.0)
    _Energy(stats, "network", other=99.0)      # not energy, ignored
    cache_j, memory_j, network_j = EnergyModel(stats).energy_j()
    assert cache_j == pytest.approx(1500e-12)
    assert memory_j == pytest.approx(2700e-12)
    assert network_j == pytest.approx(300e-12)


def test_breakdown_power_and_edp():
    breakdown = EnergyBreakdown(cache_j=1e-6, memory_j=2e-6, network_j=1e-6, runtime_s=2e-3)
    assert breakdown.total_j == pytest.approx(4e-6)
    assert breakdown.power_w == pytest.approx(2e-3)
    assert breakdown.edp == pytest.approx(8e-9)
    as_dict = breakdown.as_dict()
    assert as_dict["total_j"] == pytest.approx(4e-6)


def test_normalization_to_baseline():
    baseline = EnergyBreakdown(cache_j=2e-6, memory_j=2e-6, network_j=0.0, runtime_s=1e-3)
    other = EnergyBreakdown(cache_j=1e-6, memory_j=1e-6, network_j=2e-6, runtime_s=0.5e-3)
    normalized = other.normalized_to(baseline)
    assert normalized["total"] == pytest.approx(1.0)
    assert normalized["cache"] == pytest.approx(0.25)
    assert normalized["edp"] == pytest.approx((4e-6 * 0.5e-3) / (4e-6 * 1e-3))


def test_from_simulator_and_runtime_conversion():
    sim = Simulator(cpu_freq_ghz=2.0)
    _Energy(sim.stats, "dram", 1e6)
    model = EnergyModel(sim.stats)
    breakdown = model.breakdown(runtime_cycles=2e9, cpu_freq_ghz=2.0)
    assert breakdown.runtime_s == pytest.approx(1.0)
    assert breakdown.memory_j == pytest.approx(1e-6)
    assert breakdown.power_w == pytest.approx(1e-6)


def test_zero_runtime_power_is_zero():
    breakdown = EnergyBreakdown(1e-9, 1e-9, 1e-9, runtime_s=0.0)
    assert breakdown.power_w == 0.0
