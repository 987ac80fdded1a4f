"""Energy, power and EDP accounting (Section 5.3).

Every simulated component accumulates ``*.energy_pj`` counters as it operates:

* caches and the on-chip NoC (CACTI-style per-access constants),
* DRAM at 39 pJ/bit and HMC vaults at 12 pJ/bit,
* memory-network links at 5 pJ/bit per hop.

The :class:`EnergyModel` folds those counters into the cache / memory / network
breakdown the paper plots, and derives power (energy / runtime) and the
energy-delay product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..sim import StatsRegistry


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules spent per subsystem over one run, plus derived power and EDP."""

    cache_j: float
    memory_j: float
    network_j: float
    runtime_s: float

    @property
    def total_j(self) -> float:
        return self.cache_j + self.memory_j + self.network_j

    @property
    def power_w(self) -> float:
        return self.total_j / self.runtime_s if self.runtime_s > 0 else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.total_j * self.runtime_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "cache_j": self.cache_j,
            "memory_j": self.memory_j,
            "network_j": self.network_j,
            "total_j": self.total_j,
            "runtime_s": self.runtime_s,
            "power_w": self.power_w,
            "edp": self.edp,
        }

    def normalized_to(self, baseline: "EnergyBreakdown") -> Dict[str, float]:
        """Each component and the derived metrics relative to ``baseline``."""
        def _ratio(a: float, b: float) -> float:
            return a / b if b > 0 else 0.0

        return {
            "cache": _ratio(self.cache_j, baseline.total_j),
            "memory": _ratio(self.memory_j, baseline.total_j),
            "network": _ratio(self.network_j, baseline.total_j),
            "total": _ratio(self.total_j, baseline.total_j),
            "power": _ratio(self.power_w, baseline.power_w),
            "edp": _ratio(self.edp, baseline.edp),
        }


PICO = 1e-12


class EnergyModel:
    """Classifies the per-component energy counters into the paper's breakdown."""

    CACHE_PREFIXES = ("cache", "noc")
    MEMORY_PREFIXES = ("dram", "hmc.cube")
    NETWORK_PREFIXES = ("link.", "network")

    def __init__(self, stats: StatsRegistry) -> None:
        self.stats = stats

    def energy_j(self, counters: Optional[Mapping[str, float]] = None
                 ) -> Tuple[float, float, float]:
        """``(cache, memory, network)`` joules in one pass over the counters.

        ``counters`` maps names to values in the order to sum them in;
        without one the registry is read.  Each group sums its
        ``*.energy_pj`` values in that order.
        """
        if counters is None:
            counters = self.stats.counters()
        cache = memory = network = 0.0
        for name, value in counters.items():
            if not name.endswith(".energy_pj"):
                continue
            if name.startswith(self.CACHE_PREFIXES):
                cache += value
            elif name.startswith(self.MEMORY_PREFIXES):
                memory += value
            elif name.startswith(self.NETWORK_PREFIXES):
                network += value
        return cache * PICO, memory * PICO, network * PICO

    def breakdown(self, runtime_cycles: float, cpu_freq_ghz: float = 2.0,
                  counters: Optional[Mapping[str, float]] = None) -> EnergyBreakdown:
        runtime_s = runtime_cycles / (cpu_freq_ghz * 1e9)
        cache_j, memory_j, network_j = self.energy_j(counters)
        return EnergyBreakdown(cache_j=cache_j, memory_j=memory_j,
                               network_j=network_j, runtime_s=runtime_s)
