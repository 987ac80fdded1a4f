"""Run results: every metric the evaluation figures need, collected once per run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..isa import ProgramTrace
from ..power.energy_model import EnergyBreakdown, EnergyModel
from .builder import BuiltSystem

#: Relative tolerance used when checking reduction results against expectations.
RESULT_TOLERANCE = 1e-6


@dataclass
class RunResult:
    """Everything measured from one (workload, configuration) simulation."""

    workload: str
    config: str
    mode: str
    cycles: float
    instructions: int
    energy: EnergyBreakdown
    data_movement: Dict[str, float] = field(default_factory=dict)
    update_latency: Dict[str, float] = field(default_factory=dict)
    stall_breakdown: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    per_cube: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: Memory-network fabric totals (HMC-backed configs only): hops, injected
    #: packets, accumulated link queue delay.  The topology-sweep figure reads
    #: queueing pressure from here; empty for the DRAM baseline.
    network_stats: Dict[str, float] = field(default_factory=dict)
    flow_checks: Tuple[int, int] = (0, 0)
    ipc_samples: List[Tuple[float, int]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    events_executed: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def total_data_bytes(self) -> float:
        """Total off-chip traffic (request + response, normal + active)."""
        categories = ("norm_req", "norm_resp", "active_req", "active_resp")
        return sum(self.data_movement.get(cat, 0.0) for cat in categories)

    @property
    def update_roundtrip(self) -> float:
        return (self.update_latency.get("request", 0.0)
                + self.update_latency.get("stall", 0.0)
                + self.update_latency.get("response", 0.0))

    @property
    def flows_verified(self) -> bool:
        checked, mismatched = self.flow_checks
        return mismatched == 0

    def speedup_over(self, baseline: "RunResult") -> float:
        """Runtime speedup of this run relative to ``baseline``."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary (handy for tables and JSON dumps)."""
        checked, mismatched = self.flow_checks
        out = {
            "cycles": self.cycles,
            "instructions": float(self.instructions),
            "ipc": self.ipc,
            "energy_total_j": self.energy.total_j,
            "power_w": self.energy.power_w,
            "edp": self.energy.edp,
            "data_bytes": self.total_data_bytes,
            "update_roundtrip": self.update_roundtrip,
            "flows_checked": float(checked),
            "flow_mismatches": float(mismatched),
        }
        out.update({f"data.{k}": v for k, v in self.data_movement.items()})
        out.update({f"latency.{k}": v for k, v in self.update_latency.items()})
        return out


def _collect_data_movement(system: BuiltSystem,
                           counters: Dict[str, float]) -> Dict[str, float]:
    if system.config.kind.uses_hmc:
        offchip = system.memory.network.offchip_bytes()  # type: ignore[union-attr]
        offchip["network_total"] = counters.get("network.bytes", 0.0)
        return offchip
    # The DDR baseline has no memory network; classify channel traffic instead.
    reads = counters.get("dram.bytes.normal_read", 0.0)
    writes = counters.get("dram.bytes.normal_write", 0.0)
    return {"norm_req": writes, "norm_resp": reads, "active_req": 0.0, "active_resp": 0.0,
            "network_total": reads + writes}


def _collect_network(system: BuiltSystem,
                     counters: Dict[str, float]) -> Dict[str, float]:
    if not system.config.kind.uses_hmc:
        return {}
    hops = counters.get("network.hops", 0.0)
    queue_delay = counters.get("network.queue_delay_cycles", 0.0)
    dropped = counters.get("network.dropped", 0.0)
    return {
        "hops": hops,
        "injected": counters.get("network.injected", 0.0),
        "bytes": counters.get("network.bytes", 0.0),
        "queue_delay_cycles": queue_delay,
        "queue_delay_per_hop": queue_delay / hops if hops else 0.0,
        # Fault-injection view: hops interrupted by a dead link (the packet
        # parked on the link and drained at recovery, so the traffic still
        # arrived — this measures service interruptions, not loss).
        # delivered_fraction is 1.0 on a failure-free run and bounded to
        # [0, 1] by construction.
        "dropped": dropped,
        "delivered_fraction": 1.0 - dropped / hops if hops else 1.0,
    }


def _collect_update_latency(system: BuiltSystem) -> Dict[str, float]:
    """Mean Update latency per component, 0.0 where no summary exists (runs
    without Active-Routing engines); reads the already-flushed summaries and
    creates none."""
    histograms = system.sim.stats._histograms
    out = {}
    for component in ("request", "stall", "response", "total"):
        hist = histograms.get(f"ar.update_latency.{component}")
        out[component] = hist.mean if hist is not None else 0.0
    return out


def _collect_per_cube(system: BuiltSystem,
                      counters: Dict[str, float]) -> Dict[str, Dict[int, float]]:
    if not system.config.kind.uses_hmc:
        return {}
    cubes = system.memory.cubes  # type: ignore[union-attr]
    per_cube: Dict[str, Dict[int, float]] = {
        key: {cube.node_id: counters.get(f"are{cube.node_id}.{key}", 0.0)
              for cube in cubes}
        for key in ("updates_received", "operand_buffer_stalls", "operand_reads_served")}
    per_cube["vault_accesses"] = {cube.node_id: cube.total_vault_accesses(counters)
                                  for cube in cubes}
    return per_cube


def _verify_flows(system: BuiltSystem, program: ProgramTrace) -> Tuple[int, int]:
    """Compare gathered reduction results against the workload's expectations."""
    if system.ar_host is None or not program.expected_results:
        return (0, 0)
    checked = 0
    mismatched = 0
    for target, expected in program.expected_results.items():
        actual = system.ar_host.flow_results.get(target)
        if actual is None:
            continue
        checked += 1
        tolerance = RESULT_TOLERANCE * max(1.0, abs(expected))
        if abs(actual - expected) > tolerance:
            mismatched += 1
    return (checked, mismatched)


def collect_results(system: BuiltSystem, program: ProgramTrace) -> RunResult:
    """Harvest every metric of interest from a finished simulation.

    The registry is read exactly once: one flush and one copy of the
    counters, which the energy model, the stall breakdown, the cache hit
    rates and every per-name lookup below share.  Every other registry
    reader (``stats.counter()``, ``stats.histogram()``, ...) flushes every
    batched component per call, so nothing below calls one.
    """
    sim = system.sim
    cycles = system.cmp.finish_time() or sim.now
    counters = sim.stats.counters()
    hierarchy = system.cmp.hierarchy
    energy = EnergyModel(sim.stats).breakdown(
        cycles, cpu_freq_ghz=system.config.cpu_freq_ghz, counters=counters)
    cache_stats = {
        "l1_hit_rate": hierarchy.l1_hit_rate(counters),
        "l2_hit_rate": hierarchy.l2_hit_rate(counters),
        "l1_accesses": counters.get("cache.l1_accesses", 0.0),
        "l2_accesses": counters.get("cache.l2_accesses", 0.0),
        "invalidations": counters.get("cache.invalidations", 0.0),
    }
    return RunResult(
        workload=program.name,
        config=system.config.label,
        mode=program.mode,
        cycles=cycles,
        instructions=system.cmp.total_instructions(),
        energy=energy,
        data_movement=_collect_data_movement(system, counters),
        network_stats=_collect_network(system, counters),
        update_latency=_collect_update_latency(system),
        stall_breakdown=system.cmp.stall_breakdown(counters),
        cache_stats=cache_stats,
        per_cube=_collect_per_cube(system, counters),
        flow_checks=_verify_flows(system, program),
        ipc_samples=[(cycle, instrs) for cycle, instrs in system.cmp.aggregate_ipc_samples()],
        metadata=dict(program.metadata),
        events_executed=sim.executed_events,
    )
