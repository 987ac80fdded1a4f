"""Run results: every metric the evaluation figures need, collected once per run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.engine import LATENCY_PARTS
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


def _collect_data_movement(system: BuiltSystem) -> Dict[str, float]:
    memory = system.memory
    if system.config.kind.uses_hmc:
        network = memory.network  # type: ignore[union-attr]
        offchip = network.offchip_bytes()
        offchip["network_total"] = float(network.total_bytes)
        return offchip
    # The DDR baseline has no memory network; classify channel traffic instead.
    by_type = memory.bytes_by_type  # type: ignore[union-attr]
    reads = float(by_type.get("normal_read", 0))
    writes = float(by_type.get("normal_write", 0))
    return {"norm_req": writes, "norm_resp": reads, "active_req": 0.0, "active_resp": 0.0,
            "network_total": reads + writes}


def _collect_network(system: BuiltSystem) -> Dict[str, float]:
    if not system.config.kind.uses_hmc:
        return {}
    network = system.memory.network  # type: ignore[union-attr]
    hops = float(network.hops)
    queue_delay = network.queue_delay_cycles
    dropped = float(network.dropped)
    return {
        "hops": hops,
        "injected": float(network.injected),
        "bytes": float(network.total_bytes),
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
    """Mean Update latency per component, 0.0 where no histogram exists
    (runs without Active-Routing engines)."""
    stats = system.sim.stats
    out = {}
    for component in LATENCY_PARTS:
        hist = stats.histogram(f"ar.update_latency.{component}")
        out[component] = hist.mean if hist is not None else 0.0
    return out


def _collect_per_cube(system: BuiltSystem) -> Dict[str, Dict[int, float]]:
    if not system.config.kind.uses_hmc:
        return {}
    cubes = system.memory.cubes  # type: ignore[union-attr]
    per_cube: Dict[str, Dict[int, float]] = {
        key: {cube.node_id: float(getattr(cube.are, "_n_" + key))
              if cube.are is not None else 0.0
              for cube in cubes}
        for key in ("updates_received", "operand_buffer_stalls", "operand_reads_served")}
    per_cube["vault_accesses"] = {cube.node_id: cube.total_vault_accesses()
                                  for cube in cubes}
    return per_cube


def _energy_counters(system: BuiltSystem) -> Dict[str, float]:
    """Every ``*.energy_pj`` total, named as the components publish it and,
    within each energy group, in the order they registered: the NoC before
    the caches, vaults in cube then vault order, links in ``network.links``
    order.  Each group's float sum keeps that order."""
    cmp = system.cmp
    memory = system.memory
    parts: list = [cmp.noc, cmp.hierarchy]
    if system.config.kind.uses_hmc:
        parts += [vault for cube in memory.cubes for vault in cube.vaults]  # type: ignore[union-attr]
        parts += memory.network.links.values()  # type: ignore[union-attr]
    else:
        parts.append(memory)
    return {f"{part.name}.energy_pj": part.energy_pj for part in parts}


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

    Every total is read straight from the component that keeps it; the only
    registry read is the Update-latency histograms.
    """
    sim = system.sim
    cycles = system.cmp.finish_time() or sim.now
    hierarchy = system.cmp.hierarchy
    energy = EnergyModel(sim.stats).breakdown(
        cycles, cpu_freq_ghz=system.config.cpu_freq_ghz,
        counters=_energy_counters(system))
    cache_stats = {
        "l1_hit_rate": hierarchy.l1_hit_rate(),
        "l2_hit_rate": hierarchy.l2_hit_rate(),
        "l1_accesses": float(hierarchy.l1_accesses),
        "l2_accesses": float(hierarchy.l1_misses),
        "invalidations": float(hierarchy.invalidations),
    }
    return RunResult(
        workload=program.name,
        config=system.config.label,
        mode=program.mode,
        cycles=cycles,
        instructions=system.cmp.total_instructions(),
        energy=energy,
        data_movement=_collect_data_movement(system),
        network_stats=_collect_network(system),
        update_latency=_collect_update_latency(system),
        stall_breakdown=system.cmp.stall_breakdown(),
        cache_stats=cache_stats,
        per_cube=_collect_per_cube(system),
        flow_checks=_verify_flows(system, program),
        ipc_samples=[(cycle, instrs) for cycle, instrs in system.cmp.aggregate_ipc_samples()],
        metadata=dict(program.metadata),
        events_executed=sim.executed_events,
    )
