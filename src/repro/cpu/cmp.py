"""The host chip multiprocessor: cores + caches + NoC + Message Interfaces.

The CMP is memory-system agnostic: it is built on top of either the DDR
baseline or the HMC memory network, and (for Active-Routing configurations) an
offload backend that the per-core Message Interfaces forward Update/Gather
commands to.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..isa import ProgramTrace
from ..sim import Component, Simulator
from .cache import CacheHierarchy
from .config import CMPConfig
from .core import Core
from .message_interface import MessageInterface, OffloadBackend
from .noc import MeshNoC
from .sync import BarrierManager


class ChipMultiprocessor(Component):
    """Host CMP of Figure 3.1: 16 O3 cores, two-level caches, 4x4 mesh NoC."""

    def __init__(self, sim: Simulator, config: CMPConfig, memory_system,
                 offload_backend: Optional[OffloadBackend] = None) -> None:
        super().__init__(sim, "cmp")
        self.config = config
        self.memory = memory_system
        self.noc = MeshNoC(sim, config.mesh_rows, config.mesh_cols,
                           hop_latency=config.cache.noc_hop_latency,
                           energy_pj_per_byte_hop=config.cache.noc_energy_pj_per_byte_hop)
        self.hierarchy = CacheHierarchy(sim, config, self.noc, memory_system)
        self.barriers = BarrierManager(sim)
        self.offload_backend = offload_backend
        self.message_interfaces: List[MessageInterface] = [
            MessageInterface(sim, core_id, offload_backend,
                             max_outstanding_updates=config.core.max_outstanding_updates)
            for core_id in range(config.num_cores)
        ]
        self.cores: List[Core] = [
            Core(sim, core_id, config.core, self.hierarchy,
                 self.message_interfaces[core_id], self.barriers,
                 on_done=self._core_done)
            for core_id in range(config.num_cores)
        ]
        self._cores_remaining = 0
        self._n_cores_finished = 0

    COUNTERS = (("cores_finished", "_n_cores_finished"),)

    # -- program execution --------------------------------------------------------
    def load_program(self, program: ProgramTrace) -> None:
        """Assign the program's thread traces to cores (one thread per core)."""
        if program.num_threads > self.config.num_cores:
            raise ValueError(
                f"program {program.name!r} has {program.num_threads} threads but the "
                f"CMP only has {self.config.num_cores} cores"
            )
        for core in self.cores:
            core.load_trace([])
            core.done = True
        for thread_id, trace in enumerate(program.threads):
            self.cores[thread_id].load_trace(trace)
            self.cores[thread_id].done = False
        self._cores_remaining = program.num_threads

    def start(self) -> None:
        """Kick off every core that has a trace loaded."""
        for core in self.cores:
            if not core.done:
                core.start()

    def _core_done(self, core: Core) -> None:
        self._cores_remaining -= 1
        self._n_cores_finished += 1

    @property
    def all_done(self) -> bool:
        return self._cores_remaining == 0

    # -- derived metrics ----------------------------------------------------------
    def finish_time(self) -> float:
        """Cycle at which the last core retired its last operation."""
        times = [c.finish_time for c in self.cores if c.finish_time is not None]
        return max(times) if times else 0.0

    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    def aggregate_ipc_samples(self) -> List[tuple]:
        """Merged, time-ordered (cycle, total-instructions) samples of all cores."""
        events = []
        for core in self.cores:
            previous = 0
            for instructions, cycle in core.ipc_samples:
                events.append((cycle, instructions - previous))
                previous = instructions
        events.sort()
        merged = []
        running = 0
        for cycle, delta in events:
            running += delta
            merged.append((cycle, running))
        return merged

    def stall_breakdown(self) -> Dict[str, float]:
        """Stall cycles summed over all cores (in core order), keyed by reason."""
        totals: Dict[str, float] = {}
        for core in self.cores:
            for reason, cycles in core.stall_cycles.items():
                if cycles:
                    totals[reason] = totals.get(reason, 0.0) + cycles
        return totals
