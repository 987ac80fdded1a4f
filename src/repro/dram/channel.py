"""A DDR channel: banks behind a shared data bus with FR-FCFS-like behaviour.

Requests are served in arrival order per bank (open-row hits are naturally
cheap because the bank keeps its row open), and every transfer also occupies
the channel data bus, which is the bandwidth bottleneck of the DDR baseline
relative to the HMC memory network.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..mem import DRAMAddressMapping
from ..sim import Component, SharedResource, Simulator
from .bank import DRAMBank
from .timing import DRAMTiming


class DDRChannel(Component):
    """One memory channel of the conventional DRAM baseline."""

    def __init__(self, sim: Simulator, channel_id: int, mapping: DRAMAddressMapping,
                 timing: DRAMTiming, bus_bytes_per_cycle: float = 6.4,
                 controller_latency: float = 20.0) -> None:
        super().__init__(sim, f"dram.ch{channel_id}")
        self.channel_id = channel_id
        self.mapping = mapping
        self.timing = timing
        self.controller_latency = controller_latency
        self.bus = SharedResource(sim, f"{self.name}.bus")
        self.bus_bytes_per_cycle = bus_bytes_per_cycle
        self._banks: Dict[Tuple[int, int], DRAMBank] = {}
        self._n_reads = 0
        self._n_writes = 0
        self._n_bytes = 0

    COUNTERS = (("accesses", "accesses"), ("reads", "_n_reads"),
                ("writes", "_n_writes"), ("bytes", "_n_bytes"))

    @property
    def accesses(self) -> int:
        return self._n_reads + self._n_writes

    def _bank(self, rank: int, bank: int) -> DRAMBank:
        key = (rank, bank)
        existing = self._banks.get(key)
        if existing is None:
            existing = DRAMBank(self.sim, f"{self.name}.r{rank}b{bank}", self.timing)
            self._banks[key] = existing
        return existing

    def access(self, addr: int, size: int, is_write: bool) -> float:
        """Reserve bank + bus for an access starting now; returns the finish time."""
        rank = self.mapping.rank_of(addr)
        bank_idx = self.mapping.bank_of(addr)
        row = self.mapping.row_of(addr)
        bank = self._bank(rank, bank_idx)
        _, bank_finish = bank.access(row, earliest=self.now + self.controller_latency)
        bus_occupancy = size / self.bus_bytes_per_cycle
        _, bus_finish = self.bus.reserve(bus_occupancy, earliest=bank_finish)
        if is_write:
            self._n_writes += 1
        else:
            self._n_reads += 1
        self._n_bytes += size
        return bus_finish
