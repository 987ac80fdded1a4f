"""The conventional DDR memory system used by the DRAM baseline configuration."""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..mem import DRAMAddressMapping, MemoryRequest
from ..sim import Component, Simulator
from .channel import DDRChannel
from .timing import DDR_TIMING, DRAMTiming


class DRAMSystem(Component):
    """4-channel DDR memory behind the last-level cache.

    Implements the ``MemorySystem`` protocol: :meth:`access` takes a
    :class:`~repro.mem.MemoryRequest`, models the latency (including channel
    and bank contention) and schedules the request's completion callback.
    """

    #: DRAM access energy, per bit moved on/off the DIMM (paper: 39 pJ/bit).
    ENERGY_PJ_PER_BIT = 39.0

    def __init__(self, sim: Simulator, mapping: DRAMAddressMapping | None = None,
                 timing: DRAMTiming = DDR_TIMING, bus_bytes_per_cycle: float = 6.4,
                 controller_latency: float = 20.0) -> None:
        super().__init__(sim, "dram")
        self.mapping = mapping or DRAMAddressMapping()
        self.timing = timing
        self.channels: List[DDRChannel] = [
            DDRChannel(sim, ch, self.mapping, timing,
                       bus_bytes_per_cycle=bus_bytes_per_cycle,
                       controller_latency=controller_latency)
            for ch in range(self.mapping.num_channels)
        ]
        self._n_requests = 0
        self._n_bytes = 0
        #: Bytes per access type, in first-access order.
        self.bytes_by_type: Dict[str, int] = {}
        self.energy_pj = 0.0
        self._latency_count = 0
        self._latency_total = 0.0

    COUNTERS = (("requests", "_n_requests"), ("bytes", "_n_bytes"),
                ("bytes.", "bytes_by_type"), ("energy_pj", "energy_pj"))
    HISTOGRAMS = (("latency", "_latency_count", "_latency_total"),)

    @property
    def is_network_memory(self) -> bool:
        return False

    def access(self, request: MemoryRequest) -> None:
        """Service one block request; completion fires ``request.on_complete``."""
        request.issue_time = request.issue_time or self.now
        channel = self.channels[self.mapping.channel_of(request.addr)]
        finish = channel.access(request.addr, request.size, request.is_write)
        size = request.size
        self._n_requests += 1
        self._n_bytes += size
        by_type = self.bytes_by_type
        access_type = request.access_type.value
        by_type[access_type] = by_type.get(access_type, 0) + size
        self.energy_pj += size * 8 * self.ENERGY_PJ_PER_BIT
        self._latency_count += 1
        self._latency_total += finish - self.now
        self.sim.schedule_at(finish, partial(request.complete, finish))

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate peak data-bus bandwidth across channels."""
        return sum(ch.bus_bytes_per_cycle for ch in self.channels)
