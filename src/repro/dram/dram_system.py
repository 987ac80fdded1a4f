"""The conventional DDR memory system used by the DRAM baseline configuration."""

from __future__ import annotations

from functools import partial
from typing import List

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

    @property
    def is_network_memory(self) -> bool:
        return False

    def access(self, request: MemoryRequest) -> None:
        """Service one block request; completion fires ``request.on_complete``."""
        request.issue_time = request.issue_time or self.now
        channel = self.channels[self.mapping.channel_of(request.addr)]
        finish = channel.access(request.addr, request.size, request.is_write)
        self.count("requests")
        self.count("bytes", request.size)
        self.count(f"bytes.{request.access_type.value}", request.size)
        self.count("energy_pj", request.size * 8 * self.ENERGY_PJ_PER_BIT)
        self.observe("latency", finish - self.now)
        self.sim.schedule_at(finish, partial(request.complete, finish))

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate peak data-bus bandwidth across channels."""
        return sum(ch.bus_bytes_per_cycle for ch in self.channels)
