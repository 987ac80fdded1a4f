"""Host-side HMC controller: bridges the CPU's miss traffic (and the Message
Interface's active offloads) onto the memory network."""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Callable, Dict, Optional, TYPE_CHECKING

from ..mem import HMCAddressMapping, MemoryRequest
from ..network.packet import (
    GatherResponsePacket,
    MemReadPacket,
    MemWritePacket,
    Packet,
    PacketType,
)
from ..sim import Component, Simulator
from .config import HMCNetworkConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import MemoryNetwork

GatherListener = Callable[[GatherResponsePacket, "HMCController"], None]


class HMCController(Component):
    """One of the host's memory-network access ports (Table 4.1 has four)."""

    def __init__(self, sim: Simulator, port_id: int, node_id: int, attached_cube: int,
                 mapping: HMCAddressMapping, config: Optional[HMCNetworkConfig] = None) -> None:
        super().__init__(sim, f"hmcctrl{port_id}")
        self.port_id = port_id
        self.node_id = node_id
        self.attached_cube = attached_cube
        self.mapping = mapping
        self.config = config or HMCNetworkConfig()
        self.network: Optional["MemoryNetwork"] = None
        self._outstanding: Dict[int, MemoryRequest] = {}
        self._gather_listener: Optional[GatherListener] = None
        # access()/inject()/receive_packet() run once per miss/offload and
        # count on plain attributes (``requests`` is derived as reads +
        # writes when read).  Round trips are a running count and total.
        self._n_reads = 0
        self._n_writes = 0
        self._n_active_injected = 0
        self._n_responses = 0
        self._roundtrip_count = 0
        self._roundtrip_total = 0.0
        # access() pushes its injection event straight onto the heap.
        self._event_heap = sim._heap
        self._next_seq = sim._next_seq
        self._controller_latency = self.config.controller_latency

    COUNTERS = (("requests", "requests"), ("reads", "_n_reads"),
                ("writes", "_n_writes"), ("active_injected", "_n_active_injected"),
                ("responses", "_n_responses"))
    HISTOGRAMS = (("roundtrip", "_roundtrip_count", "_roundtrip_total"),)

    @property
    def requests(self) -> int:
        return self._n_reads + self._n_writes

    # -- wiring ---------------------------------------------------------------
    def connect(self, network: "MemoryNetwork") -> None:
        self.network = network
        network.register_endpoint(self.node_id, self)

    def set_gather_listener(self, listener: GatherListener) -> None:
        """Register the Active-Routing host logic that consumes Gather responses."""
        self._gather_listener = listener

    # -- passive memory traffic ------------------------------------------------
    def access(self, request: MemoryRequest) -> None:
        """Packetize a cache-miss request and inject it into the memory network."""
        assert self.network is not None, "controller is not connected to a network"
        now = self.sim.now
        request.issue_time = request.issue_time or now
        dst_cube = self.mapping.cube_of(request.addr)
        if request.access_type.is_write:
            packet: Packet = MemWritePacket(src=self.node_id, dst=dst_cube,
                                            addr=request.addr, req_id=request.req_id)
            self._n_writes += 1
        else:
            packet = MemReadPacket(src=self.node_id, dst=dst_cube,
                                   addr=request.addr, req_id=request.req_id)
            self._n_reads += 1
        self._outstanding[request.req_id] = request
        # Inlined Simulator.schedule: the controller latency is never negative.
        heappush(self._event_heap,
                 (now + self._controller_latency, self._next_seq(),
                  partial(self.network.inject_passive, packet, self.node_id)))

    # -- active offload traffic -------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Inject an already-built (active) packet after the controller latency."""
        assert self.network is not None, "controller is not connected to a network"
        self._n_active_injected += 1
        self.sim.schedule(self.config.controller_latency,
                          partial(self.network.inject, packet, self.node_id))

    # -- network endpoint --------------------------------------------------------
    def receive_packet(self, packet: Packet, from_node: int) -> None:
        ptype = packet.ptype
        if ptype is PacketType.READ_RESP or ptype is PacketType.WRITE_RESP:
            self.receive_passive(packet, from_node)
            return
        if ptype is PacketType.GATHER_RESP:
            if self._gather_listener is None:
                raise RuntimeError(f"{self.name} received a Gather response but no "
                                   "Active-Routing host logic is registered")
            self._gather_listener(packet, self)  # type: ignore[arg-type]
            return
        raise RuntimeError(f"{self.name} cannot handle packet type {ptype}")

    def receive_passive(self, packet: Packet, from_node: int) -> None:
        """Complete the request a read or write response answers.

        The network delivers those here directly, past :meth:`receive_packet`
        (see ``MemoryNetwork._hop_passive``).
        """
        req_id = packet.req_id
        request = self._outstanding.pop(req_id, None)
        if request is None:
            raise RuntimeError(f"{self.name} got a response for unknown request {req_id}")
        self._n_responses += 1
        now = self.sim.now
        self._roundtrip_count += 1
        self._roundtrip_total += now - request.issue_time
        # request.complete(now), inlined.
        request.complete_time = now
        if request.on_complete is not None:
            request.on_complete(request)
