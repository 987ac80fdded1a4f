"""A Hybrid Memory Cube: vaults + crossbar switch + (optionally) an Active-Routing engine.

The cube is a memory-network endpoint.  Passive read/write packets destined to
it are serviced by the appropriate vault and answered with a response packet;
packets in transit are forwarded; active packets are handed to the cube's
Active-Routing engine when one is installed (ART/ARF configurations).
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import List, Optional, TYPE_CHECKING

from ..mem import HMCAddressMapping
from ..network.packet import MemRespPacket, Packet, PacketType
from ..sim import Component, Simulator
from .config import HMCConfig
from .vault import VaultController

_PT_READ_REQ = PacketType.READ_REQ
_PT_WRITE_REQ = PacketType.WRITE_REQ

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.engine import ActiveRoutingEngine
    from ..network.network import MemoryNetwork


class HMCCube(Component):
    """One cube of the memory network."""

    def __init__(self, sim: Simulator, node_id: int, mapping: HMCAddressMapping,
                 config: Optional[HMCConfig] = None) -> None:
        super().__init__(sim, f"hmc.cube{node_id}")
        self.node_id = node_id
        self.mapping = mapping
        self.config = config or HMCConfig()
        self.vaults: List[VaultController] = [
            VaultController(sim, node_id, v, mapping, self.config)
            for v in range(self.config.num_vaults)
        ]
        self.network: Optional["MemoryNetwork"] = None
        self.are: Optional["ActiveRoutingEngine"] = None
        self._crossbar_latency = self.config.crossbar_latency
        # receive_passive() runs once per passive request: it decodes the
        # vault itself (HMCAddressMapping.vault_of) and pushes its response
        # event straight onto the simulator's heap.
        self._block_size = mapping.block_size
        self._num_vaults = mapping.num_vaults
        self._event_heap = sim._heap
        self._next_seq = sim._next_seq
        self._n_local_accesses = 0
        self._n_served_reads = 0
        self._n_served_writes = 0

    COUNTERS = (("local_accesses", "_n_local_accesses"),
                ("served_reads", "_n_served_reads"),
                ("served_writes", "_n_served_writes"))

    # -- wiring ---------------------------------------------------------------
    def connect(self, network: "MemoryNetwork") -> None:
        """Attach the cube to the memory network and register as its endpoint."""
        self.network = network
        network.register_endpoint(self.node_id, self)

    def install_engine(self, engine: "ActiveRoutingEngine") -> None:
        """Install an Active-Routing engine on this cube's logic layer."""
        self.are = engine

    # -- local DRAM access ----------------------------------------------------
    def local_access(self, addr: int, size: int, is_write: bool) -> float:
        """Access the vault holding ``addr``; returns the completion cycle."""
        vault = self.vaults[self.mapping.vault_of(addr)]
        finish = vault.service(addr, size, is_write) + self._crossbar_latency
        self._n_local_accesses += 1
        return finish

    # -- network endpoint -----------------------------------------------------
    def receive_packet(self, packet: Packet, from_node: int) -> None:
        # Packets in transit hop on through MemoryNetwork._hop directly (the
        # forward() wrapper only re-checks the destination tested here).
        if packet.is_active:
            are = self.are
            if are is None:
                raise RuntimeError(
                    f"cube {self.node_id} received active packet {packet.ptype} "
                    "but has no Active-Routing engine installed"
                )
            # The engine's dispatch, inlined: this fires for every active
            # packet that crosses the cube.  Only tree-routed packets (Updates
            # and gather requests) do engine work in transit; operand traffic
            # and gather responses just hop on.
            are._n_active_packets += 1
            ptype = packet.ptype
            if packet.dst != self.node_id and not ptype.tree_routed:
                self.network._hop(packet, self.node_id)
                return
            are._dispatch[ptype._code](packet, from_node)
            return
        if packet.dst != self.node_id:
            assert self.network is not None, "cube is not connected to a network"
            self.network._hop(packet, self.node_id)
            return
        self.receive_passive(packet, from_node)

    def receive_passive(self, packet: Packet, from_node: int) -> None:
        """Serve a passive read or write addressed to this cube.

        The network delivers those here directly, past :meth:`receive_packet`
        (see ``MemoryNetwork._hop_passive``).
        """
        ptype = packet.ptype
        if ptype is _PT_READ_REQ:
            is_read = True
            size = 64
            self._n_served_reads += 1
        elif ptype is _PT_WRITE_REQ:
            is_read = False
            size = packet.size
            self._n_served_writes += 1
        else:
            raise RuntimeError(f"cube {self.node_id} cannot serve packet type {ptype}")
        addr = packet.addr
        # local_access(), inlined.
        vault = self.vaults[(addr // self._block_size) % self._num_vaults]
        finish = vault.service(addr, size, not is_read) + self._crossbar_latency
        self._n_local_accesses += 1
        # Inlined Simulator.schedule_at: the vault finishes in the future.
        heappush(self._event_heap, (finish, self._next_seq(),
                                    partial(self._respond, packet.src, addr, is_read,
                                            packet.req_id)))

    def _respond(self, requester: int, addr: int, is_read: bool, req_id: int) -> None:
        """The vault access finished: answer the requester."""
        response = MemRespPacket(src=self.node_id, dst=requester,
                                 addr=addr, is_read=is_read, req_id=req_id)
        self.network.inject_passive(response, self.node_id)

    # -- statistics -----------------------------------------------------------
    def total_vault_accesses(self) -> float:
        """Accesses served by this cube's vaults."""
        return float(sum([vault.accesses for vault in self.vaults]))
