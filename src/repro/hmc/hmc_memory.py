"""The HMC memory network as a drop-in memory system for the host CMP.

This wires together the topology, the network fabric, the 16 cubes and the 4
host-side controllers (Figure 3.1) and exposes the same ``access(request)``
interface as the DDR baseline, so the cache hierarchy does not care which
memory system sits below it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..mem import AccessType, HMCAddressMapping, MemoryRequest
from ..network.faults import FaultInjector
from ..network.network import MemoryNetwork
from ..network.topology import Topology, build_network_topology
from ..sim import Component, Simulator
from .config import HMCConfig, HMCNetworkConfig
from .cube import HMCCube
from .hmc_controller import HMCController


class HMCMemorySystem(Component):
    """16-cube dragonfly memory network reachable through 4 controllers."""

    def __init__(self, sim: Simulator, cube_config: Optional[HMCConfig] = None,
                 net_config: Optional[HMCNetworkConfig] = None,
                 mapping: Optional[HMCAddressMapping] = None,
                 topology: Optional[Topology] = None) -> None:
        super().__init__(sim, "hmcmem")
        self.cube_config = cube_config or HMCConfig()
        self.net_config = net_config or HMCNetworkConfig()
        self.mapping = mapping or HMCAddressMapping(
            num_cubes=self.net_config.num_cubes,
            num_vaults=self.cube_config.num_vaults,
            banks_per_vault=self.cube_config.banks_per_vault,
        )
        if topology is None:
            topology = self._build_topology()
        self._check_topology(topology)
        self.topology = topology
        self.network = MemoryNetwork(
            sim, topology, link_config=self.net_config.link,
            router_delay=self.net_config.router_delay)
        self.faults: Optional[FaultInjector] = None
        if self.net_config.failure_rate > 0:
            self.faults = FaultInjector(
                sim, self.network,
                failure_rate=self.net_config.failure_rate,
                seed=self.net_config.failure_seed)
            self.faults.arm()
        self.cubes: List[HMCCube] = []
        for node in topology.cube_nodes():
            cube = HMCCube(sim, node, self.mapping, self.cube_config)
            cube.connect(self.network)
            self.cubes.append(cube)
        self.controllers: List[HMCController] = []
        for port, ctrl_node in enumerate(topology.controller_nodes):
            controller = HMCController(sim, port, ctrl_node,
                                       topology.controller_attach[ctrl_node],
                                       self.mapping, self.net_config)
            controller.connect(self.network)
            self.controllers.append(controller)
        self._interleave = self.net_config.controller_interleave
        # access() runs once per miss: count requests and bytes per access
        # type on plain attributes.  The byte column is a list indexed by
        # ``AccessType._index``.
        self._n_requests = 0
        self._bytes_by_type = [0] * len(AccessType)

    COUNTERS = (("requests", "_n_requests"), ("bytes", "total_bytes"),
                ("bytes.", "bytes_by_type"))

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes_by_type)

    @property
    def bytes_by_type(self) -> Dict[str, int]:
        """Bytes requested per access type, in :class:`AccessType` order."""
        return {access_type.value: self._bytes_by_type[access_type._index]
                for access_type in AccessType}

    def _build_topology(self) -> Topology:
        """Build the configured topology with *exactly* ``num_cubes`` cubes.

        Shape parameters (groups, rows, columns) are derived from the cube
        count, so the network can never silently disagree with the address
        mapping (which is sized from the same ``num_cubes``); an impossible
        request fails here, before any simulation starts.
        """
        return build_network_topology(self.net_config.topology,
                                      num_cubes=self.net_config.num_cubes,
                                      num_controllers=self.net_config.num_controllers)

    def _check_topology(self, topology: Topology) -> None:
        """Reject any network/mapping cube-count divergence up front.

        A mismatch would otherwise surface only mid-run, when
        ``mapping.cube_of`` names a cube the network never built and routing
        fails with an opaque "no route" error.
        """
        topology.validate()
        if topology.num_cubes != self.net_config.num_cubes:
            raise ValueError(
                f"topology {topology.name!r} has {topology.num_cubes} cubes but the "
                f"network config asks for {self.net_config.num_cubes}; requests would "
                f"be mapped to cubes that do not exist")
        if self.mapping.num_cubes != topology.num_cubes:
            raise ValueError(
                f"address mapping interleaves across {self.mapping.num_cubes} cubes "
                f"but topology {topology.name!r} has {topology.num_cubes}")

    # -- MemorySystem protocol --------------------------------------------------
    @property
    def is_network_memory(self) -> bool:
        return True

    def access(self, request: MemoryRequest) -> None:
        """Route one cache-miss request through the controller nearest by interleave."""
        controllers = self.controllers
        self._n_requests += 1
        self._bytes_by_type[request.access_type._index] += request.size
        controllers[(request.addr // self._interleave) % len(controllers)].access(request)

    # -- helpers -----------------------------------------------------------------
    def controller_for_address(self, addr: int) -> HMCController:
        index = (addr // self.net_config.controller_interleave) % len(self.controllers)
        return self.controllers[index]

    def controller_for_port(self, port: int) -> HMCController:
        return self.controllers[port % len(self.controllers)]

    def cube(self, node_id: int) -> HMCCube:
        return self.cubes[node_id]

    def cube_of(self, addr: int) -> int:
        return self.mapping.cube_of(addr)

    @property
    def num_ports(self) -> int:
        return len(self.controllers)
