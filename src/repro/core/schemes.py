"""Active-Routing tree-construction schemes (Section 5.1).

The scheme decides which of the four host memory-network ports an Update (and
therefore its tree) enters through:

* **ART** — a single static port for every flow; prone to many-to-one hotspots.
* **ARF-tid** — ports interleaved by thread id, producing up to four balanced
  trees per flow (an Active-Routing *forest*).
* **ARF-addr** — the port nearest (in network hops) to the cube that holds the
  first source operand, which minimizes hops but may imbalance load.
"""

from __future__ import annotations

import enum
from typing import Dict, TYPE_CHECKING

from ..isa import UpdateOp

if TYPE_CHECKING:  # pragma: no cover
    from ..hmc.hmc_memory import HMCMemorySystem


class Scheme(enum.Enum):
    """Which Active-Routing port-selection policy is in effect."""

    ART = "ART"
    ARF_TID = "ARF-tid"
    ARF_ADDR = "ARF-addr"

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        normalized = name.strip().lower().replace("_", "-")
        for scheme in cls:
            if scheme.value.lower() == normalized or scheme.name.lower() == normalized:
                return scheme
        raise ValueError(f"unknown Active-Routing scheme {name!r}")


class PortSelector:
    """Maps each Update to a host memory-network port according to the scheme."""

    def __init__(self, scheme: Scheme, hmc_memory: "HMCMemorySystem",
                 static_port: int = 0) -> None:
        self.scheme = scheme
        self.hmc = hmc_memory
        self.static_port = static_port
        self.num_ports = hmc_memory.num_ports
        self._nearest_port_of_cube: Dict[int, int] = {}
        self._precompute_nearest_ports()

    def _precompute_nearest_ports(self) -> None:
        routing = self.hmc.network.routing
        ports = [(c.port_id, c.attached_cube) for c in self.hmc.controllers]
        for cube in range(self.hmc.mapping.num_cubes):
            best = min(ports, key=lambda pc: (routing.distance(pc[1], cube), pc[0]))
            self._nearest_port_of_cube[cube] = best[0]

    def select(self, thread_id: int, op: UpdateOp) -> int:
        """Return the port index the Update should be offloaded through."""
        if self.scheme is Scheme.ART:
            return self.static_port
        if self.scheme is Scheme.ARF_TID:
            return thread_id % self.num_ports
        if self.scheme is Scheme.ARF_ADDR:
            anchor = op.src1 if op.src1 is not None else op.target
            cube = self.hmc.mapping.cube_of(anchor)
            return self._nearest_port_of_cube[cube]
        raise ValueError(f"unhandled scheme {self.scheme}")
