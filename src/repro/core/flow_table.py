"""The Active Flow Table (Section 3.2.2, Table 3.1).

Each entry tracks one Active-Routing *tree*: the flow it belongs to (identified
by the reduction target address) and the tree root it entered the network
through.  Keying on ``(flow_id, root)`` lets the ARF schemes keep up to four
independent trees per flow without their counters interfering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..sim import Component, Simulator
from .alu import OPCODES

FlowKey = Tuple[int, int]  # (flow_id, root_node)


@dataclass
class FlowTableEntry:
    """One flow-table entry; field names follow Table 3.1."""

    flow_id: int
    root: int
    opcode: str
    result: float
    req_counter: int = 0
    resp_counter: int = 0
    parent: Optional[int] = None
    children: Set[int] = field(default_factory=set)
    gflag: bool = False
    pending_children: Set[int] = field(default_factory=set)
    created_at: float = 0.0

    @property
    def key(self) -> FlowKey:
        return (self.flow_id, self.root)

    @property
    def complete(self) -> bool:
        """All locally-known work for the subtree rooted here has committed."""
        return (self.gflag and not self.pending_children
                and self.req_counter == self.resp_counter)


class FlowTable(Component):
    """Per-engine table of the flows (trees) currently traversing this cube."""

    def __init__(self, sim: Simulator, name: str, capacity: int = 1024) -> None:
        super().__init__(sim, name)
        if capacity < 1:
            raise ValueError("flow table capacity must be positive")
        self.capacity = capacity
        self.entries: Dict[FlowKey, FlowTableEntry] = {}
        self._peak = 0
        # get_or_create()/release() run once per Update hop.
        self._n_overflows = 0
        self._n_registered = 0
        self._n_released = 0

    COUNTERS = (("overflows", "_n_overflows"), ("registered", "_n_registered"),
                ("released", "_n_released"))
    GAUGES = (("peak_occupancy", "_peak"),)

    def lookup(self, flow_id: int, root: int) -> Optional[FlowTableEntry]:
        return self.entries.get((flow_id, root))

    def get_or_create(self, flow_id: int, root: int, opcode: str,
                      parent: Optional[int]) -> FlowTableEntry:
        """Return the entry for ``(flow_id, root)``, registering it if new."""
        key = (flow_id, root)
        entry = self.entries.get(key)
        if entry is None:
            if len(self.entries) >= self.capacity:
                self._n_overflows += 1
            entry = FlowTableEntry(flow_id=flow_id, root=root, opcode=opcode,
                                   result=OPCODES[opcode].identity,
                                   parent=parent, created_at=self.now)
            self.entries[key] = entry
            self._n_registered += 1
            if len(self.entries) > self._peak:
                self._peak = len(self.entries)
        elif entry.parent is None:
            entry.parent = parent
        return entry

    def release(self, key: FlowKey) -> None:
        """Free the entry once its Gather response has been sent to the parent."""
        if key in self.entries:
            del self.entries[key]
            self._n_released += 1

    @property
    def occupancy(self) -> int:
        return len(self.entries)

    @property
    def peak_occupancy(self) -> int:
        return self._peak
