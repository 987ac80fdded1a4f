"""Operand buffers (Section 3.2.3, Figure 3.3c).

A two-operand Update reserves one buffer entry at its compute cube while its
operand requests are outstanding; single-operand reductions bypass the pool.
The pool is finite: when it is exhausted, newly arriving Updates queue at the
engine and the wait is charged to the *stall* component of the round-trip
latency (Figures 5.2/5.3).

The pool models a fixed hardware structure, so each slot's entry object is
allocated on the slot's first reservation (most runs touch few of the slots)
and re-initialised in place on every later one; after that reserve/release
never allocates.  Consequence for callers: an entry's fields are only valid
until its slot is released — copy out anything needed after that point.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..network.packet import UpdatePacket
from ..sim import Component, Simulator


class OperandBufferEntry:
    """One operand-buffer slot and the Update it currently belongs to."""

    __slots__ = ("slot", "flow_id", "root", "opcode", "update", "arrival_time",
                 "operand_issue_time", "op_value1", "op_ready1", "op_value2",
                 "op_ready2", "num_operands", "is_store")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.reset(0, 0, "", None, 0.0, 0)

    def reset(self, flow_id: int, root: int, opcode: str,
              update: Optional[UpdatePacket], arrival_time: float,
              num_operands: int) -> None:
        self.flow_id = flow_id
        self.root = root
        self.opcode = opcode
        self.update = update
        self.arrival_time = arrival_time
        self.operand_issue_time = 0.0
        self.op_value1 = 0.0
        self.op_ready1 = False
        self.op_value2 = 0.0
        self.op_ready2 = False
        self.num_operands = num_operands
        self.is_store = False

    @property
    def ready(self) -> bool:
        if self.num_operands == 0:
            return True
        if self.num_operands == 1:
            return self.op_ready1
        return self.op_ready1 and self.op_ready2

    def set_operand(self, index: int, value: float) -> None:
        if index == 0:
            self.op_value1 = value
            self.op_ready1 = True
        elif index == 1:
            self.op_value2 = value
            self.op_ready2 = True
        else:
            raise ValueError(f"operand index must be 0 or 1, got {index}")


class OperandBufferPool(Component):
    """The finite pool of operand buffers of one Active-Routing engine."""

    def __init__(self, sim: Simulator, name: str, capacity: int = 32) -> None:
        super().__init__(sim, name)
        if capacity < 1:
            raise ValueError("operand buffer capacity must be positive")
        self.capacity = capacity
        self._free: List[int] = list(range(capacity))
        # One entry per slot, allocated on first reservation and reused in
        # place after; ``entries`` maps only the slots currently in use.
        self._slots: List[Optional[OperandBufferEntry]] = [None] * capacity
        self.entries: Dict[int, OperandBufferEntry] = {}
        self._peak_used = 0
        # reserve()/release() run once per buffered Update.
        self._n_reserve_failures = 0
        self._n_reservations = 0
        self._n_releases = 0

    COUNTERS = (("reserve_failures", "_n_reserve_failures"),
                ("reservations", "_n_reservations"), ("releases", "_n_releases"))
    GAUGES = (("peak_used", "_peak_used"),)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    @property
    def in_use(self) -> int:
        return self.capacity - len(self._free)

    def reserve(self, flow_id: int, root: int, opcode: str, update: UpdatePacket,
                arrival_time: float, num_operands: int) -> Optional[OperandBufferEntry]:
        """Allocate a slot, or return ``None`` when the pool is exhausted."""
        if not self._free:
            self._n_reserve_failures += 1
            return None
        slot = self._free.pop()
        entry = self._slots[slot]
        if entry is None:
            entry = self._slots[slot] = OperandBufferEntry(slot)
        entry.reset(flow_id, root, opcode, update, arrival_time, num_operands)
        self.entries[slot] = entry
        self._n_reservations += 1
        used = self.capacity - len(self._free)
        if used > self._peak_used:
            self._peak_used = used
        return entry

    def release(self, slot: int) -> None:
        if slot not in self.entries:
            raise KeyError(f"operand buffer slot {slot} is not in use")
        del self.entries[slot]
        self._free.append(slot)
        self._n_releases += 1
