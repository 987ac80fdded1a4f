"""Packet formats exchanged over the memory network.

Two families exist:

* *Passive* packets are ordinary memory reads/writes between a host-side HMC
  controller and a cube (the HMC baseline uses only these).
* *Active* packets implement Active-Routing: ``Update`` and ``Gather`` commands
  offloaded by the Message Interface, the operand requests/responses generated
  by the Active-Routing Engines, and the Gather responses that aggregate
  partial results up the ARTree.

Packets are the hottest allocation in the simulator (every Update, operand
fetch and Gather is one, and every hop touches it), so the whole hierarchy is
plain slotted classes: no per-instance ``__dict__``, a hand-written
single-frame ``__init__`` per class (no ``super().__init__`` chain), and
per-type derived data cached on the :class:`PacketType` members.  Call sites
construct packets directly and let them die with their last reference.  A
free-list arena was tried and measured slower: recycling saves the object
allocation, but routing every construction through ``acquire(*args, **kw)``
packs and unpacks the keyword arguments once more than a plain call does.
``pkt_id`` comes from one global counter in construction order.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

HEADER_BYTES = 16
DATA_BYTES = 64
WORD_BYTES = 8


class PacketType(enum.Enum):
    """Every packet class that can appear on a memory-network link.

    ``is_active`` / ``is_request`` are plain per-member attributes filled in by
    the decoration loop below (they used to be properties doing a linear tuple
    membership test per call — measurable, since they sit on the routing hot
    path via category dispatch).
    """

    READ_REQ = "read_req"
    READ_RESP = "read_resp"
    WRITE_REQ = "write_req"
    WRITE_RESP = "write_resp"
    UPDATE = "update"
    GATHER_REQ = "gather_req"
    GATHER_RESP = "gather_resp"
    OPERAND_REQ = "operand_req"
    OPERAND_RESP = "operand_resp"


#: Packet types that exist only because of Active-Routing.
_ACTIVE_TYPES = frozenset((
    PacketType.UPDATE,
    PacketType.GATHER_REQ,
    PacketType.GATHER_RESP,
    PacketType.OPERAND_REQ,
    PacketType.OPERAND_RESP,
))

_REQUEST_TYPES = frozenset((
    PacketType.READ_REQ,
    PacketType.WRITE_REQ,
    PacketType.UPDATE,
    PacketType.GATHER_REQ,
    PacketType.OPERAND_REQ,
))

#: Default payload size (bytes) per packet type, header included.
PACKET_SIZES = {
    PacketType.READ_REQ: HEADER_BYTES,
    PacketType.READ_RESP: HEADER_BYTES + DATA_BYTES,
    PacketType.WRITE_REQ: HEADER_BYTES + DATA_BYTES,
    PacketType.WRITE_RESP: HEADER_BYTES,
    # Update commands use a compressed encoding (opcode + base-relative operand
    # offsets + flow id) and ride as a single command flit.
    PacketType.UPDATE: HEADER_BYTES,
    PacketType.GATHER_REQ: HEADER_BYTES + 2 * WORD_BYTES,
    PacketType.GATHER_RESP: HEADER_BYTES + 2 * WORD_BYTES,  # partial result + count
    PacketType.OPERAND_REQ: HEADER_BYTES,
    PacketType.OPERAND_RESP: HEADER_BYTES + WORD_BYTES,
}

_packet_ids = itertools.count()

#: Figure 5.4 traffic buckets, in presentation order.
MOVEMENT_CATEGORIES = ("norm_req", "norm_resp", "active_req", "active_resp")

# Per-type derived data cached as plain attributes on the enum members (packets
# are created and dispatched on the hot path, and ``Enum.__hash__`` is a
# Python-level call, so even a dict keyed by PacketType is measurable):
#   ``is_active``     True for packets that exist only because of Active-Routing,
#   ``is_request``    True for the request direction of each packet pair,
#   ``tree_routed``   True for packets that build or walk the Active-Routing
#                     flow trees (Updates, gather requests).  The fault-aware
#                     hop path pins these to the pristine deterministic routes
#                     — the tree protocol records their exact hops as
#                     parent/child edges — while everything else may reroute
#                     around dead links.
#   ``_code``         small dense int for list-based dispatch tables,
#   ``_default_size`` the PACKET_SIZES entry,
#   ``_flags``        ``(is_active, is_request, category, category index)``
#                     where the index points into MOVEMENT_CATEGORIES (links
#                     batch per-category byte counts in a 4-slot array).
for _index, _ptype in enumerate(PacketType):
    _active = _ptype in _ACTIVE_TYPES
    _request = _ptype in _REQUEST_TYPES
    _ptype.is_active = _active
    _ptype.is_request = _request
    _ptype.tree_routed = _ptype in (PacketType.UPDATE, PacketType.GATHER_REQ)
    _ptype._code = _index
    _ptype._default_size = PACKET_SIZES[_ptype]
    _category = (("active_req" if _request else "active_resp") if _active
                 else ("norm_req" if _request else "norm_resp"))
    _ptype._flags = (_active, _request, _category,
                     MOVEMENT_CATEGORIES.index(_category))
del _index, _ptype, _category, _active, _request

# Module-level aliases so the flattened per-class ``__init__`` bodies do a
# single global load instead of an enum attribute chase per field.
_PT_READ_REQ = PacketType.READ_REQ
_PT_READ_RESP = PacketType.READ_RESP
_PT_WRITE_REQ = PacketType.WRITE_REQ
_PT_WRITE_RESP = PacketType.WRITE_RESP
_PT_UPDATE = PacketType.UPDATE
_PT_GATHER_REQ = PacketType.GATHER_REQ
_PT_GATHER_RESP = PacketType.GATHER_RESP
_PT_OPERAND_REQ = PacketType.OPERAND_REQ
_PT_OPERAND_RESP = PacketType.OPERAND_RESP

_SZ_READ_REQ = PACKET_SIZES[_PT_READ_REQ]
_SZ_READ_RESP = PACKET_SIZES[_PT_READ_RESP]
_SZ_WRITE_REQ = PACKET_SIZES[_PT_WRITE_REQ]
_SZ_WRITE_RESP = PACKET_SIZES[_PT_WRITE_RESP]
_SZ_UPDATE = PACKET_SIZES[_PT_UPDATE]
_SZ_GATHER_REQ = PACKET_SIZES[_PT_GATHER_REQ]
_SZ_GATHER_RESP = PACKET_SIZES[_PT_GATHER_RESP]
_SZ_OPERAND_REQ = PACKET_SIZES[_PT_OPERAND_REQ]
_SZ_OPERAND_RESP = PACKET_SIZES[_PT_OPERAND_RESP]

_FL_READ_REQ = _PT_READ_REQ._flags
_FL_RESP = _PT_READ_RESP._flags          # READ_RESP and WRITE_RESP share flags
_FL_WRITE_REQ = _PT_WRITE_REQ._flags
_FL_UPDATE = _PT_UPDATE._flags
_FL_GATHER_REQ = _PT_GATHER_REQ._flags
_FL_GATHER_RESP = _PT_GATHER_RESP._flags
_FL_OPERAND_REQ = _PT_OPERAND_REQ._flags
_FL_OPERAND_RESP = _PT_OPERAND_RESP._flags


class Packet:
    """Base network packet (node ids are memory-network node indices).

    ``created_at`` is ``None`` until the packet first enters the network
    fabric; ``MemoryNetwork.inject`` stamps it exactly once (``0.0`` is a
    legitimate creation time, so ``None`` is the only safe sentinel).
    """

    __slots__ = ("ptype", "src", "dst", "size", "flow_id", "created_at",
                 "hops", "pkt_id", "is_active", "is_request", "_category",
                 "_cat_index")

    def __init__(self, ptype: PacketType, src: int, dst: int, size: int = 0,
                 flow_id: Optional[int] = None) -> None:
        self.ptype = ptype
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else ptype._default_size
        self.flow_id = flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        # Cache derived attributes: packets cross many links and these are hot.
        self.is_active, self.is_request, self._category, self._cat_index = ptype._flags

    def movement_category(self) -> str:
        """Bucket used by the Figure 5.4 data-movement breakdown."""
        return self._category

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} #{self.pkt_id} {self.ptype.value} "
                f"{self.src}->{self.dst} size={self.size} flow={self.flow_id}>")


class MemReadPacket(Packet):
    """Passive read of one cache block (controller -> cube)."""

    __slots__ = ("addr", "req_id")

    def __init__(self, src: int, dst: int, addr: int, req_id: int = 0, size: int = 0,
                 flow_id: Optional[int] = None) -> None:
        self.ptype = _PT_READ_REQ
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else _SZ_READ_REQ
        self.flow_id = flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_READ_REQ
        self.addr = addr
        self.req_id = req_id


class MemWritePacket(Packet):
    """Passive write of one cache block (controller -> cube)."""

    __slots__ = ("addr", "req_id")

    def __init__(self, src: int, dst: int, addr: int, req_id: int = 0, size: int = 0,
                 flow_id: Optional[int] = None) -> None:
        self.ptype = _PT_WRITE_REQ
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else _SZ_WRITE_REQ
        self.flow_id = flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_WRITE_REQ
        self.addr = addr
        self.req_id = req_id


class MemRespPacket(Packet):
    """Response to a passive read or write."""

    __slots__ = ("addr", "req_id")

    def __init__(self, src: int, dst: int, addr: int, is_read: bool, req_id: int = 0,
                 size: int = 0, flow_id: Optional[int] = None) -> None:
        if is_read:
            self.ptype = _PT_READ_RESP
            self.size = size if size > 0 else _SZ_READ_RESP
        else:
            self.ptype = _PT_WRITE_RESP
            self.size = size if size > 0 else _SZ_WRITE_RESP
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_RESP
        self.addr = addr
        self.req_id = req_id


class UpdatePacket(Packet):
    """Offloaded ``Update(src1, src2, target, op)`` command.

    ``dst`` is the compute destination: the cube holding the single operand, or
    the split point (last common cube on the routes toward both operands).
    The entry node (tree root for this packet) is recorded so engines can
    distinguish trees of the same flow rooted at different ports.
    """

    __slots__ = ("opcode", "src1_addr", "src2_addr", "target_addr", "src1_value",
                 "src2_value", "imm_value", "thread_id", "root_node", "update_id",
                 "issue_time")

    def __init__(self, src: int, dst: int, *, opcode: str, target_addr: int,
                 src1_addr: Optional[int] = None, src2_addr: Optional[int] = None,
                 src1_value: float = 1.0, src2_value: float = 1.0,
                 imm_value: float = 0.0, thread_id: int = 0, root_node: int = 0,
                 update_id: int = 0, issue_time: float = 0.0,
                 flow_id: Optional[int] = None, size: int = 0) -> None:
        self.ptype = _PT_UPDATE
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else _SZ_UPDATE
        self.flow_id = target_addr if flow_id is None else flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_UPDATE
        self.opcode = opcode
        self.src1_addr = src1_addr
        self.src2_addr = src2_addr
        self.target_addr = target_addr
        self.src1_value = src1_value
        self.src2_value = src2_value
        self.imm_value = imm_value
        self.thread_id = thread_id
        self.root_node = root_node
        self.update_id = update_id
        self.issue_time = issue_time

    @property
    def num_operands(self) -> int:
        return int(self.src1_addr is not None) + int(self.src2_addr is not None)


class GatherRequestPacket(Packet):
    """Gather command travelling from the root toward the leaves of an ARTree."""

    __slots__ = ("target_addr", "num_threads", "thread_id", "root_node")

    def __init__(self, src: int, dst: int, *, target_addr: int, num_threads: int = 1,
                 thread_id: int = 0, root_node: int = 0,
                 flow_id: Optional[int] = None, size: int = 0) -> None:
        self.ptype = _PT_GATHER_REQ
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else _SZ_GATHER_REQ
        self.flow_id = target_addr if flow_id is None else flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_GATHER_REQ
        self.target_addr = target_addr
        self.num_threads = num_threads
        self.thread_id = thread_id
        self.root_node = root_node


class GatherResponsePacket(Packet):
    """Partial reduction result travelling from a child node to its tree parent."""

    __slots__ = ("target_addr", "partial_result", "completed_updates", "root_node")

    def __init__(self, src: int, dst: int, *, target_addr: int, partial_result: float,
                 completed_updates: int, root_node: int = 0,
                 flow_id: Optional[int] = None, size: int = 0) -> None:
        self.ptype = _PT_GATHER_RESP
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else _SZ_GATHER_RESP
        self.flow_id = target_addr if flow_id is None else flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_GATHER_RESP
        self.target_addr = target_addr
        self.partial_result = partial_result
        self.completed_updates = completed_updates
        self.root_node = root_node


class OperandRequestPacket(Packet):
    """Operand fetch issued by an ARE toward the cube holding the operand."""

    __slots__ = ("addr", "buffer_slot", "operand_index", "compute_node", "value")

    def __init__(self, src: int, dst: int, *, addr: int, buffer_slot: int,
                 operand_index: int, compute_node: int, value: float = 0.0,
                 flow_id: Optional[int] = None, size: int = 0) -> None:
        self.ptype = _PT_OPERAND_REQ
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else _SZ_OPERAND_REQ
        self.flow_id = flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_OPERAND_REQ
        self.addr = addr
        self.buffer_slot = buffer_slot
        self.operand_index = operand_index
        self.compute_node = compute_node
        self.value = value


class OperandResponsePacket(Packet):
    """Operand value returning to the ARE that requested it."""

    __slots__ = ("addr", "buffer_slot", "operand_index", "value")

    def __init__(self, src: int, dst: int, *, addr: int, buffer_slot: int,
                 operand_index: int, value: float = 0.0,
                 flow_id: Optional[int] = None, size: int = 0) -> None:
        self.ptype = _PT_OPERAND_RESP
        self.src = src
        self.dst = dst
        self.size = size if size > 0 else _SZ_OPERAND_RESP
        self.flow_id = flow_id
        self.created_at = None
        self.hops = 0
        self.pkt_id = next(_packet_ids)
        self.is_active, self.is_request, self._category, self._cat_index = _FL_OPERAND_RESP
        self.addr = addr
        self.buffer_slot = buffer_slot
        self.operand_index = operand_index
        self.value = value
