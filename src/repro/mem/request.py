"""Memory request objects exchanged between caches, controllers and memories."""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional


class AccessType(enum.Enum):
    """Why a request exists; used to split data-movement statistics.

    ``is_write`` / ``is_active`` and the dense ``_index`` (declaration order)
    are plain per-member attributes set below, as on
    :class:`~repro.network.packet.PacketType`: a property is a Python call,
    and so is ``Enum.__hash__`` behind any dict keyed by the member, once per
    memory request.
    """

    NORMAL_READ = "normal_read"
    NORMAL_WRITE = "normal_write"
    OPERAND_READ = "operand_read"       # issued by an Active-Routing engine
    ACTIVE_WRITE = "active_write"       # mov/const_assign Updates committing to memory


for _index, _access_type in enumerate(AccessType):
    _access_type._index = _index
    _access_type.is_write = _access_type in (AccessType.NORMAL_WRITE,
                                             AccessType.ACTIVE_WRITE)
    _access_type.is_active = _access_type in (AccessType.OPERAND_READ,
                                              AccessType.ACTIVE_WRITE)
del _index, _access_type

_next_request_id = itertools.count().__next__


class MemoryRequest:
    """A single block-granularity access to the memory subsystem.

    ``on_complete`` is invoked with the finished request once the data (or the
    write acknowledgement) is back at the requester.  ``req_id`` is unique and
    increasing in construction order.  A slotted class with a plain
    ``__init__``: one is built per miss, prefetch and write-back.
    """

    __slots__ = ("addr", "size", "access_type", "requester", "core_id",
                 "issue_time", "complete_time", "on_complete", "req_id")

    def __init__(self, addr: int, size: int = 64,
                 access_type: AccessType = AccessType.NORMAL_READ,
                 requester: Optional[str] = None, core_id: Optional[int] = None,
                 issue_time: float = 0.0, complete_time: float = 0.0,
                 on_complete: Optional[Callable[["MemoryRequest"], None]] = None) -> None:
        if addr < 0:
            raise ValueError("address must be non-negative")
        if size <= 0:
            raise ValueError("size must be positive")
        self.addr = addr
        self.size = size
        self.access_type = access_type
        self.requester = requester
        self.core_id = core_id
        self.issue_time = issue_time
        self.complete_time = complete_time
        self.on_complete = on_complete
        self.req_id = _next_request_id()

    @property
    def is_write(self) -> bool:
        return self.access_type.is_write

    @property
    def latency(self) -> float:
        """Round-trip latency (valid only after completion)."""
        return self.complete_time - self.issue_time

    def complete(self, time: float) -> None:
        """Mark the request finished at ``time`` and fire the completion callback."""
        self.complete_time = time
        if self.on_complete is not None:
            self.on_complete(self)
