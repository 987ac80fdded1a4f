"""Per-core Message Interface (MI) for Active-Routing offloading (Section 3.1.2).

The MI turns ``Update``/``Gather`` instructions into network-processing
messages.  It owns a bounded window of outstanding Updates per core: when the
window fills up (because the memory network is slow to commit offloaded
operations), the issuing core stalls — this is how network congestion
back-pressures the host, producing the ART hot-spot slowdowns of Section 5.2.2.

Window slots are returned through a credit-style notification when the Update
commits at its Active-Routing engine; the credit itself is not charged as
network traffic (see DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

from ..isa import GatherOp, UpdateOp
from ..sim import Component, Simulator


class OffloadBackend(Protocol):
    """Host-side Active-Routing logic the MI forwards offloads to."""

    def offload_update(self, core_id: int, op: UpdateOp,
                       on_commit: Callable[[], None]) -> None:
        """Send one Update into the memory network; ``on_commit`` fires when it commits."""

    def offload_gather(self, core_id: int, op: GatherOp,
                       on_result: Callable[[float], None]) -> None:
        """Send a Gather; ``on_result(value)`` fires when the reduction completes."""


class MessageInterface(Component):
    """The per-core bridge between the ISA extension and the memory network."""

    def __init__(self, sim: Simulator, core_id: int, backend: Optional[OffloadBackend],
                 max_outstanding_updates: int = 64) -> None:
        super().__init__(sim, f"mi{core_id}")
        self.core_id = core_id
        self.backend = backend
        self.max_outstanding_updates = max_outstanding_updates
        self.outstanding_updates = 0
        self._space_waiters: List[Callable[[], None]] = []
        self._n_updates = 0
        self._n_update_commits = 0
        self._n_gathers = 0

    COUNTERS = (("updates", "_n_updates"), ("update_commits", "_n_update_commits"),
                ("gathers", "_n_gathers"))

    @property
    def enabled(self) -> bool:
        return self.backend is not None

    def can_offload(self) -> bool:
        return self.outstanding_updates < self.max_outstanding_updates

    def when_space(self, callback: Callable[[], None]) -> None:
        """Register a callback for when an Update window slot frees up."""
        self._space_waiters.append(callback)

    def offload_update(self, op: UpdateOp) -> None:
        if self.backend is None:
            raise RuntimeError("Update offloaded on a configuration without Active-Routing")
        if not self.can_offload():
            raise RuntimeError("Message Interface window overflow; core must stall first")
        self.outstanding_updates += 1
        self._n_updates += 1
        self.backend.offload_update(self.core_id, op, self._on_update_commit)

    def _on_update_commit(self) -> None:
        self.outstanding_updates -= 1
        self._n_update_commits += 1
        if self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for callback in waiters:
                callback()

    def offload_gather(self, op: GatherOp, on_result: Callable[[float], None]) -> None:
        if self.backend is None:
            raise RuntimeError("Gather offloaded on a configuration without Active-Routing")
        self._n_gathers += 1
        self.backend.offload_gather(self.core_id, op, on_result)
