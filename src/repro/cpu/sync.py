"""Thread-synchronization primitives used by the trace-driven cores."""

from __future__ import annotations

from typing import Callable, Dict, List

from ..sim import Component, Simulator


class BarrierManager(Component):
    """Software barriers: the last arriving thread releases all waiters.

    A small release latency models the broadcast of the barrier variable
    through the cache hierarchy.
    """

    def __init__(self, sim: Simulator, release_latency: float = 50.0) -> None:
        super().__init__(sim, "barrier")
        self.release_latency = release_latency
        self._waiting: Dict[int, List[Callable[[], None]]] = {}
        self._arrived: Dict[int, int] = {}
        self._n_arrivals = 0
        self._n_releases = 0

    COUNTERS = (("arrivals", "_n_arrivals"), ("releases", "_n_releases"))

    def arrive(self, barrier_id: int, participants: int, on_release: Callable[[], None]) -> None:
        """Register arrival of one thread; release everyone once all have arrived."""
        if participants < 1:
            raise ValueError("participants must be at least 1")
        self._waiting.setdefault(barrier_id, []).append(on_release)
        self._arrived[barrier_id] = self._arrived.get(barrier_id, 0) + 1
        self._n_arrivals += 1
        if self._arrived[barrier_id] < participants:
            return
        waiters = self._waiting.pop(barrier_id)
        del self._arrived[barrier_id]
        self._n_releases += 1
        for callback in waiters:
            self.sim.schedule(self.release_latency, callback)

    def pending(self, barrier_id: int) -> int:
        """Number of threads currently waiting on ``barrier_id``."""
        return len(self._waiting.get(barrier_id, []))
