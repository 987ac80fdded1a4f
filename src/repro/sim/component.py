"""Base class for every timed hardware model in the simulator."""

from __future__ import annotations

from typing import Optional

from .simulator import Simulator
from .stats import Publisher


class Component(Publisher):
    """A named piece of simulated hardware bound to a :class:`Simulator`.

    A component registers with the simulator's stats registry when it is
    constructed and publishes ``<name>.<stat>`` from the plain attributes its
    class declares (see :mod:`repro.sim.stats`).  It schedules work through
    ``self.sim``.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        self.sim = sim
        self.name = name
        sim.stats.register(self)

    # -- time shortcuts -------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, callback) -> None:
        self.sim.schedule(delay, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class SharedResource(Component):
    """A serially-reusable resource modelled with a ``busy_until`` reservation.

    This is the contention primitive used by links, vault controllers and DRAM
    banks: a user asks for ``occupancy`` cycles of service starting no earlier
    than ``now`` and receives the cycle at which service *completes*.  Requests
    are served in arrival order, so the resource behaves as a FIFO queue.
    """

    COUNTERS = (("busy_cycles", "busy_cycles"),
                ("queue_wait_cycles", "queue_wait_cycles"))

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.busy_until: float = 0.0
        self.busy_cycles = 0.0
        self.queue_wait_cycles = 0.0

    def reserve(self, occupancy: float, earliest: Optional[float] = None) -> tuple[float, float]:
        """Reserve the resource for ``occupancy`` cycles.

        Returns ``(start, finish)`` where ``start`` is when service begins and
        ``finish`` when it ends.  Queueing delay is ``start - earliest``.
        """
        if occupancy < 0:
            raise ValueError("occupancy must be non-negative")
        if earliest is None:
            earliest = self.sim.now
        start = self.busy_until
        if start < earliest:
            start = earliest
        finish = start + occupancy
        self.busy_until = finish
        wait = start - earliest
        if wait > 0:
            self.queue_wait_cycles += wait
        self.busy_cycles += occupancy
        return start, finish
