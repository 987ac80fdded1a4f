"""Base class for every timed hardware model in the simulator."""

from __future__ import annotations

from typing import Optional

from .simulator import Simulator
from .stats import CounterHandle


class Component:
    """A named piece of simulated hardware bound to a :class:`Simulator`.

    Components publish their statistics into the simulator's global registry
    under ``<name>.<stat>`` and schedule work through ``self.sim``.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        self.sim = sim
        self.name = name
        # Cache of bound counter cells; counting is on the hot path and the
        # dotted key must only be resolved once per (component, stat).
        self._stat_handles: dict[str, CounterHandle] = {}

    # -- stats shortcuts ------------------------------------------------------
    def counter_handle(self, stat: str) -> CounterHandle:
        """Bound counter cell for ``<name>.<stat>`` (resolve once, then mutate)."""
        handle = self._stat_handles.get(stat)
        if handle is None:
            handle = self.sim.stats.counter_handle(f"{self.name}.{stat}")
            self._stat_handles[stat] = handle
        return handle

    def count(self, stat: str, amount: float = 1.0) -> None:
        """Increment ``<name>.<stat>`` in the global registry."""
        handle = self._stat_handles.get(stat)
        if handle is None:
            handle = self.sim.stats.counter_handle(f"{self.name}.{stat}")
            self._stat_handles[stat] = handle
        handle.value += amount

    def observe(self, stat: str, value: float) -> None:
        """Record a histogram sample under ``<name>.<stat>``."""
        self.sim.stats.observe(f"{self.name}.{stat}", value)

    def gauge(self, stat: str, value: float) -> None:
        """Set the gauge ``<name>.<stat>``."""
        self.sim.stats.set_gauge(f"{self.name}.{stat}", value)

    def stat(self, stat: str) -> float:
        """Read back a counter previously written by :meth:`count`."""
        return self.sim.stats.counter(f"{self.name}.{stat}")

    #: ``(accumulator attribute, bound handle)`` pairs folded by the generic
    #: :meth:`flush`; set through :meth:`_register_batched_counters`.
    _batched_counters: tuple = ()
    #: ``(accumulator attribute, stat name)`` pairs whose cells the generic
    #: :meth:`flush` binds on first use; see :meth:`_register_lazy_counters`.
    _lazy_counters: tuple = ()

    def flush(self) -> None:
        """Fold any locally-batched stat accumulators into the registry.

        The generic implementation drains the plain integer accumulators
        declared via :meth:`_register_batched_counters`; components with
        derived stats (e.g. energy computed from batched bytes) override this
        entirely.  Either way the component must be registered with
        :meth:`~repro.sim.stats.StatsRegistry.register_flushable` so every
        registry reader sees up-to-date values.
        """
        for attr, handle in self._batched_counters:
            pending = getattr(self, attr)
            if pending:
                handle.value += pending
                setattr(self, attr, 0)
        for attr, stat in self._lazy_counters:
            pending = getattr(self, attr)
            if pending:
                self.count(stat, pending)
                setattr(self, attr, 0)

    def _register_batched_counters(self, *pairs) -> None:
        """Declare epoch-batched counters: each ``(attr, handle)`` pair names a
        plain integer accumulator on ``self`` and the registry cell it feeds."""
        self._batched_counters = pairs
        self.sim.stats.register_flushable(self)

    def _register_lazy_counters(self, *pairs) -> None:
        """Declare epoch-batched counters whose cells bind on their first
        non-zero flush: each ``(attr, stat)`` pair names a plain integer
        accumulator on ``self`` and the stat it feeds.  A stat the run never
        counts gets no registry cell, exactly as with per-event :meth:`count`."""
        self._lazy_counters = pairs
        self.sim.stats.register_flushable(self)

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

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.busy_until: float = 0.0
        # reserve() runs once per packet/access; bind its counters up front.
        self._busy_cycles = self.counter_handle("busy_cycles")
        self._queue_wait_cycles = self.counter_handle("queue_wait_cycles")

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
            self._queue_wait_cycles.value += wait
        self._busy_cycles.value += occupancy
        return start, finish

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of elapsed time spent busy (best-effort, based on counters)."""
        elapsed = self.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        self.flush()  # subclasses may batch busy_cycles locally
        return min(1.0, self._busy_cycles.value / elapsed)
