"""The discrete-event simulator driving every timed model in the library.

All components share a single :class:`Simulator` instance.  Time is expressed in
CPU cycles of the host clock (2 GHz by default, Table 4.1); components running at
other frequencies convert their own latencies into host cycles.

The simulator owns a pluggable event scheduler (see
:mod:`repro.sim.event_queue`): the default binary heap, or a calendar queue for
large-scale runs, selected via the ``scheduler`` constructor argument or the
``REPRO_SCHEDULER`` environment variable.  Both backends dispatch events in the
exact same ``[time, seq]`` total order, so the choice never changes results —
only wall time.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from .event_queue import (SCHEDULER_BACKENDS, CalendarQueue, EventHandle,
                          EventQueue, resolve_scheduler)
from .stats import StatsRegistry


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """Owns simulated time, the event scheduler and the global stats registry."""

    def __init__(self, cpu_freq_ghz: float = 2.0,
                 scheduler: Optional[str] = None) -> None:
        if cpu_freq_ghz <= 0:
            raise ValueError("cpu_freq_ghz must be positive")
        self.cpu_freq_ghz = cpu_freq_ghz
        self.now: float = 0.0
        self.scheduler = resolve_scheduler(scheduler)
        self.events = SCHEDULER_BACKENDS[self.scheduler]()
        # Fused fast path: when the backend is the binary heap, its storage
        # list is aliased here so schedule()/run() (and the network hot path,
        # which mirrors this check) can push/pop without any wrapper call.
        # None selects the generic bound-local paths that work against every
        # backend.  clear() empties the heap list in place, so the alias stays
        # valid across reset().
        if isinstance(self.events, EventQueue):
            self._heap = self.events._heap
            self._run_impl = self._run_heap
        else:
            self._heap = None
            self._run_impl = (self._run_calendar
                              if isinstance(self.events, CalendarQueue)
                              else self._run_generic)
        self.stats = StatsRegistry()
        self._executed_events = 0
        self._finished = False

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` cycles (relative to ``now``)."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        events = self.events
        heap = self._heap
        if heap is not None:
            # Inlined EventQueue.push: scheduling runs once per event and the
            # wrapper's negative-time check is subsumed by the delay check.
            heapq.heappush(heap, [self.now + delay, events._seq, callback])
            events._seq += 1
            events._live += 1
        else:
            events.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        events = self.events
        heap = self._heap
        if heap is not None:
            heapq.heappush(heap, [time, events._seq, callback])
            events._seq += 1
            events._live += 1
        else:
            events.push(time, callback)

    def schedule_cancellable(self, delay: float, callback: Callable[[], None],
                             label: str = "") -> EventHandle:
        """Like :meth:`schedule`, but returns an :class:`EventHandle` so the
        caller can cancel the event before it fires."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.events.push_handle(self.now + delay, callback, label)

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events until the queue drains, ``until`` is reached or
        ``max_events`` have been processed.  Returns the final simulated time.

        This is the simulator's innermost loop, duplicated per scheduler
        backend so neither pays per-event wrapper calls: the heap variant
        walks the event heap directly and the calendar variant walks the
        ladder's spine directly (peek, pop, dispatch fused into one pass);
        an unrecognized backend falls back to a generic loop over hoisted
        bound methods.  ``finished`` is refreshed on *every* exit path —
        normal drain, ``until`` horizon, ``max_events`` budget, or a callback
        raising — so it never reports a previous run's outcome.
        """
        return self._run_impl(until, max_events)

    def _run_heap(self, until: Optional[float], max_events: Optional[int]) -> float:
        events = self.events
        heap = events._heap
        heappop = heapq.heappop
        processed = 0
        # Folding the budget into a float drops the ``is not None`` test from
        # the per-event epilogue, and the drain-everything case (the common
        # one: run_until_idle) gets its own loop without the horizon test.
        budget = float("inf") if max_events is None else max_events
        try:
            if until is None:
                while heap:
                    entry = heappop(heap)
                    callback = entry[2]
                    if callback is None:  # cancelled
                        continue
                    entry[2] = None  # make a late cancel() a no-op
                    events._live -= 1
                    time = entry[0]
                    if time < self.now:
                        if time < self.now - 1e-9:
                            raise SimulationError(
                                f"event {callback!r} scheduled at {time} is in the "
                                f"past (now={self.now})"
                            )
                    else:
                        self.now = time
                    processed += 1
                    callback()
                    if processed >= budget:
                        break
            else:
                while heap:
                    entry = heap[0]
                    time = entry[0]
                    if time > until:
                        self.now = until
                        return until
                    heappop(heap)
                    callback = entry[2]
                    if callback is None:  # cancelled
                        continue
                    entry[2] = None  # make a late cancel() a no-op
                    events._live -= 1
                    if time < self.now:
                        if time < self.now - 1e-9:
                            raise SimulationError(
                                f"event {callback!r} scheduled at {time} is in the "
                                f"past (now={self.now})"
                            )
                    else:
                        self.now = time
                    processed += 1
                    callback()
                    if processed >= budget:
                        break
        finally:
            self._executed_events += processed
            # In the finally block so an exception inside a callback cannot
            # leave the previous run's answer behind.
            self._finished = not events
        return self.now

    def _run_calendar(self, until: Optional[float], max_events: Optional[int]) -> float:
        events = self.events
        processed = 0
        try:
            # The spine list object is stable across pushes (insort mutates it
            # in place); only _advance() — called here when it drains —
            # installs a new one, so the locals stay valid through callbacks.
            # The consumption cursor must be written back to the queue before
            # every callback: pushes bound their insort below it.
            spine = events._spine
            pos = events._spine_pos
            while True:
                if pos >= len(spine):
                    events._spine_pos = pos
                    if not events._advance():
                        break
                    spine = events._spine
                    pos = 0
                    continue
                entry = spine[pos]
                callback = entry[2]
                if callback is None:  # cancelled
                    pos += 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    events._spine_pos = pos
                    return until
                pos += 1
                entry[2] = None  # make a late cancel() a no-op
                events._live -= 1
                # Compact the consumed prefix once it outgrows the live tail
                # (amortized O(1); see CalendarQueue.pop).
                if pos > 64 and pos * 2 > len(spine):
                    del spine[:pos]
                    pos = 0
                events._spine_pos = pos
                if time < self.now:
                    if time < self.now - 1e-9:
                        raise SimulationError(
                            f"event {callback!r} scheduled at {time} is in the past "
                            f"(now={self.now})"
                        )
                else:
                    self.now = time
                processed += 1
                callback()
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._executed_events += processed
            self._finished = not events
        return self.now

    def _run_generic(self, until: Optional[float], max_events: Optional[int]) -> float:
        events = self.events
        pop = events.pop
        peek = events.peek_time
        processed = 0
        try:
            while True:
                if until is not None:
                    # peek_time() leaves the backend's cursor on the found
                    # event, so the pop right after it is O(1).
                    head_time = peek()
                    if head_time is None:
                        break
                    if head_time > until:
                        self.now = until
                        return until
                entry = pop()
                if entry is None:
                    break
                time = entry[0]
                callback = entry[2]
                if time < self.now:
                    if time < self.now - 1e-9:
                        raise SimulationError(
                            f"event {callback!r} scheduled at {time} is in the past "
                            f"(now={self.now})"
                        )
                else:
                    self.now = time
                processed += 1
                callback()
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._executed_events += processed
            self._finished = not events
        return self.now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run until no events remain; guards against runaway simulations."""
        final = self.run(max_events=max_events)
        if self.events:
            raise SimulationError(
                f"simulation did not converge within {max_events} events "
                f"({len(self.events)} still pending at cycle {self.now})"
            )
        return final

    # -- conversions & introspection -------------------------------------------
    def seconds(self, cycles: Optional[float] = None) -> float:
        """Convert ``cycles`` (default: current time) into wall-clock seconds."""
        cycles = self.now if cycles is None else cycles
        return cycles / (self.cpu_freq_ghz * 1e9)

    @property
    def executed_events(self) -> int:
        return self._executed_events

    @property
    def finished(self) -> bool:
        return self._finished

    def reset(self) -> None:
        """Reset time, events and statistics (components must be rebuilt)."""
        self.now = 0.0
        self.events.clear()
        self.stats.clear()
        self._executed_events = 0
        self._finished = False
