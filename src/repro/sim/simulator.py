"""The discrete-event simulator driving every timed model in the library.

All components share a single :class:`Simulator` instance.  Time is expressed in
CPU cycles of the host clock (2 GHz by default, Table 4.1); components running at
other frequencies convert their own latencies into host cycles.

The simulator owns the event scheduler: a binary heap (``heapq``) of
immutable ``(time, seq, callback)`` tuples.  The sequence number comes from
one shared counter, so events scheduled for the same cycle dispatch in
insertion order (and, because it is unique, the callback never takes part in
a comparison); every run is therefore reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from typing import Callable, Optional

from .stats import StatsRegistry


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """Owns simulated time, the event scheduler and the global stats registry."""

    def __init__(self, cpu_freq_ghz: float = 2.0) -> None:
        if cpu_freq_ghz <= 0:
            raise ValueError("cpu_freq_ghz must be positive")
        self.cpu_freq_ghz = cpu_freq_ghz
        self.now: float = 0.0
        # The network's hop path pushes onto this heap directly, drawing its
        # sequence numbers from the same counter.
        self._heap: list = []
        self._next_seq = itertools.count().__next__
        self.stats = StatsRegistry()
        self._executed_events = 0
        self._finished = False

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` cycles (relative to ``now``)."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(self._heap, (self.now + delay, self._next_seq(), callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, self._next_seq(), callback))

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events until the queue drains, ``until`` is reached or
        ``max_events`` have been processed.  Returns the final simulated time.

        This is the simulator's innermost loop: it walks the event heap
        directly (pop, past-time guard, dispatch) so no event pays a wrapper
        call.  A ``max_events`` of 0 dispatches nothing; a negative one
        raises ``ValueError``.  ``finished`` is refreshed on *every* exit
        path — normal drain, ``until`` horizon, ``max_events`` budget, or a
        callback raising — so it never reports a previous run's outcome.
        """
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        budget = sys.maxsize if max_events is None else max_events
        if budget <= 0:
            # The loops dispatch at least one event once they start.
            if budget < 0:
                raise ValueError(f"max_events must be non-negative, got {max_events}")
            self._finished = not heap
            return self.now
        try:
            if until is None:
                # The drain-everything loop (run_until_idle): the range
                # counts the events, including one whose callback raises,
                # and has no horizon test.
                for processed in range(1, budget + 1):
                    if not heap:
                        processed -= 1
                        break
                    time, _, callback = heappop(heap)
                    if time < self.now:
                        if time < self.now - 1e-9:
                            raise SimulationError(
                                f"event {callback!r} scheduled at {time} is in the "
                                f"past (now={self.now})"
                            )
                    else:
                        self.now = time
                    callback()
            else:
                while heap:
                    if heap[0][0] > until:
                        self.now = until
                        return until
                    time, _, callback = heappop(heap)
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
            self._finished = not heap
        return self.now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run until no events remain; guards against runaway simulations."""
        final = self.run(max_events=max_events)
        if self._heap:
            raise SimulationError(
                f"simulation did not converge within {max_events} events "
                f"({self.pending} still pending at cycle {self.now})"
            )
        return final

    # -- conversions & introspection -------------------------------------------
    def seconds(self, cycles: Optional[float] = None) -> float:
        """Convert ``cycles`` (default: current time) into wall-clock seconds."""
        cycles = self.now if cycles is None else cycles
        return cycles / (self.cpu_freq_ghz * 1e9)

    @property
    def pending(self) -> int:
        """Number of scheduled events that have not been dispatched yet."""
        return len(self._heap)

    @property
    def executed_events(self) -> int:
        return self._executed_events

    @property
    def finished(self) -> bool:
        return self._finished
