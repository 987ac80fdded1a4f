"""The discrete-event scheduler used by every timed component in the simulator.

:class:`EventQueue` is a binary heap (``heapq``) of plain
``[time, seq, callback]`` lists.  The sequence number guarantees a
deterministic, insertion-ordered tie-break for events scheduled at the same
cycle (and, because it is unique, the callback element never participates in
entry comparisons), which in turn makes every simulation run reproducible.

The common case — schedule, pop, dispatch — allocates nothing beyond the
entry itself.  The minority of call sites that need to cancel a pending event
ask for an :class:`EventHandle` via ``push_handle``; cancellation nulls the
entry's callback slot in place and the dispatch loop skips it.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

#: A heap entry: ``[time, seq, callback]``; ``callback is None`` marks a
#: cancelled (or already-dispatched) entry.
Entry = List[object]


class EventHandle:
    """Cancellation token for one scheduled event.

    Only handed out by ``push_handle``; the fast scheduling path returns
    nothing so that the vast majority of events never allocate one.
    ``label`` carries the caller-supplied description for debugging.  The
    handle only touches the shared entry list and the queue's ``_live``
    count.
    """

    __slots__ = ("_entry", "_queue", "label")

    def __init__(self, entry: Entry, queue: object, label: str = "") -> None:
        self._entry = entry
        self._queue = queue
        self.label = label

    @property
    def time(self) -> float:
        return self._entry[0]  # type: ignore[return-value]

    @property
    def cancelled(self) -> bool:
        """True once the event will no longer fire (cancelled or already run)."""
        return self._entry[2] is None

    def cancel(self) -> None:
        """Mark the event so the dispatch loop skips it.  Idempotent; a no-op
        if the event already fired."""
        entry = self._entry
        if entry[2] is not None:
            entry[2] = None
            self._queue._live -= 1


class EventQueue:
    """A deterministic min-heap of ``[time, seq, callback]`` entries."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> None:
        """Schedule ``callback`` to run at absolute ``time`` (fast path).

        Returns nothing; use :meth:`push_handle` when the caller may need to
        cancel.  ``label`` is accepted for API compatibility and ignored.
        """
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time}")
        heapq.heappush(self._heap, [time, self._seq, callback])
        self._seq += 1
        self._live += 1

    def push_handle(self, time: float, callback: Callable[[], None],
                    label: str = "") -> EventHandle:
        """Schedule ``callback`` and return a cancellation handle for it."""
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time}")
        entry: Entry = [time, self._seq, callback]
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, entry)
        return EventHandle(entry, self, label)

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]  # type: ignore[return-value]

    def pop(self) -> Optional[Entry]:
        """Remove and return the next live ``[time, seq, callback]`` entry, or
        ``None`` if the queue is empty.  Cancelled entries are dropped."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            callback = entry[2]
            if callback is None:
                continue
            # Null the shared slot so a late EventHandle.cancel() is a no-op,
            # and hand the caller a fresh entry that still carries the callback.
            entry[2] = None
            self._live -= 1
            return [entry[0], entry[1], callback]
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            # Null the callback slots so an EventHandle held across clear()
            # sees its event as already gone and cancel() stays a no-op.
            entry[2] = None
        self._heap.clear()
        self._live = 0
