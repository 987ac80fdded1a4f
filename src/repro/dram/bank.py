"""A DRAM bank with an open-row policy and FIFO service.

The same bank model backs both the DDR baseline channels and the HMC vault
controllers; only the timing parameters differ.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim import Simulator
from .timing import DRAMTiming

#: Registry stats of a bank, in the order of its ``counter_totals``.
BANK_STATS = ("row_closed", "row_hit", "row_miss", "accesses",
              "busy_cycles", "queue_wait_cycles")


class DRAMBank:
    """One bank: tracks the open row and serializes accesses.

    Plain slotted state rather than a :class:`~repro.sim.Component`: runs
    create banks by the tens of thousands, lazily, on first access.
    ``access()`` runs once per DRAM access on the hot path, so it inlines the
    row-state decision and the ``busy_until`` reservation and counts into
    plain accumulators.  :meth:`flush` folds them into ``counter_totals``,
    one total per :data:`BANK_STATS` entry, which the bank publishes as a
    registry counter group (``<name>.<stat>``) the first time it has
    anything to fold.
    """

    counter_stats = BANK_STATS

    __slots__ = ("sim", "name", "open_row", "busy_until", "_row_closed_cycles",
                 "_row_hit_cycles", "_row_miss_cycles", "_n_row_closed",
                 "_n_row_hit", "_n_row_miss", "_n_accesses", "_n_busy",
                 "_n_queue_wait", "counter_totals")

    def __init__(self, sim: Simulator, name: str, timing: DRAMTiming) -> None:
        self.sim = sim
        self.name = name
        self.open_row: Optional[int] = None
        self.busy_until = 0.0
        self._row_closed_cycles = timing.row_closed_cycles
        self._row_hit_cycles = timing.row_hit_cycles
        self._row_miss_cycles = timing.row_miss_cycles
        self._n_row_closed = 0
        self._n_row_hit = 0
        self._n_row_miss = 0
        self._n_accesses = 0
        self._n_busy = 0.0
        self._n_queue_wait = 0.0
        self.counter_totals = None
        sim.stats.register_flushable(self)

    def flush(self) -> None:
        """Fold the pending accumulators into the counter-group totals."""
        if not self._n_accesses:
            return
        totals = self.counter_totals
        if totals is None:
            totals = self.counter_totals = [0.0] * len(BANK_STATS)
            self.sim.stats.register_counter_group(self)
        totals[0] += self._n_row_closed
        totals[1] += self._n_row_hit
        totals[2] += self._n_row_miss
        totals[3] += self._n_accesses
        totals[4] += self._n_busy
        totals[5] += self._n_queue_wait
        self._n_row_closed = 0
        self._n_row_hit = 0
        self._n_row_miss = 0
        self._n_accesses = 0
        self._n_busy = 0.0
        self._n_queue_wait = 0.0

    def access(self, row: int, earliest: Optional[float] = None) -> Tuple[float, float]:
        """Reserve the bank for an access to ``row``.

        Returns ``(start, finish)`` in CPU cycles.  The row becomes (or stays)
        open afterwards, mirroring an open-page policy.
        """
        open_row = self.open_row
        if open_row is None:
            latency = self._row_closed_cycles
            self._n_row_closed += 1
        elif open_row == row:
            latency = self._row_hit_cycles
            self._n_row_hit += 1
        else:
            latency = self._row_miss_cycles
            self._n_row_miss += 1
        if earliest is None:
            earliest = self.sim.now
        start = self.busy_until
        if start < earliest:
            start = earliest
        finish = start + latency
        self.busy_until = finish
        wait = start - earliest
        if wait > 0:
            self._n_queue_wait += wait
        self._n_busy += latency
        self.open_row = row
        self._n_accesses += 1
        return start, finish

    def precharge(self) -> None:
        """Close the open row (used by tests and refresh modelling)."""
        self.open_row = None
