"""A DRAM bank with an open-row policy and FIFO service.

The same bank model backs both the DDR baseline channels and the HMC vault
controllers; only the timing parameters differ.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim import Publisher, Simulator
from .timing import DRAMTiming

class DRAMBank(Publisher):
    """One bank: tracks the open row and serializes accesses.

    Plain slotted state rather than a :class:`~repro.sim.Component`: runs
    create banks by the tens of thousands, lazily, on first access, and a
    bank registers when it is created.  ``access()`` runs once per DRAM
    access on the hot path, so it inlines the row-state decision and the
    ``busy_until`` reservation and counts on plain attributes.
    """

    COUNTERS = (("row_closed", "_n_row_closed"), ("row_hit", "_n_row_hit"),
                ("row_miss", "_n_row_miss"), ("accesses", "_n_accesses"),
                ("busy_cycles", "_n_busy"), ("queue_wait_cycles", "_n_queue_wait"))

    __slots__ = ("sim", "name", "open_row", "busy_until", "_row_closed_cycles",
                 "_row_hit_cycles", "_row_miss_cycles", "_n_row_closed",
                 "_n_row_hit", "_n_row_miss", "_n_accesses", "_n_busy",
                 "_n_queue_wait")

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
        sim.stats.register(self)

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
