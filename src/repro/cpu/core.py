"""Trace-driven core model.

The core walks its thread's operation trace, modelling the properties that
matter to the paper's evaluation:

* a finite issue rate (compute and address-generation work costs cycles),
* bounded memory-level parallelism (at most ``max_outstanding_mem`` misses in
  flight; the core stalls when the window is full),
* blocking semantics for atomics, barriers and ``Gather``,
* back-pressure from the Message Interface window for ``Update`` offloads.

Issue work is batched into events of ``issue_batch_cycles`` to keep the event
count (and therefore Python run time) manageable.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, List, Optional, Tuple

from ..isa import (
    AtomicOp,
    BarrierOp,
    ComputeOp,
    GatherOp,
    LoadOp,
    PhaseMarkerOp,
    StoreOp,
    ThreadTrace,
    UpdateOp,
)
from ..sim import Component, Simulator
from .cache import CacheHierarchy
from .config import CoreConfig
from .message_interface import MessageInterface
from .sync import BarrierManager


class Core(Component):
    """One out-of-order core executing a single software thread."""

    def __init__(self, sim: Simulator, core_id: int, config: CoreConfig,
                 hierarchy: CacheHierarchy, message_interface: MessageInterface,
                 barriers: BarrierManager,
                 on_done: Optional[Callable[["Core"], None]] = None) -> None:
        super().__init__(sim, f"core{core_id}")
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.mi = message_interface
        self.barriers = barriers
        self.on_done = on_done

        self.trace: ThreadTrace = []
        self.pc = 0
        self.done = False
        self.finish_time: Optional[float] = None

        self.instructions = 0
        self.outstanding_mem = 0
        self.blocked_reason: Optional[str] = None
        self._block_start = 0.0
        self._waiting_for_mem_slot = False
        self._waiting_for_mi_slot = False
        self._advance_scheduled = False
        self._issue_width = max(1, config.issue_width)
        # Counted once per load/store/Update or per blocking operation, on
        # plain attributes.  ``instructions`` is published once, when the
        # core finishes.
        self._n_mem_hits = 0
        self._n_mem_misses_issued = 0
        self._n_updates_issued = 0
        self._n_gathers_issued = 0
        self._n_atomics_issued = 0
        self._n_gathers_completed = 0
        self._n_instructions = 0
        #: Cycles blocked per reason, in first-stall order.
        self.stall_cycles: Dict[str, float] = {}
        #: One sample per completed memory miss and per atomic: a running
        #: count and total each.
        self._mem_latency_count = 0
        self._mem_latency_total = 0.0
        self._atomic_latency_count = 0
        self._atomic_latency_total = 0.0

        #: (instructions, cycle) samples for IPC-over-time analysis (Fig. 5.8).
        self.ipc_samples: List[Tuple[int, float]] = []
        self._next_sample = config.ipc_sample_interval
        #: (label, cycle, instructions) phase markers emitted by the workload.
        self.phase_log: List[Tuple[str, float, int]] = []

    COUNTERS = (("mem_hits", "_n_mem_hits"), ("mem_misses_issued", "_n_mem_misses_issued"),
                ("updates_issued", "_n_updates_issued"),
                ("gathers_issued", "_n_gathers_issued"),
                ("atomics_issued", "_n_atomics_issued"),
                ("gathers_completed", "_n_gathers_completed"),
                ("instructions", "_n_instructions"), ("stall.", "stall_cycles"))
    HISTOGRAMS = (("mem_latency", "_mem_latency_count", "_mem_latency_total"),
                  ("atomic_latency", "_atomic_latency_count", "_atomic_latency_total"))

    # -- setup -------------------------------------------------------------------
    def load_trace(self, trace: ThreadTrace) -> None:
        self.trace = trace
        self.pc = 0
        self.done = False
        self.finish_time = None
        self.instructions = 0

    def start(self) -> None:
        self._schedule_advance(0.0)

    # -- bookkeeping helpers --------------------------------------------------------
    def _schedule_advance(self, delay: float) -> None:
        if self._advance_scheduled:
            return
        self._advance_scheduled = True
        # Inlined Simulator.schedule: issue time is never negative.
        sim = self.sim
        heappush(sim._heap, (sim.now + delay, sim._next_seq(), self._advance))

    def _block(self, reason: str) -> None:
        self.blocked_reason = reason
        self._block_start = self.sim.now

    def _unblock(self) -> None:
        reason = self.blocked_reason
        if reason is not None:
            stalls = self.stall_cycles
            stalls[reason] = stalls.get(reason, 0.0) + (self.sim.now - self._block_start)
            self.blocked_reason = None
        self._schedule_advance(0.0)

    def _retire(self, op) -> None:
        self.pc += 1
        self.instructions += op.instructions
        if self.instructions >= self._next_sample:
            self.ipc_samples.append((self.instructions, self.now))
            self._next_sample += self.config.ipc_sample_interval

    def _maybe_finish(self) -> None:
        if (not self.done and self.pc >= len(self.trace)
                and self.outstanding_mem == 0 and self.blocked_reason is None):
            self.done = True
            self.finish_time = self.now
            self._n_instructions += self.instructions
            if self.on_done is not None:
                self.on_done(self)

    # -- completion callbacks ----------------------------------------------------------
    def _mem_done(self, latency: float) -> None:
        self.outstanding_mem -= 1
        self._mem_latency_count += 1
        self._mem_latency_total += latency
        if self._waiting_for_mem_slot:
            self._waiting_for_mem_slot = False
            self._unblock()
        if self.pc >= len(self.trace):
            self._maybe_finish()

    def _mi_space(self) -> None:
        if self._waiting_for_mi_slot:
            self._waiting_for_mi_slot = False
            self._unblock()

    def _gather_done(self, _value: float) -> None:
        self._n_gathers_completed += 1
        self._unblock()

    def _atomic_done(self, latency: float) -> None:
        self._atomic_latency_count += 1
        self._atomic_latency_total += latency
        self._unblock()

    def _barrier_released(self) -> None:
        self._unblock()

    # -- the issue loop ------------------------------------------------------------------
    def _advance(self) -> None:
        self._advance_scheduled = False
        if self.done or self.blocked_reason is not None:
            return
        cfg = self.config
        trace = self.trace
        trace_len = len(trace)
        batch_cycles = cfg.issue_batch_cycles
        used = 0.0
        # Dispatch on the exact class: the operation classes have no subclasses.
        while self.pc < trace_len:
            if used >= batch_cycles:
                self._schedule_advance(used)
                return
            op = trace[self.pc]
            kind = op.__class__

            if kind is ComputeOp:
                # _retire(), inlined (as for loads and stores below).
                self.pc += 1
                self.instructions += op.instructions
                if self.instructions >= self._next_sample:
                    self.ipc_samples.append((self.instructions, self.now))
                    self._next_sample += cfg.ipc_sample_interval
                used += op.cycles / self._issue_width
                continue

            if kind is LoadOp or kind is StoreOp:
                if self.outstanding_mem >= cfg.max_outstanding_mem:
                    if used > 0:
                        self._schedule_advance(used)
                    else:
                        self._waiting_for_mem_slot = True
                        self._block("mem_window")
                    return
                # _retire(), inlined: loads and stores are the commonest operations.
                self.pc += 1
                self.instructions += op.instructions
                if self.instructions >= self._next_sample:
                    self.ipc_samples.append((self.instructions, self.now))
                    self._next_sample += cfg.ipc_sample_interval
                used += cfg.mem_issue_cycles
                if self.hierarchy.access(self.core_id, op.addr, kind is StoreOp,
                                         self._mem_done) is None:
                    self.outstanding_mem += 1
                    self._n_mem_misses_issued += 1
                else:
                    self._n_mem_hits += 1
                continue

            if kind is UpdateOp:
                if not self.mi.enabled:
                    raise RuntimeError(
                        f"{self.name} has an Update in its trace but this configuration "
                        "has no Active-Routing support"
                    )
                if not self.mi.can_offload():
                    if used > 0:
                        self._schedule_advance(used)
                    else:
                        self._waiting_for_mi_slot = True
                        self.mi.when_space(self._mi_space)
                        self._block("mi_window")
                    return
                self._retire(op)
                used += cfg.update_issue_cycles
                self._n_updates_issued += 1
                self.mi.offload_update(op)
                continue

            # The remaining operations block the core; start them only at the
            # beginning of an event so that blocking time is tracked precisely.
            if used > 0:
                self._schedule_advance(used)
                return

            if kind is GatherOp:
                self._retire(op)
                self._n_gathers_issued += 1
                self._block("gather")
                self.mi.offload_gather(op, self._gather_done)
                return

            if kind is AtomicOp:
                self._retire(op)
                self._n_atomics_issued += 1
                self._block("atomic")
                self.hierarchy.atomic_access(self.core_id, op.addr, self._atomic_done)
                return

            if kind is BarrierOp:
                self._retire(op)
                self._block("barrier")
                self.barriers.arrive(op.barrier_id, op.participants, self._barrier_released)
                return

            if kind is PhaseMarkerOp:
                self.phase_log.append((op.label, self.now + used, self.instructions))
                self._retire(op)
                continue

            raise TypeError(f"unknown operation type {type(op).__name__}")

        # Trace exhausted: wait for outstanding memory, then finish.
        if used > 0:
            self.schedule(used, self._maybe_finish)
        else:
            self._maybe_finish()

    # -- derived metrics --------------------------------------------------------------------
    def ipc(self) -> float:
        """Average instructions per cycle over the whole run."""
        if self.finish_time is None or self.finish_time == 0:
            return 0.0
        return self.instructions / self.finish_time
