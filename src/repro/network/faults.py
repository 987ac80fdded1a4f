"""Deterministic link/cube fault injection for the memory network.

Failures flow through the simulator's ordinary ``[time, seq]`` event queue, so
a fixed schedule (or a fixed seed) reproduces the exact same failure timeline
— and therefore the exact same simulation — on every run.

Two sources of faults:

* an explicit **schedule** of :class:`ScheduledFault` entries (tests, targeted
  experiments), and
* a **seeded-random** process: link failures arrive as a Poisson process with
  ``failure_rate`` expected failures per 10,000 cycles, each repaired after an
  exponential downtime of mean :data:`MEAN_REPAIR_CYCLES`; every draw comes
  from one ``random.Random(seed)`` in a pinned order (victim, repair time,
  next inter-arrival), so the whole timeline is a pure function of the seed.

Random failures are **connectivity-guarded**: a link whose loss would
disconnect the live network is never chosen (closed-loop workloads must be
able to finish; a partitioned fabric would deadlock them).  The guard is part
of the deterministic draw — the victim is chosen uniformly from the sorted
list of eligible live links.

The injector keeps **exactly one** simulator event pending at any time (an
internal agenda orders the rest).  The *random* failure process **quiesces**
once the workload is over — failures the workload can never see would only
delay termination — but explicit state changes still apply even then: a
pending recovery must fire, because traffic parked on the down link can only
drain at recovery (see ``MemoryNetwork._drain_parked``).  Once nothing but
exhausted random entries remain the injector stops rescheduling and
``run_until_idle`` terminates naturally.  Reported cycle counts come from the
workload's own finish time, not ``sim.now``, so a late injector wake-up
cannot inflate results.

"Workload is over" is judged through :attr:`FaultInjector.finish_time_provider`
when one is wired (the system builder points it at the CMP): the process
quiesces at the first wake-up at least :data:`QUIESCE_GRACE_CYCLES` after the
workload's finish time.  That makes the quiesce point — and therefore the
whole fault timeline — a pure function of ``(seed, workload finish time)``,
independent of what else happens to be queued.  The degraded figure's
results and the fault tests were captured under this rule, so it stays even
though a queue-occupancy check would be simpler.  Without a provider (tests
driving an injector directly) the injector falls back to that simpler local
heuristic: quiesce when its own event fires into an otherwise empty queue.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..sim import Simulator
from .network import MemoryNetwork
from .topology import is_connected

#: Mean exponential downtime of a randomly failed link, in cycles.
MEAN_REPAIR_CYCLES = 1_000.0

#: ``failure_rate`` is expressed as expected failures per this many cycles.
RATE_WINDOW_CYCLES = 10_000.0

#: Random failures stop this many cycles after the workload finishes (when a
#: ``finish_time_provider`` is wired).  The grace decides which wake-up
#: quiesces the random process, so it is part of every degraded timeline the
#: figures and tests were captured under; changing it changes those results.
QUIESCE_GRACE_CYCLES = 64.0


@dataclass(frozen=True)
class ScheduledFault:
    """One explicit fault-timeline entry.

    ``kind`` is ``"link"`` (``target`` is an ``(a, b)`` node pair) or
    ``"cube"`` (``target`` is a node id).  ``up=False`` is a failure,
    ``up=True`` a recovery.
    """

    time: float
    kind: str
    target: Tuple[int, int] | int
    up: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("link", "cube"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")


class FaultInjector:
    """Drives link/cube state changes through the event queue.

    Construct with either an explicit ``schedule`` or a positive
    ``failure_rate`` (or both), then :meth:`arm` it before the simulation
    runs.
    """

    def __init__(self, sim: Simulator, network: MemoryNetwork, *,
                 failure_rate: float = 0.0, seed: int = 0,
                 schedule: Iterable[ScheduledFault] = ()) -> None:
        self.sim = sim
        self.network = network
        self.failure_rate = float(failure_rate)
        if self.failure_rate < 0:
            raise ValueError(f"failure_rate must be >= 0, got {failure_rate}")
        self._rng = random.Random(seed)
        # Internal agenda: (time, seq, action) heap.  Actions are small
        # tuples — ("link", a, b, up), ("cube", node, up), ("random",).
        self._agenda: List[tuple] = []
        self._seq = 0
        self._armed = False
        self._quiesced = False
        #: Optional zero-argument callable returning the workload's finish
        #: time (or ``None`` while it is still running).  Wired by the system
        #: builder; governs when the random process quiesces (see module
        #: docstring).  Left unset, the empty-queue heuristic applies.
        self.finish_time_provider = None
        #: Failures actually applied / skipped by the connectivity guard.
        self.injected = 0
        self.skipped = 0
        for fault in schedule:
            if fault.kind == "link":
                a, b = fault.target
                self._push(fault.time, ("link", a, b, fault.up))
            else:
                self._push(fault.time, ("cube", fault.target, fault.up))
        if self.failure_rate > 0:
            first = self._rng.expovariate(self.failure_rate / RATE_WINDOW_CYCLES)
            self._push(first, ("random",))

    def _push(self, time: float, action: tuple) -> None:
        heapq.heappush(self._agenda, (time, self._seq, action))
        self._seq += 1

    def arm(self) -> None:
        """Schedule the first injector wake-up.  Idempotent."""
        if self._armed or not self._agenda:
            return
        self._armed = True
        self.sim.schedule_at(self._agenda[0][0], self._fire)

    def _fire(self) -> None:
        # Quiesce check first, then apply due actions.  Quiescing stops the
        # random process (the workload cannot be disturbed by failures it will
        # never see), but pending explicit state changes — recoveries above
        # all — must still be applied: traffic parked on a down link drains at
        # recovery and only then can the workload finish.
        #
        # With a finish_time_provider the verdict depends only on the
        # workload's finish time, never on the queue occupancy — the rule the
        # degraded timelines were captured under.  Without a provider, our
        # own event has already been popped, so an empty queue means no
        # *scheduled* work remains.
        if not self._quiesced:
            provider = self.finish_time_provider
            if provider is not None:
                finish = provider()
                if finish is not None and \
                        self.sim.now >= finish + QUIESCE_GRACE_CYCLES:
                    self._quiesced = True
            elif self.sim.pending == 0:
                self._quiesced = True
        now = self.sim.now
        while self._agenda and self._agenda[0][0] <= now:
            _, _, action = heapq.heappop(self._agenda)
            if action[0] == "random" and self._quiesced:
                continue  # consumed without a successor: the process ends.
            self._apply(action, now)
        if self._quiesced:
            pending = [entry for entry in self._agenda if entry[2][0] != "random"]
            if len(pending) != len(self._agenda):
                self._agenda = pending
                heapq.heapify(self._agenda)
        if self._agenda:
            self.sim.schedule_at(self._agenda[0][0], self._fire)

    def _apply(self, action: tuple, now: float) -> None:
        if action[0] == "link":
            _, a, b, up = action
            self.network.set_link_state(a, b, up)
            if not up:
                self.injected += 1
        elif action[0] == "cube":
            _, node, up = action
            self.network.set_cube_state(node, up)
            if not up:
                self.injected += 1
        else:  # ("random",)
            victim = self._pick_victim()
            if victim is None:
                self.skipped += 1
            else:
                a, b = victim
                self.network.set_link_state(a, b, False)
                self.injected += 1
                repair = self._rng.expovariate(1.0 / MEAN_REPAIR_CYCLES)
                self._push(now + repair, ("link", a, b, True))
            gap = self._rng.expovariate(self.failure_rate / RATE_WINDOW_CYCLES)
            self._push(now + gap, ("random",))

    # -- victim selection -----------------------------------------------------
    def _pick_victim(self) -> Optional[Tuple[int, int]]:
        """A uniformly drawn live link whose loss keeps the network connected.

        Candidates are enumerated in the topology's sorted edge order, so
        the uniform draw is a pure function of the RNG state.  Returns
        ``None`` when every remaining live link is a bridge (the guard then
        skips this failure rather than partitioning the fabric).
        """
        links = self.network.links
        live = [(a, b) for a, b in self.network.topology.edges()
                if links[(a, b)].up]
        eligible = [edge for edge in live
                    if not self._disconnects(live, edge)]
        if not eligible:
            return None
        return eligible[self._rng.randrange(len(eligible))]

    def _disconnects(self, live: List[Tuple[int, int]],
                     removed: Tuple[int, int]) -> bool:
        """Would dropping ``removed`` from the ``live`` edge set partition it?"""
        adjacency = {node: [] for node in self.network.topology.adjacency}
        for a, b in live:
            if (a, b) != removed:
                adjacency[a].append(b)
                adjacency[b].append(a)
        return not is_connected(adjacency)
