"""SerDes link model with serialization delay and FIFO queueing.

A link is a unidirectional channel between two memory-network nodes.  Each
packet occupies the link for ``size / bandwidth`` cycles; packets that arrive
while the link is busy queue up (the ``busy_until`` reservation), which is what
produces the many-to-one hot-spot behaviour of the static ART scheme in the
paper (Section 5.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..sim import SharedResource, Simulator
from .packet import MOVEMENT_CATEGORIES, Packet


@dataclass(frozen=True)
class LinkConfig:
    """Physical parameters of one memory-network link.

    Defaults follow Table 4.1: 16 lanes at 12.5 Gbps each gives 25 GB/s per
    direction, i.e. 12.5 bytes per 2 GHz CPU cycle; propagation plus SerDes
    latency is a few cycles.
    """

    bandwidth_bytes_per_cycle: float = 12.5
    latency_cycles: float = 4.0
    energy_pj_per_bit: float = 5.0

class Link(SharedResource):
    """One direction of a cube-to-cube or controller-to-cube connection."""

    def __init__(self, sim: Simulator, src: int, dst: int,
                 config: LinkConfig | None = None) -> None:
        super().__init__(sim, f"link.{src}->{dst}")
        self.src = src
        self.dst = dst
        self.config = config or LinkConfig()
        #: Fault-injection state.  The network's fault-aware delivery path
        #: checks this at each packet's arrival instant; the default hop path
        #: never reads it (failure-free runs stay byte-identical and pay
        #: nothing).  Both directions of a pair are flipped together by
        #: MemoryNetwork.set_link_state().
        self.up = True
        #: Packets parked on this link while it is down, drained in FIFO
        #: order at recovery: first the in-flight casualties (transmitted
        #: before the failure, so reserved — and arriving — before anything
        #: below), then the blocked submissions in submission order.  This
        #: preserves exact per-link FIFO across a down/up cycle, which the
        #: Active-Routing gather protocol depends on (a gather request must
        #: never overtake the updates that preceded it on the same tree edge).
        self._park_inflight: list = []
        self._park_blocked: list = []
        #: The far end's ``receive_packet``, which MemoryNetwork._hop
        #: schedules each arrival on; the network binds it.
        self._rx = None
        # transmit() runs once per hop; hoist the config scalars.  The hot
        # path counts on plain attributes: packets, bytes per category
        # (indexed by Packet._cat_index) and the inherited busy and
        # queue-wait cycles.  Bytes and energy are derived from the
        # per-category slots when read (energy is linear in bytes).
        self._bandwidth = self.config.bandwidth_bytes_per_cycle
        self._latency = self.config.latency_cycles
        self._energy_pj_per_bit = self.config.energy_pj_per_bit
        self._n_packets = 0
        self._cat_bytes = [0, 0, 0, 0]

    COUNTERS = SharedResource.COUNTERS + (
        ("packets", "_n_packets"), ("bytes", "total_bytes"),
        ("energy_pj", "energy_pj"), ("bytes.", "bytes_by_category"))

    @property
    def total_bytes(self) -> int:
        """Bytes that crossed this link so far."""
        by_category = self._cat_bytes
        return by_category[0] + by_category[1] + by_category[2] + by_category[3]

    @property
    def energy_pj(self) -> float:
        return self.total_bytes * 8 * self._energy_pj_per_bit

    @property
    def bytes_by_category(self) -> Dict[str, int]:
        """Bytes that crossed this link, keyed by movement category."""
        return dict(zip(MOVEMENT_CATEGORIES, self._cat_bytes))

    def transmit(self, packet: Packet, earliest: float | None = None) -> Tuple[float, float]:
        """Send ``packet`` over the link.

        Returns ``(arrival_time, queue_delay)``.  Arrival is when the tail of
        the packet reaches the far end; queue delay is the time spent waiting
        for the link to become free.
        """
        size = packet.size
        serialization = size / self._bandwidth
        if earliest is None:
            earliest = self.sim.now
        start = self.busy_until
        if start < earliest:
            start = earliest
        finish = start + serialization
        self.busy_until = finish
        queue_delay = start - earliest
        if queue_delay > 0:
            self.queue_wait_cycles += queue_delay
        self.busy_cycles += serialization
        self._n_packets += 1
        self._cat_bytes[packet._cat_index] += size
        return finish + self._latency, queue_delay
