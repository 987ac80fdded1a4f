"""The memory network fabric: links + routing + per-hop delivery.

Every packet travels hop by hop.  At each hop the packet is handed to the
endpoint registered for that node (an HMC cube or a host-side controller),
which decides whether to consume it, process it in its Active-Routing engine,
or ask the network to forward it further.  This per-hop delivery is what lets
Active-Routing "compute on the way".  Passive reads, writes and responses,
which no transit cube acts on, are handed only to their destination (see
:meth:`MemoryNetwork.inject_passive`).

Routes come from one deterministic minimal :class:`RoutingTable`.  A
failure-free run forwards every packet on its pristine next-hop rows; the
first link state change switches the fabric onto a fault-aware hop that
keeps tree-building traffic on those pristine rows and reroutes the rest
over the table's live rows (see :meth:`MemoryNetwork._hop_flex`).
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from ..sim import Component, Simulator
from .link import Link, LinkConfig
from .packet import MOVEMENT_CATEGORIES, Packet
from .routing import RoutingError, RoutingTable
from .topology import Topology


class NetworkEndpoint(Protocol):
    """Anything that can be attached to a memory-network node."""

    node_id: int

    def receive_packet(self, packet: Packet, from_node: int) -> None:
        """Handle a packet that has arrived at this node."""

    # Optional: ``receive_passive(packet, from_node)``, which takes the
    # passive reads, writes and responses addressed to this node without
    # the dispatch of receive_packet (see MemoryNetwork.register_endpoint).


class MemoryNetwork(Component):
    """Packet-switched network of memory cubes and host controllers."""

    def __init__(self, sim: Simulator, topology: Topology,
                 link_config: Optional[LinkConfig] = None,
                 router_delay: float = 2.0) -> None:
        super().__init__(sim, "network")
        self.topology = topology
        self.routing = RoutingTable(topology)
        self.link_config = link_config or LinkConfig()
        self.router_delay = router_delay
        self.links: Dict[Tuple[int, int], Link] = {}
        self.endpoints: Dict[int, NetworkEndpoint] = {}
        for a, b in topology.edges():
            self.links[(a, b)] = Link(sim, a, b, self.link_config)
            self.links[(b, a)] = Link(sim, b, a, self.link_config)
        # Node ids are contiguous ints, so per-node state is dense lists.
        num_nodes = max(topology.adjacency) + 1
        # Each endpoint's receive_packet, bound once at registration: _hop()
        # schedules deliveries as partial(receiver, packet, from_node).  A
        # node without an endpoint holds a receiver that raises, so no hop
        # tests for a missing one; the error fires when the delivery does.
        self._receivers: List[Callable[[Packet, int], None]] = [
            partial(self._missing_endpoint, node) for node in range(num_nodes)]
        # Dense per-node columns for the aggregation paths: a bytearray mask
        # of controller-attached nodes and flat link lists in the exact
        # insertion order of ``self.links`` (the per-category float sums in
        # offchip_bytes() must visit links in the same order as the old dict
        # walks to stay bit-identical).
        self._is_controller_node = bytearray(num_nodes)
        for node in topology.controller_nodes:
            self._is_controller_node[node] = 1
        self._link_list: List[Link] = list(self.links.values())
        self._offchip_links: List[Link] = [
            link for link in self._link_list
            if self._is_controller_node[link.src] or self._is_controller_node[link.dst]]
        # _hop() runs once per network hop.  Its delivery push mirrors
        # Simulator.schedule_at: it pushes straight onto the simulator's heap
        # and draws from the simulator's sequence counter.
        self._event_heap = sim._heap
        self._next_seq = sim._next_seq
        self._next_rows = self.routing.next_hop_table
        # ``_route_links[current][dst]``: the link of the pristine route's
        # next hop (None at the destination itself or when unreachable), so
        # a hop resolves its link with one lookup instead of a tuple
        # allocation and a dict hash.  For a neighbour ``dst`` that is the
        # direct link.  Each link carries its far end's receiver as
        # ``link._rx``, which register_endpoint() keeps current.
        for link in self._link_list:
            link._rx = self._receivers[link.dst]
        self._route_links: List[List[Optional[Link]]] = [
            [self.links.get((current, nxt)) for nxt in row]
            for current, row in enumerate(self._next_rows)]
        # Passive reads, writes and their responses do nothing at a transit
        # cube but hop on, so _hop_passive() skips that cube's receive_packet:
        # ``_passive_routes[current][dst]`` is ``(link, receiver, arg)`` and
        # the arrival calls ``receiver(packet, arg)``.  On the last hop that
        # is the destination's receive_passive(packet, current) (or its
        # receive_packet), set by register_endpoint(); on the others it is
        # the transit hop _hop_passive(packet, next node) itself.
        # Every transit entry on one link is the same tuple.
        self._passive_transit = self._hop_passive
        hop_on = {link: (link, self._passive_transit, link.dst) for link in self._link_list}
        self._passive_routes: List[List[Optional[tuple]]] = [
            [None if link is None
             else (link, link._rx, current) if link.dst == dst
             else hop_on[link]
             for dst, link in enumerate(row)]
            for current, row in enumerate(self._route_links)]
        # inject() counts on a plain integer; every per-hop total is derived
        # from the links when read.
        self.injected = 0
        # Fault machinery.  The default configuration never pays for it: the
        # network starts on the original _hop() fast path and only swaps in
        # the fault-aware variant when a link actually changes state.
        self.dropped = 0
        self._fault_mode = False

    COUNTERS = (("injected", "injected"), ("hops", "hops"), ("bytes", "total_bytes"),
                ("bit_hops", "bit_hops"), ("queue_delay_cycles", "queue_delay_cycles"),
                ("bytes.", "bytes_by_category"), ("dropped", "dropped"))

    # -- derived totals -------------------------------------------------------
    # Sums over the links in ``self.links`` insertion order.  Hops and bytes
    # are integers, so they are exact; the queue-delay total is a float fold
    # in link order, the summation order the golden digests were captured
    # under (adding each hop's delay to one network-wide total as it happens
    # can round differently).
    @property
    def hops(self) -> int:
        return sum([link._n_packets for link in self._link_list])

    @property
    def bytes_by_category(self) -> Dict[str, int]:
        by_category = [0, 0, 0, 0]
        for link in self._link_list:
            for index, size in enumerate(link._cat_bytes):
                by_category[index] += size
        return dict(zip(MOVEMENT_CATEGORIES, by_category))

    @property
    def total_bytes(self) -> int:
        return sum([link.total_bytes for link in self._link_list])

    @property
    def bit_hops(self) -> int:
        return self.total_bytes * 8

    @property
    def queue_delay_cycles(self) -> float:
        total = 0.0
        for link in self._link_list:
            total += link.queue_wait_cycles
        return total

    # -- construction ---------------------------------------------------------
    def register_endpoint(self, node_id: int, endpoint: NetworkEndpoint) -> None:
        if node_id not in self.topology.adjacency:
            raise ValueError(f"node {node_id} does not exist in topology {self.topology.name}")
        self.endpoints[node_id] = endpoint
        receiver = endpoint.receive_packet
        passive = getattr(endpoint, "receive_passive", receiver)
        self._receivers[node_id] = receiver
        # The last hop into a node always comes from a neighbour.
        for neighbor in self.topology.adjacency[node_id]:
            link = self.links[(neighbor, node_id)]
            link._rx = receiver
            self._passive_routes[neighbor][node_id] = (link, passive, neighbor)

    def endpoint(self, node_id: int) -> NetworkEndpoint:
        return self.endpoints[node_id]

    # -- packet movement ------------------------------------------------------
    def inject(self, packet: Packet, at_node: int) -> None:
        """Insert ``packet`` into the network at ``at_node`` and start routing it."""
        if packet.created_at is None:
            # First time this packet enters the fabric; intermediate cubes that
            # re-inject it must not re-stamp (0.0 is a legitimate creation time).
            packet.created_at = self.sim.now
        self.injected += 1
        if packet.dst == at_node:
            # Local delivery (e.g. operand request for data in the same cube).
            self.schedule(0.0, partial(self._deliver, packet, at_node, at_node))
            return
        self._hop(packet, at_node)

    def inject_passive(self, packet: Packet, at_node: int) -> None:
        """:meth:`inject` for a passive read, write or response.

        Such a packet always travels between a host controller and a cube,
        never to the node it starts at, and is injected exactly once; it
        hops on through :meth:`_hop_passive`.
        """
        packet.created_at = self.sim.now
        self.injected += 1
        self._hop_passive(packet, at_node)

    def forward(self, packet: Packet, from_node: int) -> None:
        """Continue routing a packet that an endpoint chose not to consume."""
        if packet.dst == from_node:
            raise ValueError(f"packet {packet.pkt_id} already at destination {from_node}")
        self._hop(packet, from_node)

    def _hop(self, packet: Packet, current: int) -> None:
        link = self._route_links[current][packet.dst]
        # Inlined Link.transmit(): one hop is the innermost simulator loop and
        # the extra call frame + result tuple are measurable.  Stats go onto
        # the link's plain attributes, as transmit() counts them; the queue
        # delay is only computed when the link is still busy.
        size = packet.size
        serialization = size / link._bandwidth
        now = self.sim.now
        start = link.busy_until
        if start > now:
            link.queue_wait_cycles += start - now
        else:
            start = now
        finish = start + serialization
        link.busy_until = finish
        link.busy_cycles += serialization
        link._n_packets += 1
        link._cat_bytes[packet._cat_index] += size
        # The delivery is scheduled as a direct call of the far end's bound
        # receive_packet(), with the hop count pre-incremented (the packet is
        # owned by the pending delivery, so nothing can observe it in
        # between).  functools.partial instead of a lambda: no closure cells,
        # and the event loop's call goes straight to the bound method.
        packet.hops += 1
        # Inlined Simulator.schedule_at (delivery times are never in the
        # past): one hop schedules exactly one delivery and the wrapper call
        # is measurable.
        heappush(self._event_heap, (finish + link._latency + self.router_delay,
                                    self._next_seq(), partial(link._rx, packet, current)))

    def _hop_passive(self, packet: Packet, current: int) -> None:
        """:meth:`_hop` for passive packets: the same link reservation and
        statistics, but the arrival at a transit cube is this method itself,
        not the cube's receive_packet (see ``_passive_routes``)."""
        link, receiver, arg = self._passive_routes[current][packet.dst]
        size = packet.size
        serialization = size / link._bandwidth
        now = self.sim.now
        start = link.busy_until
        if start > now:
            link.queue_wait_cycles += start - now
        else:
            start = now
        finish = start + serialization
        link.busy_until = finish
        link.busy_cycles += serialization
        link._n_packets += 1
        link._cat_bytes[packet._cat_index] += size
        packet.hops += 1
        heappush(self._event_heap, (finish + link._latency + self.router_delay,
                                    self._next_seq(), partial(receiver, packet, arg)))

    # -- fault handling -------------------------------------------------------
    def set_link_state(self, a: int, b: int, up: bool) -> None:
        """Mark the ``a``–``b`` link pair (both directions) up or down.

        The routing table recomputes its live rows, and the first state
        change switches the network onto the fault-aware hop path for the
        rest of the run (see :meth:`_hop_flex`); redundant transitions are
        ignored.  One deliberate edge: hops already in flight at that
        *first* transition were scheduled by the fast path and complete
        unconditionally — the arrival-instant check applies from fault-mode
        activation onward (deterministically: activation is itself an event
        on the ``[time, seq]`` queue).
        """
        forward = self.links.get((a, b))
        reverse = self.links.get((b, a))
        if forward is None or reverse is None:
            raise ValueError(f"no link between nodes {a} and {b}")
        if forward.up == up:
            return
        self.routing.on_link_state_change(a, b, up)
        forward.up = up
        reverse.up = up
        self._enable_fault_mode()
        if up:
            self._drain_parked(forward)
            self._drain_parked(reverse)

    def _drain_parked(self, link: Link) -> None:
        """Retransmit everything parked on a recovered link, in FIFO order."""
        parked = link._park_inflight + link._park_blocked
        if not parked:
            return
        link._park_inflight = []
        link._park_blocked = []
        for packet, sender in parked:
            self._hop(packet, sender)

    def set_cube_state(self, node: int, up: bool) -> None:
        """Fail (or recover) a cube by taking down its attached links.

        A fully isolated cube would strand closed-loop traffic addressed to
        it, so one attachment survives: the link to the lowest-id neighbour
        whose link pair is currently up stays alive (traffic drains through
        it, slowly — the cube is *degraded*, not unreachable).  Recovery
        brings every adjacent link back up.
        """
        neighbors = self.topology.adjacency[node]
        if not neighbors:
            raise ValueError(f"node {node} has no links to fail")
        if up:
            for neighbor in neighbors:
                self.set_link_state(node, neighbor, True)
            return
        live = [n for n in neighbors if self.links[(node, n)].up]
        keep = live[0] if live else None
        for neighbor in neighbors:
            if neighbor != keep:
                self.set_link_state(node, neighbor, False)

    def _enable_fault_mode(self) -> None:
        if not self._fault_mode:
            self._fault_mode = True
            # Shadow the class methods on the instance: inject()/forward()
            # and inject_passive() look their hop up through self, so every
            # later hop takes the fault-aware variant without a per-hop mode
            # check.
            self._hop = self._hop_flex
            self._hop_passive = self._hop_flex
            # A passive packet in flight toward a transit cube would arrive
            # in the fast _hop_passive; where the cube's receive_packet used
            # to hop it on, it now continues in _hop_flex.  Same time, same
            # sequence number, so the heap order is untouched.
            heap = self._event_heap
            transit = self._passive_transit
            for index, (time, seq, callback) in enumerate(heap):
                if type(callback) is partial and callback.func == transit:
                    heap[index] = (time, seq, partial(self._hop_flex, *callback.args))

    def _hop_flex(self, packet: Packet, current: int) -> None:
        """Fault-aware hop: pinned or live route + arrival-instant up check.

        Identical serialization arithmetic and statistics order to
        :meth:`_hop`; the differences are the route choice and that delivery
        goes through :meth:`_arrive_flex`, which applies the drop rule.  The
        route choice is two-way:

        * tree-building packets (Updates, gather requests) always take the
          **pristine** next-hop row — the flow-tree protocol records those
          exact hops as parent/child edges, so they must never reroute (a
          dead pinned link parks them until it recovers);
        * every other packet takes the **live** row, which the routing table
          recomputes around dead links.

        An unreachable destination fails loudly instead of indexing a stale
        row.
        """
        dst = packet.dst
        if packet.ptype.tree_routed:
            nxt = self._next_rows[current][dst]
            if nxt < 0:
                raise RoutingError(
                    f"packet {packet.pkt_id}: no route from {current} to {dst}")
        else:
            nxt = self.routing.live_next_hop_table[current][dst]
            if nxt < 0:
                raise RoutingError(
                    f"packet {packet.pkt_id}: no route from {current} to {dst} "
                    f"over the live links")
        link = self._route_links[current][nxt]  # nxt is a neighbour
        if not link.up:
            # Submitting onto a down link (only pinned tree traffic can get
            # here — live routes avoid dead links): park in submission order,
            # no transmission happens.  Drained at recovery.
            self.dropped += 1
            link._park_blocked.append((packet, current))
            return
        size = packet.size
        serialization = size / link._bandwidth
        now = self.sim.now
        start = link.busy_until
        if start > now:
            link.queue_wait_cycles += start - now
        else:
            start = now
        finish = start + serialization
        link.busy_until = finish
        link.busy_cycles += serialization
        link._n_packets += 1
        link._cat_bytes[packet._cat_index] += size
        packet.hops += 1
        callback = partial(self._arrive_flex, packet, link, current, nxt)
        heappush(self._event_heap, (finish + link._latency + self.router_delay,
                                    self._next_seq(), callback))

    def _arrive_flex(self, packet: Packet, link: Link, current: int,
                     nxt: int) -> None:
        """Deliver a hop, or apply the drop/park rule.

        The rule — pinned by tests — is: **a hop is interrupted iff its link
        is down at the instant the packet would use it** (here: the arrival
        instant; :meth:`_hop_flex` applies the same rule at submission).  An
        interrupted packet parks on the link and is retransmitted from its
        sending node when the link recovers (closed-loop workloads must
        finish; permanent loss would deadlock them) — in-flight casualties
        first, then blocked submissions, so per-link FIFO order survives the
        outage exactly.  That ordering is load-bearing: the flow-tree gather
        protocol requires that a gather request never overtake the updates
        that preceded it on the same tree edge.  At retransmission, freely
        routed packets re-route over the recomputed live tables while
        tree-routed packets take their pinned hop again.  A wasted in-flight
        transmission stays in the hop/byte counters — the bits really
        crossed the wire — and every interruption bumps the ``dropped``
        counter, which is what the degraded figure's delivered-traffic
        fraction is derived from.
        """
        if link.up:
            self._receivers[nxt](packet, current)
            return
        self.dropped += 1
        link._park_inflight.append((packet, current))

    def _deliver(self, packet: Packet, node: int, from_node: int) -> None:
        packet.hops += 1
        self._receivers[node](packet, from_node)

    def _missing_endpoint(self, node: int, packet: Packet, from_node: int) -> None:
        raise RuntimeError(f"packet {packet.pkt_id} arrived at node {node} "
                           f"which has no registered endpoint")

    # -- statistics -----------------------------------------------------------
    def offchip_bytes(self) -> Dict[str, float]:
        """Bytes that crossed the processor/memory-network boundary, by category.

        Only the controller-adjacent links are counted: this is the on/off-chip
        traffic of Figure 5.4, as opposed to traffic staying inside the memory
        network (operand fetches between cubes, tree reductions, ...).

        The controller-adjacent links were precomputed at construction from
        the dense controller-node mask, in ``self.links`` insertion order.
        """
        totals = {cat: 0.0 for cat in MOVEMENT_CATEGORIES}
        for link in self._offchip_links:
            for cat, value in link.bytes_by_category.items():
                totals[cat] += value
        return totals
