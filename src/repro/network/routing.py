"""Deterministic routing policies over a memory-network topology.

Routes are computed with a breadth-first search that always explores
neighbours in ascending node order, so that for every (source, destination)
pair there is exactly one path and it is stable across runs.  Active-Routing's
split-point computation relies on this determinism: the split point of two
operands is the last cube shared by the two deterministic paths from the tree
root toward each operand.

Routing is *pluggable*: every policy implements the same small interface
— ``next_hop`` / ``distance`` / ``path`` / ``split_point`` / ``nearest`` /
``on_link_state_change`` — and registers in :data:`ROUTING_BACKENDS`;
:func:`resolve_routing` picks one by explicit name, ``$REPRO_ROUTING``, or
the default.  Three implementations ship:

* :class:`RoutingTable` (``static``) — the dense table the hot loop was tuned
  on.  Computed once; cannot react to link failures (``on_link_state_change``
  raises).  The default, byte-identical to every result that predates the
  policy layer.
* :class:`ResilientRoutingTable` (``resilient``) — keeps the pristine columns
  and, on a link/cube state change, deterministically recomputes a *separate*
  set of live columns over the surviving links (pydecnet-style: unreachable
  destinations are pinned at the INFHOPS/INFCOST-style markers instead of
  stale routes).  On a failure-free network it is bit-identical to
  ``static``.
* :class:`AdaptiveRouting` (``adaptive``) — congestion-aware: each hop picks,
  among the live shortest-path neighbours toward the destination, the one
  whose outgoing link has the least serialization backlog, ties broken by
  ascending neighbour id (fully deterministic).

The pristine/live split is load-bearing, not an optimisation.  Active-Routing
builds its flow trees incrementally from the deterministic table: each transit
cube records ``next_hop_table[self][dst]`` as the child an Update continued
to, and the gather phase later walks exactly those recorded edges.  If
tree-building traffic were rerouted mid-run, one flow's updates would take
different paths at different times and a cube could end up recorded as the
child of *two* parents — but it answers only the one parent its entry pinned,
and the other parent's gather would wait forever.  So the network pins
tree-building packets (Updates, gather requests) to the **pristine** routes
for the whole run — a dead pinned link parks them until it recovers — while
every other packet class reroutes over the **live** columns.  Both
tables are the same objects until the first failure, so hot loops keep direct
references to ``next_hop_table`` and failure-free behaviour is untouched;
``distance``/``path``/``split_point`` likewise always describe the pristine
tree, matching what the pinned traffic actually does.

Dense layout (node ids are small contiguous ints):

* ``next_hop_table`` stays a plain list-of-lists indexed ``[current][dst]``.
  The per-hop lookup is the innermost network operation, and small next-hop
  ids hit CPython's small-int cache when read from a list, whereas an
  ``array('i')`` read boxes a fresh ``int`` object for values above 256 —
  a per-hop allocation this module exists to avoid.
* distances live in one ``array('H')`` column per source (2 bytes per pair,
  ``0xFFFF`` marking "no route") and BFS parents in one ``array('i')`` column
  per root.  Full paths are *reconstructed* from the parent columns on demand
  instead of being stored as per-pair list objects; the reconstruction is only
  reached from cold paths (tests, figures) and from :meth:`split_point`, which
  memoizes its answers.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from typing import Dict, List, Optional, Set, Tuple, Type

from .topology import Topology

#: Dense-table marker for an unreachable (or non-existent) destination.
NO_ROUTE = -1

#: Unreachable marker inside the unsigned ``array('H')`` distance columns
#: (:data:`NO_ROUTE` is negative and does not fit an unsigned slot).
_DIST_INF = 0xFFFF


class RoutingError(RuntimeError):
    """A routing policy was asked for something it cannot do (e.g. the static
    table reacting to a link failure)."""


class RoutingTable:
    """Dense next-hop/distance/parent columns with path reconstruction.

    This is both the ``static`` policy and the base class every other policy
    derives its deterministic-BFS columns from.  The class-level attributes
    below are the policy interface contract consumed by
    :class:`~repro.network.network.MemoryNetwork`:

    * ``name`` — registry key.
    * ``supports_faults`` — whether :meth:`on_link_state_change` recomputes
      routes (``False`` here: the static table must raise rather than keep
      silently forwarding into a dead link).
    * ``uses_dense_next_hop`` — whether the network's hot loop may read
      ``next_hop_table`` rows directly instead of calling :meth:`route` per
      packet.
    """

    name = "static"
    supports_faults = False
    uses_dense_next_hop = True

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        adjacency = topology.adjacency
        size = (max(adjacency) + 1) if adjacency else 0
        self._size = size
        #: ``next_hop_table[current][dst]`` -> neighbour toward ``dst``
        #: (``current`` itself when ``current == dst``, :data:`NO_ROUTE` when
        #: unreachable).  Exposed for hot loops that index it directly.
        self.next_hop_table: List[List[int]] = [[NO_ROUTE] * size for _ in range(size)]
        #: One BFS-parent column per root: ``_parents[root][node]`` is the
        #: predecessor of ``node`` on the deterministic ``root -> node`` path
        #: (``root`` itself at the root, :data:`NO_ROUTE` when unreachable).
        self._parents: List[array] = []
        self._dist: List[array] = []
        self._split_cache: Dict[Tuple[int, int, int], int] = {}
        in_graph = [n in adjacency for n in range(size)]
        neighbor_lists = [adjacency.get(n, []) for n in range(size)]
        self._in_graph = in_graph
        self._neighbor_lists = neighbor_lists
        #: Live next-hop view consulted for packets that may reroute around
        #: failures.  The same object as ``next_hop_table`` until a policy
        #: that supports faults diverges them on the first state change.
        self.live_next_hop_table: List[List[int]] = self.next_hop_table
        for root in range(size):
            parents = array("i", [NO_ROUTE]) * size
            dist = array("H", [_DIST_INF]) * size
            next_row = self.next_hop_table[root]
            if in_graph[root]:
                # Deterministic BFS, neighbours explored in ascending order.
                # Parent, hop count and first step off the root all propagate
                # along the discovery edge, so the columns hold exactly what a
                # stored-path table would have derived from them.
                parents[root] = root
                dist[root] = 0
                next_row[root] = root
                queue = deque([root])
                while queue:
                    current = queue.popleft()
                    step = next_row[current] if current != root else NO_ROUTE
                    hops = dist[current] + 1
                    for neighbor in neighbor_lists[current]:
                        if parents[neighbor] == NO_ROUTE:
                            parents[neighbor] = current
                            dist[neighbor] = hops
                            next_row[neighbor] = neighbor if step == NO_ROUTE else step
                            queue.append(neighbor)
            self._parents.append(parents)
            self._dist.append(dist)

    def path(self, src: int, dst: int) -> List[int]:
        """Full node path from ``src`` to ``dst`` inclusive (reconstructed)."""
        if src < 0 or dst < 0:
            raise ValueError(f"no route from {src} to {dst}")
        try:
            parents = self._parents[src]
            parent = parents[dst]
        except IndexError:
            raise ValueError(f"no route from {src} to {dst}") from None
        if parent == NO_ROUTE:
            raise ValueError(f"no route from {src} to {dst}")
        reverse = [dst]
        node = dst
        while node != src:
            node = parents[node]
            reverse.append(node)
        reverse.reverse()
        return reverse

    def next_hop(self, current: int, dst: int) -> int:
        """The neighbour to forward to from ``current`` toward ``dst``."""
        # Reject negative ids explicitly: Python's negative indexing would
        # otherwise read the wrong row/column (and NO_ROUTE itself is -1).
        if current < 0 or dst < 0:
            raise ValueError(f"no route from {current} to {dst}")
        try:
            nxt = self.next_hop_table[current][dst]
        except IndexError:
            raise ValueError(f"no route from {current} to {dst}") from None
        if nxt == NO_ROUTE:
            raise ValueError(f"no route from {current} to {dst}")
        return nxt

    def distance(self, src: int, dst: int) -> int:
        """Hop count between two nodes."""
        if src < 0 or dst < 0:
            raise ValueError(f"no route from {src} to {dst}")
        try:
            dist = self._dist[src][dst]
        except IndexError:
            raise ValueError(f"no route from {src} to {dst}") from None
        if dist == _DIST_INF:
            raise ValueError(f"no route from {src} to {dst}")
        return dist

    def split_point(self, root: int, dst_a: int, dst_b: int) -> int:
        """Last cube common to the deterministic routes ``root→dst_a`` and ``root→dst_b``.

        This is where a two-operand Update packet splits into two operand
        requests (Section 3.3.1 of the paper).  Answers are memoized: the
        host asks once per two-operand Update, while the number of *distinct*
        (root, a, b) triples is bounded by the cube count cubed.
        """
        key = (root, dst_a, dst_b)
        split = self._split_cache.get(key)
        if split is None:
            path_a = self.path(root, dst_a)
            path_b = self.path(root, dst_b)
            split = root
            for a, b in zip(path_a, path_b):
                if a != b:
                    break
                split = a
            self._split_cache[key] = split
        return split

    def nearest(self, node: int, candidates: List[int]) -> int:
        """The candidate closest to ``node``.

        Equal distances are broken by ascending candidate id — a pinned,
        documented tie order (adaptive routing and the split-point tree
        construction both rely on it being reproducible).  Goes through
        :meth:`distance` so an unreachable candidate raises ``ValueError``
        instead of its :data:`NO_ROUTE` marker winning the comparison.
        """
        if not candidates:
            raise ValueError("candidates must be non-empty")
        return min(candidates, key=lambda c: (self.distance(node, c), c))

    # -- policy interface hooks ----------------------------------------------
    def bind(self, network) -> None:
        """Give the policy access to the fabric it routes for.

        Called once by :class:`~repro.network.network.MemoryNetwork` after the
        link grid is built.  The dense table policies need nothing from it;
        :class:`AdaptiveRouting` grabs the link grid and clock here.
        """

    def on_link_state_change(self, a: int, b: int, up: bool) -> None:
        """React to the ``a``–``b`` link going down (or coming back up).

        The static table is immutable by design: silently keeping stale routes
        would forward traffic into a dead link forever, so it refuses instead
        and the caller learns to pick a fault-tolerant policy.
        """
        raise RoutingError(
            f"static routing cannot react to the {a}-{b} link going "
            f"{'up' if up else 'down'}; use the 'resilient' or 'adaptive' "
            f"routing policy for fault injection")

    def route(self, current: int, dst: int) -> int:
        """Runtime next-hop selection for policies without a dense fast path.

        The dense-table policies never reach this (the network reads
        ``next_hop_table`` rows directly); it exists so every policy exposes
        one uniform per-packet entry point.
        """
        return self.next_hop(current, dst)


class ResilientRoutingTable(RoutingTable):
    """Dense routing that deterministically recomputes around dead links.

    Construction is byte-identical to :class:`RoutingTable` (it *is* the
    parent constructor), so on a failure-free network the two policies agree
    bit-for-bit — the lockstep guarantee the golden determinism matrix pins.

    A link state change re-runs the ascending-neighbour BFS over the live
    links only, into the *live* columns; the pristine ``next_hop_table`` /
    ``_dist`` / ``_parents`` describing the failure-free tree are never
    touched (see the module docstring for why the flow trees require that).
    Live destinations cut off by a failure are pinned at
    :data:`NO_ROUTE`/``0xFFFF`` — the INFHOPS/INFCOST idiom — instead of
    retaining stale routes, so an impossible forward fails loudly at the hop
    that needs it.  Recomputation is O(V·(V+E)) per state change; failures
    are rare events on small graphs, so simplicity and determinism win over
    incremental updates.
    """

    name = "resilient"
    supports_faults = True

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        #: Down links as undirected ``(min, max)`` node pairs.
        self._down: Set[Tuple[int, int]] = set()
        #: Live neighbours per node, ascending (the BFS exploration order).
        self._live_neighbors: List[List[int]] = [list(ns) for ns in self._neighbor_lists]
        #: Live distance columns; alias of the pristine ones until the first
        #: state change (so failure-free adaptive runs read pristine data).
        self._live_dist: List[array] = self._dist

    def on_link_state_change(self, a: int, b: int, up: bool) -> None:
        edge = (a, b) if a <= b else (b, a)
        if up:
            self._down.discard(edge)
        else:
            self._down.add(edge)
        down = self._down
        self._live_neighbors = [
            [n for n in neighbors
             if ((node, n) if node <= n else (n, node)) not in down]
            for node, neighbors in enumerate(self._neighbor_lists)]
        if self.live_next_hop_table is self.next_hop_table:
            # First divergence: give the live view its own storage.  The
            # pristine columns stay frozen for the rest of the run.
            self.live_next_hop_table = [list(row) for row in self.next_hop_table]
            self._live_dist = [array("H", column) for column in self._dist]
        self._recompute()

    def _recompute(self) -> None:
        """Re-run the deterministic BFS over live links into the live columns."""
        size = self._size
        in_graph = self._in_graph
        neighbor_lists = self._live_neighbors
        for root in range(size):
            dist = self._live_dist[root]
            next_row = self.live_next_hop_table[root]
            for index in range(size):
                dist[index] = _DIST_INF
                next_row[index] = NO_ROUTE
            if not in_graph[root]:
                continue
            # Exactly the constructor's BFS, only over live neighbours (the
            # unreached distance marker doubles as the visited flag).
            dist[root] = 0
            next_row[root] = root
            queue = deque([root])
            while queue:
                current = queue.popleft()
                step = next_row[current] if current != root else NO_ROUTE
                hops = dist[current] + 1
                for neighbor in neighbor_lists[current]:
                    if dist[neighbor] == _DIST_INF:
                        dist[neighbor] = hops
                        next_row[neighbor] = neighbor if step == NO_ROUTE else step
                        queue.append(neighbor)


class AdaptiveRouting(ResilientRoutingTable):
    """Congestion-aware next-hop selection with deterministic tie-breaking.

    Keeps the resilient policy's dense distance columns (so failures reroute
    exactly like ``resilient``) but chooses the actual next hop per packet:
    among the live neighbours that make shortest-path progress toward the
    destination (distance exactly one less than the current node's), the one
    whose outgoing link has the least serialization backlog wins; equal
    backlogs are broken by ascending neighbour id.  Backlog is read from the
    link's ``busy_until`` reservation — the same deterministic quantity the
    flushed queue-delay counters are derived from — so two runs of the same
    workload pick identical hops.

    Restricting candidates to shortest-path neighbours keeps forwarding
    livelock-free (every hop strictly decreases the remaining distance) and
    keeps :meth:`distance`/:meth:`path`/:meth:`split_point` — which describe
    the deterministic BFS tree, not any one packet's trajectory — meaningful
    for the split-point tree construction.

    Adaptive choice applies to memory, operand and response traffic only: the
    network pins tree-building packets (Updates, gather requests) to the
    pristine deterministic routes regardless of policy, because the flow-tree
    protocol records those exact hops as parent/child edges and walks them
    again at gather time (see the module docstring).
    """

    name = "adaptive"
    uses_dense_next_hop = False

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._link_grid: Optional[List[List[object]]] = None
        self._sim = None

    def bind(self, network) -> None:
        self._link_grid = network._link_grid
        self._sim = network.sim

    def route(self, current: int, dst: int) -> int:
        if current < 0 or dst < 0:
            raise ValueError(f"no route from {current} to {dst}")
        live_dist = self._live_dist
        try:
            here = live_dist[current][dst]
        except IndexError:
            raise ValueError(f"no route from {current} to {dst}") from None
        if here == _DIST_INF:
            raise ValueError(f"no route from {current} to {dst}")
        if current == dst:
            return current
        grid = self._link_grid
        if grid is None:
            # Unbound (unit tests poking the policy directly): fall back to
            # the deterministic live-table hop.
            return self.live_next_hop_table[current][dst]
        row = grid[current]
        now = self._sim.now
        target = here - 1
        best = NO_ROUTE
        best_backlog = 0.0
        for neighbor in self._live_neighbors[current]:
            if live_dist[neighbor][dst] != target:
                continue
            busy = row[neighbor].busy_until - now
            backlog = busy if busy > 0.0 else 0.0
            # Strict < keeps the lowest-id neighbour on equal backlogs: the
            # candidates iterate in ascending id order.
            if best == NO_ROUTE or backlog < best_backlog:
                best = neighbor
                best_backlog = backlog
        if best == NO_ROUTE:
            raise ValueError(f"no route from {current} to {dst}")
        return best


#: Name -> class for every routing policy a MemoryNetwork can be built on.
ROUTING_BACKENDS: Dict[str, Type[RoutingTable]] = {
    "static": RoutingTable,
    "resilient": ResilientRoutingTable,
    "adaptive": AdaptiveRouting,
}

DEFAULT_ROUTING = "static"

#: Environment variable consulted when no explicit policy is requested.
ROUTING_ENV = "REPRO_ROUTING"


def resolve_routing(name: Optional[str] = None) -> str:
    """Canonical routing-policy name for a request.

    Resolution order: explicit ``name``, then ``$REPRO_ROUTING``, then the
    default (``static``).  Unknown names raise ``ValueError`` listing the
    choices.  ``static`` and ``resilient`` are bit-identical on a failure-free
    network; ``adaptive`` legitimately changes results, so cache-aware entry
    points (the CLI, the evaluation suite) select policies through the network
    config — whose label keys every cache entry — and treat the environment
    variable as a kernel-testing knob.
    """
    if name is None:
        name = os.environ.get(ROUTING_ENV) or DEFAULT_ROUTING
    canonical = str(name).strip().lower()
    if canonical not in ROUTING_BACKENDS:
        raise ValueError(f"unknown routing policy {name!r}; choose from "
                         f"{', '.join(sorted(ROUTING_BACKENDS))}")
    return canonical


def make_routing(topology: Topology, name: Optional[str] = None) -> RoutingTable:
    """Instantiate the routing policy selected by :func:`resolve_routing`."""
    return ROUTING_BACKENDS[resolve_routing(name)](topology)
