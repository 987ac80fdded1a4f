"""Deterministic minimal routing over a memory-network topology.

Routes are computed with a breadth-first search that always explores
neighbours in ascending node order, so that for every (source, destination)
pair there is exactly one path and it is stable across runs.  Active-Routing's
split-point computation relies on this determinism: the split point of two
operands is the last cube shared by the two deterministic paths from the tree
root toward each operand.

One class, :class:`RoutingTable`, serves every run.  It keeps two views of
the routes:

* the **pristine** columns (``next_hop_table``, distances, BFS parents),
  computed once over the full topology and never changed;
* the **live** next-hop view (``live_next_hop_table``), which on a link/cube
  state change is deterministically recomputed over the surviving links
  (pydecnet-style: unreachable destinations are pinned at the
  INFHOPS/INFCOST-style markers instead of stale routes).

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
every other packet class reroutes over the **live** columns.  Both views are
the same objects until the first failure, and the live state is only created
then, so hot loops keep direct references to ``next_hop_table`` and a
failure-free run builds and reads exactly the pristine tables.
``distance``/``path``/``split_point`` always describe the pristine tree,
matching what the pinned traffic actually does.

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

from array import array
from collections import deque
from typing import Dict, List, Set, Tuple

from .topology import Topology

#: Dense-table marker for an unreachable (or non-existent) destination.
NO_ROUTE = -1

#: Unreachable marker inside the unsigned ``array('H')`` distance columns
#: (:data:`NO_ROUTE` is negative and does not fit an unsigned slot).
_DIST_INF = 0xFFFF


class RoutingError(RuntimeError):
    """A packet has no route to its destination over the links it may use."""


class RoutingTable:
    """Dense next-hop/distance/parent columns with path reconstruction.

    The pristine columns are built once here.  A link state change
    (:meth:`on_link_state_change`) re-runs the ascending-neighbour BFS over
    the live links only, into the *live* columns; the pristine
    ``next_hop_table`` / ``_dist`` / ``_parents`` describing the failure-free
    tree are never touched (see the module docstring for why the flow trees
    require that).  Live destinations cut off by a failure are pinned at
    :data:`NO_ROUTE`/``0xFFFF`` — the INFHOPS/INFCOST idiom — instead of
    retaining stale routes, so an impossible forward fails loudly at the hop
    that needs it.  Recomputation is O(V·(V+E)) per state change; failures
    are rare events on small graphs, so simplicity and determinism win over
    incremental updates.
    """

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
        #: failures.  The same object as ``next_hop_table`` until the first
        #: state change gives it its own storage.
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

    # -- link failures -------------------------------------------------------
    def on_link_state_change(self, a: int, b: int, up: bool) -> None:
        """Recompute the live routes after the ``a``–``b`` link goes down or up."""
        edge = (a, b) if a <= b else (b, a)
        if self.live_next_hop_table is self.next_hop_table:
            # First divergence: create the live state and give the live view
            # its own storage.  The pristine columns stay frozen for the rest
            # of the run.
            #: Down links as undirected ``(min, max)`` node pairs.
            self._down: Set[Tuple[int, int]] = set()
            self.live_next_hop_table = [list(row) for row in self.next_hop_table]
            self._live_dist: List[array] = [array("H", column) for column in self._dist]
        if up:
            self._down.discard(edge)
        else:
            self._down.add(edge)
        self._recompute()

    def _recompute(self) -> None:
        """Re-run the deterministic BFS over live links into the live columns."""
        size = self._size
        in_graph = self._in_graph
        down = self._down
        # Live neighbours per node, ascending (the BFS exploration order).
        neighbor_lists = [
            [n for n in neighbors
             if ((node, n) if node <= n else (n, node)) not in down]
            for node, neighbors in enumerate(self._neighbor_lists)]
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
