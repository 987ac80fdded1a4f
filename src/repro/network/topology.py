"""Memory-network topologies.

The paper connects 16 HMC cubes in a dragonfly and attaches 4 host-side HMC
controllers at the edges (Table 4.1).  Controllers are modelled as extra graph
nodes so that routing treats them uniformly; cube nodes are ``0 .. num_cubes-1``
and controller nodes follow immediately after.

The topology is data: every builder takes shape parameters and returns the
same :class:`Topology` record, and :func:`build_network_topology` derives the
shape parameters from a plain ``(kind, num_cubes, num_controllers)`` request —
honoring the requested cube count *exactly* or failing immediately with an
actionable message, never silently building a different network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple


def is_connected(adjacency: Mapping[int, Iterable[int]]) -> bool:
    """Whether every node of ``adjacency`` reaches every other one.

    ``adjacency`` maps each node to its neighbours, every link listed from
    both ends; a graph without nodes is not connected.
    """
    start = next(iter(adjacency), None)
    if start is None:
        return False
    seen = {start}
    stack = [start]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == len(adjacency)


@dataclass
class Topology:
    """An undirected memory-network graph plus the controller attachment points.

    ``adjacency`` maps every node to its sorted neighbours.  The builders key
    it cubes ``0 .. num_cubes-1`` first, then the controllers, so iterating
    :attr:`nodes` visits node ids in ascending order.
    """

    name: str
    num_cubes: int
    adjacency: Dict[int, List[int]]
    controller_nodes: List[int] = field(default_factory=list)
    controller_attach: Dict[int, int] = field(default_factory=dict)

    @property
    def nodes(self) -> List[int]:
        return list(self.adjacency)

    def is_cube(self, node: int) -> bool:
        return 0 <= node < self.num_cubes

    def is_controller(self, node: int) -> bool:
        return node in self.controller_attach

    def cube_nodes(self) -> List[int]:
        return list(range(self.num_cubes))

    def neighbors(self, node: int) -> List[int]:
        return list(self.adjacency[node])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adjacency.get(a, ())

    def edges(self) -> List[Tuple[int, int]]:
        """Every link once, as ``(low, high)`` pairs in ascending order."""
        return sorted((a, b) for a, neighbors in self.adjacency.items()
                      for b in neighbors if a <= b)

    def validate(self) -> None:
        """Cross-check the whole record; raises ``ValueError`` on a broken build.

        Checks that every neighbour list is sorted, duplicate-free and
        mirrored by the neighbour's own list, connectivity, that the graph
        holds exactly the advertised cube nodes ``0 .. num_cubes-1`` plus the
        controller nodes (so an address mapping sized from ``num_cubes`` can
        never route to a nonexistent cube), that controller ids are disjoint
        from the cube id range and listed without duplicates, and that every
        controller is attached to an existing cube by a real edge.
        """
        if self.num_cubes < 1:
            raise ValueError(f"topology {self.name!r} has no cubes")
        adjacency = self.adjacency
        for node, neighbors in adjacency.items():
            if (neighbors != sorted(set(neighbors))
                    or any(node not in adjacency.get(n, ()) for n in neighbors)):
                raise ValueError(
                    f"topology {self.name!r}: the neighbours {neighbors} of node "
                    f"{node} are not a sorted list of links mirrored at both ends")
        nodes = set(adjacency)
        cube_nodes = set(range(self.num_cubes))
        missing = cube_nodes - nodes
        if missing:
            raise ValueError(
                f"topology {self.name!r} advertises {self.num_cubes} cubes but "
                f"the graph is missing cube nodes {sorted(missing)}")
        if len(self.controller_nodes) != len(set(self.controller_nodes)):
            raise ValueError(f"topology {self.name!r} lists duplicate controller nodes")
        controllers = set(self.controller_nodes)
        if controllers != set(self.controller_attach):
            raise ValueError(
                f"topology {self.name!r}: controller_nodes and controller_attach "
                f"disagree ({sorted(controllers)} vs {sorted(self.controller_attach)})")
        overlap = controllers & cube_nodes
        if overlap:
            raise ValueError(
                f"topology {self.name!r}: controller nodes {sorted(overlap)} "
                f"collide with the cube id range 0..{self.num_cubes - 1}")
        extras = nodes - cube_nodes - controllers
        if extras:
            raise ValueError(
                f"topology {self.name!r} contains unexpected nodes {sorted(extras)} "
                f"(neither cube nor controller)")
        if not is_connected(adjacency):
            raise ValueError(f"topology {self.name!r} is not connected")
        for ctrl, cube in self.controller_attach.items():
            if cube not in cube_nodes:
                raise ValueError(
                    f"controller {ctrl} attaches to {cube}, which is not a cube")
            if not self.has_edge(ctrl, cube):
                raise ValueError(f"controller {ctrl} is not attached to cube {cube}")


def _assemble(name: str, num_cubes: int, links: List[Tuple[int, int]],
              attach_cubes: List[int]) -> Topology:
    """The validated topology of ``links`` among the cubes, plus one controller
    node per entry of ``attach_cubes`` (ids from ``num_cubes`` up), each linked
    to its cube.  A link listed twice is one link."""
    controller_nodes = [num_cubes + i for i in range(len(attach_cubes))]
    attach = dict(zip(controller_nodes, attach_cubes))
    neighbors: Dict[int, set] = {node: set() for node in range(num_cubes)}
    neighbors.update((ctrl, set()) for ctrl in controller_nodes)
    for a, b in links + list(attach.items()):
        neighbors[a].add(b)
        neighbors[b].add(a)
    topo = Topology(name=name, num_cubes=num_cubes,
                    adjacency={node: sorted(ns) for node, ns in neighbors.items()},
                    controller_nodes=controller_nodes, controller_attach=attach)
    topo.validate()
    return topo


def build_dragonfly(num_groups: int = 4, routers_per_group: int = 4,
                    num_controllers: int = 4) -> Topology:
    """Dragonfly of ``num_groups * routers_per_group`` cubes.

    Routers inside a group are fully connected.  Each pair of groups is joined
    by exactly one global link, assigned deterministically to router
    ``(other_group - group - 1) mod routers_per_group`` of each group.
    Controllers attach round-robin to one router of each group.
    """
    if num_groups < 2 or routers_per_group < 1:
        raise ValueError("dragonfly needs at least 2 groups and 1 router per group")
    if num_groups - 1 > routers_per_group:
        raise ValueError("not enough routers per group to host all global links")
    num_cubes = num_groups * routers_per_group
    links: List[Tuple[int, int]] = []

    def node(group: int, router: int) -> int:
        return group * routers_per_group + router

    for group in range(num_groups):
        members = [node(group, r) for r in range(routers_per_group)]
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                links.append((a, b))

    for g1 in range(num_groups):
        for g2 in range(g1 + 1, num_groups):
            r1 = (g2 - g1 - 1) % routers_per_group
            r2 = (g1 - g2 - 1) % routers_per_group
            links.append((node(g1, r1), node(g2, r2)))

    if num_controllers > num_groups:
        raise ValueError("at most one controller per group is supported")
    attach_cubes = [node(g, routers_per_group - 1) for g in range(num_controllers)]
    return _assemble(f"dragonfly{num_groups}x{routers_per_group}", num_cubes,
                     links, attach_cubes)


def _check_attach(num_cubes: int, num_controllers: int) -> None:
    """Every controller needs a cube of its own: an ARF-tid run whose
    controllers share a cube ends with unfinished cores."""
    if num_controllers > num_cubes:
        raise ValueError(
            f"cannot attach {num_controllers} controllers to {num_cubes} "
            f"cubes: every controller needs its own attach cube; reduce "
            f"--num-controllers or add cubes")


def _corner_attach(rows: int, cols: int, num_controllers: int) -> List[int]:
    """One distinct cube per controller: the grid corners, then the other
    cubes in ascending id order."""
    num_cubes = rows * cols
    _check_attach(num_cubes, num_controllers)
    corners = [0, cols - 1, (rows - 1) * cols, num_cubes - 1]
    # dict.fromkeys deduplicates in order (degenerate single-row/column grids
    # share corners).
    return list(dict.fromkeys(corners + list(range(num_cubes))))[:num_controllers]


def build_mesh(rows: int = 4, cols: int = 4, num_controllers: int = 4) -> Topology:
    """2-D mesh of cubes with controllers attached at the four corners."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    links: List[Tuple[int, int]] = []

    def node(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                links.append((node(r, c), node(r + 1, c)))

    return _assemble(f"mesh{rows}x{cols}", rows * cols, links,
                     _corner_attach(rows, cols, num_controllers))


def build_torus(rows: int = 4, cols: int = 4, num_controllers: int = 4) -> Topology:
    """2-D torus: a mesh with wrap-around links closing every row and column.

    For dimensions of at least 3 the wrap links halve the worst-case hop count
    of the mesh and double its bisection, which is what makes the torus an
    interesting middle point between the mesh and the dragonfly in a topology
    sweep.  A dimension of exactly 2 is degenerate: its wrap link coincides
    with the mesh link (the network is a simple graph — one link per node
    pair, no parallel links), so that dimension keeps mesh connectivity; a
    dimension of 1 gets no wrap link at all (no self-loops).
    """
    if rows < 1 or cols < 1:
        raise ValueError("torus dimensions must be positive")
    links: List[Tuple[int, int]] = []

    def node(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if cols > 1:
                links.append((node(r, c), node(r, (c + 1) % cols)))
            if rows > 1:
                links.append((node(r, c), node((r + 1) % rows, c)))

    return _assemble(f"torus{rows}x{cols}", rows * cols, links,
                     _corner_attach(rows, cols, num_controllers))


def build_flattened_butterfly(rows: int = 4, cols: int = 4,
                              num_controllers: int = 4) -> Topology:
    """2-D flattened butterfly: full connectivity within every row and column.

    Any cube reaches any other in at most two hops (one row hop plus one
    column hop), trading link count for the lowest diameter of the swept
    topologies.
    """
    if rows < 1 or cols < 1:
        raise ValueError("flattened butterfly dimensions must be positive")
    links: List[Tuple[int, int]] = []

    def node(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c1 in range(cols):
            for c2 in range(c1 + 1, cols):
                links.append((node(r, c1), node(r, c2)))
    for c in range(cols):
        for r1 in range(rows):
            for r2 in range(r1 + 1, rows):
                links.append((node(r1, c), node(r2, c)))

    return _assemble(f"fbfly{rows}x{cols}", rows * cols, links,
                     _corner_attach(rows, cols, num_controllers))


def build_chain(num_cubes: int = 4, num_controllers: int = 1) -> Topology:
    """A daisy chain of cubes; controllers attach to the first cubes."""
    if num_cubes < 1:
        raise ValueError("chain needs at least one cube")
    _check_attach(num_cubes, num_controllers)
    links = [(i, i + 1) for i in range(num_cubes - 1)]
    return _assemble(f"chain{num_cubes}", num_cubes, links,
                     list(range(num_controllers)))


TOPOLOGY_BUILDERS = {
    "dragonfly": build_dragonfly,
    "mesh": build_mesh,
    "torus": build_torus,
    "flattened_butterfly": build_flattened_butterfly,
    "chain": build_chain,
}


def build_topology(kind: str, **kwargs) -> Topology:
    """Build a topology by name with explicit shape parameters."""
    try:
        builder = TOPOLOGY_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown topology {kind!r}; choose from {sorted(TOPOLOGY_BUILDERS)}")
    return builder(**kwargs)


# -- cube-count driven construction ---------------------------------------------

def grid_shape(num_cubes: int) -> Tuple[int, int]:
    """The most balanced exact ``rows x cols`` factorization of ``num_cubes``.

    ``rows`` is the largest divisor not exceeding ``sqrt(num_cubes)``, so the
    grid is as square as possible and ``rows <= cols`` always holds; a prime
    count degenerates to ``1 x num_cubes`` but still builds *exactly* the
    requested number of cubes.
    """
    if num_cubes < 1:
        raise ValueError(f"num_cubes must be positive, got {num_cubes}")
    rows = 1
    for candidate in range(1, int(num_cubes ** 0.5) + 1):
        if num_cubes % candidate == 0:
            rows = candidate
    return rows, num_cubes // rows


def dragonfly_shape(num_cubes: int, num_controllers: int) -> Tuple[int, int]:
    """An exact ``(num_groups, routers_per_group)`` factorization for a dragonfly.

    Valid shapes satisfy ``groups * routers == num_cubes`` with ``groups >=
    max(2, num_controllers)`` (one controller per group at most) and ``groups -
    1 <= routers`` (each group hosts one global link per peer group).  Among
    the valid factorizations the most balanced wins, smaller group count
    breaking ties; when none exists the request fails immediately with the
    constraints spelled out, instead of silently truncating the cube count.
    """
    if num_cubes < 2:
        raise ValueError(f"a dragonfly needs at least 2 cubes, got {num_cubes}")
    min_groups = max(2, num_controllers)
    candidates = []
    for groups in range(min_groups, num_cubes + 1):
        if num_cubes % groups:
            continue
        routers = num_cubes // groups
        if groups - 1 <= routers:
            candidates.append((groups, routers))
    if not candidates:
        raise ValueError(
            f"cannot build a dragonfly with exactly {num_cubes} cubes and "
            f"{num_controllers} controllers: need num_cubes = groups x routers "
            f"with groups >= {min_groups} and groups - 1 <= routers; "
            f"pick a cube count with such a factorization (e.g. 16 = 4x4) "
            f"or reduce --num-controllers")
    return min(candidates, key=lambda shape: (abs(shape[0] - shape[1]), shape[0]))


def build_network_topology(kind: str, num_cubes: int, num_controllers: int) -> Topology:
    """Build the ``kind`` topology with *exactly* ``num_cubes`` cubes.

    This is the entry point :class:`~repro.hmc.hmc_memory.HMCMemorySystem`
    uses: shape parameters (groups/rows/columns) are derived from the cube
    count rather than the other way round, so the network always agrees with
    the address mapping sized from the same ``num_cubes`` — or the build fails
    up front with an actionable error.
    """
    if kind == "dragonfly":
        groups, routers = dragonfly_shape(num_cubes, num_controllers)
        return build_dragonfly(num_groups=groups, routers_per_group=routers,
                               num_controllers=num_controllers)
    if kind in ("mesh", "torus", "flattened_butterfly"):
        rows, cols = grid_shape(num_cubes)
        builder = TOPOLOGY_BUILDERS[kind]
        return builder(rows=rows, cols=cols, num_controllers=num_controllers)
    if kind == "chain":
        return build_chain(num_cubes=num_cubes, num_controllers=num_controllers)
    raise ValueError(f"unknown topology {kind!r}; choose from {sorted(TOPOLOGY_BUILDERS)}")
