"""Unit tests for memory-network topologies."""

import random

import networkx as nx
import pytest

from helpers import reference_graph
from repro.network import (TOPOLOGY_BUILDERS, FaultInjector, MemoryNetwork,
                           Topology, build_chain, build_dragonfly,
                           build_flattened_butterfly, build_mesh,
                           build_network_topology, build_topology, build_torus,
                           dragonfly_shape, grid_shape)
from repro.network.topology import is_connected
from repro.sim import Simulator


def _path(num_nodes):
    """Plain adjacency of the path ``0 - 1 - ... - num_nodes-1``."""
    return {n: [m for m in (n - 1, n + 1) if 0 <= m < num_nodes]
            for n in range(num_nodes)}


def test_dragonfly_structure():
    topo = build_dragonfly(num_groups=4, routers_per_group=4, num_controllers=4)
    assert topo.num_cubes == 16
    assert len(topo.controller_nodes) == 4
    topo.validate()
    # Intra-group: complete graph of 4 -> 3 local links per router.
    # Plus exactly one global link per group pair: 6 global links.
    cube_graph = reference_graph(topo).subgraph(range(16))
    intra = 4 * (4 * 3 // 2)
    assert cube_graph.number_of_edges() == intra + 6
    # Every pair of cubes is reachable.
    assert nx.is_connected(cube_graph)


def test_dragonfly_controllers_attach_to_distinct_groups():
    topo = build_dragonfly()
    groups = {topo.controller_attach[c] // 4 for c in topo.controller_nodes}
    assert groups == {0, 1, 2, 3}


def test_dragonfly_validation_errors():
    with pytest.raises(ValueError):
        build_dragonfly(num_groups=1)
    with pytest.raises(ValueError):
        build_dragonfly(num_groups=6, routers_per_group=4, num_controllers=7)
    with pytest.raises(ValueError):
        build_dragonfly(num_groups=8, routers_per_group=2)


def test_mesh_structure():
    topo = build_mesh(rows=4, cols=4, num_controllers=4)
    assert topo.num_cubes == 16
    # 2*4*3 = 24 mesh edges plus 4 controller edges.
    assert len(topo.edges()) == 24 + 4
    corners = {topo.controller_attach[c] for c in topo.controller_nodes}
    assert corners == {0, 3, 12, 15}


def test_chain_structure():
    topo = build_chain(num_cubes=4, num_controllers=1)
    assert topo.num_cubes == 4
    assert len(topo.edges()) == 3 + 1
    assert topo.is_controller(4)
    assert topo.is_cube(0) and not topo.is_cube(4)


def test_every_controller_gets_its_own_attach_cube():
    # Grids take the corners first, then the remaining cubes in id order.
    assert build_mesh(rows=1, cols=3, num_controllers=3).controller_attach == \
        {3: 0, 4: 2, 5: 1}
    for topo in (build_mesh(rows=4, cols=4, num_controllers=8),
                 build_torus(rows=3, cols=3, num_controllers=9),
                 build_chain(num_cubes=3, num_controllers=3)):
        attach = list(topo.controller_attach.values())
        assert len(set(attach)) == len(attach)
    assert build_mesh(rows=4, cols=4, num_controllers=8).controller_attach == \
        {16: 0, 17: 3, 18: 12, 19: 15, 20: 1, 21: 2, 22: 4, 23: 5}
    # More controllers than cubes cannot be attached one to a cube.
    for build, shape in ((build_chain, dict(num_cubes=2)),
                         (build_mesh, dict(rows=1, cols=1)),
                         (build_torus, dict(rows=1, cols=3)),
                         (build_flattened_butterfly, dict(rows=1, cols=2))):
        with pytest.raises(ValueError, match="its own attach cube"):
            build(num_controllers=4, **shape)


def test_build_topology_by_name():
    assert build_topology("mesh", rows=2, cols=2, num_controllers=1).num_cubes == 4
    assert build_topology("torus", rows=2, cols=3, num_controllers=2).num_cubes == 6
    with pytest.raises(ValueError):
        build_topology("hypercube")


def test_neighbors_sorted_and_edges_normalized():
    topo = build_mesh(rows=2, cols=2, num_controllers=1)
    for node in topo.nodes:
        assert topo.neighbors(node) == sorted(topo.neighbors(node))
    for a, b in topo.edges():
        assert a <= b


# -- torus / flattened butterfly ------------------------------------------------

def test_torus_structure():
    topo = build_torus(rows=4, cols=4, num_controllers=4)
    assert topo.num_cubes == 16
    # The 24 mesh edges plus 8 wrap-around links, plus 4 controller edges.
    assert len(topo.edges()) == 24 + 8 + 4
    cube_graph = reference_graph(topo).subgraph(range(16))
    assert nx.is_connected(cube_graph)
    # Every cube has degree 4 in the cube-only torus.
    assert {d for _n, d in cube_graph.degree()} == {4}
    # Wrap links halve the cube-graph diameter relative to the mesh.
    assert nx.diameter(cube_graph) == 4
    mesh_cubes = reference_graph(build_mesh(rows=4, cols=4)).subgraph(range(16))
    assert nx.diameter(mesh_cubes) == 6


def test_torus_degenerate_dimensions_have_no_self_loops():
    for rows, cols in ((1, 4), (2, 3), (1, 1)):
        topo = build_torus(rows=rows, cols=cols, num_controllers=1)
        assert topo.num_cubes == rows * cols
        assert nx.number_of_selfloops(reference_graph(topo)) == 0
        topo.validate()


def test_flattened_butterfly_structure():
    topo = build_flattened_butterfly(rows=4, cols=4, num_controllers=4)
    assert topo.num_cubes == 16
    # Full row cliques (4 * C(4,2)) + full column cliques, + 4 controller links.
    assert len(topo.edges()) == 24 + 24 + 4
    cube_graph = reference_graph(topo).subgraph(range(16))
    # Any cube reaches any other in at most two hops (row hop + column hop).
    assert nx.diameter(cube_graph) == 2


def test_new_builders_controllers_are_disjoint_from_cubes():
    for topo in (build_torus(rows=2, cols=4, num_controllers=4),
                 build_flattened_butterfly(rows=2, cols=4, num_controllers=3)):
        controllers = set(topo.controller_nodes)
        assert len(controllers) == len(topo.controller_nodes)
        assert controllers.isdisjoint(range(topo.num_cubes))
        for ctrl in controllers:
            assert topo.has_edge(ctrl, topo.controller_attach[ctrl])


# -- cube-count driven construction ----------------------------------------------

def test_grid_shape_is_exact_and_balanced():
    assert grid_shape(16) == (4, 4)
    assert grid_shape(8) == (2, 4)
    assert grid_shape(12) == (3, 4)
    assert grid_shape(7) == (1, 7)       # prime counts degenerate but stay exact
    with pytest.raises(ValueError):
        grid_shape(0)


def test_dragonfly_shape_honors_constraints():
    assert dragonfly_shape(16, 4) == (4, 4)
    assert dragonfly_shape(12, 3) == (3, 4)
    # 18 cubes cannot satisfy groups >= 4 and groups - 1 <= routers.
    with pytest.raises(ValueError, match="exactly 18 cubes"):
        dragonfly_shape(18, 4)
    with pytest.raises(ValueError, match="exactly 8 cubes"):
        dragonfly_shape(8, 4)


@pytest.mark.parametrize("kind", ["dragonfly", "mesh", "torus",
                                  "flattened_butterfly", "chain"])
def test_build_network_topology_builds_exact_cube_counts(kind):
    num_cubes = 16 if kind == "dragonfly" else 12
    topo = build_network_topology(kind, num_cubes=num_cubes, num_controllers=4)
    assert topo.num_cubes == num_cubes
    assert topo.nodes == list(range(num_cubes + 4))
    topo.validate()


def test_build_network_topology_default_matches_explicit_dragonfly():
    derived = build_network_topology("dragonfly", num_cubes=16, num_controllers=4)
    explicit = build_dragonfly(num_groups=4, routers_per_group=4, num_controllers=4)
    assert derived.name == explicit.name
    assert derived.edges() == explicit.edges()
    assert derived.controller_attach == explicit.controller_attach


def test_build_network_topology_rejects_impossible_requests():
    with pytest.raises(ValueError, match="dragonfly"):
        build_network_topology("dragonfly", num_cubes=18, num_controllers=4)
    with pytest.raises(ValueError, match="unknown topology"):
        build_network_topology("hypercube", num_cubes=16, num_controllers=4)


# -- Topology.validate cross-checks ----------------------------------------------

def _valid_topology():
    return build_mesh(rows=2, cols=2, num_controllers=2)


def test_validate_rejects_cube_count_divergence():
    topo = _valid_topology()
    topo.num_cubes = 7                    # advertises a cube the graph lacks
    with pytest.raises(ValueError, match="missing cube nodes"):
        topo.validate()


def test_validate_rejects_controller_overlapping_cube_range():
    topo = _valid_topology()
    topo.num_cubes = 3                    # node 3 is both cube and controller... almost
    with pytest.raises(ValueError):
        topo.validate()
    overlapping = Topology(name="broken", num_cubes=4, adjacency=_path(4),
                           controller_nodes=[3], controller_attach={3: 0})
    with pytest.raises(ValueError, match="collide with the cube id range"):
        overlapping.validate()


def test_validate_rejects_duplicate_and_inconsistent_controllers():
    adjacency = {0: [1, 3], 1: [0, 2], 2: [1], 3: [0]}   # path 0-1-2 plus 3-0
    dupes = Topology(name="dupes", num_cubes=3, adjacency=adjacency,
                     controller_nodes=[3, 3], controller_attach={3: 0})
    with pytest.raises(ValueError, match="duplicate controller"):
        dupes.validate()
    mismatch = Topology(name="mismatch", num_cubes=3, adjacency=adjacency,
                        controller_nodes=[3], controller_attach={})
    with pytest.raises(ValueError, match="disagree"):
        mismatch.validate()


def test_validate_rejects_detached_controller_and_stray_nodes():
    # Controller 3 hangs off cube 1, not off the cube 0 it claims.
    adjacency = {0: [1], 1: [0, 2, 3], 2: [1], 3: [1]}
    detached = Topology(name="detached", num_cubes=3, adjacency=adjacency,
                        controller_nodes=[3], controller_attach={3: 0})
    with pytest.raises(ValueError, match="not attached"):
        detached.validate()
    with pytest.raises(ValueError, match="unexpected nodes"):
        Topology(name="stray", num_cubes=3, adjacency=_path(5),
                 controller_nodes=[3], controller_attach={3: 2}).validate()


@pytest.mark.parametrize("adjacency", [
    {0: [1], 1: []},                     # link listed at one end only
    {0: [1, 1], 1: [0, 0]},              # duplicate neighbour
    {0: [2, 1], 1: [0], 2: [0]},         # unsorted neighbour list
    {0: [1], 1: [0, 2]},                 # neighbour that is not a node
])
def test_validate_rejects_malformed_adjacency(adjacency):
    topo = Topology(name="malformed", num_cubes=len(adjacency), adjacency=adjacency)
    with pytest.raises(ValueError, match="mirrored at both ends"):
        topo.validate()


# -- networkx as the connectivity oracle -----------------------------------------

#: A few shapes per builder, from degenerate to the paper's default.
ORACLE_SHAPES = {
    "dragonfly": [dict(num_groups=2, routers_per_group=1, num_controllers=1),
                  dict(num_groups=3, routers_per_group=2, num_controllers=3), {}],
    "mesh": [dict(rows=1, cols=1, num_controllers=1),
             dict(rows=2, cols=3, num_controllers=2), {}],
    "torus": [dict(rows=1, cols=4, num_controllers=1),
              dict(rows=2, cols=2, num_controllers=4), dict(rows=3, cols=3)],
    "flattened_butterfly": [dict(rows=1, cols=3, num_controllers=1),
                            dict(rows=2, cols=4, num_controllers=3), {}],
    "chain": [dict(num_cubes=2, num_controllers=0),
              dict(num_cubes=5, num_controllers=2), {}],
}
ORACLE_CASES = [(kind, shape) for kind, shapes in ORACLE_SHAPES.items()
                for shape in shapes]


def test_oracle_shapes_cover_every_builder():
    assert set(ORACLE_SHAPES) == set(TOPOLOGY_BUILDERS)


def _link_subsets(topo, seed, count=6):
    """Every link, the links minus all of node 0's (a disconnected graph),
    then ``count`` seeded random subsets of mixed density."""
    edges = topo.edges()
    rng = random.Random(seed)
    subsets = [edges, [e for e in edges if 0 not in e]]
    for i in range(count):
        keep = (0.5, 0.8, 0.95)[i % 3]
        subsets.append([e for e in edges if rng.random() < keep])
    return subsets


@pytest.mark.parametrize("kind,shape", ORACLE_CASES,
                         ids=[f"{k}-{'-'.join(f'{v}' for v in s.values()) or 'default'}"
                              for k, s in ORACLE_CASES])
def test_connectivity_verdicts_match_networkx(kind, shape):
    topo = build_topology(kind, **shape)
    graph = reference_graph(topo)
    assert sorted(tuple(sorted(e)) for e in graph.edges) == topo.edges()
    assert all(topo.neighbors(n) == sorted(graph.neighbors(n)) for n in topo.nodes)
    sim = Simulator()
    injector = FaultInjector(sim, MemoryNetwork(sim, topo))
    verdicts = set()
    for links in _link_subsets(topo, seed=f"{kind}-{sorted(shape.items())}"):
        reference = nx.Graph(links)
        reference.add_nodes_from(topo.nodes)
        connected = nx.is_connected(reference)
        verdicts.add(connected)
        adjacency = {n: sorted(reference.neighbors(n)) for n in topo.nodes}
        assert is_connected(adjacency) == connected
        subset = Topology(name=topo.name, num_cubes=topo.num_cubes,
                          adjacency=adjacency,
                          controller_nodes=list(topo.controller_nodes),
                          controller_attach=dict(topo.controller_attach))
        if connected:
            subset.validate()
        else:
            with pytest.raises(ValueError, match="not connected"):
                subset.validate()
        for removed in links:
            without = reference.copy()
            without.remove_edge(*removed)
            assert injector._disconnects(links, removed) == (not nx.is_connected(without))
    assert verdicts == {True, False}
