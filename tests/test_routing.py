"""Unit and property tests for deterministic minimal routing.

Covers the dense pristine tables, the pinned tie-breaking contract of
``split_point``, and the pristine/live table split that link failures open.
"""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from helpers import reference_graph
from repro.network import (
    RoutingTable,
    build_chain,
    build_dragonfly,
    build_mesh,
)
from repro.network.routing import NO_ROUTE

TOPO = build_dragonfly()
TABLE = RoutingTable(TOPO)
NODES = sorted(TOPO.nodes)
REFERENCE = reference_graph(TOPO)


def test_path_endpoints_and_adjacency():
    for src in NODES[:6]:
        for dst in NODES[-6:]:
            path = TABLE.path(src, dst)
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert REFERENCE.has_edge(a, b)


def test_paths_are_shortest():
    for src in (0, 5, 16):
        for dst in (3, 10, 19):
            expected = nx.shortest_path_length(REFERENCE, src, dst)
            assert TABLE.distance(src, dst) == expected


def test_path_to_self():
    assert TABLE.path(7, 7) == [7]
    assert TABLE.next_hop(7, 7) == 7
    assert TABLE.distance(7, 7) == 0


def test_determinism_across_instances():
    other = RoutingTable(build_dragonfly())
    for src in NODES:
        for dst in NODES:
            assert TABLE.path(src, dst) == other.path(src, dst)


def test_split_point_properties_mesh():
    mesh = build_mesh()
    table = RoutingTable(mesh)
    root = mesh.controller_attach[mesh.controller_nodes[0]]
    for a in range(0, 16, 3):
        for b in range(1, 16, 5):
            split = table.split_point(root, a, b)
            # The split point lies on both routes.
            assert split in table.path(root, a)
            assert split in table.path(root, b)
            # Splitting at the root is always legal; any other node must be a
            # common prefix node of both deterministic paths.
            path_a, path_b = table.path(root, a), table.path(root, b)
            prefix_len = len(path_a[:path_a.index(split) + 1])
            assert path_a[:prefix_len] == path_b[:prefix_len]


def test_split_point_same_destination():
    assert TABLE.split_point(16, 9, 9) == 9


@given(st.sampled_from(NODES), st.sampled_from(NODES))
def test_distance_symmetric_in_hops(src, dst):
    # Paths may differ by direction, but minimal hop counts must agree.
    assert TABLE.distance(src, dst) == TABLE.distance(dst, src)


@given(st.sampled_from(NODES), st.sampled_from(NODES), st.sampled_from(NODES))
def test_split_point_is_on_both_paths(root, a, b):
    split = TABLE.split_point(root, a, b)
    assert split in TABLE.path(root, a)
    assert split in TABLE.path(root, b)


def _bfs_reference_paths(topo):
    """Independent deterministic-BFS path reconstruction (the construction the
    dense tables must reproduce exactly): ascending-neighbour BFS per root."""
    from collections import deque

    paths = {}
    for root in sorted(topo.nodes):
        parent = {root: root}
        queue = deque([root])
        while queue:
            current = queue.popleft()
            for neighbor in sorted(topo.neighbors(current)):
                if neighbor not in parent:
                    parent[neighbor] = current
                    queue.append(neighbor)
        for dst in parent:
            node, reverse = dst, [dst]
            while node != root:
                node = parent[node]
                reverse.append(node)
            paths[(root, dst)] = list(reversed(reverse))
    return paths


@pytest.mark.parametrize("build", [build_dragonfly, build_mesh])
def test_dense_tables_match_bfs_construction(build):
    topo = build()
    table = RoutingTable(topo)
    reference = _bfs_reference_paths(topo)
    for (src, dst), expected_path in reference.items():
        assert table.path(src, dst) == expected_path
        assert table.distance(src, dst) == len(expected_path) - 1
        expected_hop = expected_path[1] if len(expected_path) > 1 else src
        assert table.next_hop(src, dst) == expected_hop
        assert table.next_hop_table[src][dst] == expected_hop


def test_next_hop_unknown_destination_raises():
    with pytest.raises(ValueError):
        TABLE.next_hop(0, 10_000)
    with pytest.raises(ValueError):
        TABLE.distance(0, 10_000)


def test_negative_node_ids_rejected():
    # Python's negative indexing must not leak wrong routes (NO_ROUTE is -1).
    with pytest.raises(ValueError):
        TABLE.next_hop(0, -1)
    with pytest.raises(ValueError):
        TABLE.distance(-1, 0)


# -- pinned tie-breaking contract ---------------------------------------------
def test_split_point_symmetric_and_prefix_pinned():
    """split_point is the last common *prefix* node and is symmetric in a, b."""
    mesh = build_mesh()
    table = RoutingTable(mesh)
    root = mesh.controller_attach[mesh.controller_nodes[0]]
    for a in range(16):
        for b in range(16):
            split = table.split_point(root, a, b)
            assert split == table.split_point(root, b, a)
            path_a, path_b = table.path(root, a), table.path(root, b)
            expected = root
            for x, y in zip(path_a, path_b):
                if x != y:
                    break
                expected = x
            assert split == expected
    # Memoized answers must be the same values on a repeat call.
    assert table.split_point(root, 5, 10) == table.split_point(root, 5, 10)


# -- link failures: the pristine/live split -----------------------------------
def test_resilient_matches_static_before_any_failure():
    topo = build_mesh()
    table = RoutingTable(topo)
    # A failure-free table is the pristine one: until the first state change,
    # live IS pristine (same objects), so the network's hot loop reads
    # failure-free data with zero indirection, and no live state exists yet.
    assert table.next_hop_table == RoutingTable(topo).next_hop_table
    assert table.live_next_hop_table is table.next_hop_table
    assert not hasattr(table, "_live_dist")
    assert not hasattr(table, "_down")


def test_resilient_pristine_columns_survive_a_failure():
    topo = build_mesh()
    table = RoutingTable(topo)
    reference = RoutingTable(topo)
    pinned = table.next_hop(0, 15)
    pristine_snapshot = [list(row) for row in table.next_hop_table]
    table.on_link_state_change(0, pinned, False)
    # Pristine columns frozen: tables, distances, paths, split points all
    # still describe the failure-free tree.
    assert table.next_hop_table == pristine_snapshot
    for dst in range(16):
        assert table.distance(0, dst) == reference.distance(0, dst)
        assert table.path(0, dst) == reference.path(0, dst)
    assert table.split_point(0, 5, 15) == reference.split_point(0, 5, 15)
    # The live view diverged into its own storage and avoids the dead link.
    assert table.live_next_hop_table is not table.next_hop_table
    walk, node = [], 0
    while node != 15:
        node = table.live_next_hop_table[node][15]
        walk.append(node)
    assert walk[0] != pinned
    assert len(walk) == reference.distance(0, 15)  # reroute is still minimal


def test_resilient_recovery_restores_live_routes():
    topo = build_mesh()
    table = RoutingTable(topo)
    pinned = table.next_hop(0, 15)
    table.on_link_state_change(0, pinned, False)
    table.on_link_state_change(0, pinned, True)
    # Recovery recomputes the same deterministic BFS over the full topology:
    # live contents equal pristine again (in now-separate storage).
    assert table.live_next_hop_table == table.next_hop_table
    assert [list(c) for c in table._live_dist] == [list(c) for c in table._dist]


def test_resilient_unreachable_pins_no_route():
    topo = build_chain(num_cubes=4, num_controllers=1)
    table = RoutingTable(topo)
    table.on_link_state_change(1, 2, False)  # splits the chain in half
    assert table.live_next_hop_table[0][3] == NO_ROUTE
    assert table._live_dist[0][3] == 0xFFFF
    # The pristine view never lies about the failure-free tree.
    assert table.next_hop(0, 3) == 1
    assert table.distance(0, 3) == 3
