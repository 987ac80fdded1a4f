"""Shared helpers for the test suite (importable as a plain module).

Kept out of ``conftest.py`` on purpose: importing from ``conftest`` is
ambiguous when pytest collects more than one conftest-bearing directory
(``tests/`` and ``benchmarks/``), so tests import ``helpers`` explicitly.
"""

from __future__ import annotations

#: Tiny workload overrides so integration tests finish in a couple of seconds.
TINY_WORKLOAD_PARAMS = {
    "reduce": {"array_elements": 512},
    "rand_reduce": {"array_elements": 512},
    "mac": {"array_elements": 512},
    "rand_mac": {"array_elements": 512},
    "sgemm": {"matrix_dim": 12, "sim_rows": 2},
    "backprop": {"hidden_units": 4, "input_units": 48},
    "lud": {"matrix_dim": 16, "cols_per_row": 4, "rows_per_phase": 4},
    "pagerank": {"num_vertices": 96, "avg_degree": 4},
    "spmv": {"num_rows": 24, "num_cols": 24, "density": 0.25},
}


def tiny_params(workload: str) -> dict:
    """Tiny problem sizes for a workload (helper used by integration tests)."""
    return dict(TINY_WORKLOAD_PARAMS.get(workload, {}))


def reference_graph(topology):
    """The topology as a ``networkx.Graph``: the independent oracle the
    hand-written adjacency is checked against (networkx is a test-only
    dependency, so it is imported here, not at module load)."""
    import networkx as nx

    graph = nx.Graph(topology.edges())
    graph.add_nodes_from(topology.nodes)
    return graph
