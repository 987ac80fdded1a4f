"""Packet conservation: every packet a run constructs enters the network once.

Packets are built directly at their call sites and ``pkt_id`` comes from one
global counter in construction order, so the counter's advance over a run is
the number of packets that run built.  It must equal the network's
``injected`` count: a packet that is built but never injected, or one that
is injected twice, breaks the equality.
"""

import pytest

from repro.network import packet as packet_mod
from repro.system import run_workload

WORKLOADS = {
    "pagerank": {"num_vertices": 64, "avg_degree": 4},
    "mac": {"array_elements": 256},
    "lud": {"matrix_dim": 12},
}


def _next_packet_id() -> int:
    # Drawing an id consumes it; the run under test only sees later ids.
    return next(packet_mod._packet_ids)


@pytest.mark.parametrize("config", ["ARF-tid", "ARF-addr", "ART", "HMC"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_constructed_packets_equal_injected(config, workload):
    before = _next_packet_id()
    result = run_workload(config, workload, num_threads=4, **WORKLOADS[workload])
    constructed = _next_packet_id() - before - 1
    assert constructed > 0
    assert constructed == result.network_stats["injected"]
