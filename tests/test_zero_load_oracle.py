"""Zero-load timing oracle for the memory network.

One packet injected into an idle fabric never queues, so its arrival time is
fixed by the model's constants alone: every hop along the deterministic route
adds the serialization time, the link latency and the router delay.  The
oracle folds those terms hop by hop along ``routing.path(src, dst)`` in the
same float association as the hop code (``finish + latency + router_delay``
with ``finish = start + size / bandwidth``), so the comparison is exact.  A
constant applied consistently but wrongly (a dropped router delay, a
serialization charged twice) fails here, where the golden digests would only
pin it.

Every topology family runs, with every packet type.  Each case runs twice:
on the network as built, and on the same fault-free network forced into
fault mode, which routes every hop through ``MemoryNetwork._hop_flex`` (the
pristine row for tree-routed packet types, the live row for the rest).
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.network import (
    LinkConfig,
    MemoryNetwork,
    Packet,
    PacketType,
    build_chain,
    build_dragonfly,
    build_flattened_butterfly,
    build_mesh,
    build_torus,
)
from repro.sim import Simulator

#: Topology families with the shapes the oracle draws from.
TOPOLOGIES = {
    "mesh": st.builds(build_mesh, rows=st.integers(2, 4), cols=st.integers(2, 4),
                      num_controllers=st.integers(1, 4)),
    "torus": st.builds(build_torus, rows=st.integers(3, 4), cols=st.integers(3, 4),
                       num_controllers=st.integers(1, 4)),
    # At most one controller per dragonfly group.
    "dragonfly": st.integers(2, 4).flatmap(lambda groups: st.builds(
        build_dragonfly, num_groups=st.just(groups), routers_per_group=st.just(4),
        num_controllers=st.integers(1, groups))),
    "flattened_butterfly": st.builds(build_flattened_butterfly, rows=st.integers(2, 4),
                                     cols=st.integers(2, 4),
                                     num_controllers=st.integers(1, 4)),
    "chain": st.builds(build_chain, num_cubes=st.integers(2, 6),
                       num_controllers=st.integers(1, 2)),
}


class _Recorder:
    """Endpoint that forwards packets in transit and records the arrival."""

    def __init__(self, node_id, network, arrivals):
        self.node_id = node_id
        self.network = network
        self.arrivals = arrivals

    def receive_packet(self, packet, from_node):
        if packet.dst == self.node_id:
            self.arrivals.append((packet, self.network.sim.now))
        else:
            self.network.forward(packet, self.node_id)


def _oracle_arrival(network, src, dst, size, start):
    """Arrival time folded hop by hop along the deterministic route."""
    path = network.routing.path(src, dst)
    time = start
    for here, there in zip(path, path[1:]):
        link = network.links[(here, there)]
        finish = time + size / link._bandwidth
        time = finish + link._latency + network.router_delay
    return time


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topology = draw(TOPOLOGIES[kind])
    nodes = sorted(topology.nodes)
    src = draw(st.sampled_from(nodes))
    dst = draw(st.sampled_from([node for node in nodes if node != src]))
    return {
        "topology": topology,
        "src": src,
        "dst": dst,
        "ptype": draw(st.sampled_from(list(PacketType))),
        "size": draw(st.integers(1, 512)),
        "start": draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)),
        # Fractional constants, so a change of float association shows.
        "link_config": LinkConfig(
            bandwidth_bytes_per_cycle=draw(st.floats(0.5, 64.0)),
            latency_cycles=draw(st.floats(0.0, 16.0))),
        "router_delay": draw(st.floats(0.0, 8.0)),
    }


def _run_one(case, force_fault_mode):
    sim = Simulator()
    network = MemoryNetwork(sim, case["topology"], link_config=case["link_config"],
                            router_delay=case["router_delay"])
    if force_fault_mode:
        network._enable_fault_mode()
    arrivals = []
    for node in case["topology"].nodes:
        network.register_endpoint(node, _Recorder(node, network, arrivals))
    packet = Packet(case["ptype"], src=case["src"], dst=case["dst"], size=case["size"])
    sim.schedule_at(case["start"], partial(network.inject, packet, case["src"]))
    sim.run_until_idle()
    return network, packet, arrivals


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_idle_fabric_arrival_matches_the_hop_fold(case):
    for force_fault_mode in (False, True):
        network, packet, arrivals = _run_one(case, force_fault_mode)
        if force_fault_mode:
            assert network._hop == network._hop_flex
        assert [arrived for arrived, _ in arrivals] == [packet]
        # Every hop push was dispatched: nothing is left on the heap.
        assert network.sim.pending == 0 and network.sim.finished
        expected = _oracle_arrival(network, case["src"], case["dst"], case["size"],
                                   case["start"])
        assert arrivals[0][1] == expected
        assert packet.hops == network.routing.distance(case["src"], case["dst"])
        assert packet.created_at == case["start"]
