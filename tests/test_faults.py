"""Fault injection: the parking drop rule, the injector, and determinism.

The drop rule these tests pin is: **a hop is interrupted iff its link is down
at the instant the packet would use it** — at submission (the packet parks
without transmitting) or at arrival (the in-flight packet parks at the far
end's edge).  Parked packets drain at recovery in per-link FIFO order,
in-flight casualties first, so an outage never reorders traffic on a link —
the invariant the Active-Routing gather protocol depends on.
"""

import pytest

from repro.network import (
    FaultInjector,
    MemReadPacket,
    MemoryNetwork,
    ScheduledFault,
    UpdatePacket,
    build_chain,
    build_mesh,
)
from repro.sim import Simulator
from repro.system import make_system_config, run_workload

TINY_PAGERANK = {"num_vertices": 96, "avg_degree": 4}


class _Sink:
    """Endpoint that consumes packets destined to it and forwards the rest."""

    def __init__(self, node_id, network=None):
        self.node_id = node_id
        self.network = network
        self.received = []

    def receive_packet(self, packet, from_node):
        if packet.dst == self.node_id or self.network is None:
            self.received.append((packet, from_node))
        else:
            self.network.forward(packet, self.node_id)


def _build(rows=2, cols=2):
    sim = Simulator()
    topo = build_mesh(rows=rows, cols=cols, num_controllers=1)
    net = MemoryNetwork(sim, topo)
    sinks = {n: _Sink(n, net) for n in topo.nodes}
    for n, sink in sinks.items():
        net.register_endpoint(n, sink)
    return sim, topo, net, sinks


def _update(src, dst):
    """A tree-routed packet (Updates pin to the pristine routes)."""
    return UpdatePacket(src=src, dst=dst, opcode="mac", target_addr=0x200,
                        src1_addr=0x10, src2_addr=0x20)


def _arm_fault_mode(net, a=0, b=1):
    """Toggle a link down/up so the fault-aware hop path is active.

    Hops in flight at the run's *first* state change were scheduled by the
    fast path and complete unconditionally; the arrival-instant drop rule the
    tests below pin applies from fault-mode activation onward.
    """
    net.set_link_state(a, b, False)
    net.set_link_state(a, b, True)


# -- ScheduledFault validation ------------------------------------------------
def test_scheduled_fault_validation():
    with pytest.raises(ValueError):
        ScheduledFault(time=0.0, kind="router", target=3)
    with pytest.raises(ValueError):
        ScheduledFault(time=-1.0, kind="link", target=(0, 1))
    ScheduledFault(time=0.0, kind="link", target=(0, 1))  # valid


# -- the parking drop rule ----------------------------------------------------
def test_down_link_parks_pinned_submission_until_recovery():
    sim, topo, net, sinks = _build()
    pinned = net.routing.next_hop(0, 3)
    net.set_link_state(0, pinned, False)
    packet = _update(0, 3)
    net.inject(packet, 0)
    sim.run_until_idle()
    # Down at the submission instant: parked, not transmitted, not delivered.
    assert sinks[3].received == []
    assert sim.stats.counter("network.dropped") == 1
    net.set_link_state(0, pinned, True)
    sim.run_until_idle()
    delivered, _ = sinks[3].received[0]
    assert delivered is packet


def test_free_routed_packets_reroute_over_live_links():
    sim, topo, net, sinks = _build()
    pinned = net.routing.next_hop(0, 3)
    net.set_link_state(0, pinned, False)
    packet = MemReadPacket(src=0, dst=3, addr=0x40)
    net.inject(packet, 0)
    sim.run_until_idle()
    # The live tables route around the dead link: delivered, nothing dropped.
    assert len(sinks[3].received) == 1
    assert sim.stats.counter("network.dropped") == 0
    assert packet.hops == 2  # the detour is still a shortest live path


def test_in_flight_packet_parks_at_arrival_instant():
    sim, topo, net, sinks = _build()
    _arm_fault_mode(net)
    first_hop = net.routing.next_hop(0, 3)
    packet = MemReadPacket(src=0, dst=3, addr=0x40)
    # Fail the first-hop link while the packet is on the wire (arrival is
    # serialization + latency + router delay, comfortably after t=1).
    sim.schedule_at(1.0, lambda: net.set_link_state(0, first_hop, False))
    sim.schedule_at(50.0, lambda: net.set_link_state(0, first_hop, True))
    net.inject(packet, 0)
    sim.run_until_idle()
    assert len(sinks[3].received) == 1
    assert sim.stats.counter("network.dropped") == 1  # the arrival-instant interruption
    assert sim.now > 50.0            # delivery had to wait for the recovery


def test_outage_preserves_per_link_fifo_order():
    sim, topo, net, sinks = _build(rows=1, cols=2)
    _arm_fault_mode(net)
    packets = [_update(0, 1) for _ in range(6)]
    # All six submit at t=0 and serialize back to back; the outage window
    # catches some in flight and the recovery drains them in order.
    for p in packets:
        net.inject(p, 0)
    sim.schedule_at(6.0, lambda: net.set_link_state(0, 1, False))
    sim.schedule_at(120.0, lambda: net.set_link_state(0, 1, True))
    sim.run_until_idle()
    received = [p.pkt_id for p, _ in sinks[1].received]
    assert received == [p.pkt_id for p in packets]
    assert sim.stats.counter("network.dropped") > 0  # the outage did interrupt something


def test_cube_failure_keeps_one_degraded_attachment():
    sim, topo, net, sinks = _build()
    neighbors = sorted(topo.neighbors(3))
    net.set_cube_state(3, False)
    live = [n for n in neighbors if net.links[(3, n)].up]
    assert live == [neighbors[0]]  # exactly the lowest-id attachment survives
    net.set_cube_state(3, True)
    assert all(net.links[(3, n)].up for n in neighbors)


# -- the injector -------------------------------------------------------------
def test_scheduled_timeline_applies_and_recovers():
    sim, topo, net, sinks = _build()
    injector = FaultInjector(sim, net, schedule=[
        ScheduledFault(time=10.0, kind="link", target=(0, 1)),
        ScheduledFault(time=50.0, kind="link", target=(0, 1), up=True),
    ])
    injector.arm()
    sim.run_until_idle()
    assert injector.injected == 1
    assert net.links[(0, 1)].up  # the recovery applied


def test_quiesced_injector_still_applies_recovery():
    # A packet parked on a down link can only drain at the scheduled
    # recovery; the injector firing into an empty event queue quiesces the
    # *random* process but must still apply explicit state changes.
    sim, topo, net, sinks = _build()
    pinned = net.routing.next_hop(0, 3)
    injector = FaultInjector(sim, net, schedule=[
        ScheduledFault(time=5.0, kind="link", target=(0, pinned)),
        ScheduledFault(time=400.0, kind="link", target=(0, pinned), up=True),
    ])
    injector.arm()
    packet = _update(0, 3)
    sim.schedule_at(10.0, lambda: net.inject(packet, 0))
    sim.run_until_idle()
    assert len(sinks[3].received) == 1  # delivered after the late recovery
    assert sim.now >= 400.0


def test_connectivity_guard_never_picks_a_bridge():
    # Every link of a chain is a bridge: the random process must always skip.
    sim = Simulator()
    topo = build_chain(num_cubes=4, num_controllers=1)
    net = MemoryNetwork(sim, topo)
    injector = FaultInjector(sim, net, failure_rate=5.0, seed=3)
    for _ in range(25):
        assert injector._pick_victim() is None


def test_random_victims_keep_the_network_connected():
    sim, topo, net, sinks = _build()
    controller = topo.controller_nodes[0]
    attach = topo.controller_attach[controller]
    injector = FaultInjector(sim, net, failure_rate=5.0, seed=3)
    for _ in range(50):
        victim = injector._pick_victim()
        assert victim is not None
        # The controller's single attachment is a bridge; never chosen.
        assert set(victim) != {controller, attach}


def test_random_timeline_is_a_pure_function_of_the_seed():
    def timeline(seed):
        sim, topo, net, sinks = _build()
        injector = FaultInjector(sim, net, failure_rate=5.0, seed=seed)
        events = []
        for _ in range(6):
            injector._apply(("random",), now=float(len(events)))
            events.append(sorted(injector._agenda)[0][0])
        return (injector.injected, injector.skipped, events)

    assert timeline(7) == timeline(7)
    assert timeline(7) != timeline(8)


# -- full-system behaviour ----------------------------------------------------
def test_full_system_fixed_seed_reproduces_identical_results():
    config = make_system_config("ARF-tid", failure_rate=10.0, failure_seed=7)
    first = run_workload(config, "pagerank", num_threads=4, **TINY_PAGERANK)
    second = run_workload(config, "pagerank", num_threads=4, **TINY_PAGERANK)
    assert first.cycles == second.cycles
    assert first.events_executed == second.events_executed
    assert first.network_stats == second.network_stats
    assert first.flows_verified
    stats = first.network_stats
    assert stats["dropped"] > 0
    assert 0.0 < stats["delivered_fraction"] < 1.0
    assert stats["delivered_fraction"] == 1.0 - stats["dropped"] / stats["hops"]


def test_full_system_different_seeds_diverge():
    base = dict(failure_rate=10.0)
    first = run_workload(make_system_config("ARF-tid", failure_seed=7, **base),
                         "pagerank", num_threads=4, **TINY_PAGERANK)
    second = run_workload(make_system_config("ARF-tid", failure_seed=8, **base),
                          "pagerank", num_threads=4, **TINY_PAGERANK)
    assert first.flows_verified and second.flows_verified
    # The failure timeline is the seed's function; distinct seeds must not
    # collapse onto one timeline (cycles or drop counts will differ).
    assert (first.cycles, first.network_stats["dropped"]) != \
           (second.cycles, second.network_stats["dropped"])
