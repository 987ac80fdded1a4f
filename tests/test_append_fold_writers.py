"""The simulator's batched writers read exactly like eager ones.

Per completed miss, ``core<i>.mem_latency`` and ``hmcctrl<i>.roundtrip``
are a running count and total on the writer, and each Active-Routing engine
keeps one count and four latency totals per Update round trip; the registry
folds them in on every read.  The cache counts L1 accesses, L1 hits and L2
hits on plain integers and derives the rest, and the mesh NoC logs one hop
count per L2 probe and replays the log into its counters.  Each is checked
here against an eager reference, mid-run and at the end.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.core.engine import ActiveRoutingEngine
from repro.cpu.core import Core
from repro.hmc.hmc_controller import HMCController
from repro.network import MemReadPacket, MemoryNetwork, build_dragonfly
from repro.sim import Histogram, Simulator
from repro.system.builder import build_system
from repro.system.config import make_system_config
from repro.workloads import WorkloadConfig, make_workload

from helpers import tiny_params

#: A horizon inside the tiny pagerank run on the HMC baseline.
MID_RUN_CYCLE = 200.0
#: Spacing of the registry reads taken during a run.
READ_EVERY_CYCLES = 10.0

#: The four ``ar.update_latency.*`` components, in the engines' fold order.
LATENCY_COMPONENTS = ("request", "stall", "response", "total")


def _start_tiny_pagerank(config_name="HMC"):
    config = make_system_config(config_name)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload("pagerank", WorkloadConfig(num_threads=4, seed=3),
                            **tiny_params("pagerank")).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    return system


def _record_writer_samples(monkeypatch):
    """Record every value the streaming writers are handed, in order: per
    core and per controller by histogram name, and per engine as the four
    latency components of each round trip."""
    seen = {}
    core_done = Core._mem_done
    controller_done = HMCController.receive_passive
    record_roundtrip = ActiveRoutingEngine._record_roundtrip

    def mem_done(core, latency):
        seen.setdefault(f"{core.name}.mem_latency", []).append(latency)
        core_done(core, latency)

    def receive_passive(controller, packet, from_node):
        request = controller._outstanding[packet.req_id]
        seen.setdefault(f"{controller.name}.roundtrip", []).append(
            controller.sim.now - request.issue_time)
        controller_done(controller, packet, from_node)

    def roundtrip(engine, packet, arrival, operand_issue, response_end=None):
        # The breakdown as _record_roundtrip documents it, each part clamped
        # at zero; the ALU latency is added when no commit time is given.
        end = response_end
        if end is None:
            end = engine.sim.now + engine.config.alu_latency
        request = max(arrival - packet.issue_time, 0.0)
        stall = max(operand_issue - arrival, 0.0)
        response = max(end - operand_issue, 0.0)
        seen.setdefault(engine, []).append(
            (request, stall, response, request + stall + response))
        record_roundtrip(engine, packet, arrival, operand_issue, response_end)

    monkeypatch.setattr(Core, "_mem_done", mem_done)
    monkeypatch.setattr(HMCController, "receive_passive", receive_passive)
    monkeypatch.setattr(ActiveRoutingEngine, "_record_roundtrip", roundtrip)
    return seen


def _replay(values):
    reference = Histogram()
    for value in values:
        reference.add(value)
    return reference


def _check_against_per_sample_replay(system, seen, engines):
    histograms = system.sim.stats.histograms()
    for name, values in seen.items():
        if isinstance(name, str):
            reference = _replay(values)
            hist = histograms[name]
            assert (hist.count, hist.total) == (reference.count, reference.total), name
    for index, component in enumerate(LATENCY_COMPONENTS):
        # Per engine, then summed in engine order, as the aggregate folds.
        count, total = 0, 0.0
        for engine in engines:
            part = _replay(sample[index] for sample in seen.get(engine, ()))
            count += part.count
            total += part.total
        hist = histograms.get(f"ar.update_latency.{component}")
        if engines:
            assert (hist.count, hist.total) == (count, total), component


def test_streaming_writers_equal_a_per_sample_replay(monkeypatch):
    """Every writer's count and total equal one ``add()`` per sample, at a
    registry read every 10 cycles and at the end of a run, on the HMC
    baseline (cores, controllers) and on ARF-tid (engines)."""
    seen = _record_writer_samples(monkeypatch)
    for config_name in ("HMC", "ARF-tid"):
        seen.clear()
        system = _start_tiny_pagerank(config_name)
        engines = [cube.are for cube in system.memory.cubes if cube.are is not None]
        horizon = 0.0
        reads = 0
        while not system.sim.finished:
            horizon += READ_EVERY_CYCLES
            system.sim.run(until=horizon)
            _check_against_per_sample_replay(system, seen, engines)
            reads += 1
        assert system.cmp.all_done
        assert reads > 1
        _check_against_per_sample_replay(system, seen, engines)
        if config_name == "HMC":
            # Every core missed and every controller served a round trip.
            assert set(seen) == (
                {f"{core.name}.mem_latency" for core in system.cmp.cores}
                | {f"{controller.name}.roundtrip"
                   for controller in system.memory.controllers})
        else:
            # More than one engine recorded, so the cross-engine fold order
            # is exercised.
            assert len([engine for engine in engines if engine in seen]) > 1, seen.keys()


def _probe_replay(hops_log, noc, req_bytes, resp_bytes):
    """The NoC counters as one eager request-then-response update per probe."""
    cells = {"transfers": 0.0, "byte_hops": 0.0, "bytes": 0.0, "energy_pj": 0.0}
    for hops in hops_log:
        for size in (req_bytes, resp_bytes):
            cells["transfers"] += 1
            cells["byte_hops"] += size * hops
            cells["bytes"] += size
            cells["energy_pj"] += size * hops * noc.energy_pj_per_byte_hop
    return cells


def _check_cache_and_noc(system, hops_log):
    hierarchy = system.cmp.hierarchy
    noc = system.cmp.noc
    # Copy the probes not yet replayed before the read below replays them.
    hops_log.extend(noc.probe_log)
    counters = system.sim.stats.counters()
    assert not noc.probe_log

    def cell(name):
        return counters.get(name, 0.0)

    # The Cache objects count their own lookups, independently of the
    # hierarchy's three accumulators.
    l1_hits = sum(l1.hits for l1 in hierarchy.l1s)
    l1_misses = sum(l1.misses for l1 in hierarchy.l1s)
    assert cell("cache.accesses") == cell("cache.l1_accesses") == l1_hits + l1_misses
    assert cell("cache.l1_hits") == l1_hits
    assert cell("cache.l1_misses") == cell("cache.l2_accesses") == l1_misses
    assert cell("cache.l2_hits") == hierarchy.l2.hits
    assert cell("cache.l2_misses") == hierarchy.l2.misses
    assert len(hops_log) == l1_misses

    req_bytes, resp_bytes = noc.probe_bytes
    expected = _probe_replay(hops_log, noc, req_bytes, resp_bytes)
    for name, value in expected.items():
        assert cell(f"noc.{name}") == value, name  # bit for bit


def test_derived_cache_and_noc_counters_equal_a_per_probe_replay():
    system = _start_tiny_pagerank()
    hops_log = []
    system.sim.run(until=MID_RUN_CYCLE)
    _check_cache_and_noc(system, hops_log)
    system.sim.run_until_idle()
    _check_cache_and_noc(system, hops_log)
    assert hops_log and max(hops_log) > 0


@settings(max_examples=200, deadline=None)
@given(hops=st.integers(0, 255),
       hop_latency=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
def test_probe_latency_equals_two_one_way_legs(hops, hop_latency):
    """The cache charges ``hops * (2 * hop_latency)`` per probe, where the
    NoC used to return ``latency + latency`` with ``latency = hops *
    hop_latency``: doubling is exact, so the two floats are equal."""
    leg = hops * hop_latency
    assert hops * (2 * hop_latency) == leg + leg


class _Endpoint:
    """Records final deliveries and hops transit packets on."""

    def __init__(self, node_id, network, arrivals):
        self.node_id = node_id
        self.network = network
        self.arrivals = arrivals

    def receive_packet(self, packet, from_node):
        if packet.dst == self.node_id:
            self.arrivals.append((packet.pkt_id, self.network.sim.now, from_node))
        else:
            self.network.forward(packet, self.node_id)


def _dragonfly_run(inject_name, pairs):
    sim = Simulator()
    topology = build_dragonfly()
    network = MemoryNetwork(sim, topology)
    arrivals = []
    for node in topology.nodes:
        network.register_endpoint(node, _Endpoint(node, network, arrivals))
    packets = []
    for index, (src, dst) in enumerate(pairs):
        packet = MemReadPacket(src=src, dst=dst, addr=64 * index)
        packets.append(packet)
        sim.schedule_at(float(index % 7), partial(getattr(network, inject_name),
                                                  packet, src))
    sim.run_until_idle()
    return network, packets, arrivals


def test_passive_injection_matches_the_generic_hop_path():
    """inject_passive() skips the transit endpoints, and nothing else moves:
    arrival cycles, senders, hop counts and every network counter."""
    topology = build_dragonfly()
    nodes = sorted(topology.nodes)
    pairs = [(src, dst) for src in nodes for dst in nodes if src != dst]
    generic, generic_packets, generic_arrivals = _dragonfly_run("inject", pairs)
    passive, passive_packets, passive_arrivals = _dragonfly_run("inject_passive", pairs)
    offset = passive_packets[0].pkt_id - generic_packets[0].pkt_id
    assert [(pkt_id + offset, now, sender) for pkt_id, now, sender in generic_arrivals] \
        == passive_arrivals
    assert [p.hops for p in generic_packets] == [p.hops for p in passive_packets]
    assert generic.sim.stats.counters() == passive.sim.stats.counters()
    assert generic.sim.executed_events == passive.sim.executed_events


def test_passive_hops_in_flight_at_the_first_failure_end_in_hop_flex(monkeypatch):
    """A passive packet heading for a transit cube when the first link goes
    down continues through the fault-aware hop, as the transit cube's
    receive_packet used to send it."""
    continued = []
    hop_flex = MemoryNetwork._hop_flex

    def recording_hop_flex(network, packet, current):
        continued.append((packet.pkt_id, current))
        hop_flex(network, packet, current)

    monkeypatch.setattr(MemoryNetwork, "_hop_flex", recording_hop_flex)
    sim = Simulator()
    topology = build_dragonfly()
    network = MemoryNetwork(sim, topology)
    arrivals = []
    for node in topology.nodes:
        network.register_endpoint(node, _Endpoint(node, network, arrivals))
    src, dst = 0, max(topology.cube_nodes())
    transit = network.routing.next_hop(src, dst)
    assert transit != dst  # the first hop lands on a transit cube
    packet = MemReadPacket(src=src, dst=dst, addr=0x40)
    network.inject_passive(packet, src)
    # Take down a link off the packet's route while its first hop is in flight.
    route = set(zip(network.routing.path(src, dst), network.routing.path(src, dst)[1:]))
    a, b = next((a, b) for a, b in topology.edges()
                if (a, b) not in route and (b, a) not in route)
    network.set_link_state(a, b, False)
    sim.run_until_idle()
    assert continued[0] == (packet.pkt_id, transit)
    assert [pkt_id for pkt_id, _, _ in arrivals] == [packet.pkt_id]
    assert packet.hops == network.routing.distance(src, dst)
