"""Epoch-batched link statistics must be observationally identical to the old
per-packet counter increments through every registry read path.

``Link.transmit`` (and the inlined copy in ``MemoryNetwork._hop``) accumulate
their five per-packet counters in plain locals and flush them into the bound
cells only when a reader asks.  These tests interleave ``transmit()`` with
every read path — ``counter``, ``counters``, ``sum``, ``snapshot`` — and with
worker-process result merging, mirroring the exact per-packet arithmetic the
pre-batching implementation performed.
"""

import pytest

from repro.network import Link, MemoryNetwork
from repro.network.packet import (
    MOVEMENT_CATEGORIES,
    MemReadPacket,
    Packet,
    PacketType,
)
from repro.network.topology import build_dragonfly
from repro.sim import Simulator
from repro.system import run_jobs, make_system_config

#: One packet type per Figure 5.4 movement category.
CATEGORY_TYPES = (PacketType.READ_REQ,      # norm_req
                  PacketType.READ_RESP,     # norm_resp
                  PacketType.UPDATE,        # active_req
                  PacketType.GATHER_RESP)   # active_resp


class _PerPacketMirror:
    """Reference model: the exact increments the unbatched Link performed."""

    def __init__(self, link):
        self.link = link
        self.packets = 0.0
        self.bytes = 0.0
        self.energy_pj = 0.0
        self.busy = 0.0
        self.queue_wait = 0.0
        self.by_category = {cat: 0.0 for cat in MOVEMENT_CATEGORIES}

    def transmit(self, packet):
        link = self.link
        earliest = link.sim.now
        start = max(link.busy_until, earliest)
        arrival, queue_delay = link.transmit(packet)
        # Mirror the per-packet increments in the order transmit() used to
        # perform them, one packet at a time.
        size = packet.size
        serialization = size / link.config.bandwidth_bytes_per_cycle
        assert arrival == start + serialization + link.config.latency_cycles
        if queue_delay > 0:
            self.queue_wait += queue_delay
        self.busy += serialization
        self.packets += 1
        self.bytes += size
        self.by_category[packet.movement_category()] += size
        self.energy_pj += size * 8 * link.config.energy_pj_per_bit

    def expected_counters(self):
        name = self.link.name
        expected = {
            f"{name}.packets": self.packets,
            f"{name}.bytes": self.bytes,
            f"{name}.energy_pj": self.energy_pj,
            f"{name}.busy_cycles": self.busy,
        }
        if self.queue_wait:
            expected[f"{name}.queue_wait_cycles"] = self.queue_wait
        for cat, value in self.by_category.items():
            if value:
                expected[f"{name}.bytes.{cat}"] = value
        return expected


def test_no_packet_carries_an_instance_dict():
    """The whole slotted hierarchy must allocate without a per-instance dict."""
    import repro.network.packet as pkt_mod
    classes = [cls for cls in vars(pkt_mod).values()
               if isinstance(cls, type) and issubclass(cls, Packet)]
    assert len(classes) == 9                  # Packet + its eight subclasses
    samples = [
        Packet(ptype=PacketType.READ_REQ, src=0, dst=1),
        pkt_mod.MemReadPacket(src=0, dst=1, addr=0x40),
        pkt_mod.MemWritePacket(src=0, dst=1, addr=0x40),
        pkt_mod.MemRespPacket(src=1, dst=0, addr=0x40, is_read=True),
        pkt_mod.UpdatePacket(src=0, dst=1, opcode="mac", target_addr=0x100),
        pkt_mod.GatherRequestPacket(src=0, dst=1, target_addr=0x100),
        pkt_mod.GatherResponsePacket(src=1, dst=0, target_addr=0x100,
                                     partial_result=1.0, completed_updates=1),
        pkt_mod.OperandRequestPacket(src=0, dst=1, addr=0x40, buffer_slot=0,
                                     operand_index=0, compute_node=0),
        pkt_mod.OperandResponsePacket(src=1, dst=0, addr=0x40, buffer_slot=0,
                                      operand_index=0),
    ]
    assert {type(s) for s in samples} == set(classes)
    for pkt in samples:
        assert not hasattr(pkt, "__dict__"), type(pkt).__name__
        with pytest.raises(AttributeError):
            pkt.arbitrary_new_attribute = 1


def _make_link():
    sim = Simulator()
    return sim, Link(sim, 0, 1)


def _packet(ptype, size=0):
    return Packet(ptype=ptype, src=0, dst=1, size=size)


def test_every_read_path_sees_exact_values_after_each_transmit():
    """Reading between single transmits must match the per-packet model to the
    last bit (the flush folds exactly one packet per epoch, so even inexact
    float serialization sums associate identically)."""
    sim, link = _make_link()
    stats = sim.stats
    mirror = _PerPacketMirror(link)
    for round_index in range(3):
        for ptype in CATEGORY_TYPES:
            mirror.transmit(_packet(ptype))
            expected = mirror.expected_counters()
            # counter(): every individual cell, including the untouched ones.
            for name, value in expected.items():
                assert stats.counter(name) == value
            # counters()/sum() by prefix.
            assert stats.counters(f"{link.name}.") == expected
            assert stats.sum(f"{link.name}.bytes") == pytest.approx(
                mirror.bytes + sum(v for v in mirror.by_category.values()))
            # snapshot() flattens the same values.
            snap = stats.snapshot()
            for name, value in expected.items():
                assert snap[name] == value
    assert mirror.packets == 12


def test_batched_epochs_match_per_packet_totals():
    """Multiple transmits between reads: use sizes whose serialization is
    exact in binary floating point so per-packet and batched sums are equal
    regardless of where the epoch boundaries fall."""
    sim, link = _make_link()
    stats = sim.stats
    mirror = _PerPacketMirror(link)
    sizes = [25, 50, 125, 75]                 # all exact multiples of 12.5
    for epoch in range(4):
        for ptype, size in zip(CATEGORY_TYPES, sizes):
            mirror.transmit(_packet(ptype, size=size))
        # One flush per epoch of four packets.
        assert stats.counters(f"{link.name}.") == mirror.expected_counters()
    assert stats.counter(f"{link.name}.packets") == 16


def test_utilization_sees_unflushed_busy_cycles():
    sim, link = _make_link()
    mirror = _PerPacketMirror(link)
    mirror.transmit(_packet(PacketType.READ_RESP, size=125))   # 10 cycles
    sim.now = 20.0
    assert link.utilization() == pytest.approx(mirror.busy / 20.0)


def test_network_hop_counters_match_link_totals():
    """The inlined hop path feeds both the link's and the network's batched
    accumulators; network.bytes must equal the sum over all links."""
    sim = Simulator()
    net = MemoryNetwork(sim, build_dragonfly())
    class _Sink:
        def __init__(self, node_id): self.node_id = node_id
        def receive_packet(self, packet, from_node): pass
    for node in net.topology.nodes:
        net.register_endpoint(node, _Sink(node))
    for i in range(10):
        net.inject(MemReadPacket(src=0, dst=3, addr=i * 64), 0)
    sim.run_until_idle()
    stats = sim.stats
    link_bytes = sum(stats.counter(f"{link.name}.bytes")
                     for link in net.links.values())
    assert stats.counter("network.bytes") == link_bytes > 0
    assert stats.counter("network.bit_hops") == link_bytes * 8
    assert stats.counter("network.hops") == sum(
        stats.counter(f"{link.name}.packets") for link in net.links.values())
    assert stats.counter("network.bytes.norm_req") == link_bytes


def test_worker_process_merge_matches_serial_link_stats():
    """Results collected in worker processes (which flush at collect time)
    must carry byte-for-byte identical movement/byte totals."""
    config = make_system_config("ARF-tid", num_cores=2)
    jobs = [(("mac", "ARF-tid"), config, "mac", {"array_elements": 256}),
            (("reduce", "ARF-tid"), config, "reduce", {"array_elements": 256})]
    serial = run_jobs(jobs, num_threads=2, workers=1)
    parallel = run_jobs(jobs, num_threads=2, workers=2)
    for key in serial:
        assert serial[key].data_movement == parallel[key].data_movement, key
        assert serial[key].summary() == parallel[key].summary(), key
