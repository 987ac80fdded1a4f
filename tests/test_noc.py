"""Unit tests for the on-chip mesh model."""

import pytest

from repro.cpu import MeshNoC
from repro.sim import Simulator


def test_coords_and_hops(sim):
    noc = MeshNoC(sim, rows=4, cols=4)
    assert noc.num_tiles == 16
    assert noc.coords(0) == (0, 0)
    assert noc.coords(5) == (1, 1)
    assert noc.hops(0, 15) == 6
    assert noc.hops(3, 3) == 0
    with pytest.raises(ValueError):
        noc.coords(16)


def test_corner_tiles_and_mc_placement(sim):
    noc = MeshNoC(sim, rows=4, cols=4)
    assert noc.corner_tiles() == [0, 3, 12, 15]
    assert noc.mc_tile(0) == 0
    assert noc.mc_tile(3) == 15
    small = MeshNoC(Simulator(), rows=1, cols=1)
    assert small.corner_tiles() == [0]


def test_transfer_latency_and_energy(sim):
    noc = MeshNoC(sim, rows=2, cols=2, hop_latency=3.0, energy_pj_per_byte_hop=1.0)
    latency = noc.transfer(0, 3, size_bytes=64)
    assert latency == 2 * 3.0
    assert sim.stats.counter("noc.byte_hops") == 128
    assert sim.stats.counter("noc.energy_pj") == 128
    # An L2 probe is one logged hop count, accounted at the next read.
    noc.probe_log_for(16, 64).append(noc.hops(0, 3))
    assert sim.stats.counter("noc.transfers") == 3
    assert sim.stats.counter("noc.byte_hops") == 128 + (16 + 64) * 2
    assert sim.stats.counter("noc.energy_pj") == 128 + (16 + 64) * 2
    assert not noc.probe_log


def test_round_trip_matches_two_transfers_on_a_rectangular_mesh(sim):
    noc = MeshNoC(sim, rows=3, cols=5, hop_latency=2.0)
    reference = MeshNoC(Simulator(), rows=3, cols=5, hop_latency=2.0)
    log = noc.probe_log_for(16, 64)
    for src in range(noc.num_tiles):
        for dst in range(noc.num_tiles):
            expected = (reference.transfer(src, dst, 16)
                        + reference.transfer(dst, src, 64))
            hops = noc.hops(src, dst)
            log.append(hops)
            assert hops * (2 * noc.hop_latency) == expected
    assert sim.stats.counters("noc.") == reference.sim.stats.counters("noc.")


def test_invalid_mesh(sim):
    with pytest.raises(ValueError):
        MeshNoC(sim, rows=0, cols=4)
