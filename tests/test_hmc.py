"""Unit tests for the HMC substrate: vaults, cubes, controllers, memory system."""

import pytest

from repro.hmc import HMCConfig, HMCMemorySystem, VaultController
from repro.mem import HMCAddressMapping, MemoryRequest
from repro.network.packet import MemReadPacket, MemWritePacket, PacketType


def test_vault_serializes_and_accounts_energy(sim):
    mapping = HMCAddressMapping()
    vault = VaultController(sim, cube_id=0, vault_id=0, mapping=mapping, config=HMCConfig())
    f1 = vault.service(addr=0x0, size=64, is_write=False)
    f2 = vault.service(addr=0x0, size=64, is_write=True)
    assert f2 > f1 > 0
    assert sim.stats.counter(f"{vault.name}.accesses") == 2
    assert sim.stats.counter(f"{vault.name}.energy_pj") == pytest.approx(2 * 64 * 8 * 12.0)


def test_vault_binds_its_cells_on_first_nonzero_flush(sim):
    vault = VaultController(sim, cube_id=2, vault_id=5, mapping=HMCAddressMapping(),
                            config=HMCConfig())
    # An untouched vault publishes nothing; its first access makes every
    # counter it touched visible, its new bank's included.
    assert not sim.stats.counters(vault.name)
    vault.service(addr=0x0, size=64, is_write=False)
    counters = sim.stats.counters(vault.name)
    assert vault.name == "hmc.cube2.vault5"
    assert set(counters) == {f"{vault.name}.{stat}" for stat in (
        "accesses", "reads", "bytes", "energy_pj", "tsv.busy_cycles",
        "bank0.row_closed", "bank0.accesses", "bank0.busy_cycles")}
    assert counters[f"{vault.name}.accesses"] == 1
    assert counters[f"{vault.name}.bank0.accesses"] == 1


def test_hmc_memory_system_structure(hmc_memory):
    assert len(hmc_memory.cubes) == 16
    assert len(hmc_memory.controllers) == 4
    assert hmc_memory.is_network_memory
    assert hmc_memory.num_ports == 4
    # Every controller attaches to a distinct cube.
    attached = {c.attached_cube for c in hmc_memory.controllers}
    assert len(attached) == 4


def test_hmc_read_roundtrip(sim, hmc_memory):
    done = []
    req = MemoryRequest(addr=0x1234_0000, on_complete=lambda r: done.append(r.latency))
    hmc_memory.access(req)
    sim.run_until_idle()
    assert len(done) == 1
    assert 40 < done[0] < 600
    assert sim.stats.counter("network.bytes") > 0


def test_hmc_write_roundtrip(sim, hmc_memory):
    done = []
    from repro.mem import AccessType
    req = MemoryRequest(addr=0x5678_0000, access_type=AccessType.NORMAL_WRITE,
                        on_complete=lambda r: done.append(r))
    hmc_memory.access(req)
    sim.run_until_idle()
    assert len(done) == 1


def test_many_requests_all_complete(sim, hmc_memory):
    done = []
    for i in range(200):
        hmc_memory.access(MemoryRequest(addr=i * 4096 + (i % 7) * 64,
                                        on_complete=lambda r: done.append(r.req_id)))
    sim.run_until_idle()
    assert len(done) == 200
    assert len(set(done)) == 200


def test_cube_serves_local_read_and_responds(sim, hmc_memory):
    controller = hmc_memory.controllers[0]
    cube_id = hmc_memory.cube_of(0x9999_0000)
    packet = MemReadPacket(src=controller.node_id, dst=cube_id, addr=0x9999_0000, req_id=1)
    # Inject directly; the controller should raise because it has no matching
    # outstanding request, proving responses are correlated by request id.
    hmc_memory.network.inject(packet, controller.node_id)
    with pytest.raises(RuntimeError):
        sim.run_until_idle()


def test_cube_rejects_active_packet_without_engine(sim, hmc_memory):
    from repro.network.packet import UpdatePacket
    cube = hmc_memory.cubes[0]
    packet = UpdatePacket(src=16, dst=0, opcode="add", target_addr=0x100, src1_addr=0x40)
    with pytest.raises(RuntimeError):
        cube.receive_packet(packet, from_node=16)


def test_controller_interleaving(hmc_memory):
    controllers = {hmc_memory.controller_for_address(page * 4096).port_id
                   for page in range(32)}
    assert controllers == {0, 1, 2, 3}
    assert hmc_memory.controller_for_port(5).port_id == 1


# -- network shape as an experiment dimension ------------------------------------

def test_hmc_memory_honors_exact_cube_counts(sim):
    from repro.hmc import HMCNetworkConfig

    net = HMCNetworkConfig(topology="mesh", num_cubes=8)
    memory = HMCMemorySystem(sim, net_config=net)
    assert len(memory.cubes) == 8                      # 2x4, not a rounded 3x3
    assert memory.mapping.num_cubes == 8
    assert memory.topology.name == "mesh2x4"


def test_hmc_memory_rejects_impossible_shapes_up_front(sim):
    from repro.hmc import HMCNetworkConfig

    with pytest.raises(ValueError, match="exactly 18 cubes"):
        HMCMemorySystem(sim, net_config=HMCNetworkConfig(num_cubes=18))


def test_hmc_memory_rejects_mapping_topology_divergence(sim):
    from repro.hmc import HMCNetworkConfig
    from repro.network import build_mesh

    # A hand-passed topology that disagrees with the network config (and hence
    # the mapping) must fail at construction, not mid-run inside routing.
    topo = build_mesh(rows=3, cols=3, num_controllers=4)
    with pytest.raises(ValueError, match="9"):
        HMCMemorySystem(sim, net_config=HMCNetworkConfig(num_cubes=16),
                        topology=topo)


def test_hmc_variant_network_serves_requests(sim):
    from repro.hmc import HMCNetworkConfig

    net = HMCNetworkConfig(topology="torus", num_cubes=8)
    memory = HMCMemorySystem(sim, net_config=net)
    done = []
    for page in range(16):
        memory.access(MemoryRequest(addr=page * 4096,
                                    on_complete=lambda r: done.append(r.latency)))
    sim.run_until_idle()
    assert len(done) == 16
    assert all(latency > 0 for latency in done)
