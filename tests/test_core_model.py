"""Unit tests for the trace-driven core, Message Interface and barriers."""

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.core import Core
from repro.cpu.message_interface import MessageInterface
from repro.cpu.sync import BarrierManager
from repro.isa import (
    AtomicOp,
    BarrierOp,
    ComputeOp,
    GatherOp,
    LoadOp,
    PhaseMarkerOp,
    StoreOp,
    UpdateOp,
)
from repro.sim import Simulator


class FakeHierarchy:
    """Configurable fake cache hierarchy for core unit tests."""

    def __init__(self, sim, hit_latency=2.0, miss_latency=200.0, always_miss=False):
        self.sim = sim
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self.always_miss = always_miss
        self.seen_blocks = set()
        self.accesses = 0
        self.atomics = 0

    def access(self, core_id, addr, is_write, on_complete=None):
        self.accesses += 1
        block = addr // 64
        if not self.always_miss and block in self.seen_blocks:
            return self.hit_latency
        self.seen_blocks.add(block)
        self.sim.schedule(self.miss_latency, lambda: on_complete(self.miss_latency))
        return None

    def atomic_access(self, core_id, addr, on_complete, occupancy=16.0):
        self.atomics += 1
        self.sim.schedule(50.0, lambda: on_complete(50.0))


class FakeBackend:
    """Offload backend that commits updates and answers gathers after a delay."""

    def __init__(self, sim, commit_delay=30.0, gather_delay=100.0):
        self.sim = sim
        self.commit_delay = commit_delay
        self.gather_delay = gather_delay
        self.updates = []
        self.gathers = []

    def offload_update(self, core_id, op, on_commit):
        self.updates.append(op)
        self.sim.schedule(self.commit_delay, on_commit)

    def offload_gather(self, core_id, op, on_result):
        self.gathers.append(op)
        self.sim.schedule(self.gather_delay, lambda: on_result(42.0))


def _make_core(sim, trace, backend=None, config=None, hierarchy=None):
    config = config or CoreConfig()
    hierarchy = hierarchy or FakeHierarchy(sim)
    mi = MessageInterface(sim, 0, backend, max_outstanding_updates=config.max_outstanding_updates)
    barriers = BarrierManager(sim)
    core = Core(sim, 0, config, hierarchy, mi, barriers)
    core.load_trace(trace)
    return core, hierarchy, mi, barriers


def test_compute_only_trace_timing():
    sim = Simulator()
    core, *_ = _make_core(sim, [ComputeOp(80, instructions=80)])
    core.start()
    sim.run_until_idle()
    assert core.done
    assert core.instructions == 80
    assert core.finish_time == pytest.approx(80 / core.config.issue_width, rel=0.2)


def test_memory_window_limits_outstanding_misses():
    sim = Simulator()
    config = CoreConfig(max_outstanding_mem=2)
    hierarchy = FakeHierarchy(sim, always_miss=True, miss_latency=100.0)
    trace = [LoadOp(i * 64) for i in range(8)]
    core, hierarchy, *_ = _make_core(sim, trace, config=config, hierarchy=hierarchy)
    core.start()
    sim.run_until_idle()
    assert core.done
    # 8 misses, 2 at a time, 100 cycles each -> at least 4 serial batches.
    assert core.finish_time >= 400
    assert sim.stats.counter(f"{core.name}.stall.mem_window") > 0


def test_hits_do_not_block():
    sim = Simulator()
    hierarchy = FakeHierarchy(sim)
    hierarchy.seen_blocks.add(0)
    trace = [LoadOp(0) for _ in range(100)]
    core, *_ = _make_core(sim, trace, hierarchy=hierarchy)
    core.start()
    sim.run_until_idle()
    assert core.done
    assert core.finish_time < 100


def test_update_offload_and_gather_block():
    sim = Simulator()
    backend = FakeBackend(sim)
    trace = [UpdateOp("add", 0x100, None, 0xdead) for _ in range(10)]
    trace.append(GatherOp(0xdead, 1))
    core, _h, mi, _b = _make_core(sim, trace, backend=backend)
    core.start()
    sim.run_until_idle()
    assert core.done
    assert len(backend.updates) == 10
    assert len(backend.gathers) == 1
    assert sim.stats.counter(f"{core.name}.stall.gather") > 0
    assert mi.outstanding_updates == 0


def test_mi_window_backpressure():
    sim = Simulator()
    backend = FakeBackend(sim, commit_delay=500.0)
    config = CoreConfig(max_outstanding_updates=4)
    trace = [UpdateOp("add", i * 8, None, 0xbeef) for i in range(16)]
    core, _h, mi, _b = _make_core(sim, trace, backend=backend, config=config)
    core.start()
    sim.run_until_idle()
    assert core.done
    assert sim.stats.counter(f"{core.name}.stall.mi_window") > 0
    # Four batches of four updates, each batch waiting ~500 cycles.
    assert core.finish_time >= 1500


def test_update_without_backend_raises():
    sim = Simulator()
    core, *_ = _make_core(sim, [UpdateOp("add", 0, None, 1)], backend=None)
    core.start()
    with pytest.raises(RuntimeError):
        sim.run_until_idle()


def test_atomic_blocks_and_completes():
    sim = Simulator()
    trace = [AtomicOp(0x40), ComputeOp(4)]
    core, hierarchy, *_ = _make_core(sim, trace)
    core.start()
    sim.run_until_idle()
    assert core.done
    assert hierarchy.atomics == 1
    assert sim.stats.counter(f"{core.name}.stall.atomic") >= 50


def test_barrier_synchronizes_two_cores():
    sim = Simulator()
    barriers = BarrierManager(sim)
    cores = []
    for cid, compute in ((0, 10), (1, 500)):
        config = CoreConfig()
        hierarchy = FakeHierarchy(sim)
        mi = MessageInterface(sim, cid, None)
        core = Core(sim, cid, config, hierarchy, mi, barriers)
        core.load_trace([ComputeOp(compute), BarrierOp(1, 2), ComputeOp(8)])
        cores.append(core)
        core.start()
    sim.run_until_idle()
    assert all(c.done for c in cores)
    # The fast core waits for the slow one at the barrier.
    assert cores[0].finish_time >= 500 / cores[1].config.issue_width
    assert sim.stats.counter(f"{cores[0].name}.stall.barrier") > 0


def test_phase_markers_and_ipc_samples():
    sim = Simulator()
    config = CoreConfig(ipc_sample_interval=10)
    trace = [PhaseMarkerOp("phase0")] + [ComputeOp(1)] * 50 + [PhaseMarkerOp("phase1")]
    core, *_ = _make_core(sim, trace, config=config)
    core.start()
    sim.run_until_idle()
    assert [label for label, _, _ in core.phase_log] == ["phase0", "phase1"]
    assert len(core.ipc_samples) >= 4
    assert core.ipc() > 0


def test_message_interface_errors():
    sim = Simulator()
    mi = MessageInterface(sim, 0, None)
    assert not mi.enabled
    with pytest.raises(RuntimeError):
        mi.offload_update(UpdateOp("add", 0, None, 1))
    backend = FakeBackend(sim)
    mi2 = MessageInterface(sim, 1, backend, max_outstanding_updates=1)
    mi2.offload_update(UpdateOp("add", 0, None, 1))
    with pytest.raises(RuntimeError):
        mi2.offload_update(UpdateOp("add", 8, None, 1))
