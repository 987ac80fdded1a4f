"""Tests for the workload trace generators."""

import pytest

from repro.core import DynamicOffloadPolicy
from repro.isa import GatherOp, LoadOp, UpdateOp, count_kinds
from repro.system import run_workload
from repro.workloads import (
    ALL_WORKLOADS,
    BENCHMARKS,
    MICROBENCHMARKS,
    WorkloadConfig,
    make_workload,
    split_range,
    workload_names,
)
from repro.workloads.graph import generate_power_law_graph, generate_sparse_matrix
from repro.workloads.lud import LUDWorkload

from helpers import tiny_params


def test_registry_contains_paper_workloads():
    assert set(ALL_WORKLOADS) == set(BENCHMARKS) | set(MICROBENCHMARKS)
    assert set(workload_names(micro=True)) == set(MICROBENCHMARKS)
    assert set(workload_names(micro=False)) == set(BENCHMARKS)
    with pytest.raises(ValueError):
        make_workload("nonexistent")


def test_split_range_covers_everything():
    total = 101
    covered = []
    for tid in range(4):
        start, end = split_range(total, 4, tid)
        covered.extend(range(start, end))
    assert covered == list(range(total))
    with pytest.raises(ValueError):
        split_range(10, 0, 0)
    with pytest.raises(ValueError):
        split_range(10, 4, 9)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workload_generates_both_modes(name, tiny_config):
    workload = make_workload(name, tiny_config, **tiny_params(name))
    baseline = workload.generate("baseline")
    active = workload.generate("active")
    assert baseline.num_threads == tiny_config.num_threads
    assert active.num_threads == tiny_config.num_threads
    # The baseline never offloads; the active variant always does.
    assert baseline.operations_of(UpdateOp) == 0
    assert active.operations_of(UpdateOp) > 0
    assert active.operations_of(GatherOp) > 0
    assert baseline.operations_of(LoadOp) > 0
    # Expected reduction results exist for verification.
    assert active.expected_results
    with pytest.raises(ValueError):
        workload.generate("bogus")


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workload_metadata_and_determinism(name, tiny_config):
    w1 = make_workload(name, WorkloadConfig(num_threads=2, seed=11), **tiny_params(name))
    w2 = make_workload(name, WorkloadConfig(num_threads=2, seed=11), **tiny_params(name))
    p1, p2 = w1.generate("active"), w2.generate("active")
    assert p1.metadata == p2.metadata
    assert p1.total_operations() == p2.total_operations()
    assert p1.expected_results == p2.expected_results


def test_micro_expected_sum_matches_values(tiny_config):
    workload = make_workload("mac", tiny_config, array_elements=256)
    program = workload.generate("active")
    (target, expected), = program.expected_results.items()
    manual = sum(a * b for a, b in zip(workload.values[0], workload.values[1]))
    assert expected == pytest.approx(manual)
    assert target == workload.target


def test_rand_variants_shuffle_access_order(tiny_config):
    seq = make_workload("reduce", tiny_config, array_elements=512)
    rand = make_workload("rand_reduce", tiny_config, array_elements=512)
    seq_addrs = [op.addr for op in seq.generate("baseline").threads[0]
                 if isinstance(op, LoadOp)]
    rand_addrs = [op.addr for op in rand.generate("baseline").threads[0]
                  if isinstance(op, LoadOp)]
    assert sorted(seq_addrs) == seq_addrs
    assert sorted(rand_addrs) != rand_addrs
    assert sorted(rand_addrs) == seq_addrs


def test_lud_adaptive_mixes_host_and_offload(tiny_config):
    params = tiny_params("lud")
    always = LUDWorkload(WorkloadConfig(num_threads=2), **params)
    adaptive = LUDWorkload(WorkloadConfig(num_threads=2),
                           offload_policy=DynamicOffloadPolicy(), **params)
    full = always.generate("active")
    mixed = adaptive.generate("active")
    assert 0 < mixed.operations_of(UpdateOp) < full.operations_of(UpdateOp)
    assert mixed.operations_of(LoadOp) > full.operations_of(LoadOp)
    assert mixed.metadata["adaptive"] is True


def test_backprop_has_non_offloaded_phase(tiny_config):
    workload = make_workload("backprop", tiny_config, **tiny_params("backprop"))
    active = workload.generate("active")
    kinds = count_kinds(active.threads[0])
    # The weight-adjustment phase stays on the host even in active mode.
    assert kinds.get("LoadOp", 0) > 0
    assert kinds.get("StoreOp", 0) > 0
    assert kinds.get("BarrierOp", 0) == 1


def test_pagerank_uses_store_class_updates(tiny_config):
    workload = make_workload("pagerank", tiny_config, **tiny_params("pagerank"))
    active = workload.generate("active")
    opcodes = {op.opcode for t in active.threads for op in t if isinstance(op, UpdateOp)}
    assert {"mac", "abs_diff", "mov", "const_assign"} <= opcodes


def test_power_law_graph_properties():
    graph = generate_power_law_graph(200, avg_degree=6, seed=1)
    assert graph.num_vertices == 200
    assert graph.num_edges > 200
    degrees = sorted((graph.out_degree(v) for v in range(200)), reverse=True)
    # Skewed degree distribution: the hubs dominate the median vertex.
    assert degrees[0] >= 4 * degrees[100]
    incoming = graph.in_edges()
    assert sum(len(x) for x in incoming) == graph.num_edges
    with pytest.raises(ValueError):
        generate_power_law_graph(1)


def test_sparse_matrix_properties():
    matrix = generate_sparse_matrix(32, 64, density=0.25, seed=2)
    assert matrix.num_rows == 32 and matrix.num_cols == 64
    assert matrix.num_nonzeros == 32 * 16
    cols, vals = matrix.row(5)
    assert len(cols) == len(vals) == 16
    assert cols == sorted(cols)
    assert all(0 <= c < 64 for c in cols)
    with pytest.raises(ValueError):
        generate_sparse_matrix(4, 4, density=0.0)


def test_workload_param_override_and_scale():
    small = make_workload("reduce", WorkloadConfig(num_threads=2, scale=0.5))
    explicit = make_workload("reduce", WorkloadConfig(num_threads=2), array_elements=100)
    assert explicit.num_elements == 100
    assert small.num_elements == 8 * 1024


def test_integer_params_reject_non_integral_overrides():
    config = WorkloadConfig(num_threads=2)
    assert make_workload("reduce", config, array_elements=100.0).num_elements == 100
    for bad in (1.5, "256", True):
        with pytest.raises(ValueError, match="array_elements must be an integer"):
            make_workload("reduce", WorkloadConfig(num_threads=2), array_elements=bad)
    for bad in ("abc", 7.0, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_workload("reduce", WorkloadConfig(num_threads=2), seed=bad)


def test_unknown_workload_param_fails_fast_with_valid_list():
    workload = make_workload("mac", WorkloadConfig(num_threads=2),
                             array_elementz=512)
    with pytest.raises(ValueError) as excinfo:
        workload.generate("active")
    message = str(excinfo.value)
    assert "array_elementz" in message          # the offending name
    assert "array_elements" in message          # the valid list names the fix
    assert "mac" in message


def test_unknown_param_fails_fast_through_run_workload():
    with pytest.raises(ValueError, match="unknown parameter"):
        run_workload("HMC", "reduce", num_threads=2, array_element=128)
