"""Workload suite: the paper's five benchmarks and four microbenchmarks."""

from .backprop import BackpropWorkload
from .base import (
    ELEMENT_SIZE,
    Workload,
    WorkloadConfig,
    make_workload,
    register_workload,
    scaled,
    split_range,
    workload_names,
)
from .graph import CSRGraph, CSRMatrix, generate_power_law_graph, generate_sparse_matrix
from .lud import LUDWorkload
from .micro import MacMicro, RandMacMicro, RandReduceMicro, ReduceMicro
from .pagerank import PageRankWorkload
from .sgemm import SgemmWorkload
from .spmv import SpmvWorkload

#: Paper ordering used by every figure.
BENCHMARKS = ["backprop", "lud", "pagerank", "sgemm", "spmv"]
MICROBENCHMARKS = ["reduce", "rand_reduce", "mac", "rand_mac"]
ALL_WORKLOADS = BENCHMARKS + MICROBENCHMARKS

__all__ = [
    "BackpropWorkload",
    "ELEMENT_SIZE",
    "Workload",
    "WorkloadConfig",
    "make_workload",
    "register_workload",
    "scaled",
    "split_range",
    "workload_names",
    "CSRGraph",
    "CSRMatrix",
    "generate_power_law_graph",
    "generate_sparse_matrix",
    "LUDWorkload",
    "MacMicro",
    "RandMacMicro",
    "RandReduceMicro",
    "ReduceMicro",
    "PageRankWorkload",
    "SgemmWorkload",
    "SpmvWorkload",
    "BENCHMARKS",
    "MICROBENCHMARKS",
    "ALL_WORKLOADS",
]
