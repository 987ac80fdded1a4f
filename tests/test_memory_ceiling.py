"""Peak traced-memory ceilings of the two pagerank kernels.

``tracemalloc`` measures the peak of Python allocations while a tiny seed-7
pagerank (192 vertices, degree 4, 4 threads, the perfbench ``--tiny`` size)
runs ``Simulator.run_until_idle`` and ``collect_results``: the window where
the kernels reach their peak resident memory.  Allocation sizes are exact and
repeatable under one CPython release, so a change that retains more per event
or per component fails here even where resident memory on a shared machine
cannot resolve it.  Each ceiling is the peak recorded for the current tree
plus 2%.

Recorded peaks, in bytes allocated after tracing starts (the system is built,
its program loaded and its cores started by then):

=======================  ====================  ========
workload                 retained samples and  recorded
                         one cell per counter
=======================  ====================  ========
pagerank-hmc (HMC)       521,041               336,710
pagerank-arf (ARF-tid)   853,301               720,520
=======================  ====================  ========

Allocation sizes depend on the CPython release, so the test runs only under
the release the peaks were recorded with; CI pins it.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.system.builder import build_system
from repro.system.config import make_system_config
from repro.system.results import collect_results
from repro.workloads import WorkloadConfig, make_workload

#: The CPython release the peaks below were recorded under.
RECORDED_UNDER = (3, 11, 7)

#: configuration -> recorded peak traced bytes over run_until_idle + collect
RECORDED = {
    "HMC": 336_710,
    "ARF-tid": 720_520,
}
#: Headroom over the recorded peak.
TOLERANCE = 0.02

TINY_PAGERANK = {"num_vertices": 192, "avg_degree": 4}


def traced_peak(config_name):
    config = make_system_config(config_name)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload("pagerank", WorkloadConfig(num_threads=4, seed=7),
                            **TINY_PAGERANK).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        system.sim.run_until_idle()
        result = collect_results(system, program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.flow_checks[1] == 0
    return peak - baseline


@pytest.mark.skipif(sys.version_info[:3] != RECORDED_UNDER,
                    reason="allocation sizes were recorded under CPython "
                           + ".".join(map(str, RECORDED_UNDER)))
@pytest.mark.parametrize("config_name", sorted(RECORDED))
def test_traced_peak_stays_under_the_ceiling(config_name):
    recorded = RECORDED[config_name]
    peak = traced_peak(config_name)
    assert peak <= recorded * (1 + TOLERANCE), (
        f"{config_name}: peak {peak:,} bytes against {recorded:,} recorded "
        f"({peak / recorded - 1:+.2%})")
