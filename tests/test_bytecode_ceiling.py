"""Executed-bytecode ceilings of the two pagerank kernels.

Every bytecode executed while ``Simulator.run_until_idle`` drains a tiny
seed-7 pagerank (192 vertices, degree 4, 4 threads, the perfbench ``--tiny``
size) is counted with ``sys.settrace`` and ``f_trace_opcodes``.  The count is
exact and repeatable, so a hot-path change that adds work fails here even
where wall time on a shared machine cannot resolve it.  Each ceiling is the
count recorded for the current tree plus 1%.

Recorded counts over ``run_until_idle`` (events are part of the pin; they
never move):

=======================  ======  ===================  ==================  ===============  ===========
workload                 events  before the passive-  with retained       with bound       recorded
                                 memory-path round    statistics samples  counter cells
=======================  ======  ===================  ==================  ===============  ===========
pagerank-hmc (HMC)        1,191  1,618,758            1,262,545           1,255,454        1,246,407
pagerank-arf (ARF-tid)   12,027  4,737,263            4,476,155           4,457,182        4,422,019
=======================  ======  ===================  ==================  ===============  ===========

Bytecode counts depend on the CPython release, so the test runs only under
the release the counts were recorded with; CI pins it.
"""

import sys

import pytest

from repro.system.builder import build_system
from repro.system.config import make_system_config
from repro.workloads import WorkloadConfig, make_workload

#: The CPython release the counts below were recorded under.
RECORDED_UNDER = (3, 11, 7)

#: configuration -> (events, recorded bytecodes over run_until_idle)
RECORDED = {
    "HMC": (1191, 1_246_407),
    "ARF-tid": (12027, 4_422_019),
}
#: Headroom over the recorded count.
TOLERANCE = 0.01

TINY_PAGERANK = {"num_vertices": 192, "avg_degree": 4}


def _executed_bytecodes(config_name):
    config = make_system_config(config_name)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload("pagerank", WorkloadConfig(num_threads=4, seed=7),
                            **TINY_PAGERANK).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    count = 0

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        system.sim.run_until_idle()
    finally:
        sys.settrace(previous)
    return system.sim.executed_events, count


@pytest.mark.skipif(sys.version_info[:3] != RECORDED_UNDER,
                    reason="bytecode counts were recorded under CPython "
                           + ".".join(map(str, RECORDED_UNDER)))
@pytest.mark.parametrize("config_name", sorted(RECORDED))
def test_executed_bytecodes_stay_under_the_ceiling(config_name):
    recorded_events, recorded = RECORDED[config_name]
    events, executed = _executed_bytecodes(config_name)
    assert events == recorded_events
    assert executed <= recorded * (1 + TOLERANCE), (
        f"{config_name}: {executed:,} bytecodes against {recorded:,} recorded "
        f"({executed / recorded - 1:+.2%})")
