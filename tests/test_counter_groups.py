"""Bank and vault counters read the same through every registry path.

DRAM banks and HMC vaults publish their counters as counter groups: each
keeps one list of totals, and the registry names ``<bank>.<stat>`` only while
it reads.  On tiny seed-7 pagerank runs, every name and value that
``counters()``, ``sum(prefix)``, ``counter(name)`` and ``snapshot()`` return
for them, in the middle of a run and at its end, is pinned by a digest taken
when each name had its own bound cell.
"""

import hashlib

import pytest

from repro.system.builder import build_system
from repro.system.config import make_system_config
from repro.workloads import WorkloadConfig, make_workload

TINY_PAGERANK = {"num_vertices": 192, "avg_degree": 4}

#: A horizon inside both runs, after their first vault accesses.
MID_RUN_CYCLE = 400.0

#: configuration -> sha256 of the bank and vault reads, captured with one
#: bound counter cell per name.
GROUP_DIGEST = {
    "HMC": "e2142f127bee13d8672b9076732193c20198f25e213f9221418b156d141839a1",
    "ARF-tid": "6df443ac9ce0f136c32ccd41372d66ce8630925e8ef66769e5b87049138811bb",
}


def _is_group_name(name):
    return ".vault" in name


def _group_reads(stats, cubes):
    """Every bank and vault name and value, in registry order, through each
    reader, plus the per-cube and whole-memory prefix sums."""
    counters = [(name, value) for name, value in stats.counters().items()
                if _is_group_name(name)]
    prefixed = [(name, value) for name, value in stats.counters("hmc.").items()
                if _is_group_name(name)]
    assert prefixed == counters
    snapshot = stats.snapshot()
    for name, value in counters:
        assert stats.counter(name) == value, name
        assert snapshot[name] == value, name
    assert {name for name in snapshot if _is_group_name(name)} == dict(counters).keys()
    sums = [stats.sum(f"hmc.cube{cube}.vault") for cube in cubes] + [stats.sum("hmc.")]
    return counters, sums


def group_digest(config_name):
    config = make_system_config(config_name)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload("pagerank", WorkloadConfig(num_threads=4, seed=7),
                            **TINY_PAGERANK).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    cubes = [cube.node_id for cube in system.memory.cubes]
    stats = system.sim.stats
    system.sim.run(until=MID_RUN_CYCLE)
    mid_run = _group_reads(stats, cubes)
    assert mid_run[0], "no vault was accessed before the mid-run read"
    system.sim.run_until_idle()
    assert system.cmp.all_done
    final = _group_reads(stats, cubes)
    assert len(final[0]) > len(mid_run[0])
    return hashlib.sha256(repr((mid_run, final)).encode()).hexdigest()


@pytest.mark.parametrize("config_name", sorted(GROUP_DIGEST))
def test_bank_and_vault_counters_read_as_with_one_cell_per_name(config_name):
    assert group_digest(config_name) == GROUP_DIGEST[config_name]
