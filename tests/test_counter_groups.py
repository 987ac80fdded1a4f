"""Bank and vault counters read the same through every registry path.

DRAM banks and HMC vaults keep their counts as plain slotted attributes, and
the registry names ``<bank>.<stat>`` only while it reads.  On tiny seed-7
pagerank runs, every name and value that ``counters()``, ``counters(prefix)``,
``counter(name)`` and ``snapshot()`` return for them, in the middle of a run
and at its end, is pinned by a digest taken when each name had its own bound
counter cell.  The digest covers names and values, sorted by name, and each
prefix total as an exact ``math.fsum``: the registry walks publishers in
registration order, which is not the order the cells once bound in.
"""

import hashlib
import math

import pytest

from repro.system.builder import build_system
from repro.system.config import make_system_config
from repro.workloads import WorkloadConfig, make_workload

TINY_PAGERANK = {"num_vertices": 192, "avg_degree": 4}

#: A horizon inside both runs, after their first vault accesses.
MID_RUN_CYCLE = 400.0

#: configuration -> sha256 of the bank and vault reads, captured with one
#: bound counter cell per name: the mid-run reads of a run read at
#: ``MID_RUN_CYCLE`` and the final reads of a run never read mid-run.
GROUP_DIGEST = {
    "HMC": "d2ecc4bc171422c014ac0c9f785a2a99c1061ec44efb21ebaf2d3272d3b86ea3",
    "ARF-tid": "84f0b52f720094dbffef001802cf1dc789f4a775f48ba0b4c22b787014c09c10",
}


def _is_group_name(name):
    return ".vault" in name


def _group_reads(stats, cubes):
    """Every bank and vault name and value, sorted by name, through each
    reader, plus the per-cube and whole-memory prefix totals."""
    counters = sorted((name, value) for name, value in stats.counters().items()
                      if _is_group_name(name))
    prefixed = sorted((name, value) for name, value in stats.counters("hmc.").items()
                      if _is_group_name(name))
    assert prefixed == counters
    snapshot = stats.snapshot()
    for name, value in counters:
        assert stats.counter(name) == value, name
        assert snapshot[name] == value, name
    assert {name for name in snapshot if _is_group_name(name)} == dict(counters).keys()
    sums = [math.fsum(stats.counters(prefix).values())
            for prefix in [f"hmc.cube{cube}.vault" for cube in cubes] + ["hmc."]]
    return counters, sums


def _reads(config_name, read_mid_run):
    """``(mid-run reads or None, final reads)`` of one run."""
    config = make_system_config(config_name)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload("pagerank", WorkloadConfig(num_threads=4, seed=7),
                            **TINY_PAGERANK).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    cubes = [cube.node_id for cube in system.memory.cubes]
    stats = system.sim.stats
    mid_run = None
    if read_mid_run:
        system.sim.run(until=MID_RUN_CYCLE)
        mid_run = _group_reads(stats, cubes)
        assert mid_run[0], "no vault was accessed before the mid-run read"
    system.sim.run_until_idle()
    assert system.cmp.all_done
    return mid_run, _group_reads(stats, cubes)


def group_digest(config_name):
    """Digest of the mid-run reads and the final reads.  A read changes
    nothing: the final reads equal those of a run never read mid-run (with
    one cell per name, a mid-run read split the float totals into two
    partial sums and moved their last bits)."""
    mid_run, final = _reads(config_name, read_mid_run=True)
    assert len(final[0]) > len(mid_run[0])
    assert final == _reads(config_name, read_mid_run=False)[1]
    return hashlib.sha256(repr((mid_run, final)).encode()).hexdigest()


@pytest.mark.parametrize("config_name", sorted(GROUP_DIGEST))
def test_bank_and_vault_counters_read_as_with_one_cell_per_name(config_name):
    assert group_digest(config_name) == GROUP_DIGEST[config_name]
