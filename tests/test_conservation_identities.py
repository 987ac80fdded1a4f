"""Conservation identities between independently kept counts.

The network derives its hop and byte totals from the per-link counts, the
Active-Routing engines keep latency totals that the ``ar.update_latency.*``
histograms fold on read, and the cubes and vaults count the same accesses
separately.  Each identity below ties two of those bookkeepings together.
They are checked part-way through a run (``sim.run(until=...)``) and again
at the end, where every offloaded Update must have committed.
"""

import pytest

from repro.system.builder import build_system
from repro.system.config import SystemKind, make_system_config
from repro.workloads import WorkloadConfig, make_workload

from helpers import tiny_params

#: A horizon inside every tiny run below (the shortest ends near cycle 490).
MID_RUN_CYCLE = 200.0

CATEGORIES = ("norm_req", "norm_resp", "active_req", "active_resp")


def _start(workload, kind):
    config = make_system_config(kind)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    program = make_workload(workload, WorkloadConfig(num_threads=4, seed=3),
                            **tiny_params(workload)).generate(mode)
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    return system


def _check_identities(system):
    stats = system.sim.stats
    counters = stats.counters()
    get = counters.get
    links = system.memory.network.links.values()

    hops = get("network.hops", 0.0)
    assert hops == sum(get(f"{link.name}.packets", 0.0) for link in links)
    total = get("network.bytes", 0.0)
    assert total == sum(get(f"network.bytes.{cat}", 0.0) for cat in CATEGORIES)
    assert total == sum(get(f"{link.name}.bytes", 0.0) for link in links)
    assert get("network.bit_hops", 0.0) == 8 * total

    engines = [cube.are.name for cube in system.memory.cubes if cube.are is not None]
    commits = sum(get(f"{are}.updates_committed", 0.0) + get(f"{are}.stores_committed", 0.0)
                  for are in engines)
    latency = stats.histogram("ar.update_latency.total")
    assert (latency.count if latency is not None else 0) == commits

    for cube in system.memory.cubes:
        assert cube.total_vault_accesses() == get(f"{cube.name}.local_accesses", 0.0)
    return counters


@pytest.mark.parametrize("kind", [SystemKind.ARF_TID, SystemKind.ART, SystemKind.HMC],
                         ids=lambda kind: kind.value)
@pytest.mark.parametrize("workload", ["pagerank", "mac"])
def test_identities_hold_mid_run_and_at_the_end(workload, kind):
    system = _start(workload, kind)
    sim = system.sim
    sim.run(until=MID_RUN_CYCLE)
    assert not system.cmp.all_done
    counters = _check_identities(system)
    # Not vacuous: traffic has crossed the network by the horizon, and on
    # the Active-Routing configurations some Update has committed.
    assert counters["network.hops"] > 0
    if kind is not SystemKind.HMC:
        assert counters["arhost.updates_committed"] > 0

    sim.run_until_idle()
    assert system.cmp.all_done
    counters = _check_identities(system)
    assert (counters.get("arhost.updates_committed", 0.0)
            == counters.get("arhost.updates_offloaded", 0.0))
    if kind is not SystemKind.HMC:
        assert counters["arhost.updates_offloaded"] > 0
