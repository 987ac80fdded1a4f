"""Golden determinism tests for the event-kernel fast path.

The kernel optimizations (bound stat counters, tuple-slimmed event heap, dense
next-hop tables, inlined dispatch) must not change simulation results *at all*:
the golden values below — final cycle count, executed event count and a SHA-256
digest over the full stats snapshot — were captured from the pre-optimization
seed code and every scheme must keep reproducing them bit-for-bit.

The tests keep one-value ``heap`` and ``static`` parametrisations so their
IDs read as they did when a second scheduler ran beside the heap and a
second routing policy beside the static tables.

Fault injection is deterministic too: the failure timeline is a pure function
of ``(topology, failure_rate, failure_seed)`` and every interruption resolves
on the ``[time, seq]`` queue, so a fixed-seed degraded run has its own golden
cell.
"""

import dataclasses
import hashlib

import pytest

from repro.system import CONFIG_ORDER, collect_results, run_suite
from repro.system.builder import build_system
from repro.system.config import make_system_config
from repro.workloads import WorkloadConfig, make_workload

TINY_PAGERANK = {"num_vertices": 96, "avg_degree": 4}

#: (final sim.now, executed events, sha256 of the sorted stats snapshot),
#: captured from the seed implementation (pre fast-path) for pagerank/tiny.
#:
#: Digest provenance: the cycle and event counts are the seed values and have
#: never moved.  The HMC/ART/ARF digests were re-captured once, when two
#: aggregates became folds: the network's queue-delay total is summed over
#: per-link cells in link order, and the ``ar.update_latency.*`` histograms
#: are folded from per-engine parts in cube order.  Both re-order float
#: additions (same addends, different association), which shifts non-dyadic
#: sums by ulps.  The folds now exist to pin that summation order: replacing
#: them with running sums in event order moves these digests.  DRAM has
#: neither accumulator and kept its original seed digest.
GOLDEN = {
    "DRAM": (421.0, 156,
             "e6e5a5852cae822af5f448c7de569649c4ffbb46f829c93430d2df708ae2462e"),
    "HMC": (515.1399999999999, 669,
            "ee546988a9a65d7e5982ed6855404fca600483a5599f24781f4fbffcc4d75504"),
    "ART": (2757.8400000000174, 5279,
            "9e3ee98cd352d30b6386feae44dcfeab44e24f09420fe33d02d3f57dc510e590"),
    "ARF-tid": (2670.8000000000093, 5998,
                "5e2ac71f8d99e52dacc8f24161ce8230d0925d1befec1ec971c4181ce4a95295"),
    "ARF-addr": (2757.8400000000174, 5279,
                 "9e3ee98cd352d30b6386feae44dcfeab44e24f09420fe33d02d3f57dc510e590"),
}


def snapshot_digest(stats) -> str:
    """Stable digest over every counter, gauge and histogram summary."""
    snap = stats.snapshot()
    hasher = hashlib.sha256()
    for key in sorted(snap):
        hasher.update(f"{key}={snap[key]!r}\n".encode())
    return hasher.hexdigest()


def tiny_pagerank_program(config):
    wconfig = WorkloadConfig()
    wconfig.num_threads = 4
    workload = make_workload("pagerank", wconfig, **TINY_PAGERANK)
    mode = "active" if config.kind.uses_active_routing else "baseline"
    return workload.generate(mode)


def run_tiny_pagerank(kind, net=None, program=None):
    # ``net`` passes explicit network overrides through the config, the path
    # the CLI and the suite use.
    config = make_system_config(kind, **(net or {}))
    system = build_system(config)
    system.cmp.load_program(program or tiny_pagerank_program(config))
    system.cmp.start()
    system.sim.run_until_idle()
    return system


@pytest.mark.parametrize("routing", ["static"])
@pytest.mark.parametrize("scheduler", ["heap"])
@pytest.mark.parametrize("kind", CONFIG_ORDER, ids=[k.value for k in CONFIG_ORDER])
def test_golden_cycles_events_and_stats_digest(kind, scheduler, routing):
    system = run_tiny_pagerank(kind)
    cycles, events, digest = GOLDEN[kind.value]
    assert system.sim.now == cycles
    assert system.sim.executed_events == events
    assert snapshot_digest(system.sim.stats) == digest


#: SHA-256 of every :class:`RunResult` field ``collect_results`` returns for
#: pagerank/tiny, captured before collection moved to a single registry read.
#: Two fields are left out: ``metadata["wall_s"]`` is host time, and
#: ``per_cube["vault_accesses"]`` changed meaning when it stopped summing
#: every ``hmc.cube{n}.vault*`` counter (bytes, energy, TSV and bank cells
#: included) and became the cube's vault access count.  One is put back:
#: the digests were captured while ``RunResult`` carried an open-loop
#: ``request_stats`` field, which was always empty for these closed kernels.
RESULT_GOLDEN = {
    "DRAM": "964fb678f572f4ea02f701539b06cf85218769e4a8ab4e00cfba02a41f8ce37d",
    "HMC": "15ae2a53d8f3130d76ad08c843d2500c0b61eaf3bd37c23945ba5d089e7b4d43",
    "ART": "91ae86061afce23a0943e7f7487a066b641f14ef7be13af73db2f84192259383",
    "ARF-tid": "15a2cec6671516a49efd5261c59675c8579be4f55873a14db10fed80b1cabe49",
    "ARF-addr": "aa19bb5cdee02f34e1b160755406c4ce2cd572236b6dbd504665f1b2c90c8a3a",
}


def _canonical(value) -> str:
    """Order-independent text form: dicts by sorted key, floats by repr."""
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda item: repr(item[0]))
        return "{" + ",".join(f"{key!r}:{_canonical(v)}" for key, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return repr(value)


def result_digest(result) -> str:
    fields = dataclasses.asdict(result)
    fields["metadata"].pop("wall_s", None)
    fields["per_cube"].pop("vault_accesses", None)
    fields["request_stats"] = {}
    return hashlib.sha256(_canonical(fields).encode()).hexdigest()


@pytest.mark.parametrize("kind", CONFIG_ORDER, ids=[k.value for k in CONFIG_ORDER])
def test_golden_run_result_digest(kind):
    program = tiny_pagerank_program(make_system_config(kind))
    system = run_tiny_pagerank(kind, program=program)
    assert result_digest(collect_results(system, program)) == RESULT_GOLDEN[kind.value]


#: Fixed-seed degraded golden: ARF-tid pagerank/tiny with random link faults
#: (rate 10 per Mcycle, seed 7).  The timeline and every
#: interruption are deterministic, so this cell is as stable as the rest.
#: The digest was re-captured with the accounting folds (see GOLDEN above);
#: cycles and events are unchanged from the seed capture — the finish-time
#: quiesce rule reproduces the old timeline on this cell.
DEGRADED_GOLDEN = (3554.0445920204475, 6178,
                   "a4d56536adffa669883601f6722e43d8a3e4083acdd5717b11ad3d3d1b64c4c9")


@pytest.mark.parametrize("scheduler", ["heap"])
def test_degraded_golden_fixed_failure_seed(scheduler):
    system = run_tiny_pagerank("ARF-tid",
                               net=dict(failure_rate=10.0, failure_seed=7))
    cycles, events, digest = DEGRADED_GOLDEN
    assert system.sim.now == cycles
    assert system.sim.executed_events == events
    assert snapshot_digest(system.sim.stats) == digest
    # The run did degrade: interruptions were recorded and recovered from.
    assert system.sim.stats.snapshot()["network.dropped"] > 0


def test_repeated_runs_are_identical():
    first = run_tiny_pagerank("ARF-tid")
    second = run_tiny_pagerank("ARF-tid")
    assert first.sim.now == second.sim.now
    assert snapshot_digest(first.sim.stats) == snapshot_digest(second.sim.stats)


def _result_fingerprint(result):
    return (result.cycles, result.instructions, result.events_executed,
            sorted(result.summary().items()))


def test_run_suite_parallel_matches_serial():
    """run_suite(workers=2) must return results identical to the serial path,
    keyed and ordered the same way."""
    kwargs = dict(
        workload_names=["reduce", "mac"],
        kinds=["HMC", "ARF-tid"],
        num_threads=2,
        workload_params={"reduce": {"array_elements": 256},
                         "mac": {"array_elements": 256}},
    )
    serial = run_suite(workers=1, **kwargs)
    parallel = run_suite(workers=2, **kwargs)
    assert list(serial.keys()) == list(parallel.keys())
    for key in serial:
        assert _result_fingerprint(serial[key]) == _result_fingerprint(parallel[key]), key
