"""Tests for the traffic-driver layer: closed bit-identity, open determinism.

The driver family's whole contract has two halves:

* the default ``closed`` driver is the pre-driver world *verbatim* — same
  workload objects, same traces, same labels, zero extra cache-key entries;
* the ``open`` driver is a deterministic function of its spec and seed, with
  arrival pacing resolved on the ``[time, seq]`` event queue so repeated runs
  reproduce each other bit for bit.
"""

import pytest

from repro.isa.operations import ArrivalOp
from repro.system import run_workload
from repro.workloads import (
    OpenStreamWorkload,
    TrafficSpec,
    WorkloadConfig,
    make_driver,
    make_workload,
    split_driver_params,
)


def _fingerprint(result):
    return (result.cycles, result.instructions, result.events_executed,
            sorted(result.summary().items()))


# ---------------------------------------------------------------------------
# TrafficSpec and parameter splitting
# ---------------------------------------------------------------------------

def test_default_spec_adds_zero_params():
    spec = TrafficSpec()
    assert spec.is_default
    assert spec.params() == {}          # closed cache keys stay byte-identical


def test_open_spec_folds_full_effective_knobs():
    spec = TrafficSpec(driver="open", tenant_mix="mac,pagerank")
    assert not spec.is_default
    params = spec.params()
    # Every knob appears — defaults included — so changing a *default* later
    # can never alias a cached open-driver result.
    assert set(params) == {"driver", "arrival_rate", "zipf_s", "tenant_mix",
                           "stream_requests", "stream_keys"}
    assert params["tenant_mix"] == "mac,pagerank"
    assert spec.tenants == ("mac", "pagerank")


def test_open_knobs_imply_open_driver():
    assert TrafficSpec.from_args(arrival_rate=20.0).driver == "open"
    with pytest.raises(ValueError, match="open traffic driver"):
        TrafficSpec.from_args(driver="closed", zipf_s=0.9)


def test_spec_rejects_unknown_tenants_and_bad_knobs():
    with pytest.raises(ValueError, match="unknown tenant"):
        TrafficSpec(driver="open", tenant_mix="mac,quicksort")
    with pytest.raises(ValueError, match="arrival rate"):
        TrafficSpec(driver="open", arrival_rate=-1.0)


def test_split_driver_params_separates_kernel_sizes():
    spec, rest = split_driver_params(
        {"driver": "open", "arrival_rate": 16.0, "tenant_mix": "mac"})
    assert spec.driver == "open" and spec.arrival_rate == 16.0
    assert rest == {}
    spec, rest = split_driver_params({"array_elements": 512})
    assert spec.is_default
    assert rest == {"array_elements": 512}


def test_open_driver_rejects_kernel_size_params():
    with pytest.raises(ValueError, match="do not apply to the open driver"):
        make_driver("open").build("mac", WorkloadConfig(num_threads=2),
                                  TrafficSpec(driver="open"),
                                  array_elements=512)


# ---------------------------------------------------------------------------
# Closed-driver bit-identity
# ---------------------------------------------------------------------------

def test_closed_driver_builds_the_exact_registry_workload():
    config = WorkloadConfig(num_threads=2)
    via_driver = make_driver("closed").build(
        "mac", config, TrafficSpec(), array_elements=256)
    direct = make_workload("mac", WorkloadConfig(num_threads=2),
                           array_elements=256)
    assert type(via_driver) is type(direct)
    assert via_driver.name == direct.name
    first = via_driver.generate("active")
    second = direct.generate("active")
    assert first.metadata == second.metadata
    assert len(first.threads) == len(second.threads)


def test_closed_run_with_explicit_driver_matches_plain_run():
    plain = run_workload("HMC", "mac", num_threads=2, array_elements=256)
    explicit = run_workload("HMC", "mac", num_threads=2, array_elements=256,
                            driver="closed")
    assert _fingerprint(plain) == _fingerprint(explicit)
    assert plain.request_stats == {} == explicit.request_stats


# ---------------------------------------------------------------------------
# Open-driver determinism and measurement
# ---------------------------------------------------------------------------

def _open_stream(num_threads=4, **kwargs):
    kwargs.setdefault("tenants", ("mac", "pagerank"))
    kwargs.setdefault("arrival_rate", 20.0)
    kwargs.setdefault("stream_requests", 64)
    kwargs.setdefault("stream_keys", 256)
    return OpenStreamWorkload(WorkloadConfig(num_threads=num_threads), **kwargs)


def test_open_trace_interleaves_monotonic_arrivals():
    program = _open_stream().generate("baseline")
    assert program.name == "open:mac+pagerank"
    for thread in program.threads:
        arrivals = [op.at for op in thread if isinstance(op, ArrivalOp)]
        assert len(arrivals) == 64
        assert arrivals == sorted(arrivals)
    meta = program.metadata
    assert meta["driver"] == "open" and meta["offered_rate"] > 0


def test_open_stream_generation_is_deterministic():
    first = _open_stream().generate("active")
    second = _open_stream().generate("active")
    assert first.expected_results == second.expected_results
    for a, b in zip(first.threads, second.threads):
        assert len(a) == len(b)
        assert ([op.at for op in a if isinstance(op, ArrivalOp)]
                == [op.at for op in b if isinstance(op, ArrivalOp)])


def test_open_run_measures_request_tail_and_verifies_flows():
    result = run_workload("ARF-tid", "mac", num_threads=4, driver="open",
                          arrival_rate=20.0, tenant_mix="mac,pagerank",
                          stream_requests=64, stream_keys=256)
    assert result.flows_verified
    stats = result.request_stats
    assert stats["count"] == 4 * 64
    assert stats["throughput"] > 0
    assert stats["p50"] <= stats["p99"] <= stats["p999"] <= stats["max"]
    # Client-side queueing excludes the network round trip; the engine-side
    # tail is surfaced alongside it for the active schemes.
    assert stats["update_p99"] > 0


def test_open_run_repeats_bit_identically():
    kwargs = dict(num_threads=4, driver="open", arrival_rate=40.0,
                  tenant_mix="mac,pagerank", stream_requests=64,
                  stream_keys=256)
    first = run_workload("HMC", "mac", **kwargs)
    second = run_workload("HMC", "mac", **kwargs)
    assert _fingerprint(first) == _fingerprint(second)


def test_saturation_raises_tail_latency():
    low = run_workload("HMC", "mac", num_threads=4, driver="open",
                       arrival_rate=5.0, stream_requests=64, stream_keys=256)
    high = run_workload("HMC", "mac", num_threads=4, driver="open",
                        arrival_rate=400.0, stream_requests=64,
                        stream_keys=256)
    assert high.request_stats["p99"] > low.request_stats["p99"]
    assert high.request_stats["throughput"] > low.request_stats["throughput"]


# ---------------------------------------------------------------------------
# Chunked trace synthesis (bounded memory) and per-tenant fairness
# ---------------------------------------------------------------------------

def test_chunked_and_materialized_traces_bit_identical():
    """chunk_ops>0 (lazy, bounded window) and chunk_ops=0 (full lists) must
    synthesize character-identical operation streams in both modes."""
    for mode in ("baseline", "active"):
        lazy = _open_stream().generate(mode)
        full = _open_stream(chunk_ops=0).generate(mode)
        assert lazy.expected_results == full.expected_results
        for a, b in zip(lazy.threads, full.threads):
            assert type(a).__name__ == "ChunkedThreadTrace"
            assert isinstance(b, list)
            assert len(a) == len(b)
            assert [repr(op) for op in a] == [repr(op) for op in b]
            # Monotone indexed access — the pattern the cores use — too.
            assert [repr(a[i]) for i in range(len(a))] == [repr(op) for op in b]


def test_chunked_window_stays_bounded_and_replays_backwards():
    workload = _open_stream(tenants=("mac",), stream_requests=200, chunk_ops=8)
    trace = workload.generate("baseline").threads[0]
    reference = [repr(op) for op in trace]
    assert [repr(trace[i]) for i in range(len(trace))] == reference
    assert len(trace._window) <= 8 + 1
    # An index behind the window restarts the seeded generator correctly.
    assert repr(trace[0]) == reference[0]
    assert repr(trace[3]) == reference[3]


def test_chunked_trace_pickles_without_its_generator():
    import pickle
    trace = _open_stream(tenants=("mac",), chunk_ops=16).generate("baseline").threads[0]
    reference = [repr(op) for op in trace]
    clone = pickle.loads(pickle.dumps(trace))
    assert [repr(op) for op in clone] == reference


def test_chunked_run_matches_materialized_run():
    chunked = run_workload("ARF-tid", _open_stream())
    materialized = run_workload("ARF-tid", _open_stream(chunk_ops=0))
    assert _fingerprint(chunked) == _fingerprint(materialized)
    assert chunked.request_stats == materialized.request_stats


def test_multi_tenant_open_run_reports_fairness():
    result = run_workload("HMC", "mac", num_threads=4, driver="open",
                          arrival_rate=20.0, tenant_mix="mac,pagerank",
                          stream_requests=64, stream_keys=256)
    stats = result.request_stats
    # Two tenants, two threads each: 128 requests per tenant.
    assert stats["tenant0.count"] == stats["tenant1.count"] == 2 * 64
    assert stats["tenant0.throughput"] > 0 and stats["tenant1.throughput"] > 0
    assert stats["tenant0.p99"] >= 0 and stats["tenant1.p99"] >= 0
    assert 0.0 < stats["fairness"] <= 1.0
    # Symmetric tenants at a gentle rate split throughput near-evenly.
    assert stats["fairness"] > 0.9


def test_single_tenant_runs_grow_no_fairness_keys():
    result = run_workload("HMC", "mac", num_threads=4, driver="open",
                          arrival_rate=20.0, stream_requests=64,
                          stream_keys=256)
    assert "fairness" not in result.request_stats
    assert not any(k.startswith("tenant") for k in result.request_stats)


# ---------------------------------------------------------------------------
# Unknown-parameter fail-fast (regression for the make_workload satellite)
# ---------------------------------------------------------------------------

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
