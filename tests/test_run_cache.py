"""Persistent run cache + suite prefetch orchestration tests (tiny scale)."""

import os

import pytest

from repro.experiments import (
    FIGURE_REGISTRY,
    EvaluationSuite,
    RunCache,
    code_digest,
    estimated_cost,
    full_report,
)
from repro.experiments.run_cache import (COST_EWMA_ALPHA, default_cache_dir,
                                         machine_fingerprint)
from repro.system import AR_CONFIGS, CONFIG_ORDER, SystemKind, normalize_workers


def _key(digest=None, workload="mac"):
    key = RunCache.make_key(scale="tiny", workload=workload,
                            params={"array_elements": 64}, config_label="HMC",
                            profile="scaled", num_threads=2)
    if digest is not None:
        key["digest"] = digest
    return key


# -- RunCache unit behavior ------------------------------------------------------

def test_cache_roundtrip_and_key_isolation(tmp_path):
    cache = RunCache(tmp_path)
    key = _key()
    assert cache.get(key) is None           # cold
    cache.put(key, {"cycles": 123.0})       # any picklable payload
    assert cache.get(key) == {"cycles": 123.0}
    assert cache.get(_key(workload="lud")) is None
    assert len(cache) == 1


def test_cache_code_digest_invalidates(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(_key(), "result")
    stale = _key(digest="0" * 64)
    assert stale["digest"] != code_digest()
    assert cache.get(stale) is None


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = RunCache(tmp_path)
    key = _key()
    path = cache.put(key, "result")
    for garbage in (b"not a pickle",
                    b"\x80\x07unsupported-protocol",      # raises ValueError
                    b"\x80\x04\x95\xff\xff\xff\xff\xff\xff\xff\xff"):
        path.write_bytes(garbage)
        assert cache.get(key) is None
    cache.put(key, "result")                # overwrite repairs the entry
    assert cache.get(key) == "result"


def test_put_failure_leaves_no_tmp_litter(tmp_path):
    cache = RunCache(tmp_path)

    class Unpicklable:
        def __reduce__(self):
            raise RuntimeError("cannot pickle me")

    with pytest.raises(RuntimeError):
        cache.put(_key(), Unpicklable())
    assert list(tmp_path.glob("*.tmp*")) == []
    assert len(cache) == 0
    cache.put(_key(), "result")              # the cache still works afterwards
    assert cache.get(_key()) == "result"


def test_prune_drops_orphaned_tmp_and_stale_entries(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(_key(), "fresh")
    # A stale entry from an old code digest, an unreadable entry, and tmp
    # litter from a writer that is long gone (pid 2**22-1 is above the default
    # Linux pid_max) plus one with no pid at all.
    stale_key = _key(digest="0" * 64, workload="lud")
    path = cache.path_for(stale_key)
    import pickle
    path.write_bytes(pickle.dumps({"key": stale_key, "result": "old"}))
    (tmp_path / "corrupt.pkl").write_bytes(b"not a pickle")
    (tmp_path / f"dead.pkl.tmp{2**22 - 1}").write_bytes(b"partial")
    (tmp_path / "orphan.pkl.tmp").write_bytes(b"partial")
    live = tmp_path / f"live.pkl.tmp{os.getpid()}"
    live.write_bytes(b"in flight")

    summary = cache.prune()
    assert summary == {"tmp_removed": 2, "stale_removed": 2, "kept": 1,
                       "cost_other_machines": 0}
    assert cache.get(_key()) == "fresh"      # the current-digest entry survives
    assert live.exists()                     # a live writer's tmp file is left alone
    assert sorted(p.name for p in tmp_path.glob("*.tmp*")) == [live.name]
    assert cache.prune() == {"tmp_removed": 0, "stale_removed": 0, "kept": 1,
                             "cost_other_machines": 0}


def test_prune_on_missing_directory_is_a_noop(tmp_path):
    cache = RunCache(tmp_path / "never-created")
    assert cache.prune() == {"tmp_removed": 0, "stale_removed": 0, "kept": 0,
                             "cost_other_machines": 0}


def test_prune_reports_foreign_cost_sections_but_keeps_them(tmp_path):
    """Wall-time estimates recorded by other machine fingerprints are counted
    in the prune summary yet left on disk: a shared cache directory is
    legitimate, and foreign sections never feed this machine's cost model."""
    import json

    cache = RunCache(tmp_path)
    cache.record_cost(_key(), 2.5)
    data = json.loads((tmp_path / "costs.json").read_text())
    data["feedfacefeedface0"] = {"job-a": 9.0, "job-b": 1.0}
    data["deadbeefdeadbeef0"] = {"job-c": 4.0}
    (tmp_path / "costs.json").write_text(json.dumps(data))

    summary = cache.prune()
    assert summary["cost_other_machines"] == 3
    after = json.loads((tmp_path / "costs.json").read_text())
    assert after == data                     # reported, not removed
    assert RunCache(tmp_path).measured_cost(_key()) == 2.5


# -- measured-cost sidecar -------------------------------------------------------

def test_cost_sidecar_roundtrip_and_digest_independence(tmp_path):
    cache = RunCache(tmp_path)
    key = _key()
    assert cache.measured_cost(key) is None
    cache.record_cost(key, 2.5)
    assert cache.measured_cost(key) == 2.5
    # Costs survive a code-digest change: same job, different digest.
    assert cache.measured_cost(_key(digest="0" * 64)) == 2.5
    # A fresh handle re-reads the sidecar from disk.
    assert RunCache(tmp_path).measured_cost(key) == 2.5
    # Different jobs have independent costs.
    assert cache.measured_cost(_key(workload="lud")) is None
    cache.record_cost(key, 4.0)              # EWMA merge, not last-write-wins
    expected = 2.5 + COST_EWMA_ALPHA * (4.0 - 2.5)
    assert RunCache(tmp_path).measured_cost(key) == pytest.approx(expected)


def test_cost_sidecar_is_keyed_by_machine_fingerprint(tmp_path):
    """The sidecar nests every EWMA under the recording machine's fingerprint,
    so cost tables from different machines sharing one cache directory never
    blend into a single estimate."""
    import json

    cache = RunCache(tmp_path)
    key = _key()
    cache.record_cost(key, 2.5)
    data = json.loads((tmp_path / "costs.json").read_text())
    assert list(data) == [machine_fingerprint()]
    assert cache.cost_key_for(key) in data[machine_fingerprint()]
    # Another machine's section is invisible to this machine's lookups.
    data["feedfacefeedface0"] = {cache.cost_key_for(_key(workload="lud")): 9.0}
    (tmp_path / "costs.json").write_text(json.dumps(data))
    fresh = RunCache(tmp_path)
    assert fresh.measured_cost(key) == 2.5
    assert fresh.measured_cost(_key(workload="lud")) is None
    # And a write from this machine preserves the foreign section on disk.
    fresh.record_cost(_key(workload="lud"), 3.0)
    merged = json.loads((tmp_path / "costs.json").read_text())
    assert merged["feedfacefeedface0"] == data["feedfacefeedface0"]
    assert fresh.measured_cost(_key(workload="lud")) == 3.0


def test_cost_sidecar_migrates_legacy_flat_entries(tmp_path):
    """A pre-fingerprint flat ``{job: ewma}`` sidecar is attributed to the
    current machine on read and persisted in the keyed shape on first write."""
    import json

    cache = RunCache(tmp_path)
    key = _key()
    legacy = {cache.cost_key_for(key): 2.0}
    (tmp_path / "costs.json").write_text(json.dumps(legacy))
    assert cache.measured_cost(key) == 2.0          # readable before migration
    cache.record_cost(key, 2.0)                     # first write migrates
    data = json.loads((tmp_path / "costs.json").read_text())
    assert list(data) == [machine_fingerprint()]
    assert data[machine_fingerprint()][cache.cost_key_for(key)] == 2.0
    assert RunCache(tmp_path).measured_cost(key) == 2.0


def test_cost_sidecar_ewma_absorbs_one_outlier(tmp_path):
    """One slow outlier run must nudge, not replace, the cost estimate, so
    prefetch scheduling keeps a sane ordering afterwards."""
    cache = RunCache(tmp_path)
    key = _key()
    for _ in range(4):
        cache.record_cost(key, 2.0)
    assert cache.measured_cost(key) == pytest.approx(2.0)
    cache.record_cost(key, 100.0)            # a loaded-machine outlier
    outlier_view = cache.measured_cost(key)
    assert outlier_view == pytest.approx(2.0 + COST_EWMA_ALPHA * 98.0)
    assert outlier_view < 100.0 / 2          # far closer to truth than the outlier
    cache.record_cost(key, 2.0)              # one normal run pulls it back down
    assert cache.measured_cost(key) < outlier_view


def _record_batch(root, start, count):
    """Worker for the concurrency test: record ``count`` distinct job costs."""
    cache = RunCache(root)
    for index in range(start, start + count):
        cache.record_cost(_key(workload=f"w{index}"), float(index + 1))


def test_concurrent_record_cost_never_clobbers_entries(tmp_path):
    """Regression for the read-modify-write race: sessions recording costs in
    parallel must all land in costs.json (the fcntl lock serializes the whole
    cycle; before it, one session's write could erase another's wholesale)."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    per_worker = 8
    workers = [ctx.Process(target=_record_batch, args=(tmp_path, n * per_worker, per_worker))
               for n in range(3)]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    cache = RunCache(tmp_path)
    for index in range(3 * per_worker):
        assert cache.measured_cost(_key(workload=f"w{index}")) == float(index + 1)


def test_record_cost_failure_leaves_no_tmp_litter(tmp_path, monkeypatch):
    """A write failure inside record_cost must unlink costs.json.tmp<pid>
    (the sidecar twin of the RunCache.put fix) and stay advisory."""
    cache = RunCache(tmp_path)
    cache.record_cost(_key(), 2.0)

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    cache.record_cost(_key(workload="lud"), 5.0)  # swallowed, sidecar advisory
    monkeypatch.undo()
    assert list(tmp_path.glob("*.tmp*")) == []
    fresh = RunCache(tmp_path)
    assert fresh.measured_cost(_key()) == 2.0     # old contents intact
    assert fresh.measured_cost(_key(workload="lud")) is None


def test_prune_sweeps_cost_sidecar_tmp_litter(tmp_path):
    """prune() collects costs.json.tmp<pid> files of dead writers but leaves
    the sidecar itself and its lock file alone."""
    cache = RunCache(tmp_path)
    cache.record_cost(_key(), 3.0)
    dead = tmp_path / f"costs.json.tmp{2**22 - 1}"   # above default pid_max
    dead.write_text("{}")
    live = tmp_path / f"costs.json.tmp{os.getpid()}"
    live.write_text("{}")
    summary = cache.prune()
    assert summary["tmp_removed"] == 1
    assert not dead.exists()
    assert live.exists()                      # a live writer's tmp is kept
    assert (tmp_path / "costs.json").exists()
    assert (tmp_path / "costs.json.lock").exists()
    assert RunCache(tmp_path).measured_cost(_key()) == 3.0


def test_cost_sidecar_ignores_garbage(tmp_path):
    cache = RunCache(tmp_path)
    cache.record_cost(_key(), 0.0)           # non-positive costs are dropped
    cache.record_cost(_key(), -1.0)
    assert cache.measured_cost(_key()) is None
    (tmp_path / "costs.json").write_text("[1, 2, 3]")
    assert RunCache(tmp_path).measured_cost(_key()) is None
    (tmp_path / "costs.json").write_text("{garbage")
    assert RunCache(tmp_path).measured_cost(_key()) is None


def test_suite_records_costs_and_orders_by_measured_time(tmp_path):
    kinds = [SystemKind.DRAM, SystemKind.HMC]
    suite = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            cache_dir=tmp_path)
    suite.prefetch(figures=["speedup"])
    # Every simulated pair fed the sidecar a positive measured wall time.
    for kind in kinds:
        key = suite._cache_key("mac", kind.value, suite.scale.params_for("mac"))
        assert suite.cache.measured_cost(key) > 0

    # A fresh suite (results evicted, costs kept) orders pending jobs by the
    # measured times, even where they contradict the static heuristic: make
    # the DRAM run look 100x more expensive than HMC.
    for path in tmp_path.glob("*.pkl"):
        path.unlink()
    params = suite.scale.params_for("mac")
    cold = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                           cache_dir=tmp_path)
    cold.cache.record_cost(cold._cache_key("mac", "DRAM", params), 100.0)
    cold.cache.record_cost(cold._cache_key("mac", "HMC", params), 1.0)
    jobs = cold.pending_jobs({("mac", k) for k in kinds})
    assert [job[0][1] for job in jobs] == ["DRAM", "HMC"]
    # A dominating EWMA-merged measurement on the other job flips the order.
    cold.cache.record_cost(cold._cache_key("mac", "HMC", params), 500.0)
    jobs = cold.pending_jobs({("mac", k) for k in kinds})
    assert [job[0][1] for job in jobs] == ["HMC", "DRAM"]


def test_unmeasured_jobs_fall_back_to_calibrated_heuristic(tmp_path):
    """Jobs without a measurement rank by the static heuristic scaled into
    seconds, so one measured cheap run cannot leapfrog an unmeasured
    Active-Routing straggler."""
    kinds = [SystemKind.DRAM, SystemKind.ARF_TID]
    suite = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            cache_dir=tmp_path)
    params = suite.scale.params_for("mac")
    # Only DRAM was ever measured (0.1s); ARF-tid's static cost is 30x DRAM's,
    # so its calibrated estimate (~3s) must still schedule it first.
    suite.cache.record_cost(suite._cache_key("mac", "DRAM", params), 0.1)
    jobs = suite.pending_jobs({("mac", k) for k in kinds})
    assert [job[0][1] for job in jobs] == ["ARF-tid", "DRAM"]


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


# -- workers validation ----------------------------------------------------------

def test_normalize_workers_guards():
    assert normalize_workers(None) == 1
    assert normalize_workers(1) == 1
    assert normalize_workers(-5) == 1
    assert normalize_workers(0) == (os.cpu_count() or 1)
    assert normalize_workers(7) == 7


def test_suite_normalizes_workers():
    assert EvaluationSuite("tiny", workers=-3).workers == 1
    assert EvaluationSuite("tiny", workers=0).workers == (os.cpu_count() or 1)


# -- figure registry / prefetch planning -----------------------------------------

def test_registry_covers_every_figure():
    assert set(FIGURE_REGISTRY) == {"speedup", "latency", "lud_heatmap",
                                    "data_movement", "power", "energy", "edp",
                                    "dynamic_offload", "topology", "degraded"}


def test_required_pairs_per_figure():
    suite = EvaluationSuite("tiny", workloads=["mac", "pagerank"])
    full = {(w, k) for w in ("mac", "pagerank") for k in CONFIG_ORDER}
    assert suite.required_pairs(["speedup"]) == full
    assert suite.required_pairs(["latency"]) == {
        (w, k) for w in ("mac", "pagerank") for k in AR_CONFIGS}
    assert suite.required_pairs(["lud_heatmap"]) == {
        ("lud", SystemKind.ARF_TID), ("lud", SystemKind.ARF_ADDR)}
    movement = suite.required_pairs(["data_movement"])
    assert ("mac", SystemKind.HMC) in movement
    assert ("mac", SystemKind.DRAM) not in movement
    assert suite.required_pairs(["dynamic_offload"]) == set()
    # The union is a plain set union, and unknown figures are rejected.
    union = suite.required_pairs(["speedup", "lud_heatmap"])
    assert union == full | suite.required_pairs(["lud_heatmap"])
    with pytest.raises(ValueError):
        suite.required_pairs(["figure-9000"])


def test_pending_jobs_are_cost_ordered():
    suite = EvaluationSuite("tiny")
    jobs = suite.pending_jobs(suite.required_pairs(["speedup"]))
    assert len(jobs) == len(suite.workloads) * len(CONFIG_ORDER)
    costs = [estimated_cost(workload, params, config.kind)
             for _key, config, workload, params in jobs]
    assert costs == sorted(costs, reverse=True)
    # Stragglers first: the batch starts on an Active-Routing scheme and ends
    # on a cheap baseline.
    assert jobs[0][1].kind in AR_CONFIGS
    assert jobs[-1][1].kind in (SystemKind.DRAM, SystemKind.HMC)


# -- cached runs vs fresh runs ---------------------------------------------------

def test_disk_cache_hit_equals_fresh_run(tmp_path):
    fresh = EvaluationSuite("tiny", workloads=["mac"])
    warm_writer = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)
    reader = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)

    baseline = fresh.result("mac", "HMC")
    written = warm_writer.result("mac", "HMC")
    loaded = reader.result("mac", "HMC")

    assert warm_writer.simulations_run == 1
    assert reader.simulations_run == 0 and reader.disk_hits == 1
    for result in (written, loaded):
        assert result.summary() == baseline.summary()
        assert result.cycles == baseline.cycles
        assert result.events_executed == baseline.events_executed


def test_second_report_is_zero_simulation_and_byte_identical(tmp_path):
    kwargs = dict(scale="tiny", workloads=["mac", "lud"], workers=2,
                  cache_dir=tmp_path)
    cold_suite = EvaluationSuite(**kwargs)
    cold = full_report(cold_suite)
    assert cold_suite.simulations_run > 0

    warm_suite = EvaluationSuite(**kwargs)
    warm = full_report(warm_suite)
    assert warm_suite.simulations_run == 0           # zero simulations
    assert warm_suite.disk_hits == cold_suite.simulations_run
    assert warm == cold                              # byte-identical report


def test_prefetch_runs_bespoke_jobs_in_the_parallel_batch(tmp_path):
    from repro.experiments import fig_dynamic_offload

    suite = EvaluationSuite("tiny", workers=2, cache_dir=tmp_path)
    stats = suite.prefetch(figures=["dynamic_offload"])
    assert stats == {"pairs": 3, "reused": 0, "disk_hits": 0, "simulated": 3}

    # The figure is then served entirely from the prefetched batch...
    before = suite.simulations_run
    data = fig_dynamic_offload.compute(suite)
    assert suite.simulations_run == before
    assert set(data["runs"]) == {"HMC", "ARF-tid", "ARF-tid-adaptive"}

    # ...and the pooled runs are identical to the lazy in-process path.
    lazy = fig_dynamic_offload.compute(EvaluationSuite("tiny"))
    assert lazy["runs"] == data["runs"]
    assert lazy["speedups"] == data["speedups"]


def test_prefetch_dedupes_repeated_figures():
    suite = EvaluationSuite("tiny")
    stats = suite.prefetch(figures=["dynamic_offload", "dynamic_offload"])
    assert stats == {"pairs": 3, "reused": 0, "disk_hits": 0, "simulated": 3}


def test_prefetch_stats_and_run_all_reuse(tmp_path):
    kinds = [SystemKind.DRAM, SystemKind.HMC]
    suite = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            cache_dir=tmp_path)
    stats = suite.prefetch(figures=["speedup"])
    assert stats == {"pairs": 2, "reused": 0, "disk_hits": 0, "simulated": 2}

    again = suite.prefetch(figures=["speedup"])
    assert again["simulated"] == 0 and again["reused"] == again["pairs"]

    # run_all reuses every in-memory pair it needs; a second suite pulls the
    # same pairs from disk without simulating.
    suite.run_all()
    assert suite.simulations_run == 2
    other = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            cache_dir=tmp_path)
    other.run_all()
    assert other.simulations_run == 0 and other.disk_hits == 2


# -- network fingerprints in cache keys -------------------------------------------

def test_make_key_layout_unchanged_for_default_network():
    """Default-network keys must stay bit-identical to the PR 3 layout, so a
    populated cache survives the topology dimension unchanged."""
    key = _key()
    assert key == {
        "digest": code_digest(),
        "scale": "tiny",
        "workload": "mac",
        "params": {"array_elements": 64},
        "config": "HMC",
        "profile": "scaled",
        "num_threads": 2,
    }


def test_network_variants_occupy_distinct_cache_entries(tmp_path):
    """Regression for the cache-collision bug: two network variants of the
    same (workload, kind, scale) must never share a RunCache entry, while the
    default network keeps its historical key."""
    from repro.hmc import HMCNetworkConfig

    default = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path)
    mesh = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path,
                           net=HMCNetworkConfig(topology="mesh"))
    torus = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path,
                            net=HMCNetworkConfig(topology="torus"))
    params = default.scale.params_for("mac")

    labels = [s.config_for(SystemKind.HMC).label for s in (default, mesh, torus)]
    assert labels == ["HMC", "HMC@mesh16c4", "HMC@torus16c4"]
    paths = {s.cache.path_for(s._cache_key("mac", label, params))
             for s, label in zip((default, mesh, torus), labels)}
    assert len(paths) == 3

    # End to end: each variant simulates once, then hits only its own entry.
    default.result("mac", SystemKind.HMC)
    mesh.result("mac", SystemKind.HMC)
    torus.result("mac", SystemKind.HMC)
    assert (default.simulations_run, mesh.simulations_run,
            torus.simulations_run) == (1, 1, 1)
    warm = EvaluationSuite("tiny", workloads=["mac"], cache_dir=tmp_path,
                           net=HMCNetworkConfig(topology="mesh"))
    assert warm.result("mac", SystemKind.HMC).cycles == \
        mesh.result("mac", SystemKind.HMC).cycles
    assert warm.simulations_run == 0 and warm.disk_hits == 1

    # The DRAM baseline is network-independent and shared across variants.
    default.result("mac", SystemKind.DRAM)
    assert mesh.result("mac", SystemKind.DRAM).cycles == \
        default.result("mac", SystemKind.DRAM).cycles
    assert mesh.simulations_run == 1      # loaded from disk, not re-simulated
    assert mesh.disk_hits == 1


def test_prefetch_reuses_in_memory_extra_jobs():
    """An extra (network-variant) cell already in the in-memory matrix must be
    counted as reused, not re-simulated (cache disabled) or re-read from disk."""
    from repro.experiments import fig_topology

    suite = EvaluationSuite("tiny", workloads=["mac"])        # no cache
    fig_topology.compute(suite)                               # lazy path first
    before = suite.simulations_run
    stats = suite.prefetch(figures=["topology"])
    assert suite.simulations_run == before
    assert stats["simulated"] == 0
    assert stats["reused"] == stats["pairs"]


def test_suite_rejects_impossible_network_at_construction(tmp_path):
    from repro.hmc import HMCNetworkConfig

    with pytest.raises(ValueError, match="exactly 18 cubes"):
        EvaluationSuite("tiny", net=HMCNetworkConfig(num_cubes=18))
