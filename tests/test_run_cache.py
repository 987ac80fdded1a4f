"""Persistent run cache + suite prefetch orchestration tests (tiny scale)."""

import os

import pytest

from repro.experiments import (
    FIGURES,
    EvaluationSuite,
    RunCache,
    code_digest,
    full_report,
)
from repro.experiments.run_cache import default_cache_dir
from repro.system import (AR_CONFIGS, CONFIG_ORDER, SystemKind, normalize_workers,
                          run_jobs)


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
    assert summary == {"tmp_removed": 2, "stale_removed": 2, "kept": 1}
    assert cache.get(_key()) == "fresh"      # the current-digest entry survives
    assert live.exists()                     # a live writer's tmp file is left alone
    assert sorted(p.name for p in tmp_path.glob("*.tmp*")) == [live.name]
    assert cache.prune() == {"tmp_removed": 0, "stale_removed": 0, "kept": 1}


def test_prune_on_missing_directory_is_a_noop(tmp_path):
    cache = RunCache(tmp_path / "never-created")
    assert cache.prune() == {"tmp_removed": 0, "stale_removed": 0, "kept": 0}


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


# -- figure table / prefetch planning --------------------------------------------

def test_registry_covers_every_figure():
    # Every figure, in canonical report order.
    assert list(FIGURES) == ["speedup", "latency", "lud_heatmap",
                             "data_movement", "power", "energy", "edp",
                             "topology", "degraded", "dynamic_offload"]


def _keys(suite, figure):
    return {job[0] for job in FIGURES[figure].jobs(suite)}


def _record_batches(monkeypatch):
    """Stub out simulation; returns the keys each batch would have run."""
    from repro.experiments import suite as suite_module

    seen = []

    def record(jobs, **_kwargs):
        seen.extend(job[0] for job in jobs)
        return iter(())

    monkeypatch.setattr(suite_module, "iter_jobs", record)
    return seen


def test_required_pairs_per_figure(monkeypatch):
    suite = EvaluationSuite("tiny", workloads=["mac", "pagerank"])
    full = {(w, k.value) for w in ("mac", "pagerank") for k in CONFIG_ORDER}
    assert _keys(suite, "speedup") == full
    assert _keys(suite, "latency") == {
        (w, k.value) for w in ("mac", "pagerank") for k in AR_CONFIGS}
    assert _keys(suite, "lud_heatmap") == {("lud", "ARF-tid"), ("lud", "ARF-addr")}
    movement = _keys(suite, "data_movement")
    assert ("mac", "HMC") in movement
    assert ("mac", "DRAM") not in movement
    # Figure 5.8 replays three bespoke LUD traces.
    assert _keys(suite, "dynamic_offload") == {
        ("bespoke:lud-baseline", "HMC"), ("bespoke:lud-offload", "ARF-tid"),
        ("bespoke:lud-adaptive", "ARF-tid")}
    # A prefetch resolves the union of the figures' keys, each once, and
    # unknown figures are rejected before anything runs.
    union = _keys(suite, "speedup") | _keys(suite, "dynamic_offload")
    assert len(union) == len(full) + 3
    seen = _record_batches(monkeypatch)
    stats = suite.prefetch(["speedup", "dynamic_offload", "speedup"])
    assert set(seen) == union and len(seen) == len(union)
    assert stats["pairs"] == stats["simulated"] == len(union)
    with pytest.raises(ValueError):
        suite.prefetch(["figure-9000"])


def test_batches_run_in_key_order(monkeypatch):
    """The misses of a batch run sorted by key, whatever order the figures
    declared them in; every declared key is simulated exactly once."""
    seen = _record_batches(monkeypatch)
    suite = EvaluationSuite("tiny")
    jobs = list(reversed(FIGURES["speedup"].jobs(suite)))
    stats = suite.resolve(jobs + jobs[:3])
    assert len(seen) == len(suite.workloads) * len(CONFIG_ORDER)
    assert seen == sorted(seen)
    assert stats == {"pairs": len(seen), "reused": 0, "disk_hits": 0,
                     "simulated": len(seen)}


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_job_keeps_every_finished_run(tmp_path, workers, capsys):
    """Jobs that raise fail the batch, but every other job still runs and is
    cached, so a re-run simulates only the failed ones.  Every failure is
    reported on stderr in key order, and the first one is re-raised."""
    kinds = [SystemKind.DRAM, SystemKind.HMC]
    suite = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            workers=workers, cache_dir=tmp_path)
    good = [suite.job("mac", kind) for kind in kinds]
    config = suite.config_for(SystemKind.DRAM)
    bad = (("bad:mac", config.label), config, "mac", {"array_elements": -1})
    also_bad = (("bad:zmac", config.label), config, "mac", {"bogus": 3})
    with pytest.raises(ValueError, match="must be positive"):
        suite.resolve([also_bad, bad] + good)
    assert capsys.readouterr().err.splitlines() == [
        "job bad:mac on DRAM failed: ValueError: num_elements must be positive",
        "job bad:zmac on DRAM failed: ValueError: unknown parameter(s) "
        "'bogus' for workload 'mac'; valid parameters: array_elements"]
    assert suite.simulations_run == 2
    assert len(suite.cache) == 2
    assert all(job[0] in suite._results for job in good)

    rerun = EvaluationSuite("tiny", workloads=["mac"], kinds=kinds,
                            workers=workers, cache_dir=tmp_path)
    with pytest.raises(ValueError):
        rerun.resolve(good + [bad])
    assert rerun.simulations_run == 0 and rerun.disk_hits == 2
    # run_jobs consumes the same generator and still surfaces the failure.
    with pytest.raises(ValueError):
        run_jobs([bad] + good, workers=workers)


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
    fig_topology.run(suite)                                   # lazy path first
    before = suite.simulations_run
    stats = suite.prefetch(figures=["topology"])
    assert suite.simulations_run == before
    assert stats["simulated"] == 0
    assert stats["reused"] == stats["pairs"]


def test_suite_rejects_impossible_network_at_construction(tmp_path):
    from repro.hmc import HMCNetworkConfig

    with pytest.raises(ValueError, match="exactly 18 cubes"):
        EvaluationSuite("tiny", net=HMCNetworkConfig(num_cubes=18))
