"""Evaluation suite: shared (workload x configuration) runs for all figures.

Running the full cross product of 9 workloads and 5 configurations is the
expensive part of the evaluation, and every figure consumes a different slice
of the same runs.  The :class:`EvaluationSuite` therefore runs each job at
most once and caches the :class:`~repro.system.RunResult` — in memory always,
and on disk too when constructed with a ``cache_dir`` (see
:mod:`~repro.experiments.run_cache`), in which case a second report or
benchmark session performs zero simulations.

Every read goes through one resolver, :meth:`EvaluationSuite.resolve`: it
dedupes jobs by key, serves each from memory, else from the persistent cache,
and simulates the rest in one batch sorted by key.  :meth:`~EvaluationSuite.prefetch`
hands it the jobs the requested figures declare (see
:data:`~repro.experiments.report.FIGURES`), so they run in one parallel
batch; the figures' own reads then hit memory.

Problem sizes come in three scales:

* ``tiny``    — seconds; used by the unit/integration tests.
* ``small``   — a couple of minutes for the whole suite; default for the
  pytest benchmarks.
* ``default`` — the scaled-down sizes documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..hmc.config import HMCNetworkConfig
from ..network.topology import build_network_topology
from ..system import (CONFIG_ORDER, RunResult, SystemConfig, SystemKind,
                      make_system_config, normalize_workers)
from ..system.runner import Job, iter_jobs
from ..workloads import ALL_WORKLOADS
from .run_cache import RunCache

#: A job's key: ``(workload name, config label)``.  A bespoke run (a
#: ready-built trace such as Figure 5.8's adaptive LUD) names itself
#: ``"bespoke:<tag>"``.
Key = Tuple[str, str]


@dataclass(frozen=True)
class ExperimentScale:
    """Problem sizes for one evaluation scale."""

    name: str
    num_threads: int
    workload_params: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def params_for(self, workload: str) -> Dict[str, object]:
        return dict(self.workload_params.get(workload, {}))


SCALES: Dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny", num_threads=4,
        workload_params={
            "reduce": {"array_elements": 1536},
            "rand_reduce": {"array_elements": 1536},
            "mac": {"array_elements": 1536},
            "rand_mac": {"array_elements": 1536},
            "sgemm": {"matrix_dim": 24, "sim_rows": 2},
            "backprop": {"hidden_units": 8, "input_units": 96},
            "lud": {"matrix_dim": 24, "cols_per_row": 6, "rows_per_phase": 6},
            "pagerank": {"num_vertices": 192, "avg_degree": 4},
            "spmv": {"num_rows": 48, "num_cols": 48, "density": 0.25},
        }),
    "small": ExperimentScale(
        name="small", num_threads=4,
        workload_params={
            "reduce": {"array_elements": 6144},
            "rand_reduce": {"array_elements": 6144},
            "mac": {"array_elements": 6144},
            "rand_mac": {"array_elements": 6144},
            "sgemm": {"matrix_dim": 96, "sim_rows": 3},
            "backprop": {"hidden_units": 32, "input_units": 256},
            "lud": {"matrix_dim": 96, "cols_per_row": 6},
            "pagerank": {"num_vertices": 4096, "avg_degree": 3},
            "spmv": {"num_rows": 128, "num_cols": 128, "density": 0.25},
        }),
    "default": ExperimentScale(
        name="default", num_threads=4,
        workload_params={}),
}


def scale_from_env(default: str = "small") -> ExperimentScale:
    """Pick the evaluation scale from ``REPRO_SCALE`` (tiny/small/default)."""
    name = os.environ.get("REPRO_SCALE", default)
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"REPRO_SCALE={name!r} is not one of {sorted(SCALES)}")


class EvaluationSuite:
    """Cached (workload, configuration) result matrix with batch prefetching."""

    def __init__(self, scale: "ExperimentScale | str" = "small",
                 profile: str = "scaled",
                 workloads: Optional[Iterable[str]] = None,
                 kinds: Optional[Iterable[SystemKind]] = None,
                 workers: int = 1,
                 cache_dir: "str | os.PathLike | None" = None,
                 net: Optional[HMCNetworkConfig] = None) -> None:
        if isinstance(scale, str):
            scale = SCALES[scale]
        self.scale = scale
        self.profile = profile
        self.workloads: List[str] = list(workloads) if workloads is not None else list(ALL_WORKLOADS)
        self.kinds: List[SystemKind] = list(kinds) if kinds is not None else list(CONFIG_ORDER)
        self.workers = normalize_workers(workers)
        self.cache: Optional[RunCache] = RunCache(cache_dir) if cache_dir is not None else None
        #: Memory-network shape every HMC-backed configuration uses (``None`` =
        #: the default Table 4.1 dragonfly).  Because the network fingerprint
        #: is part of :attr:`SystemConfig.label`, a non-default suite keys its
        #: results — in memory and on disk — apart from the default one.
        if net is not None:
            # Fail fast on an impossible shape, mirroring the CLI path: a bad
            # request must not surface as a mid-batch crash in a worker.
            build_network_topology(net.topology, num_cubes=net.num_cubes,
                                   num_controllers=net.num_controllers)
        self.net = net
        self._results: Dict[Key, RunResult] = {}
        #: kind -> config under the suite-wide network; building a
        #: SystemConfig is the expensive part of planning a job, and the
        #: mapping is fixed for the suite's lifetime.
        self._configs: Dict[SystemKind, SystemConfig] = {}
        #: Simulations actually executed by this suite (persistent-cache hits
        #: do not count; the zero-simulation warm-path tests assert on this).
        self.simulations_run = 0
        #: Results loaded from the persistent cache instead of simulated.
        self.disk_hits = 0

    # -- jobs --------------------------------------------------------------------
    def config_for(self, kind: SystemKind,
                   net: Optional[HMCNetworkConfig] = None) -> SystemConfig:
        """The scale/profile-matched configuration for ``kind``.

        ``net`` overrides the memory-network shape for this one config;
        otherwise the suite-wide :attr:`net` (when set) applies.
        """
        if net is None and kind in self._configs:
            return self._configs[kind]
        config = make_system_config(kind, profile=self.profile,
                                    num_cores=self.scale.num_threads)
        effective = net if net is not None else self.net
        if effective is not None:
            config = config.with_network(effective)
        if net is None:
            self._configs[kind] = config
        return config

    def job(self, workload: str,
            config: "SystemConfig | SystemKind | str") -> Job:
        """The job that runs registered ``workload`` at this suite's scale on
        ``config`` (an explicit configuration, or a scheme under the
        suite-wide network).

        Jobs key on ``config.label`` — which embeds the network fingerprint
        when the network is non-default — in the in-memory matrix and the
        persistent cache alike, so network variants of the same scheme occupy
        distinct entries by construction.
        """
        if isinstance(config, str):
            config = SystemKind.from_name(config)
        if isinstance(config, SystemKind):
            config = self.config_for(config)
        return ((workload, config.label), config, workload,
                self.scale.params_for(workload))

    def _cache_key(self, workload: str, config_label: str,
                   params: Dict[str, object]) -> Dict[str, object]:
        return RunCache.make_key(scale=self.scale.name, workload=workload,
                                 params=params, config_label=config_label,
                                 profile=self.profile,
                                 num_threads=self.scale.num_threads)

    # -- running -----------------------------------------------------------------
    def resolve(self, jobs: Iterable[Job],
                workers: Optional[int] = None) -> Dict[str, int]:
        """Make every job's result available; the suite's one lookup path.

        Jobs dedupe by key (the first job with a key wins).  Each key is then
        served from memory, else loaded from the persistent cache, else
        simulated: the misses run as one batch sorted by key, across
        ``workers`` processes (default: the suite's).  Each finished run is
        cached as it lands, so a failing job costs only itself: once the batch
        is done, every failed key is reported on stderr in key order, the
        first failure is re-raised, and a re-run simulates only what failed.
        Returns a summary: ``pairs`` (distinct keys), ``reused`` from memory,
        ``disk_hits`` loaded from the persistent cache and ``simulated``
        fresh.
        """
        seen: Set[Key] = set()
        pending: Dict[Key, Job] = {}
        reused = disk_hits = 0
        for job in jobs:
            key = job[0]
            if key in seen:
                continue
            seen.add(key)
            if key in self._results:
                reused += 1
                continue
            result = None
            if self.cache is not None:
                result = self.cache.get(self._cache_key(*key, job[3]))
            if result is None:
                pending[key] = job
            else:
                self._results[key] = result
                disk_hits += 1
        self.disk_hits += disk_hits
        batch = [pending[key] for key in sorted(pending)]
        workers = self.workers if workers is None else normalize_workers(workers)
        failures: Dict[Key, Exception] = {}
        for key, outcome in iter_jobs(batch, num_threads=self.scale.num_threads,
                                      workers=workers):
            if isinstance(outcome, Exception):
                failures[key] = outcome
                continue
            self.simulations_run += 1
            if self.cache is not None:
                self.cache.put(self._cache_key(*key, pending[key][3]), outcome)
            self._results[key] = outcome
        if failures:
            for (workload, label), exc in sorted(failures.items()):
                print(f"job {workload} on {label} failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            raise failures[min(failures)]
        return {"pairs": len(seen), "reused": reused,
                "disk_hits": disk_hits, "simulated": len(batch)}

    def job_result(self, job: Job) -> RunResult:
        """One job's result, through :meth:`resolve`."""
        self.resolve((job,))
        return self._results[job[0]]

    def result(self, workload: str,
               config: "SystemConfig | SystemKind | str") -> RunResult:
        """The run result for one (workload, configuration) pair, simulating
        it on first use."""
        return self.job_result(self.job(workload, config))

    def prefetch(self, figures: Optional[Iterable[str]] = None,
                 workers: Optional[int] = None) -> Dict[str, int]:
        """Run every job the requested figures declare, in one parallel batch.

        Returns the :meth:`resolve` summary over the union of those jobs.
        Unknown figure names fail before anything simulates.
        """
        from .report import FIGURES  # deferred: figures import this module
        names = list(FIGURES) if figures is None else list(figures)
        for name in names:
            if name not in FIGURES:
                raise ValueError(
                    f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
        return self.resolve([job for name in names
                             for job in FIGURES[name].jobs(self)], workers)

    def run_all(self, workers: Optional[int] = None) -> Dict[Key, RunResult]:
        """Force every (workload, configuration) pair to run; returns the cache.

        With ``workers > 1`` the not-yet-cached pairs are farmed out to a
        process pool (each pair is an independent simulation); the merged
        results are identical to a serial run.
        """
        self.resolve([self.job(workload, kind) for workload in self.workloads
                      for kind in self.kinds], workers)
        return dict(self._results)

    # -- convenience views ---------------------------------------------------------
    def speedup(self, workload: str, kind: "SystemKind | str",
                baseline: "SystemKind | str" = SystemKind.DRAM) -> float:
        return self.result(workload, kind).speedup_over(self.result(workload, baseline))

    def verified(self) -> bool:
        """True when every cached Active-Routing run produced correct reductions."""
        return all(r.flows_verified for r in self._results.values())
