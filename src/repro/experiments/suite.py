"""Evaluation suite: shared (workload x configuration) runs for all figures.

Running the full cross product of 9 workloads and 5 configurations is the
expensive part of the evaluation, and every figure consumes a different slice
of the same runs.  The :class:`EvaluationSuite` therefore runs each pair at
most once and caches the :class:`~repro.system.RunResult` — in memory always,
and on disk too when constructed with a ``cache_dir`` (see
:mod:`~repro.experiments.run_cache`), in which case a second report or
benchmark session performs zero simulations.

:meth:`EvaluationSuite.prefetch` computes the union of pairs the requested
figures will consume (each figure declares its needs in
:data:`~repro.experiments.registry.FIGURE_REGISTRY`) and executes the missing
ones in one parallel batch, most expensive first, so a process pool never
idles behind a straggler it started last.

Problem sizes come in three scales:

* ``tiny``    — seconds; used by the unit/integration tests.
* ``small``   — a couple of minutes for the whole suite; default for the
  pytest benchmarks.
* ``default`` — the scaled-down sizes documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..hmc.config import HMCNetworkConfig
from ..isa import ProgramTrace
from ..network.topology import build_network_topology
from ..system import (CONFIG_ORDER, RunResult, SystemConfig, SystemKind,
                      make_system_config, normalize_workers, run_jobs,
                      run_program, run_workload)
from ..workloads import ALL_WORKLOADS, BENCHMARKS, MICROBENCHMARKS
from ..workloads.base import Workload
from .run_cache import RunCache

#: A (workload name, configuration) requirement, as declared by the figures.
Pair = Tuple[str, SystemKind]
#: A pending simulation in :func:`repro.system.run_jobs` form; the workload
#: element is a registered name or a ready-built :class:`Workload` instance
#: (used by bespoke figure runs such as the adaptive-offload LUD trace).
Job = Tuple[Tuple[str, str], SystemConfig, "str | Workload", Dict[str, object]]
#: A bespoke figure requirement: tag, configuration, workload, cache params.
BespokeJob = Tuple[str, SystemConfig, Workload, Dict[str, object]]
#: A matrix run on an explicit (possibly network-variant) configuration, as
#: declared by sweep figures: registered workload name + full system config.
ExtraJob = Tuple[str, SystemConfig]


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


#: Relative event cost of one element on each configuration.  The Active-
#: Routing schemes schedule far more events per element than the baselines
#: (ratios taken from the golden pagerank event counts); only the ordering of
#: the products matters, not the absolute values.
KIND_COST: Dict[SystemKind, float] = {
    SystemKind.DRAM: 1.0,
    SystemKind.HMC: 4.0,
    SystemKind.ART: 30.0,
    SystemKind.ARF_TID: 30.0,
    SystemKind.ARF_ADDR: 30.0,
}


def estimated_cost(workload: str, params: Dict[str, object], kind: SystemKind) -> float:
    """Rough relative cost of one (workload, configuration) simulation.

    Used to schedule prefetch batches longest-cost-first so the stragglers
    start before the cheap runs fill the worker pool.
    """
    get = params.get
    if workload in MICROBENCHMARKS:
        base = float(get("array_elements", 4096))
    elif workload == "sgemm":
        base = float(get("matrix_dim", 64)) ** 2 * float(get("sim_rows", 2))
    elif workload == "backprop":
        base = float(get("hidden_units", 16)) * float(get("input_units", 128))
    elif workload == "lud":
        base = float(get("matrix_dim", 64)) ** 2
    elif workload == "pagerank":
        base = float(get("num_vertices", 1024)) * float(get("avg_degree", 4))
    elif workload == "spmv":
        base = (float(get("num_rows", 64)) * float(get("num_cols", 64))
                * float(get("density", 0.25)))
    else:
        base = 4096.0
    return base * KIND_COST.get(kind, 1.0)


def _job_cost(job: Job) -> float:
    """Static heuristic cost of one job (fallback when nothing was measured)."""
    _key, config, workload, params = job
    name = workload if isinstance(workload, str) else workload.name
    return estimated_cost(name, params, config.kind)


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
        self._results: Dict[Tuple[str, str], RunResult] = {}
        #: kind -> config label under the suite-wide network; building a
        #: SystemConfig just to read its label is the expensive part of key
        #: planning, and the mapping is fixed for the suite's lifetime.
        self._labels: Dict[SystemKind, str] = {}
        #: Simulations actually executed by this suite (persistent-cache hits
        #: do not count; the zero-simulation warm-path tests assert on this).
        self.simulations_run = 0
        #: Results loaded from the persistent cache instead of simulated.
        self.disk_hits = 0

    # -- persistent cache plumbing -----------------------------------------------
    def config_for(self, kind: SystemKind,
                   net: Optional[HMCNetworkConfig] = None) -> SystemConfig:
        """The scale/profile-matched configuration for ``kind``.

        ``net`` overrides the memory-network shape for this one config;
        otherwise the suite-wide :attr:`net` (when set) applies.
        """
        config = make_system_config(kind, profile=self.profile,
                                    num_cores=self.scale.num_threads)
        effective = net if net is not None else self.net
        if effective is not None:
            config = config.with_network(effective)
        return config

    def _label_for(self, kind: SystemKind) -> str:
        """Memoized ``self.config_for(kind).label``."""
        label = self._labels.get(kind)
        if label is None:
            label = self.config_for(kind).label
            self._labels[kind] = label
        return label

    def _cache_key(self, workload: str, config_label: str,
                   params: Dict[str, object]) -> Dict[str, object]:
        return RunCache.make_key(scale=self.scale.name, workload=workload,
                                 params=params, config_label=config_label,
                                 profile=self.profile,
                                 num_threads=self.scale.num_threads)

    def _cache_get(self, workload: str, config_label: str,
                   params: Dict[str, object]) -> Optional[RunResult]:
        if self.cache is None:
            return None
        result = self.cache.get(self._cache_key(workload, config_label, params))
        if result is not None:
            self.disk_hits += 1
        return result

    def _cache_put(self, workload: str, config_label: str,
                   params: Dict[str, object], result: RunResult) -> None:
        if self.cache is not None:
            key = self._cache_key(workload, config_label, params)
            self.cache.put(key, result)
            wall_s = result.metadata.get("wall_s")
            if isinstance(wall_s, (int, float)) and wall_s > 0:
                # Feed the measured wall time back into the scheduler's cost
                # model (digest-independent, so it survives code edits).
                self.cache.record_cost(key, wall_s)

    # -- job-cost model ------------------------------------------------------------
    def _job_costs(self, jobs: List[Job]) -> List[float]:
        """Scheduling cost per job: measured wall seconds where the cost
        sidecar has them, otherwise the static heuristic calibrated into
        seconds via the median measured/static ratio (pure heuristic when
        nothing was ever measured)."""
        statics = [_job_cost(job) for job in jobs]
        if self.cache is None:
            return statics
        measured: List[Optional[float]] = []
        for (key, _config, _workload, params) in jobs:
            measured.append(self.cache.measured_cost(
                self._cache_key(key[0], key[1], params)))
        ratios = sorted(m / s for m, s in zip(measured, statics)
                        if m is not None and s > 0)
        if not ratios:
            return statics
        seconds_per_unit = ratios[len(ratios) // 2]
        return [m if m is not None else s * seconds_per_unit
                for m, s in zip(measured, statics)]

    def _order_jobs(self, jobs: List[Job]) -> List[Job]:
        """Most expensive first, ties broken deterministically by key."""
        costs = self._job_costs(jobs)
        order = sorted(range(len(jobs)),
                       key=lambda index: (-costs[index], jobs[index][0]))
        return [jobs[index] for index in order]

    # -- running -----------------------------------------------------------------
    def result(self, workload: str, kind: "SystemKind | str") -> RunResult:
        """The run result for one pair, simulating it on first use."""
        if isinstance(kind, str):
            kind = SystemKind.from_name(kind)
        return self.result_for_config(workload, self.config_for(kind))

    def result_for_config(self, workload: str, config: SystemConfig) -> RunResult:
        """The run result for a workload on an explicit configuration.

        This is the primitive behind :meth:`result` and the topology sweeps:
        results key on ``config.label`` — which embeds the network fingerprint
        when the network is non-default — in the in-memory matrix and the
        persistent cache alike, so network variants of the same scheme occupy
        distinct entries by construction.
        """
        key = (workload, config.label)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        params = self.scale.params_for(workload)
        result = self._cache_get(workload, config.label, params)
        if result is None:
            result = run_workload(config, workload,
                                  num_threads=self.scale.num_threads, **params)
            self.simulations_run += 1
            self._cache_put(workload, config.label, params, result)
        self._results[key] = result
        return result

    def run_cached(self, tag: str, config: SystemConfig,
                   make_program: Callable[[], ProgramTrace],
                   params: Optional[Dict[str, object]] = None) -> RunResult:
        """A bespoke (non-matrix) run, cached like the suite's own pairs.

        For runs that are not a plain (workload, configuration) pair — e.g. the
        dynamic-offloading case study's adaptive LUD trace.  ``tag`` must
        uniquely describe the run within one scale; ``make_program`` generates
        the trace only on a miss; ``params`` participate in the disk key.
        """
        params = dict(params or {})
        name = f"bespoke:{tag}"
        key = (name, config.label)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        result = self._cache_get(name, config.label, params)
        if result is None:
            result = run_program(config, make_program())
            self.simulations_run += 1
            self._cache_put(name, config.label, params, result)
        self._results[key] = result
        return result

    def required_pairs(self, figures: Optional[Iterable[str]] = None) -> Set[Pair]:
        """Union of (workload, configuration) pairs the figures will consume."""
        from .registry import FIGURE_REGISTRY  # deferred: figures import this module
        if figures is None:
            figures = list(FIGURE_REGISTRY)
        pairs: Set[Pair] = set()
        for name in figures:
            try:
                spec = FIGURE_REGISTRY[name]
            except KeyError:
                raise ValueError(
                    f"unknown figure {name!r}; choose from {sorted(FIGURE_REGISTRY)}")
            pairs |= spec.required_pairs(self)
        return pairs

    def pending_jobs(self, pairs: Iterable[Pair]) -> List[Job]:
        """The not-yet-available subset of ``pairs`` as run_jobs jobs, most
        expensive first.  Pairs found in the persistent cache are loaded into
        the in-memory matrix here and excluded from the returned batch."""
        jobs: List[Job] = []
        for workload, kind in sorted(set(pairs), key=lambda p: (p[0], p[1].value)):
            label = self._label_for(kind)
            key = (workload, label)
            if key in self._results:
                continue
            params = self.scale.params_for(workload)
            result = self._cache_get(workload, label, params)
            if result is not None:
                self._results[key] = result
                continue
            jobs.append((key, self.config_for(kind), workload, params))
        return self._order_jobs(jobs)

    def _run_jobs(self, jobs: List[Job], workers: Optional[int]) -> None:
        workers = self.workers if workers is None else normalize_workers(workers)
        results = run_jobs(jobs, num_threads=self.scale.num_threads, workers=workers)
        self.simulations_run += len(jobs)
        for key, _config, _workload, params in jobs:
            self._cache_put(key[0], key[1], params, results[key])
        self._results.update(results)

    def prefetch(self, figures: Optional[Iterable[str]] = None,
                 workers: Optional[int] = None) -> Dict[str, int]:
        """Run everything the requested figures need in one parallel batch.

        Bespoke figure runs (e.g. the 5.8 adaptive-offload traces) and
        network-variant sweep runs (the topology figure) join the matrix pairs
        in the same batch, so nothing expensive runs serially.  Returns a
        summary: ``pairs`` required, ``reused`` from memory, ``disk_hits``
        loaded from the persistent cache and ``simulated`` fresh.
        """
        from .registry import FIGURE_REGISTRY
        figures = (list(dict.fromkeys(figures)) if figures is not None
                   else list(FIGURE_REGISTRY))
        disk_before = self.disk_hits
        pairs = self.required_pairs(figures)
        jobs = self.pending_jobs(pairs)
        total = len(pairs)
        pair_jobs = len(jobs)
        # Keys already counted toward the batch: every matrix pair, plus each
        # bespoke/extra key as it is queued.  Extra jobs legitimately overlap
        # the matrix (a sweep's default-network cells *are* matrix pairs), so
        # this guard is what keeps each key counted and simulated at most once.
        queued: Set[Tuple[str, str]] = {
            (workload, self._label_for(kind)) for workload, kind in pairs}
        for name in figures:
            bespoke_jobs = FIGURE_REGISTRY[name].bespoke_jobs
            if bespoke_jobs is None:
                continue
            for tag, config, workload, params in bespoke_jobs(self):
                key = (f"bespoke:{tag}", config.label)
                if key in queued:
                    continue
                queued.add(key)
                total += 1
                if key in self._results:
                    continue
                result = self._cache_get(key[0], config.label, params)
                if result is not None:
                    self._results[key] = result
                    continue
                jobs.append((key, config, workload, params))
        for name in figures:
            extra_jobs = FIGURE_REGISTRY[name].extra_jobs
            if extra_jobs is None:
                continue
            total += self._queue_extras(extra_jobs(self), queued, jobs)
        if len(jobs) > pair_jobs:
            # pending_jobs already ordered the matrix pairs; re-rank only when
            # bespoke/extra jobs joined the batch.
            jobs = self._order_jobs(jobs)
        disk_hits = self.disk_hits - disk_before
        self._run_jobs(jobs, workers)
        return {"pairs": total,
                "reused": total - len(jobs) - disk_hits,
                "disk_hits": disk_hits,
                "simulated": len(jobs)}

    def _queue_extras(self, extras: Iterable[ExtraJob],
                      queued: Set[Tuple[str, str]], jobs: List[Job]) -> int:
        """Fold extra (workload, config) cells into a pending batch.

        Deduplicates against ``queued``, counts in-memory results as reused,
        loads persistent-cache hits into the matrix, and appends the rest to
        ``jobs``.  Returns how many new cells were counted; shared by
        :meth:`prefetch` and :meth:`prefetch_extra` so the two entry points
        can never drift apart in accounting.
        """
        total = 0
        for workload, config in extras:
            key = (workload, config.label)
            if key in queued:
                continue
            queued.add(key)
            total += 1
            if key in self._results:
                continue
            params = self.scale.params_for(workload)
            result = self._cache_get(workload, config.label, params)
            if result is not None:
                self._results[key] = result
                continue
            jobs.append((key, config, workload, params))
        return total

    def prefetch_extra(self, extras: Iterable[ExtraJob],
                       workers: Optional[int] = None) -> Dict[str, int]:
        """Run explicit (workload, configuration) cells in one parallel batch.

        The sweep CLI uses this to execute a custom topology/scheme cross
        product; keys, caching and scheduling behave exactly like
        :meth:`prefetch` (network variants land in distinct cache entries, a
        warm repeat simulates nothing).
        """
        disk_before = self.disk_hits
        jobs: List[Job] = []
        total = self._queue_extras(extras, set(), jobs)
        disk_hits = self.disk_hits - disk_before
        self._run_jobs(self._order_jobs(jobs), workers)
        return {"pairs": total,
                "reused": total - len(jobs) - disk_hits,
                "disk_hits": disk_hits,
                "simulated": len(jobs)}

    def run_all(self, workers: Optional[int] = None) -> Dict[Tuple[str, str], RunResult]:
        """Force every (workload, configuration) pair to run; returns the cache.

        With ``workers > 1`` the not-yet-cached pairs are farmed out to a
        process pool (each pair is an independent simulation); the merged
        results are identical to a serial run.
        """
        pairs = {(workload, kind) for workload in self.workloads for kind in self.kinds}
        self._run_jobs(self.pending_jobs(pairs), workers)
        return dict(self._results)

    # -- convenience views ---------------------------------------------------------
    def speedup(self, workload: str, kind: "SystemKind | str",
                baseline: "SystemKind | str" = SystemKind.DRAM) -> float:
        return self.result(workload, kind).speedup_over(self.result(workload, baseline))

    def benchmark_names(self) -> List[str]:
        return [w for w in self.workloads if w in BENCHMARKS]

    def micro_names(self) -> List[str]:
        return [w for w in self.workloads if w in MICROBENCHMARKS]

    @property
    def config_labels(self) -> List[str]:
        return [k.value for k in self.kinds]

    def verified(self) -> bool:
        """True when every cached Active-Routing run produced correct reductions."""
        return all(r.flows_verified for r in self._results.values())
