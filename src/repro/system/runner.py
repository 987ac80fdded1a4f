"""Run driver: execute one workload on one system configuration.

This is the main entry point most users need:

>>> from repro.system import run_workload
>>> result = run_workload("ARF-tid", "mac", array_elements=2048)
>>> result.flows_verified
True
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..isa import ProgramTrace
from ..sim import SimulationError
from ..workloads import WorkloadConfig, make_workload
from ..workloads.base import Workload
from .builder import build_system
from .config import CONFIG_ORDER, SystemConfig, SystemKind, make_system_config
from .results import RunResult, collect_results

#: Safety bound on event count for a single run.
DEFAULT_MAX_EVENTS = 80_000_000

#: One simulation: ``(key, config, workload, params)``.
Job = Tuple[Tuple[str, str], SystemConfig, Union[Workload, str], Dict[str, object]]


def run_program(config: Union[SystemConfig, SystemKind, str], program: ProgramTrace,
                max_events: int = DEFAULT_MAX_EVENTS) -> RunResult:
    """Execute an already-generated program trace on the given configuration."""
    start = time.perf_counter()
    if not isinstance(config, SystemConfig):
        config = make_system_config(config)
    expected_mode = "active" if config.kind.uses_active_routing else "baseline"
    if program.mode != expected_mode:
        raise ValueError(
            f"configuration {config.label} executes {expected_mode!r} traces "
            f"but the program was generated in {program.mode!r} mode"
        )
    system = build_system(config)
    system.cmp.load_program(program)
    system.cmp.start()
    system.sim.run_until_idle(max_events=max_events)
    if not system.cmp.all_done:
        raise SimulationError(
            f"run of {program.name!r} on {system.config.label} ended with unfinished cores"
        )
    result = collect_results(system, program)
    # Measured wall time (build + simulate + collect), for profiling a batch
    # (per-job time and pool utilization).  Not part of any determinism
    # fingerprint.
    result.metadata["wall_s"] = round(time.perf_counter() - start, 6)
    return result


def run_workload(config: Union[SystemConfig, SystemKind, str],
                 workload: Union[Workload, str],
                 num_threads: Optional[int] = None,
                 workload_config: Optional[WorkloadConfig] = None,
                 max_events: int = DEFAULT_MAX_EVENTS,
                 **workload_params) -> RunResult:
    """Build the system and the workload, generate the right trace mode, run it.

    ``workload_params`` are the kernel's problem-size overrides, handed to
    :func:`~repro.workloads.make_workload`.  When ``workload`` is already a
    Workload instance the params are cache-key context only (the instance was
    built upstream).
    """
    if not isinstance(config, SystemConfig):
        config = make_system_config(config)
    program = generate_program(config, workload, num_threads=num_threads,
                               workload_config=workload_config, **workload_params)
    return run_program(config, program, max_events=max_events)


def generate_program(config: SystemConfig, workload: Union[Workload, str],
                     num_threads: Optional[int] = None,
                     workload_config: Optional[WorkloadConfig] = None,
                     **workload_params) -> ProgramTrace:
    """The trace :func:`run_workload` simulates, in ``config``'s mode.

    Every problem with the workload or its parameters (an unknown name, a
    non-positive size, more threads than cores) raises ``ValueError`` here,
    before any system is built.
    """
    if isinstance(workload, str):
        if workload_config is None:
            wconfig = WorkloadConfig()
        else:
            # Copy before overriding: the caller still owns workload_config and
            # a thread-count override must not write through into it.
            wconfig = replace(workload_config, extra=dict(workload_config.extra))
        if num_threads is not None:
            wconfig.num_threads = num_threads
        workload = make_workload(workload, wconfig, **workload_params)
    if workload.num_threads > config.cmp.num_cores:
        raise ValueError(
            f"workload uses {workload.num_threads} threads but the configuration has "
            f"only {config.cmp.num_cores} cores"
        )
    mode = "active" if config.kind.uses_active_routing else "baseline"
    return workload.generate(mode)


def normalize_workers(workers: Optional[int]) -> int:
    """Clamp a worker-count request to something the process pool accepts.

    ``0`` means "one worker per CPU core"; ``None`` and negative values fall
    back to serial execution.  Every parallel entry point (``run_jobs``,
    ``run_suite``, the evaluation suite, the CLI) funnels through this guard so
    an invalid request never reaches :class:`ProcessPoolExecutor`.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def _run_suite_job(config: SystemConfig, workload: Union[Workload, str],
                   num_threads: int, max_events: int,
                   params: Dict[str, int]) -> RunResult:
    """One (workload, configuration) simulation; module-level so worker
    processes can unpickle it."""
    return run_workload(config, workload, num_threads=num_threads,
                        max_events=max_events, **params)


def iter_jobs(jobs: List[Job], num_threads: int = 4,
              max_events: int = DEFAULT_MAX_EVENTS,
              workers: int = 1,
              ) -> Iterator[Tuple[Tuple[str, str], Union[RunResult, Exception]]]:
    """Execute independent simulation jobs, yielding ``(key, outcome)`` as each ends.

    ``jobs`` is a list of ``(key, config, workload, params)`` where
    ``workload`` is a registered name or a ready-built (picklable)
    :class:`Workload` instance.  ``outcome`` is the job's :class:`RunResult`,
    or the exception it raised: a failing job never stops the others.
    ``workers=1`` runs everything serially in-process (no executor), in job
    order; a process pool yields in completion order.
    """
    workers = normalize_workers(workers)
    if workers <= 1 or len(jobs) <= 1:
        for key, config, workload, params in jobs:
            try:
                outcome = _run_suite_job(config, workload, num_threads,
                                         max_events, params)
            except Exception as error:
                outcome = error
            yield key, outcome
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = {pool.submit(_run_suite_job, config, workload, num_threads,
                               max_events, params): key
                   for key, config, workload, params in jobs}
        for future in as_completed(futures):
            error = future.exception()
            yield futures[future], future.result() if error is None else error


def run_jobs(jobs: List[Job], num_threads: int = 4,
             max_events: int = DEFAULT_MAX_EVENTS,
             workers: int = 1) -> Dict[Tuple[str, str], RunResult]:
    """Execute independent simulation jobs (see :func:`iter_jobs`).

    The result dict is keyed and ordered by ``key`` in job order regardless of
    which worker finishes first, so parallel runs merge deterministically.
    If any job raises, every other job still runs, then the first failure in
    job order is re-raised.
    """
    outcomes = dict(iter_jobs(jobs, num_threads, max_events, workers))
    results: Dict[Tuple[str, str], RunResult] = {}
    for key, _config, _workload, _params in jobs:
        outcome = outcomes[key]
        if isinstance(outcome, Exception):
            raise outcome
        results[key] = outcome
    return results


def run_suite(workload_names: Iterable[str],
              kinds: Optional[Iterable[Union[SystemKind, str]]] = None,
              num_threads: int = 4,
              profile: str = "scaled",
              max_events: int = DEFAULT_MAX_EVENTS,
              workload_params: Optional[Dict[str, Dict[str, int]]] = None,
              workers: int = 1,
              ) -> Dict[Tuple[str, str], RunResult]:
    """Run every (workload, configuration) pair and return results keyed by
    ``(workload_name, config_label)``.

    This is the primitive every evaluation figure is derived from; figures
    share one suite run instead of re-simulating.  Each pair is an independent
    simulation, so ``workers > 1`` farms them out to a process pool; results
    are identical to (and ordered like) a ``workers=1`` serial run.
    """
    kinds = list(kinds) if kinds is not None else list(CONFIG_ORDER)
    workload_params = workload_params or {}
    jobs: List[Job] = []
    for name in workload_names:
        params = workload_params.get(name, {})
        for kind in kinds:
            config = (kind if isinstance(kind, SystemConfig)
                      else make_system_config(kind, profile=profile, num_cores=num_threads))
            jobs.append(((name, config.label), config, name, params))
    return run_jobs(jobs, num_threads=num_threads, max_events=max_events,
                    workers=workers)

