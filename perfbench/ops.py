"""One benchmark process: runs operations of one workload and reports them.

``run.py`` starts this file as a child process with ``src`` on the path, so
the simulator is imported fresh and with no ``REPRO_*`` knob in the
environment.  The child prints one JSON object as its last stdout line: the
list of operations it ran, each with its phase spans, its exact counts and,
when profiled, its per-layer profile.

Kernel workloads (``pagerank-arf``, ``pagerank-hmc``, ``mac-art``) run many
operations in one process until the time budget is spent.  An operation is
generate -> build -> simulate -> collect, timed phase by phase from outside
through the public entry points.  ``figures-tiny`` runs one operation per
process, because its set-up time is the import of ``repro.experiments``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import attribute

#: Kernel workloads: (workload, system configuration, full size, tiny size).
KERNELS = {
    "pagerank-arf": ("pagerank", "ARF-tid",
                     {"num_vertices": 4096, "avg_degree": 3},
                     {"num_vertices": 192, "avg_degree": 4}),
    "pagerank-hmc": ("pagerank", "HMC",
                     {"num_vertices": 4096, "avg_degree": 3},
                     {"num_vertices": 192, "avg_degree": 4}),
    "mac-art": ("mac", "ART",
                {"array_elements": 6144},
                {"array_elements": 1536}),
}
FIGURES = "figures-tiny"
NUM_THREADS = 4
#: Pool size of an untraced ``figures-tiny`` operation (capped by the CPUs).
FIGURE_WORKERS = 2
#: Figure subset rendered by ``--tiny`` runs, which only check the benchmark.
TINY_FIGURES = ["speedup"]
#: Rough cost of profiling an operation, for planning the time budget.
PROFILE_SLOWDOWN = 3.0


class OpFailed(Exception):
    """An operation finished but its outputs are wrong."""


class Spans:
    """Phase spans of one operation, kept in memory until the process ends."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self.durations: Dict[str, float] = {}

    def timed(self, name: str, call, *args, **kwargs):
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.records.append({"name": name, "parent": "op",
                                 "start": start, "end": end})
            self.durations[name] = end - start


def reset_peak_rss() -> None:
    """Reset this process's peak-RSS mark so the next reading covers one
    operation (where the kernel does not allow it, the mark keeps the
    process's peak so far)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    if who == resource.RUSAGE_SELF:
        try:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- exact counts ---------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def registry_counts(system, result) -> Dict[str, float]:
    """Per-layer counts of one finished kernel run, each read from the stats
    registry under the exact counter name the component registers.

    Names are built from the machine's own components, so a counter that
    merely shares a prefix (``hmc.cube0.vault3.bytes`` against
    ``hmc.cube0.vault3.accesses``) is never summed in.
    """
    counters = system.sim.stats.counters()
    get = counters.get

    def total(names) -> float:
        return sum(get(name, 0.0) for name in names)

    cores = system.cmp.cores
    out = {
        "sim.events": float(result.events_executed),
        "system.sim_cycles": float(result.cycles),
        "cpu.instructions": total(f"{core.name}.instructions" for core in cores),
        "cpu.l1_accesses": get("cache.l1_accesses", 0.0),
        "cpu.l1_hit_rate": _ratio(get("cache.l1_hits", 0.0),
                                  get("cache.l1_accesses", 0.0)),
        "cpu.stall_cycles": sum(
            value for core in cores
            for name, value in counters.items()
            if name.startswith(f"{core.name}.stall.")),
        "dram.bytes": get("dram.bytes", 0.0),
    }
    cubes = getattr(system.memory, "cubes", [])
    engines = [cube.are.name for cube in cubes if cube.are is not None]
    reservations = total(f"{are}.opbuf.reservations" for are in engines)
    failures = total(f"{are}.opbuf.reserve_failures" for are in engines)
    out.update({
        "core.updates_received": total(f"{are}.updates_received" for are in engines),
        "core.operand_reads_served": total(
            f"{are}.operand_reads_served" for are in engines),
        "core.operand_buffer_stalls": total(
            f"{are}.operand_buffer_stalls" for are in engines),
        "core.opbuf_reserve_ok": _ratio(reservations, reservations + failures),
    })
    hops = get("network.hops", 0.0)
    out.update({
        "network.injected": get("network.injected", 0.0),
        "network.hops": hops,
        "network.bytes": get("network.bytes", 0.0),
        "network.queue_delay_per_hop": _ratio(
            get("network.queue_delay_cycles", 0.0), hops),
    })
    vaults = [vault.name for cube in cubes for vault in cube.vaults]
    banks = [f"{vault}.bank{index}" for vault in vaults
             for index in range(system.memory.mapping.banks_per_vault)] \
        if cubes else []
    bank_accesses = total(f"{bank}.accesses" for bank in banks)
    out.update({
        "hmc.vault_accesses": total(f"{vault}.accesses" for vault in vaults),
        "hmc.bank_queue_wait_cycles": total(
            f"{bank}.queue_wait_cycles" for bank in banks),
        "hmc.row_hit_rate": _ratio(total(f"{bank}.row_hit" for bank in banks),
                                   bank_accesses),
    })
    return out


def result_counts(results) -> Dict[str, float]:
    """Per-layer counts summed over a batch of :class:`RunResult`\\ s.

    The evaluation suite keeps results, not machines, so only the counts a
    result carries are available; the registry-only ones (vault, bank and
    operand-buffer counters) read 0 on ``figures-tiny``.  ``dram.bytes`` is
    the DRAM baseline runs' channel traffic.
    """
    out = dict.fromkeys(
        ("sim.events", "system.sim_cycles", "cpu.instructions",
         "cpu.l1_accesses", "cpu.stall_cycles", "dram.bytes",
         "network.injected", "network.hops", "network.bytes",
         "core.updates_received", "core.operand_reads_served",
         "core.operand_buffer_stalls"), 0.0)
    l1_hits = queue_delay = 0.0
    for result in results:
        out["sim.events"] += result.events_executed
        out["system.sim_cycles"] += result.cycles
        out["cpu.instructions"] += result.instructions
        l1_accesses = result.cache_stats.get("l1_accesses", 0.0)
        out["cpu.l1_accesses"] += l1_accesses
        l1_hits += result.cache_stats.get("l1_hit_rate", 0.0) * l1_accesses
        out["cpu.stall_cycles"] += sum(result.stall_breakdown.values())
        if result.config == "DRAM":
            out["dram.bytes"] += result.data_movement.get("network_total", 0.0)
        for name in ("injected", "hops", "bytes"):
            out[f"network.{name}"] += result.network_stats.get(name, 0.0)
        queue_delay += result.network_stats.get("queue_delay_cycles", 0.0)
        for name in ("updates_received", "operand_reads_served",
                     "operand_buffer_stalls"):
            out[f"core.{name}"] += sum(result.per_cube.get(name, {}).values())
    out["cpu.l1_hit_rate"] = _ratio(l1_hits, out["cpu.l1_accesses"])
    out["network.queue_delay_per_hop"] = _ratio(queue_delay, out["network.hops"])
    return out


# -- kernel workloads --------------------------------------------------------------

def kernel_op(name: str, seed: int, tiny: bool, profiler=None) -> Dict[str, object]:
    """One generate -> build -> simulate -> collect pass, timed per phase.

    The caller has already collected the previous operation's garbage, so no
    full collection over a dead machine lands in the timed region.
    """
    from repro.system import build_system, collect_results, make_system_config
    from repro.system.runner import DEFAULT_MAX_EVENTS
    from repro.workloads import WorkloadConfig, make_workload

    workload, config_name, full, small = KERNELS[name]
    params = small if tiny else full
    spans = Spans()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        config = make_system_config(config_name)
        mode = "active" if config.kind.uses_active_routing else "baseline"
        program = spans.timed(
            "workloads.gen_s", lambda: make_workload(
                workload, WorkloadConfig(num_threads=NUM_THREADS, seed=seed),
                **params).generate(mode))

        def build():
            system = build_system(config)
            system.cmp.load_program(program)
            return system

        system = spans.timed("system.build_s", build)
        setup_end = time.perf_counter()
        system.cmp.start()
        spans.timed("sim.run_s", system.sim.run_until_idle,
                    max_events=DEFAULT_MAX_EVENTS)
        if not system.cmp.all_done:
            raise OpFailed(f"{name}: unfinished cores")
        result = spans.timed("system.collect_s", collect_results, system, program)
    finally:
        if profiler is not None:
            profiler.disable()
    end = time.perf_counter()
    checked, mismatched = result.flow_checks
    if mismatched:
        raise OpFailed(f"{name}: {mismatched} of {checked} flows mismatched")
    if config.kind.uses_active_routing and checked == 0:
        raise OpFailed(f"{name}: no reduction flow was checked")
    return {"wall_s": end - start, "setup_s": setup_end - start,
            "spans": spans.records, "phases": spans.durations,
            "flows_checked": checked,
            "counts": registry_counts(system, result)}


def run_kernel(args) -> List[Dict[str, object]]:
    """Operations until the budget is spent; profiled ones alternate with
    plain ones under ``--profile`` so the overhead ratio compares neighbours."""
    import cProfile

    import repro.system  # noqa: F401  (import cost stays out of every op)

    ops: List[Dict[str, object]] = []
    deadline = time.perf_counter() + args.seconds
    # Longest operation seen so far; an unprofiled one stands in for a
    # profiled neighbour at PROFILE_SLOWDOWN times its length.
    longest = 0.0
    while True:
        profiled = args.profile and len(ops) % 2 == 1
        minimum = 2 if args.profile else 3
        if len(ops) >= minimum and time.perf_counter() + longest > deadline:
            break
        gc.collect()
        reset_peak_rss()
        profiler = cProfile.Profile() if profiled else None
        op = attempt(kernel_op, args.workload, args.seed, args.tiny, profiler)
        op["peak_rss_mib"] = peak_rss_mib()
        if profiler is not None and op["ok"]:
            op["profile"] = attribute(profiler)
        op["profiled"] = profiled
        scale = PROFILE_SLOWDOWN if args.profile and not profiled else 1.0
        longest = max(longest, op.get("wall_s", 0.0) * scale)
        ops.append(op)
        del op, profiler
        gc.collect()
    return ops


def attempt(call, *args) -> Dict[str, object]:
    """Run one operation; any exception is a failed operation, not a crash."""
    try:
        op = call(*args)
    except Exception as error:  # the benchmark counts failures, it must go on
        print(f"operation failed: {type(error).__name__}: {error}",
              file=sys.stderr)
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}
    op["ok"] = True
    return op


# -- figures-tiny ------------------------------------------------------------------

def figures_op(args) -> Dict[str, object]:
    """Import, construct, cold prefetch + render, then a warm re-run that
    must simulate nothing and render the same bytes."""
    import cProfile

    work = Path(tempfile.mkdtemp(prefix="suite-", dir=args.work_dir))
    try:
        spans = Spans()
        start = time.perf_counter()
        experiments = spans.timed("setup.import_s", importlib.import_module,
                                  "repro.experiments")
        workers = 1 if args.profile or args.in_process else \
            min(FIGURE_WORKERS, os.cpu_count() or 1)
        figures = TINY_FIGURES if args.tiny else None
        suite = spans.timed("setup.construct_s", experiments.EvaluationSuite,
                            "tiny", workers=workers, cache_dir=work / "cache")
        setup_s = time.perf_counter() - start
        if args.setup_only:
            return {"setup_s": setup_s, "spans": spans.records}
        profiler = cProfile.Profile() if args.profile else None
        if profiler is not None:
            profiler.enable()
        try:
            cold = spans.timed("experiments.prefetch_s", suite.prefetch,
                               figures=figures)
            report = spans.timed("experiments.render_s", experiments.full_report,
                                 suite, figures=figures)
        finally:
            if profiler is not None:
                profiler.disable()
        phases = spans.durations
        wall_s = phases["experiments.prefetch_s"] + phases["experiments.render_s"]
        peak = peak_rss_mib(resource.RUSAGE_CHILDREN if workers > 1
                            else resource.RUSAGE_SELF)
        # Key order, so float sums do not depend on which worker finished first.
        results = [suite._results[key] for key in sorted(suite._results)]
        if cold["simulated"] != cold["pairs"]:
            raise OpFailed(f"cold prefetch simulated {cold['simulated']} of "
                           f"{cold['pairs']} pairs")
        if not suite.verified():
            raise OpFailed("an Active-Routing reduction did not match the host")

        def warm_pass():
            warm = experiments.EvaluationSuite("tiny", workers=workers,
                                               cache_dir=work / "cache")
            return warm.prefetch(figures=figures), \
                experiments.full_report(warm, figures=figures)

        warm, warm_report = spans.timed("experiments.warm_s", warm_pass)
        if warm["simulated"]:
            raise OpFailed(f"warm prefetch simulated {warm['simulated']} pairs")
        if warm_report != report:
            raise OpFailed("warm report differs from the cold one")
        job_walls = sorted(float(r.metadata.get("wall_s", 0.0)) for r in results)
        counts = result_counts(results)
        counts["experiments.jobs_simulated"] = float(cold["simulated"])
        op = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mib": peak,
              "spans": spans.records, "phases": phases, "counts": counts,
              "workers": workers, "job_walls": job_walls}
        if profiler is not None:
            op["profile"] = attribute(profiler)
        return op
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_figures(args) -> List[Dict[str, object]]:
    op = attempt(figures_op, args)
    op["profiled"] = bool(args.profile)
    return [op]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(KERNELS) + [FIGURES])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--in-process", action="store_true",
                        help="figures-tiny: simulate in this process (workers=1)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True,
                        help="directory for figures-tiny run caches")
    args = parser.parse_args(argv)
    if args.workload == FIGURES:
        ops = run_figures(args)
    else:
        ops = run_kernel(args)
    print(json.dumps({"ops": ops}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
