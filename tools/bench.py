#!/usr/bin/env python
"""Event-kernel benchmark harness.

Runs a fixed basket of (workload, configuration) simulations, reports
wall-clock seconds and simulated events per second for each, and appends a
labelled entry to ``BENCH_kernel.json`` so the repository carries a
machine-readable performance trajectory across PRs.

Usage::

    PYTHONPATH=src python tools/bench.py --label my-change
    PYTHONPATH=src python tools/bench.py --smoke           # tiny sizes, CI
    PYTHONPATH=src python tools/bench.py --no-write        # print only
    PYTHONPATH=src python tools/bench.py --prefetch tiny --workers 4
    PYTHONPATH=src python tools/bench.py --smoke --no-write \
        --check-against smoke-baseline --max-regression 1.5   # CI perf gate
    PYTHONPATH=src python tools/bench.py --cubes 64            # sweep scale

The basket sizes match the profiled PageRank/`ARF-tid` case the kernel fast
path was tuned on; ``--smoke`` shrinks every run to seconds-scale sizes for CI.
``--cubes N`` rebuilds every HMC-backed
configuration with an N-cube memory network (``+cN`` key suffix) — the
64-cube sweep scale exercises the event loop at much larger pending-event
counts.  ``--prefetch SCALE`` benchmarks the evaluation-suite orchestration
layer instead: a cold parallel prefetch into a throwaway cache directory,
then a warm re-run that must perform zero simulations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.system import make_system_config, run_workload  # noqa: E402

#: The fixed measurement basket: (workload, configuration, params).
BASKET = [
    ("pagerank", "ARF-tid", {"num_vertices": 4096, "avg_degree": 3}),
    ("pagerank", "HMC", {"num_vertices": 4096, "avg_degree": 3}),
    ("mac", "ARF-tid", {"array_elements": 6144}),
    ("reduce", "ART", {"array_elements": 6144}),
]

#: Seconds-scale sizes used by the CI smoke run.
SMOKE_BASKET = [
    ("pagerank", "ARF-tid", {"num_vertices": 192, "avg_degree": 4}),
    ("mac", "ARF-tid", {"array_elements": 1024}),
    ("reduce", "HMC", {"array_elements": 1024}),
]


def profile_entry(key, system_config, workload, num_threads, params, top: int = 20):
    """One instrumented (cProfile + tracemalloc) run of a basket entry.

    Runs *outside* the timed repeats so ``wall_s`` never carries profiler
    overhead.  Prints the top-``top`` functions by cumulative time and returns
    the tracemalloc peak and end-of-run traced memory (``alloc_peak_kib`` /
    ``alloc_live_kib``) recorded into the run entry.
    """
    import cProfile
    import io
    import pstats
    import tracemalloc

    tracemalloc.start()
    profiler = cProfile.Profile()
    profiler.enable()
    run_workload(system_config, workload, num_threads=num_threads, **params)
    profiler.disable()
    live_b, peak_b = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    table = io.StringIO()
    pstats.Stats(profiler, stream=table).sort_stats("cumulative").print_stats(top)
    print(f"\n--- profile {key} (top {top} by cumulative time) ---")
    print(table.getvalue().rstrip())
    columns = {
        "alloc_peak_kib": round(peak_b / 1024, 1),
        "alloc_live_kib": round(live_b / 1024, 1),
    }
    print(f"--- alloc {key}: peak {columns['alloc_peak_kib']:,.0f} KiB, "
          f"live {columns['alloc_live_kib']:,.0f} KiB ---\n")
    return columns


def run_basket(basket, num_threads: int = 4, repeat: int = 3,
               num_cubes=None, profile: bool = False):
    """Run every basket entry ``repeat`` times; keep the best wall time.

    ``num_cubes`` rebuilds each HMC-backed
    configuration with that many memory cubes and suffixes the run keys with
    ``+cN`` so entries at different network scales never alias in the
    trajectory file.  ``profile`` adds one instrumented run per entry
    (cProfile table + tracemalloc allocation columns).
    """
    runs = {}
    suffix = f"+c{num_cubes}" if num_cubes else ""
    for workload, config, params in basket:
        key = f"{workload}/{config}{suffix}"
        system_config = config
        if num_cubes and config != "DRAM":
            system_config = make_system_config(config, num_cubes=num_cubes)
        best = float("inf")
        result = None
        for _ in range(max(1, repeat)):
            start = time.perf_counter()
            result = run_workload(system_config, workload,
                                  num_threads=num_threads, **params)
            best = min(best, time.perf_counter() - start)
        runs[key] = {
            "wall_s": round(best, 3),
            "events": result.events_executed,
            "events_per_s": round(result.events_executed / best, 1),
            "cycles": result.cycles,
            "params": params,
        }
        if num_cubes:
            runs[key]["num_cubes"] = num_cubes
        print(f"{key:24s} {best:7.3f}s  {runs[key]['events_per_s']:>11,.0f} ev/s  "
              f"cycles={result.cycles:,.0f}")
        if profile:
            runs[key].update(profile_entry(key, system_config, workload,
                                           num_threads, params))
    return runs


def run_prefetch(scale: str, workers: int):
    """Cold-then-warm suite prefetch into a throwaway cache directory."""
    import tempfile

    from repro.experiments import EvaluationSuite

    runs = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        for phase in ("cold", "warm"):
            suite = EvaluationSuite(scale, workers=workers, cache_dir=tmp)
            start = time.perf_counter()
            stats = suite.prefetch()
            wall = time.perf_counter() - start
            key = f"suite-prefetch/{phase}"
            runs[key] = {
                "wall_s": round(wall, 3),
                "pairs": stats["pairs"],
                "simulated": stats["simulated"],
                "workers": workers,
                "scale": scale,
            }
            print(f"{key:24s} {wall:7.3f}s  pairs={stats['pairs']}  "
                  f"simulated={stats['simulated']}")
        if runs["suite-prefetch/warm"]["simulated"]:
            raise SystemExit("warm prefetch re-simulated; the run cache is broken")
    return runs


def check_regression(output: Path, runs, baseline_label: str, max_ratio: float) -> None:
    """Exit non-zero when any measured run is slower than ``max_ratio`` times
    the newest checked-in history entry labelled ``baseline_label``, or when
    its event count or final cycle differs from that entry's at all."""
    if not output.exists():
        raise SystemExit(f"no trajectory file at {output} to check against")
    history = json.loads(output.read_text())["history"]
    entries = [entry for entry in history if entry["label"] == baseline_label]
    if not entries:
        raise SystemExit(f"no history entry labelled {baseline_label!r} in {output}")
    baseline = entries[-1]["runs"]
    failures = []
    compared = 0
    for key, run in runs.items():
        base = baseline.get(key)
        if not base or not base.get("wall_s"):
            continue
        compared += 1
        ratio = run["wall_s"] / base["wall_s"]
        verdict = "ok" if ratio <= max_ratio else "REGRESSION"
        print(f"check {key:24s} {run['wall_s']:7.3f}s vs baseline "
              f"{base['wall_s']:7.3f}s  ({ratio:.2f}x)  {verdict}")
        if ratio > max_ratio:
            failures.append(key)
        # Determinism gate: simulated results are exact, so the event count
        # and final cycle must equal the baseline's (no tolerance).  A
        # mismatch means the simulation itself changed, not its speed.
        for field in ("events", "cycles"):
            if field in base and run.get(field) != base[field]:
                print(f"check {key:24s} {field}={run.get(field)!r} vs baseline "
                      f"{base[field]!r}  MISMATCH")
                failures.append(f"{key}[{field}]")
    if not compared:
        raise SystemExit(
            f"baseline entry {baseline_label!r} shares no run keys with this basket")
    if failures:
        raise SystemExit(
            f"benchmark gate failed against {baseline_label!r}: "
            f"{', '.join(sorted(failures))} (wall time over {max_ratio:.2f}x, "
            f"or [events]/[cycles] differing from the baseline)")
    print(f"perf gate passed: {compared} runs within {max_ratio:.2f}x "
          f"of {baseline_label!r}, event and cycle counts identical")


def append_history(output: Path, label: str, runs, num_threads: int) -> None:
    if output.exists():
        data = json.loads(output.read_text())
    else:
        data = {"benchmark": "event-kernel basket",
                "description": "Wall time and events/sec for a fixed basket of "
                               "(workload, configuration) simulations; one entry "
                               "per labelled measurement.",
                "history": []}
    data["history"].append({
        "label": label,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Wall times are only comparable between entries from the same host.
        "cpus": os.cpu_count(),
        "num_threads": num_threads,
        "runs": runs,
    })
    output.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\nappended entry {label!r} to {output}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="dev",
                        help="history entry label (e.g. a PR or commit name)")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_kernel.json",
                        help="trajectory file to append to")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per basket entry; best wall time is kept")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes (CI smoke run)")
    parser.add_argument("--cubes", type=int, default=None, metavar="N",
                        help="memory-network cube count for every HMC-backed "
                             "basket configuration (+cN run-key suffix); e.g. "
                             "64 for the large-network sweep scale")
    parser.add_argument("--profile", action="store_true",
                        help="add one instrumented run per basket entry: a "
                             "cProfile top-20 cumulative table plus tracemalloc "
                             "peak and live columns recorded into the history "
                             "entry")
    parser.add_argument("--no-write", action="store_true",
                        help="print results without touching the trajectory file")
    parser.add_argument("--prefetch", metavar="SCALE", default=None,
                        choices=("tiny", "small", "default"),
                        help="benchmark the suite prefetch (cold, then warm from "
                             "the run cache) instead of the kernel basket")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for --prefetch (0 = CPU count)")
    parser.add_argument("--check-against", metavar="LABEL", default=None,
                        help="compare this run against the newest history entry "
                             "with the given label and fail on a wall-time "
                             "regression or on any event/cycle count mismatch")
    parser.add_argument("--max-regression", type=float, default=1.5,
                        help="failure threshold for --check-against as a wall-time "
                             "ratio (default 1.5x)")
    args = parser.parse_args(argv)

    if args.prefetch:
        if args.cubes:
            parser.error("--cubes only applies to the kernel basket, not "
                         "--prefetch (the suite fixes its own network shapes)")
        if args.profile:
            parser.error("--profile instruments kernel basket entries, not "
                         "--prefetch (profile the suite with cProfile directly)")
        runs = run_prefetch(args.prefetch, workers=args.workers)
    else:
        basket = SMOKE_BASKET if args.smoke else BASKET
        runs = run_basket(basket, num_threads=args.threads,
                          repeat=args.repeat, num_cubes=args.cubes,
                          profile=args.profile)
    if args.check_against:
        check_regression(args.output, runs, args.check_against, args.max_regression)
    if not args.no_write:
        append_history(args.output, args.label, runs, args.threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
