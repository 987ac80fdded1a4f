#!/usr/bin/env python3
"""Repository benchmark: end-to-end host time of the simulator, by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pagerank-arf --seed 7 --seconds 25 --trace 0

Workloads (every one closed-loop: each simulated core issues its trace with
a fixed window, 4 threads, workload seed ``--seed``):

* ``pagerank-arf`` -- PageRank, 4096 vertices, degree 3, on ``ARF-tid``;
* ``pagerank-hmc`` -- the same graph on the ``HMC`` baseline;
* ``mac-art``      -- the ``mac`` microbenchmark, 6144 elements, on ``ART``;
* ``figures-tiny`` -- a cold prefetch of every figure at the ``tiny`` scale
  into a fresh run cache, the full report render, and a warm re-run.

``--trace 0`` times operations and checks their outputs; it reports the
``end_to_end`` metrics of ``BENCHMARK.json``.  ``--trace 1`` is a separate run
that profiles operations and reports the ``per_layer`` metrics.  Every time
is host time unless its name says ``sim_``.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table.  The spans of every operation are written to
``.bench_build/perfbench/out/`` when the run ends.

``--tiny`` shrinks every workload to seconds; the benchmark's own test uses
it.  The benchmark sets no ``REPRO_*`` variable (it removes any it inherits)
and writes only under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
#: Wall-clock limit for one run, with its set-up; the contract allows 180 s.
RUN_LIMIT_S = 165.0
#: Set-up samples a ``figures-tiny`` run takes at least (one per operation,
#: the rest from processes that only set up).
MIN_SETUP_SAMPLES = 5
#: A ``figures-tiny`` operation takes about ten seconds; a median needs two.
MIN_FIGURE_OPS = 2


class Child:
    """Starts ``ops.py`` processes in a clean, reproducible environment."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update({"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"})
        # A pycache prefix would hide the interpreter's own compiled standard
        # library, so the sources compile in place (``__pycache__`` is ignored).
        env.pop("PYTHONPYCACHEPREFIX", None)
        self.env = env

    def compile(self) -> None:
        """Byte-compile the sources once, so no operation pays for it."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src"), str(HERE)],
                       env=self.env, check=True, stdout=subprocess.DEVNULL,
                       timeout=self.remaining())

    def remaining(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def ops(self, *args: str) -> List[Dict[str, object]]:
        """Run one child; a crash or timeout is one failed operation.

        The child leads its own process group, so a timeout also stops the
        pool workers a ``figures-tiny`` operation started.
        """
        command = [sys.executable, str(HERE / "ops.py"), *args]
        with subprocess.Popen(command, env=self.env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              start_new_session=True) as child:
            try:
                stdout, _ = child.communicate(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                return [{"ok": False, "error": "timed out"}]
        lines = stdout.strip().splitlines()
        try:
            if child.returncode == 0 and lines:
                return json.loads(lines[-1])["ops"]
        except (ValueError, KeyError):
            pass
        return [{"ok": False, "error": f"exit code {child.returncode}"}]


def run_ops(child: Child, args) -> List[Dict[str, object]]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", str(BUILD / "tmp")] + (["--tiny"] if args.tiny else [])
    if args.workload != "figures-tiny":
        extra = ["--profile"] if args.trace else []
        return child.ops(*common, "--seconds", str(args.seconds), *extra)
    if args.trace:
        # Like for like: the profiler needs the simulations in-process, so the
        # reference operation runs in-process too.
        return child.ops(*common, "--in-process") + child.ops(*common, "--profile")
    ops: List[Dict[str, object]] = []
    start = time.perf_counter()
    longest = 0.0
    while len(ops) < MIN_FIGURE_OPS or \
            time.perf_counter() - start + longest <= args.seconds:
        begun = time.perf_counter()
        ops += child.ops(*common)
        longest = max(longest, time.perf_counter() - begun)
    setups = sum(1 for op in ops if op["ok"])
    for _ in range(MIN_SETUP_SAMPLES - setups):
        probe = child.ops(*common, "--setup-only")[0]
        probe["setup_probe"] = True
        ops.append(probe)
    return ops


# -- aggregation --------------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(ops) -> Dict[str, List[float]]:
    """Samples of each end-to-end metric over the run's operations."""
    done = [op for op in ops if op["ok"] and not op.get("setup_probe")]
    setups = [op["setup_s"] for op in ops if op["ok"]]
    return {"wall_s": [op["wall_s"] for op in done],
            "setup_s": setups,
            "peak_rss_mib": [op["peak_rss_mib"] for op in done]}


def per_layer(ops, workload: str) -> Dict[str, List[float]]:
    """Per-layer samples from a traced run's profiled operations."""
    traced = [op for op in ops if op["ok"] and op["profiled"]]
    plain = [op for op in ops if op["ok"] and not op["profiled"]]
    out: Dict[str, List[float]] = {}
    if not traced:
        return out
    # Profile sums are averaged (a mean keeps layer self times adding up to
    # the profiled total); spans and counts are per operation.
    for name in traced[0]["profile"]:
        out[name] = [mean(op["profile"][name] for op in traced)]
    for name in traced[0]["counts"]:
        out[name] = [op["counts"][name] for op in traced]
    if workload == "figures-tiny":
        for name in ("workloads.gen_s", "system.build_s", "system.collect_s",
                     "sim.run_s"):
            out[name] = out.pop(f"profile.{name}")
        op = traced[0]
        for name in ("experiments.prefetch_s", "experiments.render_s",
                     "experiments.warm_s"):
            out[name] = [op["phases"][name]]
        walls = op["job_walls"]
        quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        out["experiments.job_s_p50"] = [statistics.median(walls)]
        out["experiments.job_s_p75"] = [quartiles[2]]
        out["experiments.pool_utilization"] = [
            sum(walls) / (op["workers"] * op["phases"]["experiments.prefetch_s"])]
    else:
        for name in traced[0]["phases"]:
            out[name] = [op["phases"][name] for op in traced]
    out["sim.us_per_event"] = [
        1e6 * median(out["sim.run_s"]) / max(1.0, median(out["sim.events"]))]
    out["trace.overhead"] = [
        median(op["wall_s"] for op in traced) / median(op["wall_s"] for op in plain)
        if plain else 0.0]
    return out


def counts_disagree(ops) -> Optional[str]:
    """Every operation of a run simulates the same inputs, so any exact count
    that differs between two of them, profiled or not, is a wrong output."""
    done = [op for op in ops if op["ok"] and "counts" in op]
    for op in done[1:]:
        diff = sorted(name for name, value in done[0]["counts"].items()
                      if op["counts"][name] != value)
        if diff:
            return f"counts differ between operations: {', '.join(diff)}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7; confirm claims on 11)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    child = Child()
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    child.compile()
    ops = run_ops(child, args)

    samples = per_layer(ops, args.workload) if args.trace else end_to_end(ops)
    timed = [op for op in ops if not op.get("setup_probe")]
    attempted = len(timed)
    failed = sum(1 for op in timed if not op["ok"])
    if any(not op["ok"] for op in ops if op.get("setup_probe")):
        failed += 1
    problem = counts_disagree(ops)
    if problem:
        print(problem, file=sys.stderr)
        failed = attempted

    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans_file.write_text(json.dumps({"workload": args.workload,
                                      "seed": args.seed, "ops": ops}, indent=1))

    metrics = {}
    for entry in wanted:
        values = samples.get(entry["name"], [])
        value = median(values)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        spread = f"  (min {min(values):.6g}, max {max(values):.6g})" \
            if len(values) > 1 else ""
        print(f"{entry['name']:34s} {value:14.6g} {entry['unit']:8s} "
              f"n={len(values)}{spread}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
