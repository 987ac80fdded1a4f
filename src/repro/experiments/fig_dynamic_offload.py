"""Figure 5.8 — LUD phase analysis and dynamic offloading (Section 5.4).

Three runs of the LUD kernel are compared:

* **HMC** — everything on the host (baseline trace on the HMC configuration);
* **ARF-tid** — everything offloaded;
* **ARF-tid-adaptive** — the dynamic-offloading knob: rows whose
  updates-per-flow fall below the paper's threshold
  (``CACHE_BLK_SIZE/stride1 + CACHE_BLK_SIZE/stride2``) run on the host, the
  rest are offloaded.

The module reports IPC-over-instruction-window curves (left panel) and the
speedup of ARF and ARF-adaptive over the HMC baseline (right panel), including
the crossover point where offloading starts to win.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import crossover_index, format_table, windowed_rates
from ..core.offload import DynamicOffloadPolicy
from ..system import RunResult, SystemKind
from ..workloads import WorkloadConfig
from ..workloads.lud import LUDWorkload
from .suite import EvaluationSuite, Job

#: The three runs, in :func:`jobs` order.
RUNS = ("HMC", "ARF-tid", "ARF-tid-adaptive")


def jobs(suite: EvaluationSuite, workload: str = "lud") -> List[Job]:
    """The three LUD phase runs (:data:`RUNS` order) as bespoke jobs.

    Each replays a ready-built LUD trace, keyed ``bespoke:<workload>-<run>``.
    The configs come from ``config_for``, so a suite-wide network override
    applies here too: a mesh-suite report replays the traces on the mesh,
    and the config label keeps the variants apart.
    """
    params = suite.scale.params_for(workload)
    threads = suite.scale.num_threads
    hmc = suite.config_for(SystemKind.HMC)
    arf = suite.config_for(SystemKind.ARF_TID)
    return [
        ((f"bespoke:{workload}-baseline", hmc.label), hmc,
         _lud(params, threads), params),
        ((f"bespoke:{workload}-offload", arf.label), arf,
         _lud(params, threads), params),
        ((f"bespoke:{workload}-adaptive", arf.label), arf,
         _lud(params, threads, policy=DynamicOffloadPolicy()), params),
    ]


def _lud(scale_params: Dict[str, object], num_threads: int,
         policy: Optional[DynamicOffloadPolicy] = None) -> LUDWorkload:
    return LUDWorkload(WorkloadConfig(num_threads=num_threads), offload_policy=policy,
                       **scale_params)


def compute(suite: EvaluationSuite, workload: str = "lud") -> Dict[str, object]:
    runs: Dict[str, RunResult] = {
        label: suite.job_result(job)
        for label, job in zip(RUNS, jobs(suite, workload))}

    ipc_curves: Dict[str, List[Tuple[float, float]]] = {
        label: windowed_rates(result.ipc_samples) for label, result in runs.items()
    }
    speedups = {label: runs["HMC"].cycles / result.cycles if result.cycles else 0.0
                for label, result in runs.items()}

    arf_curve = [rate for _, rate in ipc_curves.get("ARF-tid", [])]
    hmc_curve = [rate for _, rate in ipc_curves.get("HMC", [])]
    crossover = crossover_index(arf_curve, hmc_curve)
    return {"runs": {label: r.cycles for label, r in runs.items()},
            "speedups": speedups,
            "ipc_curves": ipc_curves,
            "crossover_window": crossover,
            "threshold": DynamicOffloadPolicy().updates_threshold(8, 8 * 64)}


def render(data: Dict[str, object]) -> str:
    lines = ["Figure 5.8: LUD phase analysis and dynamic offloading"]
    lines.append("")
    lines.append("Runtime (cycles) and speedup over HMC:")
    rows = [[label, data["runs"][label], data["speedups"][label]]
            for label in RUNS]
    lines.append(format_table(["config", "cycles", "speedup"], rows, float_format="{:.2f}"))
    crossover = data["crossover_window"]
    lines.append("")
    if crossover is None:
        lines.append("No IPC crossover observed within the sampled windows.")
    else:
        lines.append(f"ARF-tid IPC overtakes HMC at sample window #{crossover}.")
    lines.append("")
    lines.append("IPC over instruction windows (cycle, IPC):")
    for label, curve in data["ipc_curves"].items():
        points = ", ".join(f"({c:.0f}, {r:.2f})" for c, r in curve[:12])
        lines.append(f"  {label:18s} {points}")
    return "\n".join(lines)


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))
