"""Figure 5.3 — LUD operand-buffer stalls and Update/operand distribution heat maps.

Runs LUD under ARF-tid and ARF-addr and reports, for every cube of the memory
network, the number of operand-buffer stall events, the number of Updates
computed at that cube and the number of operands served by that cube — the
three heat maps of the figure — plus imbalance summaries (the paper's point is
that ARF-tid distributes Updates more evenly than ARF-addr).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import heatmap_summary, render_heatmap
from ..system import SystemKind
from .suite import EvaluationSuite, Job

METRICS = ("operand_buffer_stalls", "updates_received", "operand_reads_served")
SCHEMES = (SystemKind.ARF_TID, SystemKind.ARF_ADDR)


def jobs(suite: EvaluationSuite, workload: str = "lud") -> List[Job]:
    """LUD under both forest schemes, regardless of the suite's workload list."""
    return [suite.job(workload, kind) for kind in SCHEMES]


def compute(suite: EvaluationSuite, workload: str = "lud") -> Dict[str, Dict[str, object]]:
    """heat[config][metric] = {cube: count}; heat[config]["summary"][metric] = stats."""
    out: Dict[str, Dict[str, object]] = {}
    for kind in SCHEMES:
        result = suite.result(workload, kind)
        per_cube = result.per_cube
        entry: Dict[str, object] = {}
        summaries: Dict[str, Dict[str, float]] = {}
        for metric in METRICS:
            counts = per_cube.get(metric, {})
            entry[metric] = counts
            summaries[metric] = heatmap_summary(counts)
        entry["summary"] = summaries
        out[kind.value] = entry
    return out


def render(data: Dict[str, Dict[str, object]], num_cubes: int = 16) -> str:
    lines = ["Figure 5.3: LUD stalls and Update/operand distribution per cube"]
    for config, entry in data.items():
        lines.append("")
        lines.append(f"== {config} ==")
        for metric in METRICS:
            counts = entry[metric]
            lines.append(render_heatmap(counts, num_cubes=num_cubes,
                                        title=f"-- {metric} --"))
            summary = entry["summary"][metric]
            lines.append(f"   total={summary['total']:.0f} imbalance(max/mean)="
                         f"{summary['imbalance']:.2f} cv={summary['cv']:.2f}")
    return "\n".join(lines)


def run(suite: EvaluationSuite) -> str:
    # Render the grid at the suite's actual cube count: a network-variant
    # suite (e.g. an 8-cube mesh) must not draw phantom always-zero cubes.
    num_cubes = suite.config_for(SCHEMES[0]).hmc_net.num_cubes
    return render(compute(suite), num_cubes=num_cubes)
