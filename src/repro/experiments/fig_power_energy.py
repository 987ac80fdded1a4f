"""Figures 5.5, 5.6 and 5.7 — power, energy and energy-delay product.

All three figures share the same structure: per workload, each configuration's
cache / memory / network breakdown is normalized to the DRAM baseline of the
same workload; the EDP figure additionally reports the geomean EDP reduction of
the ARF schemes relative to the HMC baseline (the paper's 75% / 88% claim).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import format_table, geomean_speedup
from ..power.energy_model import EnergyBreakdown
from ..system import SystemKind
from .panels import (breakdown_rows, pair_jobs, panel_rows, panel_sections,
                     render_breakdown)
from .suite import EvaluationSuite, Job

COMPONENTS = ("cache", "memory", "network")


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every suite pair plus the DRAM baseline (shared by figures 5.5-5.7)."""
    return pair_jobs(suite, [*suite.kinds, SystemKind.DRAM])


def _breakdown_metric(breakdown: EnergyBreakdown, metric: str) -> Dict[str, float]:
    if metric == "power":
        scale = 1.0 / breakdown.runtime_s if breakdown.runtime_s > 0 else 0.0
    elif metric == "energy":
        scale = 1.0
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return {
        "cache": breakdown.cache_j * scale,
        "memory": breakdown.memory_j * scale,
        "network": breakdown.network_j * scale,
        "total": breakdown.total_j * scale,
    }


def _compute_normalized(suite: EvaluationSuite, metric: str) -> Dict[str, Dict[str, Dict[str, float]]]:
    def parts(workload: str, kind: SystemKind) -> Dict[str, float]:
        dram = _breakdown_metric(suite.result(workload, SystemKind.DRAM).energy, metric)
        base_total = dram["total"] or 1.0
        values = _breakdown_metric(suite.result(workload, kind).energy, metric)
        return {part: value / base_total for part, value in values.items()}
    return breakdown_rows(suite, suite.kinds, parts)


def compute_power(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 5.5: power breakdown normalized to DRAM."""
    return _compute_normalized(suite, "power")


def compute_energy(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 5.6: energy breakdown normalized to DRAM."""
    return _compute_normalized(suite, "energy")


def compute_edp(suite: EvaluationSuite) -> Dict[str, object]:
    """Figure 5.7: EDP normalized to DRAM, plus geomean reductions vs HMC."""
    def edp_row(workload: str) -> Dict[str, float]:
        dram_edp = suite.result(workload, SystemKind.DRAM).energy.edp or 1.0
        return {kind.value: suite.result(workload, kind).energy.edp / dram_edp
                for kind in suite.kinds}
    panels = panel_rows(suite, edp_row)
    reduction_vs_hmc: Dict[str, float] = {}
    all_rows = [row for rows in panels.values() for row in rows.values()]
    for label in ("ARF-tid", "ARF-addr", "ART"):
        ratios = []
        for row in all_rows:
            hmc = row.get("HMC", 0.0)
            if hmc > 0 and label in row and row[label] > 0:
                ratios.append(hmc / row[label])
        if ratios:
            improvement = geomean_speedup(ratios)
            reduction_vs_hmc[label] = 1.0 - 1.0 / improvement if improvement > 0 else 0.0
    return {"panels": panels, "edp_reduction_vs_hmc": reduction_vs_hmc}


def render_power(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return render_breakdown("Figure 5.5: Power breakdown normalized to DRAM",
                            data, COMPONENTS, "{:.3f}")


def render_energy(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return render_breakdown("Figure 5.6: Energy breakdown normalized to DRAM",
                            data, COMPONENTS, "{:.3f}")


def render_edp(data: Dict[str, object]) -> str:
    lines: List[str] = ["Figure 5.7: Energy-delay product normalized to DRAM"]
    for _panel, heading, rows in panel_sections(data["panels"]):
        labels = list(next(iter(rows.values())).keys())
        lines.append("")
        lines.append(heading)
        table_rows = [[w] + [rows[w][label] for label in labels] for w in rows]
        lines.append(format_table(["workload"] + labels, table_rows, float_format="{:.3f}"))
    lines.append("")
    for label, reduction in data["edp_reduction_vs_hmc"].items():
        lines.append(f"{label}: EDP reduced by {reduction * 100.0:.0f}% vs HMC (geomean)")
    return "\n".join(lines)


def run_power(suite: EvaluationSuite) -> str:
    return render_power(compute_power(suite))


def run_energy(suite: EvaluationSuite) -> str:
    return render_energy(compute_energy(suite))


def run_edp(suite: EvaluationSuite) -> str:
    return render_edp(compute_edp(suite))
