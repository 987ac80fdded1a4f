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
from .suite import EvaluationSuite, Job

COMPONENTS = ("cache", "memory", "network")


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every suite pair plus the DRAM baseline (shared by figures 5.5-5.7)."""
    names = suite.benchmark_names() + suite.micro_names()
    return [suite.job(workload, kind) for workload in names
            for kind in [*suite.kinds, SystemKind.DRAM]]


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
    panels: Dict[str, Dict[str, Dict[str, float]]] = {"benchmarks": {}, "microbenchmarks": {}}
    for panel, names in (("benchmarks", suite.benchmark_names()),
                         ("microbenchmarks", suite.micro_names())):
        for workload in names:
            dram = _breakdown_metric(suite.result(workload, SystemKind.DRAM).energy, metric)
            base_total = dram["total"] or 1.0
            row: Dict[str, float] = {}
            for kind in suite.kinds:
                breakdown = _breakdown_metric(suite.result(workload, kind).energy, metric)
                for component in COMPONENTS:
                    row[f"{kind.value}.{component}"] = breakdown[component] / base_total
                row[f"{kind.value}.total"] = breakdown["total"] / base_total
            panels[panel][workload] = row
    return panels


def compute_power(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 5.5: power breakdown normalized to DRAM."""
    return _compute_normalized(suite, "power")


def compute_energy(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 5.6: energy breakdown normalized to DRAM."""
    return _compute_normalized(suite, "energy")


def compute_edp(suite: EvaluationSuite) -> Dict[str, object]:
    """Figure 5.7: EDP normalized to DRAM, plus geomean reductions vs HMC."""
    panels: Dict[str, Dict[str, Dict[str, float]]] = {"benchmarks": {}, "microbenchmarks": {}}
    for panel, names in (("benchmarks", suite.benchmark_names()),
                         ("microbenchmarks", suite.micro_names())):
        for workload in names:
            dram_edp = suite.result(workload, SystemKind.DRAM).energy.edp or 1.0
            panels[panel][workload] = {
                kind.value: suite.result(workload, kind).energy.edp / dram_edp
                for kind in suite.kinds
            }
    reduction_vs_hmc: Dict[str, float] = {}
    all_rows = {**panels["benchmarks"], **panels["microbenchmarks"]}
    for label in ("ARF-tid", "ARF-addr", "ART"):
        ratios = []
        for row in all_rows.values():
            hmc = row.get("HMC", 0.0)
            if hmc > 0 and label in row and row[label] > 0:
                ratios.append(hmc / row[label])
        if ratios:
            improvement = geomean_speedup(ratios)
            reduction_vs_hmc[label] = 1.0 - 1.0 / improvement if improvement > 0 else 0.0
    return {"panels": panels, "edp_reduction_vs_hmc": reduction_vs_hmc}


def _render_breakdown(title: str, data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    lines: List[str] = [title]
    for panel, rows in data.items():
        if not rows:
            continue
        configs = sorted({key.split(".")[0] for row in rows.values() for key in row})
        lines.append("")
        lines.append(f"({'a' if panel == 'benchmarks' else 'b'}) {panel}")
        headers = ["workload", "config"] + list(COMPONENTS) + ["total"]
        table_rows = []
        for workload, row in rows.items():
            for config in configs:
                table_rows.append([workload, config]
                                  + [row.get(f"{config}.{c}", 0.0) for c in COMPONENTS]
                                  + [row.get(f"{config}.total", 0.0)])
        lines.append(format_table(headers, table_rows, float_format="{:.3f}"))
    return "\n".join(lines)


def render_power(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return _render_breakdown("Figure 5.5: Power breakdown normalized to DRAM", data)


def render_energy(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return _render_breakdown("Figure 5.6: Energy breakdown normalized to DRAM", data)


def render_edp(data: Dict[str, object]) -> str:
    panels = data["panels"]
    lines: List[str] = ["Figure 5.7: Energy-delay product normalized to DRAM"]
    for panel, rows in panels.items():
        if not rows:
            continue
        labels = list(next(iter(rows.values())).keys())
        lines.append("")
        lines.append(f"({'a' if panel == 'benchmarks' else 'b'}) {panel}")
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
