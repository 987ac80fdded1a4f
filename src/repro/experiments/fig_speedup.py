"""Figure 5.1 — runtime speedup over the DRAM baseline.

Reproduces both panels (benchmarks and microbenchmarks) plus the summary
numbers quoted in Section 5.2.1 (geomean speedups and the ARF improvement over
the HMC baseline).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import format_grouped_bars, format_table, geomean_speedup
from ..system import SystemKind
from .suite import EvaluationSuite, Job


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every suite pair plus the DRAM baseline each speedup divides by."""
    names = suite.benchmark_names() + suite.micro_names()
    return [suite.job(workload, kind) for workload in names
            for kind in [*suite.kinds, SystemKind.DRAM]]


def compute(suite: EvaluationSuite) -> Dict[str, object]:
    """Speedups over DRAM for every workload and configuration."""
    panels: Dict[str, Dict[str, Dict[str, float]]] = {"benchmarks": {}, "microbenchmarks": {}}
    for panel, names in (("benchmarks", suite.benchmark_names()),
                         ("microbenchmarks", suite.micro_names())):
        for workload in names:
            panels[panel][workload] = {
                kind.value: suite.speedup(workload, kind, baseline=SystemKind.DRAM)
                for kind in suite.kinds
            }
    geomeans: Dict[str, Dict[str, float]] = {}
    for panel, rows in panels.items():
        if not rows:
            continue
        geomeans[panel] = {
            label: geomean_speedup(rows[w][label] for w in rows)
            for label in suite.config_labels
        }
    improvements_over_hmc: Dict[str, float] = {}
    all_rows = {**panels["benchmarks"], **panels["microbenchmarks"]}
    for label in ("ART", "ARF-tid", "ARF-addr"):
        ratios = []
        for workload, row in all_rows.items():
            hmc = row.get("HMC", 0.0)
            if hmc > 0 and label in row:
                ratios.append(row[label] / hmc)
        improvements_over_hmc[label] = geomean_speedup(ratios)
    return {"panels": panels, "geomeans": geomeans,
            "improvement_over_hmc": improvements_over_hmc}


def render(data: Dict[str, object]) -> str:
    """Plain-text rendering of Figure 5.1 (both panels + summary lines)."""
    panels = data["panels"]
    geomeans = data["geomeans"]
    lines: List[str] = ["Figure 5.1: Runtime speedup over DRAM"]
    for panel in ("benchmarks", "microbenchmarks"):
        rows = panels.get(panel, {})
        if not rows:
            continue
        labels = list(next(iter(rows.values())).keys())
        table_rows = [[w] + [rows[w][label] for label in labels] for w in rows]
        if panel in geomeans:
            table_rows.append(["gmean"] + [geomeans[panel][label] for label in labels])
        lines.append("")
        lines.append(f"({'a' if panel == 'benchmarks' else 'b'}) {panel}")
        lines.append(format_table(["workload"] + labels, table_rows, float_format="{:.2f}"))
        values = {(w, label): rows[w][label] for w in rows for label in labels}
        lines.append("")
        lines.append(format_grouped_bars(list(rows), labels, values, width=30))
    improvements = data["improvement_over_hmc"]
    lines.append("")
    for label, ratio in improvements.items():
        lines.append(f"{label} vs HMC baseline: {ratio:.2f}x "
                     f"({(ratio - 1.0) * 100.0:+.0f}% geomean)")
    return "\n".join(lines)


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))
