"""Figure 5.1 — runtime speedup over the DRAM baseline.

Reproduces both panels (benchmarks and microbenchmarks) plus the summary
numbers quoted in Section 5.2.1 (geomean speedups and the ARF improvement over
the HMC baseline).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import format_grouped_bars, format_table, geomean_speedup
from ..system import SystemKind
from .panels import pair_jobs, panel_rows, panel_sections
from .suite import EvaluationSuite, Job


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every suite pair plus the DRAM baseline each speedup divides by."""
    return pair_jobs(suite, [*suite.kinds, SystemKind.DRAM])


def compute(suite: EvaluationSuite) -> Dict[str, object]:
    """Speedups over DRAM for every workload and configuration."""
    panels = panel_rows(suite, lambda workload: {
        kind.value: suite.speedup(workload, kind, baseline=SystemKind.DRAM)
        for kind in suite.kinds})
    geomeans: Dict[str, Dict[str, float]] = {}
    for panel, rows in panels.items():
        if not rows:
            continue
        geomeans[panel] = {
            kind.value: geomean_speedup(row[kind.value] for row in rows.values())
            for kind in suite.kinds
        }
    improvements_over_hmc: Dict[str, float] = {}
    all_rows = [row for rows in panels.values() for row in rows.values()]
    for label in ("ART", "ARF-tid", "ARF-addr"):
        ratios = []
        for row in all_rows:
            hmc = row.get("HMC", 0.0)
            if hmc > 0 and label in row:
                ratios.append(row[label] / hmc)
        improvements_over_hmc[label] = geomean_speedup(ratios)
    return {"panels": panels, "geomeans": geomeans,
            "improvement_over_hmc": improvements_over_hmc}


def render(data: Dict[str, object]) -> str:
    """Plain-text rendering of Figure 5.1 (both panels + summary lines)."""
    geomeans = data["geomeans"]
    lines: List[str] = ["Figure 5.1: Runtime speedup over DRAM"]
    for panel, heading, rows in panel_sections(data["panels"]):
        labels = list(next(iter(rows.values())).keys())
        table_rows = [[w] + [rows[w][label] for label in labels] for w in rows]
        if panel in geomeans:
            table_rows.append(["gmean"] + [geomeans[panel][label] for label in labels])
        lines.append("")
        lines.append(heading)
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
