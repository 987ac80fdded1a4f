"""Figure 5.2 — Update offloading round-trip latency breakdown.

For every Active-Routing configuration the mean round-trip latency of an
Update is broken into request (Message Interface to compute cube), stall
(waiting for an operand buffer) and response (operand fetch + execute) —
the same three components the paper plots.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import format_table
from ..system import AR_CONFIGS
from .suite import EvaluationSuite, Job

COMPONENTS = ("request", "stall", "response")


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every workload on the Active-Routing configurations only."""
    names = suite.benchmark_names() + suite.micro_names()
    ar_kinds = [kind for kind in suite.kinds if kind in AR_CONFIGS]
    return [suite.job(workload, kind) for workload in names for kind in ar_kinds]


def compute(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """latency[panel][workload][f"{config}.{component}"] = mean cycles."""
    panels: Dict[str, Dict[str, Dict[str, float]]] = {"benchmarks": {}, "microbenchmarks": {}}
    ar_kinds = [k for k in suite.kinds if k in AR_CONFIGS]
    for panel, names in (("benchmarks", suite.benchmark_names()),
                         ("microbenchmarks", suite.micro_names())):
        for workload in names:
            row: Dict[str, float] = {}
            for kind in ar_kinds:
                result = suite.result(workload, kind)
                for component in COMPONENTS:
                    row[f"{kind.value}.{component}"] = result.update_latency.get(component, 0.0)
                row[f"{kind.value}.total"] = result.update_roundtrip
            panels[panel][workload] = row
    return panels


def render(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    lines: List[str] = ["Figure 5.2: Update round-trip latency breakdown (cycles)"]
    configs = sorted({key.split(".")[0] for rows in data.values()
                      for row in rows.values() for key in row})
    for panel, rows in data.items():
        if not rows:
            continue
        lines.append("")
        lines.append(f"({'a' if panel == 'benchmarks' else 'b'}) {panel}")
        headers = ["workload", "config"] + list(COMPONENTS) + ["total"]
        table_rows = []
        for workload, row in rows.items():
            for config in configs:
                table_rows.append([workload, config]
                                  + [row.get(f"{config}.{c}", 0.0) for c in COMPONENTS]
                                  + [row.get(f"{config}.total", 0.0)])
        lines.append(format_table(headers, table_rows, float_format="{:.1f}"))
    return "\n".join(lines)


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))
