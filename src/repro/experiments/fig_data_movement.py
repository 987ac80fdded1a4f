"""Figure 5.4 — on/off-chip data movement normalized to the HMC baseline.

Traffic crossing the processor/memory-network boundary is split into normal
requests/responses (cache-miss traffic) and active requests/responses
(Update/Gather/operand packets), then normalized to the HMC baseline of the
same workload.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import format_table
from ..system import SystemKind
from .suite import EvaluationSuite, Job

CATEGORIES = ("norm_req", "norm_resp", "active_req", "active_resp")
#: Configurations shown in the figure (DRAM has no memory network).
SHOWN = (SystemKind.HMC, SystemKind.ART, SystemKind.ARF_TID, SystemKind.ARF_ADDR)


def jobs(suite: EvaluationSuite) -> List[Job]:
    """The shown configurations plus the HMC baseline every row normalizes to."""
    names = suite.benchmark_names() + suite.micro_names()
    shown = [kind for kind in suite.kinds if kind in SHOWN]
    return [suite.job(workload, kind) for workload in names
            for kind in [*shown, SystemKind.HMC]]


def compute(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """movement[panel][workload][f"{config}.{category}"] = bytes / HMC total bytes."""
    panels: Dict[str, Dict[str, Dict[str, float]]] = {"benchmarks": {}, "microbenchmarks": {}}
    shown = [k for k in suite.kinds if k in SHOWN]
    for panel, names in (("benchmarks", suite.benchmark_names()),
                         ("microbenchmarks", suite.micro_names())):
        for workload in names:
            hmc_total = suite.result(workload, SystemKind.HMC).total_data_bytes
            row: Dict[str, float] = {}
            for kind in shown:
                result = suite.result(workload, kind)
                for category in CATEGORIES:
                    value = result.data_movement.get(category, 0.0)
                    row[f"{kind.value}.{category}"] = value / hmc_total if hmc_total else 0.0
                row[f"{kind.value}.total"] = (result.total_data_bytes / hmc_total
                                              if hmc_total else 0.0)
            panels[panel][workload] = row
    return panels


def render(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    lines: List[str] = ["Figure 5.4: Off-chip data movement normalized to HMC"]
    for panel, rows in data.items():
        if not rows:
            continue
        configs = sorted({key.split(".")[0] for row in rows.values() for key in row})
        lines.append("")
        lines.append(f"({'a' if panel == 'benchmarks' else 'b'}) {panel}")
        headers = ["workload", "config"] + list(CATEGORIES) + ["total"]
        table_rows = []
        for workload, row in rows.items():
            for config in configs:
                table_rows.append([workload, config]
                                  + [row.get(f"{config}.{c}", 0.0) for c in CATEGORIES]
                                  + [row.get(f"{config}.total", 0.0)])
        lines.append(format_table(headers, table_rows, float_format="{:.3f}"))
    return "\n".join(lines)


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))
