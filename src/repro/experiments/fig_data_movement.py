"""Figure 5.4 — on/off-chip data movement normalized to the HMC baseline.

Traffic crossing the processor/memory-network boundary is split into normal
requests/responses (cache-miss traffic) and active requests/responses
(Update/Gather/operand packets), then normalized to the HMC baseline of the
same workload.
"""

from __future__ import annotations

from typing import Dict, List

from ..system import SystemKind
from .panels import breakdown_rows, pair_jobs, render_breakdown
from .suite import EvaluationSuite, Job

CATEGORIES = ("norm_req", "norm_resp", "active_req", "active_resp")
#: Configurations shown in the figure (DRAM has no memory network).
SHOWN = (SystemKind.HMC, SystemKind.ART, SystemKind.ARF_TID, SystemKind.ARF_ADDR)


def jobs(suite: EvaluationSuite) -> List[Job]:
    """The shown configurations plus the HMC baseline every row normalizes to."""
    shown = [kind for kind in suite.kinds if kind in SHOWN]
    return pair_jobs(suite, [*shown, SystemKind.HMC])


def compute(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """movement[panel][workload][f"{config}.{category}"] = bytes / HMC total bytes."""
    def parts(workload: str, kind: SystemKind) -> Dict[str, float]:
        hmc_total = suite.result(workload, SystemKind.HMC).total_data_bytes
        result = suite.result(workload, kind)
        values = {category: result.data_movement.get(category, 0.0)
                  for category in CATEGORIES}
        values["total"] = result.total_data_bytes
        return {part: value / hmc_total if hmc_total else 0.0
                for part, value in values.items()}
    return breakdown_rows(suite, [k for k in suite.kinds if k in SHOWN], parts)


def render(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return render_breakdown("Figure 5.4: Off-chip data movement normalized to HMC",
                            data, CATEGORIES, "{:.3f}")


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))
