"""Figure 5.2 — Update offloading round-trip latency breakdown.

For every Active-Routing configuration the mean round-trip latency of an
Update is broken into request (Message Interface to compute cube), stall
(waiting for an operand buffer) and response (operand fetch + execute) —
the same three components the paper plots.
"""

from __future__ import annotations

from typing import Dict, List

from ..system import AR_CONFIGS, SystemKind
from .panels import breakdown_rows, pair_jobs, render_breakdown
from .suite import EvaluationSuite, Job

COMPONENTS = ("request", "stall", "response")


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every workload on the Active-Routing configurations only."""
    return pair_jobs(suite, [kind for kind in suite.kinds if kind in AR_CONFIGS])


def compute(suite: EvaluationSuite) -> Dict[str, Dict[str, Dict[str, float]]]:
    """latency[panel][workload][f"{config}.{component}"] = mean cycles."""
    def parts(workload: str, kind: SystemKind) -> Dict[str, float]:
        result = suite.result(workload, kind)
        values = {component: result.update_latency.get(component, 0.0)
                  for component in COMPONENTS}
        values["total"] = result.update_roundtrip
        return values
    return breakdown_rows(suite, [k for k in suite.kinds if k in AR_CONFIGS], parts)


def render(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    return render_breakdown("Figure 5.2: Update round-trip latency breakdown (cycles)",
                            data, COMPONENTS, "{:.1f}")


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))
