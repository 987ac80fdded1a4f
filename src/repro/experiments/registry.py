"""Figure registry: which (workload, configuration) runs each figure needs.

Every ``fig_*`` module declares its requirements as a ``required_pairs(suite)``
function; the registry maps the paper's figure names onto those declarations so
:meth:`~repro.experiments.suite.EvaluationSuite.prefetch` can compute the union
for any subset of figures and execute it in one parallel batch instead of
letting each figure simulate lazily.

Figures whose runs are not plain matrix pairs (Figure 5.8 replays bespoke LUD
traces) declare them as ``bespoke_jobs`` instead; prefetch folds those into
the same parallel batch as the matrix pairs, and the suite's caches make a
warm session perform zero simulations either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from . import (
    fig_data_movement,
    fig_degraded,
    fig_dynamic_offload,
    fig_latency,
    fig_lud_heatmap,
    fig_power_energy,
    fig_speedup,
    fig_topology,
)
from .suite import BespokeJob, ExtraJob, Pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .suite import EvaluationSuite


@dataclass(frozen=True)
class FigureSpec:
    """One figure's declared needs: matrix pairs plus optional bespoke runs
    (non-matrix traces) and extra runs (matrix cells on network-variant
    configurations)."""

    required_pairs: Callable[["EvaluationSuite"], Set[Pair]]
    bespoke_jobs: Optional[Callable[["EvaluationSuite"], List[BespokeJob]]] = None
    extra_jobs: Optional[Callable[["EvaluationSuite"], List[ExtraJob]]] = None


#: Paper figure name -> requirement declaration (5.1 through 5.8; the power /
#: energy / EDP figures share one module and one requirement set; ``topology``
#: is this reproduction's network-shape sweep on top of the paper's figures).
FIGURE_REGISTRY: Dict[str, FigureSpec] = {
    "speedup": FigureSpec(fig_speedup.required_pairs),
    "latency": FigureSpec(fig_latency.required_pairs),
    "lud_heatmap": FigureSpec(fig_lud_heatmap.required_pairs),
    "data_movement": FigureSpec(fig_data_movement.required_pairs),
    "power": FigureSpec(fig_power_energy.required_pairs),
    "energy": FigureSpec(fig_power_energy.required_pairs),
    "edp": FigureSpec(fig_power_energy.required_pairs),
    "dynamic_offload": FigureSpec(fig_dynamic_offload.required_pairs,
                                  bespoke_jobs=fig_dynamic_offload.bespoke_jobs),
    "topology": FigureSpec(fig_topology.required_pairs,
                           extra_jobs=fig_topology.extra_jobs),
    "degraded": FigureSpec(fig_degraded.required_pairs,
                           extra_jobs=fig_degraded.extra_jobs),
}
