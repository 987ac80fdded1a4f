"""Figure registry: which runs each figure needs.

Every ``fig_*`` module declares its runs as one ``jobs(suite)`` function
returning :data:`~repro.system.runner.Job` tuples — plain (workload,
configuration) pairs, network-variant cells and bespoke traces alike.  The
registry maps the paper's figure names onto those functions so
:meth:`~repro.experiments.suite.EvaluationSuite.prefetch` can resolve the
union for any subset of figures in one parallel batch instead of letting each
figure simulate lazily; the suite's caches make a warm session perform zero
simulations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .suite import EvaluationSuite, Job


#: Paper figure name -> job declaration (5.1 through 5.8; the power / energy /
#: EDP figures share one module and one job list; ``topology`` and
#: ``degraded`` are this reproduction's network sweeps on top of the paper's
#: figures).
FIGURE_REGISTRY: Dict[str, Callable[["EvaluationSuite"], List["Job"]]] = {
    "speedup": fig_speedup.jobs,
    "latency": fig_latency.jobs,
    "lud_heatmap": fig_lud_heatmap.jobs,
    "data_movement": fig_data_movement.jobs,
    "power": fig_power_energy.jobs,
    "energy": fig_power_energy.jobs,
    "edp": fig_power_energy.jobs,
    "dynamic_offload": fig_dynamic_offload.jobs,
    "topology": fig_topology.jobs,
    "degraded": fig_degraded.jobs,
}
