"""Full evaluation report: every table and figure of the paper in one text document."""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

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
from .suite import EvaluationSuite, Job
from .tables import render_table_3_1, render_table_4_1

SEPARATOR = "\n" + "=" * 78 + "\n"


class Figure(NamedTuple):
    """One report section: the runs it needs and what renders it."""

    jobs: Callable[[EvaluationSuite], List[Job]]
    run: Callable[[EvaluationSuite], str]


#: Every figure by name, in canonical report order: the paper's Figures 5.1
#: to 5.8 (power, energy and EDP share one job list) and this
#: reproduction's two network sweeps.  :meth:`EvaluationSuite.prefetch`
#: resolves the union of the named figures' jobs in one parallel batch; a
#: figure subset renders in exactly this order, so the same selection always
#: produces byte-identical output.
FIGURES: Dict[str, Figure] = {
    "speedup": Figure(fig_speedup.jobs, fig_speedup.run),
    "latency": Figure(fig_latency.jobs, fig_latency.run),
    "lud_heatmap": Figure(fig_lud_heatmap.jobs, fig_lud_heatmap.run),
    "data_movement": Figure(fig_data_movement.jobs, fig_data_movement.run),
    "power": Figure(fig_power_energy.jobs, fig_power_energy.run_power),
    "energy": Figure(fig_power_energy.jobs, fig_power_energy.run_energy),
    "edp": Figure(fig_power_energy.jobs, fig_power_energy.run_edp),
    "topology": Figure(fig_topology.jobs, fig_topology.run),
    "degraded": Figure(fig_degraded.jobs, fig_degraded.run),
    "dynamic_offload": Figure(fig_dynamic_offload.jobs, fig_dynamic_offload.run),
}


def full_report(suite: Optional[EvaluationSuite] = None,
                include_dynamic_offload: bool = True,
                figures: Optional[Sequence[str]] = None) -> str:
    """Run the whole evaluation and render every experiment as plain text.

    All required simulations are prefetched in one batch (parallel when the
    suite was built with ``workers > 1``, persistent across invocations when it
    has a cache directory); the figures then only read cached results.

    ``figures`` restricts the report to a named subset (any keys of
    :data:`FIGURES`), rendered in the canonical order; the configuration
    tables are part of the full report only.  Unknown names fail before
    anything simulates.
    """
    suite = suite or EvaluationSuite()
    if figures is None:
        selected = [name for name in FIGURES
                    if include_dynamic_offload or name != "dynamic_offload"]
    else:
        selected = list(figures)
    suite.prefetch(figures=selected)
    sections: List[str] = []
    if figures is None:
        sections.extend([render_table_3_1(), render_table_4_1()])
    sections.extend(figure.run(suite) for name, figure in FIGURES.items()
                    if name in selected)
    verification = ("All Active-Routing reductions verified against host-computed results."
                    if suite.verified() else
                    "WARNING: some Active-Routing reductions did not match expectations!")
    sections.append(verification)
    return SEPARATOR.join(sections)
