"""Full evaluation report: every table and figure of the paper in one text document."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
from .registry import FIGURE_REGISTRY
from .suite import EvaluationSuite
from .tables import render_table_3_1, render_table_4_1

SEPARATOR = "\n" + "=" * 78 + "\n"

#: Canonical section order of the report: (figure name, renderer).  A figure
#: subset request renders its sections in exactly this order, so the same
#: selection always produces byte-identical output (the warm-cache CI smoke
#: jobs diff report text directly).
RENDERERS: List[Tuple[str, object]] = [
    ("speedup", fig_speedup.run),
    ("latency", fig_latency.run),
    ("lud_heatmap", fig_lud_heatmap.run),
    ("data_movement", fig_data_movement.run),
    ("power", fig_power_energy.run_power),
    ("energy", fig_power_energy.run_energy),
    ("edp", fig_power_energy.run_edp),
    ("topology", fig_topology.run),
    ("degraded", fig_degraded.run),
    ("dynamic_offload", fig_dynamic_offload.run),
]


def full_report(suite: Optional[EvaluationSuite] = None,
                include_dynamic_offload: bool = True,
                figures: Optional[Sequence[str]] = None) -> str:
    """Run the whole evaluation and render every experiment as plain text.

    All required simulations are prefetched in one batch (parallel when the
    suite was built with ``workers > 1``, persistent across invocations when it
    has a cache directory); the figures then only read cached results.

    ``figures`` restricts the report to a named subset (any keys of
    :data:`~repro.experiments.registry.FIGURE_REGISTRY`), rendered in the
    canonical order; the configuration tables are part of the full report
    only.  Unknown names fail before anything simulates.
    """
    suite = suite or EvaluationSuite()
    if figures is None:
        selected = [name for name in FIGURE_REGISTRY
                    if include_dynamic_offload or name != "dynamic_offload"]
    else:
        unknown = sorted(set(figures) - set(FIGURE_REGISTRY))
        if unknown:
            raise ValueError(
                f"unknown figure(s) {', '.join(unknown)}; choose from "
                f"{', '.join(sorted(FIGURE_REGISTRY))}")
        selected = list(figures)
    suite.prefetch(figures=selected)
    sections: List[str] = []
    if figures is None:
        sections.extend([render_table_3_1(), render_table_4_1()])
    sections.extend(renderer(suite) for name, renderer in RENDERERS
                    if name in selected)
    verification = ("All Active-Routing reductions verified against host-computed results."
                    if suite.verified() else
                    "WARNING: some Active-Routing reductions did not match expectations!")
    sections.append(verification)
    return SEPARATOR.join(sections)
