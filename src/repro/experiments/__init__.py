"""Evaluation harness: one module per table/figure of the paper's evaluation."""

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
from .report import FIGURES, full_report
from .run_cache import RunCache, code_digest, default_cache_dir
from .suite import SCALES, EvaluationSuite, ExperimentScale, scale_from_env
from .tables import render_table_3_1, render_table_4_1, table_3_1

__all__ = [
    "fig_data_movement",
    "fig_degraded",
    "fig_dynamic_offload",
    "fig_latency",
    "fig_lud_heatmap",
    "fig_power_energy",
    "fig_speedup",
    "fig_topology",
    "full_report",
    "FIGURES",
    "RunCache",
    "code_digest",
    "default_cache_dir",
    "SCALES",
    "EvaluationSuite",
    "ExperimentScale",
    "scale_from_env",
    "render_table_3_1",
    "render_table_4_1",
    "table_3_1",
]
