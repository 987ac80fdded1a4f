"""The two-panel layout the paper's figures share.

Figures 5.1, 5.2 and 5.4-5.7 plot panel (a), the benchmarks, beside panel
(b), the microbenchmarks, with one row per workload the suite carries.  This
module states that layout once: the runs a panel figure needs
(:func:`pair_jobs`), its rows (:func:`panel_rows`, :func:`breakdown_rows`)
and its rendering (:func:`panel_sections`, :func:`render_breakdown`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ..analysis import format_table
from ..system import SystemKind
from ..workloads import BENCHMARKS, MICROBENCHMARKS
from .suite import EvaluationSuite, Job

#: ``{panel: {workload: row}}``; a breakdown row maps ``"<config>.<part>"``
#: to a value.
Panels = Dict[str, Dict[str, object]]

#: The panels in plotting order, with the workloads each one holds.
PANELS = (("benchmarks", BENCHMARKS), ("microbenchmarks", MICROBENCHMARKS))


def panel_rows(suite: EvaluationSuite, row: Callable[[str], object]) -> Panels:
    """``{"benchmarks": {workload: row(workload)}, "microbenchmarks": ...}``
    over the suite's workloads, in suite order."""
    return {panel: {workload: row(workload) for workload in suite.workloads
                    if workload in members}
            for panel, members in PANELS}


def pair_jobs(suite: EvaluationSuite, kinds: Sequence[SystemKind]) -> List[Job]:
    """Every panel workload on each of ``kinds``."""
    return [suite.job(workload, kind) for _panel, members in PANELS
            for workload in suite.workloads if workload in members
            for kind in kinds]


def breakdown_rows(suite: EvaluationSuite, kinds: Sequence[SystemKind],
                   parts: Callable[[str, SystemKind], Dict[str, float]]
                   ) -> Panels:
    """Panels of breakdown rows: ``parts(workload, kind)`` gives one
    configuration's components and their ``total``, keyed in the row as
    ``"<config>.<part>"``."""
    return panel_rows(suite, lambda workload: {
        f"{kind.value}.{part}": value
        for kind in kinds for part, value in parts(workload, kind).items()})


def panel_sections(data: Panels) -> Iterator[Tuple[str, str, Dict[str, object]]]:
    """``(panel, heading, rows)`` for each panel that has rows, headed
    ``(a) benchmarks`` and ``(b) microbenchmarks``."""
    for (panel, _members), letter in zip(PANELS, "ab"):
        rows = data.get(panel)
        if rows:
            yield panel, f"({letter}) {panel}", rows


def render_breakdown(title: str, data: Panels, parts: Sequence[str],
                     float_format: str) -> str:
    """One table per panel: a line per (workload, configuration), a column
    per part plus the total (Figures 5.2, 5.4, 5.5 and 5.6)."""
    columns = [*parts, "total"]
    lines: List[str] = [title]
    for _panel, heading, rows in panel_sections(data):
        configs = sorted({key.split(".")[0] for row in rows.values() for key in row})
        table = [[workload, config] + [row.get(f"{config}.{part}", 0.0)
                                       for part in columns]
                 for workload, row in rows.items() for config in configs]
        lines += ["", heading, format_table(["workload", "config", *columns], table,
                                            float_format=float_format)]
    return "\n".join(lines)
