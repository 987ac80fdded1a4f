"""Topology sweep — scheme x network-shape speedup and queueing matrix.

The paper evaluates one network (the 16-cube dragonfly of Table 4.1), but its
headline effect — ART's many-to-one hotspots versus the flow-level schemes
(Section 5.2.2) — is a function of the network shape.  This figure makes the
memory-network topology a first-class experiment dimension: every cell runs
the same workloads on the same scheme but a different network
(topology x cube count), reporting the geomean runtime speedup over the DRAM
baseline and the average link queue delay per hop (the hotspot signal).

The sweep machinery lives here too and serves the degraded-mode sweep
(:mod:`~repro.experiments.fig_degraded`) as well.  A sweep figure declares
only its cells, the ``network_stats`` metric it averages per cell, and its
labels and formats (a :class:`SweepFigure`).  :meth:`SweepFigure.plan`
builds — and so validates — every network once; that one :class:`Sweep`
then yields the jobs (which the report prefetches in one parallel batch, and
the persistent run cache keys by ``SystemConfig.label``, network
fingerprint included) and the matrix the three tables render.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis import format_table, geomean_speedup
from ..hmc.config import HMCNetworkConfig
from ..system import SystemKind
from ..system.config import make_network_config
from .suite import EvaluationSuite, Job

#: Network shapes swept by default (all at the Table 4.1 cube/controller
#: counts, so the dragonfly column is exactly the paper's default network and
#: shares its runs with every other figure).
SWEEP_TOPOLOGIES: Tuple[str, ...] = ("dragonfly", "mesh", "torus")
#: Cube counts swept by default.
SWEEP_CUBE_COUNTS: Tuple[int, ...] = (16,)
#: Schemes swept by default in the full report (one baseline, one flow
#: scheme); the CLI sweep defaults to every HMC-backed scheme instead.
SWEEP_KINDS: Tuple[SystemKind, ...] = (SystemKind.HMC, SystemKind.ARF_TID)
#: Representative workloads (one microbenchmark, one irregular benchmark).
SWEEP_WORKLOADS: Tuple[str, ...] = ("mac", "pagerank")


class SweepFigure(NamedTuple):
    """What a scheme x network sweep figure declares.

    ``title`` is formatted with ``workloads``; ``headings`` name the columns
    that identify a row; ``metric`` is the ``network_stats`` entry averaged
    over each cell's workloads (``default`` when a run does not report it),
    shown under ``metric_title`` in ``metric_format``.
    """

    title: str
    headings: Tuple[str, ...]
    metric: str
    default: float
    metric_title: str
    metric_format: str

    def plan(self, suite: EvaluationSuite,
             cells: Iterable[Tuple[Tuple[object, ...], HMCNetworkConfig]],
             kinds: Sequence[SystemKind],
             workloads: Optional[Sequence[str]] = None) -> "Sweep":
        """The sweep over ``cells`` — ``(row headings, network)`` pairs, each
        network already built by :func:`make_network_config`.

        Cells are deduplicated by network fingerprint (the first wins), so
        repeated operands cannot produce repeated rows or double-counted
        runs.  ``workloads`` defaults to :data:`SWEEP_WORKLOADS` restricted
        to what the suite carries, or else the suite's own list, so a sweep
        never comes up empty.
        """
        rows: Dict[str, Tuple[Tuple[object, ...], HMCNetworkConfig]] = {}
        for headings, net in cells:
            rows.setdefault(net.label, (headings, net))
        if workloads is None:
            workloads = ([w for w in SWEEP_WORKLOADS if w in suite.workloads]
                         or suite.workloads)
        return Sweep(self, rows, list(kinds), list(workloads))

    def render(self, data: Dict[str, object]) -> str:
        """The speedup matrix, the metric matrix and the per-workload table."""
        kinds: List[str] = data["kinds"]
        names: List[str] = data["workloads"]
        rows: Dict[str, Tuple[object, ...]] = data["rows"]
        headings = list(self.headings)

        def matrix(key: str, float_format: str) -> str:
            return format_table(
                headings + kinds,
                [[*cells] + [data[key][label][kind] for kind in kinds]
                 for label, cells in rows.items()],
                float_format=float_format)

        detail = [[*cells, kind] + [data["per_workload"][label][kind][w] for w in names]
                  for label, cells in rows.items() for kind in kinds]
        return "\n".join([
            self.title.format(workloads=", ".join(names)),
            "",
            matrix("speedup", "{:.2f}"),
            "",
            self.metric_title,
            "",
            matrix(self.metric, self.metric_format),
            "",
            "Per-workload speedup over DRAM",
            format_table(headings + ["config"] + names, detail, float_format="{:.2f}"),
        ])


class Sweep(NamedTuple):
    """One planned sweep: ``rows`` maps each network's label to its row
    headings and config, in row order."""

    figure: SweepFigure
    rows: Dict[str, Tuple[Tuple[object, ...], HMCNetworkConfig]]
    kinds: List[SystemKind]
    workloads: List[str]

    def jobs(self, suite: EvaluationSuite) -> List[Job]:
        """Each (workload, network-variant config) cell plus the DRAM
        baselines every speedup divides by."""
        batch = [suite.job(workload, SystemKind.DRAM) for workload in self.workloads]
        for _headings, net in self.rows.values():
            for kind in self.kinds:
                config = suite.config_for(kind, net=net)
                batch.extend(suite.job(workload, config) for workload in self.workloads)
        return batch

    def compute(self, suite: EvaluationSuite) -> Dict[str, object]:
        """Matrices over (network, scheme): ``speedup`` holds the geomean
        speedup over DRAM across the workloads, the figure's metric its mean,
        and ``per_workload`` each workload's speedup."""
        metric = self.figure.metric
        speedup: Dict[str, Dict[str, float]] = {label: {} for label in self.rows}
        averages: Dict[str, Dict[str, float]] = {label: {} for label in self.rows}
        per_workload: Dict[str, Dict[str, Dict[str, float]]] = {
            label: {} for label in self.rows}
        for label, (_headings, net) in self.rows.items():
            for kind in self.kinds:
                config = suite.config_for(kind, net=net)
                cells: Dict[str, float] = {}
                values: List[float] = []
                for workload in self.workloads:
                    result = suite.result(workload, config)
                    cells[workload] = result.speedup_over(
                        suite.result(workload, SystemKind.DRAM))
                    values.append(result.network_stats.get(metric, self.figure.default))
                per_workload[label][kind.value] = cells
                speedup[label][kind.value] = geomean_speedup(cells.values())
                averages[label][kind.value] = (sum(values) / len(values) if values
                                               else self.figure.default)
        return {
            "rows": {label: headings for label, (headings, _net) in self.rows.items()},
            "kinds": [kind.value for kind in self.kinds],
            "workloads": list(self.workloads),
            "speedup": speedup,
            metric: averages,
            "per_workload": per_workload,
        }


#: The topology figure: rows are network fingerprints (``dragonfly16c4``,
#: ``mesh16c4``, ...), the metric the average link queue delay per hop.
FIGURE = SweepFigure(
    title="Topology sweep: geomean speedup over DRAM (workloads: {workloads})",
    headings=("network",),
    metric="queue_delay_per_hop", default=0.0,
    metric_title="Average link queue delay per hop "
                 "(cycles; the many-to-one hotspot signal)",
    metric_format="{:.2f}")


def plan(suite: EvaluationSuite,
         topologies: Sequence[str] = SWEEP_TOPOLOGIES,
         cube_counts: Sequence[int] = SWEEP_CUBE_COUNTS,
         kinds: Sequence[SystemKind] = SWEEP_KINDS,
         workloads: Optional[Sequence[str]] = None,
         net_overrides: Optional[Dict[str, object]] = None,
         controller_counts: Optional[Sequence[int]] = None,
         link_bandwidths: Optional[Sequence[float]] = None) -> Sweep:
    """The topology sweep: topology x cube count x controllers x bandwidth.

    Rows run topology-major, then by cube count, controller count and link
    bandwidth.  Without a controller or bandwidth axis every cell keeps the
    Table 4.1 value, so the default-shape cell compares equal to
    :func:`~repro.hmc.config.default_network` and shares its labels and runs
    with the plain evaluation matrix.  ``net_overrides`` carries further
    :func:`make_network_config` keywords (``failure_rate``, ``failure_seed``)
    that apply to every cell.  An impossible shape, say an 8-cube dragonfly,
    fails here rather than mid-batch in a worker.
    """
    cells = []
    for topology, num_cubes, controllers, bandwidth in product(
            topologies, cube_counts, controller_counts or [None],
            link_bandwidths or [None]):
        net = make_network_config(**dict(
            net_overrides or {}, topology=topology, num_cubes=num_cubes,
            num_controllers=controllers, link_bandwidth=bandwidth))
        cells.append(((net.label,), net))
    return FIGURE.plan(suite, cells, kinds, workloads)


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every run the default topology sweep needs."""
    return plan(suite).jobs(suite)


def run(suite: EvaluationSuite) -> str:
    return FIGURE.render(plan(suite).compute(suite))
