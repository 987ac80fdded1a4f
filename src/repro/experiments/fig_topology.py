"""Topology sweep — scheme x network-shape speedup and queueing matrix.

The paper evaluates one network (the 16-cube dragonfly of Table 4.1), but its
headline effect — ART's many-to-one hotspots versus the flow-level schemes
(Section 5.2.2) — is a function of the network shape.  This figure makes the
memory-network topology a first-class experiment dimension: every cell runs
the same workloads on the same scheme but a different network
(topology x cube count), reporting the geomean runtime speedup over the DRAM
baseline and the average link queue delay per hop (the hotspot signal).

Like every other figure it declares its runs to the registry as
:func:`jobs`, so :meth:`~repro.experiments.suite.EvaluationSuite.prefetch`
executes them in one parallel batch and the persistent run cache — whose keys
embed the network fingerprint via ``SystemConfig.label`` — makes a warm sweep
simulate nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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


def sweep_networks(topologies: Optional[Sequence[str]] = None,
                   cube_counts: Optional[Sequence[int]] = None,
                   net_overrides: Optional[Dict[str, object]] = None,
                   controller_counts: Optional[Sequence[int]] = None,
                   link_bandwidths: Optional[Sequence[float]] = None,
                   ) -> List[HMCNetworkConfig]:
    """The swept networks: topology x cube count x controllers x bandwidth.

    Ordered topology-major, then by cube count, controller count and link
    bandwidth.  Without a controller or bandwidth axis every cell keeps the
    Table 4.1 value, so the default-shape cell compares equal to
    :func:`~repro.hmc.config.default_network` and shares its labels and runs
    with the plain evaluation matrix.  ``net_overrides`` carries further
    :func:`make_network_config` keywords (``failure_rate``, ``failure_seed``)
    that apply to every cell.  Each cell is validated as it is planned: an
    impossible shape, say an 8-cube dragonfly, fails here rather than
    mid-batch in a worker after other cells already simulated.
    Deduplicated by fingerprint, so repeated CLI operands cannot produce
    repeated figure rows or double-counted cells.
    """
    topologies = list(topologies) if topologies is not None else list(SWEEP_TOPOLOGIES)
    cube_counts = list(cube_counts) if cube_counts is not None else list(SWEEP_CUBE_COUNTS)
    controller_axis: List[Optional[int]] = (
        list(controller_counts) if controller_counts else [None])
    bandwidth_axis: List[Optional[float]] = (
        list(link_bandwidths) if link_bandwidths else [None])
    networks: Dict[str, HMCNetworkConfig] = {}
    for topology in topologies:
        for num_cubes in cube_counts:
            for controllers in controller_axis:
                for bandwidth in bandwidth_axis:
                    overrides = dict(net_overrides or {}, topology=topology,
                                     num_cubes=num_cubes,
                                     num_controllers=controllers)
                    if bandwidth is not None:
                        overrides["link_bandwidth"] = bandwidth
                    net = make_network_config(**overrides)
                    networks.setdefault(net.label, net)
    return list(networks.values())


def sweep_workloads(suite: EvaluationSuite,
                    workloads: Optional[Sequence[str]] = None) -> List[str]:
    """The workloads a sweep measures on ``suite``.

    Defaults to the representative :data:`SWEEP_WORKLOADS` restricted to what
    the suite carries; a suite built around other workloads falls back to its
    own list so the sweep never comes up empty.
    """
    if workloads is not None:
        return list(workloads)
    selected = [w for w in SWEEP_WORKLOADS if w in suite.workloads]
    return selected or list(suite.workloads)


def compute(suite: EvaluationSuite,
            topologies: Optional[Sequence[str]] = None,
            cube_counts: Optional[Sequence[int]] = None,
            kinds: Optional[Sequence[SystemKind]] = None,
            workloads: Optional[Sequence[str]] = None,
            net_overrides: Optional[Dict[str, object]] = None,
            controller_counts: Optional[Sequence[int]] = None,
            link_bandwidths: Optional[Sequence[float]] = None) -> Dict[str, object]:
    """Speedup-over-DRAM and queue-delay matrices over (network, scheme).

    Rows are network fingerprints (``dragonfly16c4``, ``mesh16c4``, ...),
    columns are scheme labels; ``speedup`` holds the geomean over the swept
    workloads, ``queue_delay`` the mean link queue delay per network hop in
    cycles, and ``per_workload`` the full per-workload speedup breakdown.
    """
    kinds = list(kinds) if kinds is not None else list(SWEEP_KINDS)
    names = sweep_workloads(suite, workloads)
    networks = sweep_networks(topologies, cube_counts, net_overrides,
                              controller_counts, link_bandwidths)
    speedup: Dict[str, Dict[str, float]] = {}
    queue_delay: Dict[str, Dict[str, float]] = {}
    per_workload: Dict[str, Dict[str, Dict[str, float]]] = {}
    for net in networks:
        row_speedup: Dict[str, float] = {}
        row_queue: Dict[str, float] = {}
        row_detail: Dict[str, Dict[str, float]] = {}
        for kind in kinds:
            config = suite.config_for(kind, net=net)
            cells: Dict[str, float] = {}
            delays: List[float] = []
            for workload in names:
                result = suite.result(workload, config)
                baseline = suite.result(workload, SystemKind.DRAM)
                cells[workload] = result.speedup_over(baseline)
                delays.append(result.network_stats.get("queue_delay_per_hop", 0.0))
            row_detail[kind.value] = cells
            row_speedup[kind.value] = geomean_speedup(cells.values())
            row_queue[kind.value] = sum(delays) / len(delays) if delays else 0.0
        speedup[net.label] = row_speedup
        queue_delay[net.label] = row_queue
        per_workload[net.label] = row_detail
    return {
        "networks": [net.label for net in networks],
        "kinds": [kind.value for kind in kinds],
        "workloads": names,
        "speedup": speedup,
        "queue_delay": queue_delay,
        "per_workload": per_workload,
    }


def render(data: Dict[str, object]) -> str:
    """Plain-text rendering of the scheme x topology sweep."""
    networks: List[str] = data["networks"]
    kinds: List[str] = data["kinds"]
    lines: List[str] = [
        "Topology sweep: geomean speedup over DRAM "
        f"(workloads: {', '.join(data['workloads'])})",
        "",
        format_table(
            ["network"] + kinds,
            [[net] + [data["speedup"][net][kind] for kind in kinds]
             for net in networks],
            float_format="{:.2f}"),
        "",
        "Average link queue delay per hop (cycles; the many-to-one hotspot signal)",
        "",
        format_table(
            ["network"] + kinds,
            [[net] + [data["queue_delay"][net][kind] for kind in kinds]
             for net in networks],
            float_format="{:.2f}"),
    ]
    per_workload = data["per_workload"]
    lines.append("")
    lines.append("Per-workload speedup over DRAM")
    rows = []
    for net in networks:
        for kind in kinds:
            cells = per_workload[net][kind]
            rows.append([net, kind] + [cells[w] for w in data["workloads"]])
    lines.append(format_table(["network", "config"] + list(data["workloads"]),
                              rows, float_format="{:.2f}"))
    return "\n".join(lines)


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))


def jobs(suite: EvaluationSuite,
         topologies: Optional[Sequence[str]] = None,
         cube_counts: Optional[Sequence[int]] = None,
         kinds: Optional[Sequence[SystemKind]] = None,
         workloads: Optional[Sequence[str]] = None,
         net_overrides: Optional[Dict[str, object]] = None,
         controller_counts: Optional[Sequence[int]] = None,
         link_bandwidths: Optional[Sequence[float]] = None) -> List[Job]:
    """Every run a sweep needs (the default sweep unless overridden): each
    (workload, network-variant config) cell plus the DRAM baselines every
    speedup divides by."""
    kinds = list(kinds) if kinds is not None else list(SWEEP_KINDS)
    names = sweep_workloads(suite, workloads)
    batch = [suite.job(workload, SystemKind.DRAM) for workload in names]
    for net in sweep_networks(topologies, cube_counts, net_overrides,
                              controller_counts, link_bandwidths):
        for kind in kinds:
            config = suite.config_for(kind, net=net)
            batch.extend(suite.job(workload, config) for workload in names)
    return batch


def run_sweep(suite: EvaluationSuite,
              topologies: Optional[Sequence[str]] = None,
              cube_counts: Optional[Sequence[int]] = None,
              kinds: Optional[Sequence[SystemKind]] = None,
              workloads: Optional[Sequence[str]] = None,
              workers: Optional[int] = None,
              net_overrides: Optional[Dict[str, object]] = None,
              controller_counts: Optional[Sequence[int]] = None,
              link_bandwidths: Optional[Sequence[float]] = None,
              ) -> Tuple[str, Dict[str, int]]:
    """Prefetch a custom sweep in one parallel batch, then render the figure.

    Returns ``(figure text, prefetch summary)``; the summary's ``simulated``
    count is zero on a warm cache, which the CI smoke job asserts.
    """
    stats = suite.resolve(jobs(suite, topologies, cube_counts, kinds, workloads,
                               net_overrides, controller_counts,
                               link_bandwidths),
                          workers=workers)
    text = render(compute(suite, topologies, cube_counts, kinds, workloads,
                          net_overrides, controller_counts, link_bandwidths))
    return text, stats
