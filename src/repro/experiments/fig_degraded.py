"""Degraded-mode sweep — scheme x topology x failure-rate under fault injection.

The paper's network is failure-free; this figure asks what happens to the
Active-Routing advantage when it isn't.  Every degraded cell runs the same
workloads on the same scheme and network shape, but with the seeded random
link-failure process enabled (``failure_rate`` expected failures per 10,000
cycles, deterministic per seed — see :mod:`repro.network.faults`) and the
routing table recomputing its live routes around dead links.
Reported per cell: the geomean runtime speedup over the DRAM baseline and the
delivered-traffic fraction (1 minus the share of hops that ended on a dead
link and had to be retransmitted).

The zero-failure row is deliberately the plain shape config: it is
byte-identical to the corresponding topology-sweep cell, so the two figures
share those runs — and their cache entries — by construction.
Like every other figure the degraded cells are declared to the registry as
:func:`jobs`, so prefetch executes them in one parallel batch and a warm
``repro report --figures degraded`` simulates nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import format_table, geomean_speedup
from ..hmc.config import HMCNetworkConfig
from ..system import SystemKind
from ..system.config import make_network_config
from .fig_topology import sweep_workloads
from .suite import EvaluationSuite, Job

#: Network shapes swept by default (Table 4.1 cube/controller counts, so the
#: zero-failure dragonfly row shares its runs with the default matrix).
SWEEP_TOPOLOGIES: Tuple[str, ...] = ("dragonfly", "mesh")
#: Expected link failures per 10,000 cycles.  0 is the failure-free anchor.
SWEEP_FAILURE_RATES: Tuple[float, ...] = (0.0, 2.0, 10.0)
#: Schemes swept by default (one baseline, one flow scheme).
SWEEP_KINDS: Tuple[SystemKind, ...] = (SystemKind.HMC, SystemKind.ARF_TID)
#: The pinned seed of the default failure timelines: the whole figure is a
#: deterministic function of it (golden tests pin one cell).
DEGRADED_SEED = 7


def degraded_network(topology: str, failure_rate: float,
                     failure_seed: int = DEGRADED_SEED) -> HMCNetworkConfig:
    """The network config for one degraded-sweep cell, validated eagerly.

    A zero failure rate returns the plain shape config — the exact config
    the topology sweep uses — so the anchor row costs nothing beyond what
    other figures already ran.
    """
    if failure_rate == 0:
        return make_network_config(topology=topology)
    return make_network_config(topology=topology, failure_rate=failure_rate,
                               failure_seed=failure_seed)


def sweep_networks(topologies: Optional[Sequence[str]] = None,
                   failure_rates: Optional[Sequence[float]] = None,
                   failure_seed: int = DEGRADED_SEED) -> List[Tuple[str, float, HMCNetworkConfig]]:
    """(topology, failure_rate, network) cells, topology-major then by rate.

    Deduplicated by network fingerprint so repeated operands cannot produce
    repeated rows.
    """
    topologies = list(topologies) if topologies is not None else list(SWEEP_TOPOLOGIES)
    rates = (list(failure_rates) if failure_rates is not None
             else list(SWEEP_FAILURE_RATES))
    cells: Dict[str, Tuple[str, float, HMCNetworkConfig]] = {}
    for topology in topologies:
        for rate in rates:
            net = degraded_network(topology, rate, failure_seed)
            cells.setdefault(net.label, (topology, rate, net))
    return list(cells.values())


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every (workload, degraded network-variant config) cell of the sweep,
    plus the DRAM baselines every degraded speedup divides by."""
    names = sweep_workloads(suite)
    batch = [suite.job(workload, SystemKind.DRAM) for workload in names]
    for _, _, net in sweep_networks():
        for kind in SWEEP_KINDS:
            config = suite.config_for(kind, net=net)
            batch.extend(suite.job(workload, config) for workload in names)
    return batch


def compute(suite: EvaluationSuite,
            topologies: Optional[Sequence[str]] = None,
            failure_rates: Optional[Sequence[float]] = None,
            kinds: Optional[Sequence[SystemKind]] = None,
            workloads: Optional[Sequence[str]] = None,
            failure_seed: int = DEGRADED_SEED) -> Dict[str, object]:
    """Speedup and delivered-fraction matrices over (topology, rate, scheme).

    Rows are ``(topology, failure_rate)`` cells keyed by the network
    fingerprint; ``speedup`` holds the geomean over the swept workloads,
    ``delivered`` the mean delivered-traffic fraction, and ``per_workload``
    the full per-workload speedup breakdown.
    """
    kinds = list(kinds) if kinds is not None else list(SWEEP_KINDS)
    names = sweep_workloads(suite, workloads)
    cells = sweep_networks(topologies, failure_rates, failure_seed)
    speedup: Dict[str, Dict[str, float]] = {}
    delivered: Dict[str, Dict[str, float]] = {}
    per_workload: Dict[str, Dict[str, Dict[str, float]]] = {}
    rows: List[Dict[str, object]] = []
    for topology, rate, net in cells:
        rows.append({"label": net.label, "topology": topology, "failure_rate": rate})
        row_speedup: Dict[str, float] = {}
        row_delivered: Dict[str, float] = {}
        row_detail: Dict[str, Dict[str, float]] = {}
        for kind in kinds:
            config = suite.config_for(kind, net=net)
            detail: Dict[str, float] = {}
            fractions: List[float] = []
            for workload in names:
                result = suite.result(workload, config)
                baseline = suite.result(workload, SystemKind.DRAM)
                detail[workload] = result.speedup_over(baseline)
                fractions.append(
                    result.network_stats.get("delivered_fraction", 1.0))
            row_detail[kind.value] = detail
            row_speedup[kind.value] = geomean_speedup(detail.values())
            row_delivered[kind.value] = (sum(fractions) / len(fractions)
                                         if fractions else 1.0)
        speedup[net.label] = row_speedup
        delivered[net.label] = row_delivered
        per_workload[net.label] = row_detail
    return {
        "rows": rows,
        "kinds": [kind.value for kind in kinds],
        "workloads": names,
        "failure_seed": failure_seed,
        "speedup": speedup,
        "delivered": delivered,
        "per_workload": per_workload,
    }


def render(data: Dict[str, object]) -> str:
    """Plain-text rendering of the degraded-mode sweep."""
    rows: List[Dict[str, object]] = data["rows"]
    kinds: List[str] = data["kinds"]
    lines: List[str] = [
        "Degraded-mode sweep: geomean speedup over DRAM under link failures "
        f"(workloads: {', '.join(data['workloads'])}; "
        f"seed {data['failure_seed']}; "
        "rate = failures per 10k cycles)",
        "",
        format_table(
            ["topology", "rate"] + kinds,
            [[row["topology"], row["failure_rate"]]
             + [data["speedup"][row["label"]][kind] for kind in kinds]
             for row in rows],
            float_format="{:.2f}"),
        "",
        "Delivered-traffic fraction (1 = no hop ended on a dead link)",
        "",
        format_table(
            ["topology", "rate"] + kinds,
            [[row["topology"], row["failure_rate"]]
             + [data["delivered"][row["label"]][kind] for kind in kinds]
             for row in rows],
            float_format="{:.4f}"),
    ]
    per_workload = data["per_workload"]
    lines.append("")
    lines.append("Per-workload speedup over DRAM")
    detail_rows = []
    for row in rows:
        for kind in kinds:
            cells = per_workload[row["label"]][kind]
            detail_rows.append([row["topology"], row["failure_rate"], kind]
                               + [cells[w] for w in data["workloads"]])
    lines.append(format_table(["topology", "rate", "config"] + list(data["workloads"]),
                              detail_rows, float_format="{:.2f}"))
    return "\n".join(lines)


def run(suite: EvaluationSuite) -> str:
    return render(compute(suite))
