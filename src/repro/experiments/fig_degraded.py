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
share those runs — and their cache entries — by construction.  The sweep
itself is the topology figure's (:class:`~repro.experiments.fig_topology.SweepFigure`);
this module declares its cells, its metric and its labels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..hmc.config import HMCNetworkConfig
from ..system import SystemKind
from ..system.config import make_network_config
from .fig_topology import Sweep, SweepFigure
from .suite import EvaluationSuite, Job

#: Network shapes swept by default (Table 4.1 cube/controller counts, so the
#: zero-failure dragonfly row shares its runs with the default matrix).
SWEEP_TOPOLOGIES: Tuple[str, ...] = ("dragonfly", "mesh")
#: Expected link failures per 10,000 cycles.  0 is the failure-free anchor.
SWEEP_FAILURE_RATES: Tuple[float, ...] = (0.0, 2.0, 10.0)
#: Schemes swept by default (one baseline, one flow scheme).
SWEEP_KINDS: Tuple[SystemKind, ...] = (SystemKind.HMC, SystemKind.ARF_TID)
#: The pinned seed of the failure timelines: the whole figure is a
#: deterministic function of it (golden tests pin one cell).
DEGRADED_SEED = 7

#: Rows are (topology, failure rate) cells; the metric is the delivered
#: fraction, 1 for a run that reports none.
FIGURE = SweepFigure(
    title="Degraded-mode sweep: geomean speedup over DRAM under link failures "
          f"(workloads: {{workloads}}; seed {DEGRADED_SEED}; "
          "rate = failures per 10k cycles)",
    headings=("topology", "rate"),
    metric="delivered_fraction", default=1.0,
    metric_title="Delivered-traffic fraction (1 = no hop ended on a dead link)",
    metric_format="{:.4f}")


def degraded_network(topology: str, failure_rate: float) -> HMCNetworkConfig:
    """The network config for one degraded-sweep cell, validated eagerly.

    A zero failure rate returns the plain shape config — the exact config
    the topology sweep uses — so the anchor row costs nothing beyond what
    other figures already ran.
    """
    if failure_rate == 0:
        return make_network_config(topology=topology)
    return make_network_config(topology=topology, failure_rate=failure_rate,
                               failure_seed=DEGRADED_SEED)


def plan(suite: EvaluationSuite,
         topologies: Sequence[str] = SWEEP_TOPOLOGIES,
         failure_rates: Sequence[float] = SWEEP_FAILURE_RATES,
         kinds: Sequence[SystemKind] = SWEEP_KINDS,
         workloads: Optional[Sequence[str]] = None) -> Sweep:
    """The degraded sweep, topology-major then by failure rate."""
    return FIGURE.plan(suite, [((topology, rate), degraded_network(topology, rate))
                               for topology in topologies for rate in failure_rates],
                       kinds, workloads)


def jobs(suite: EvaluationSuite) -> List[Job]:
    """Every run the default degraded sweep needs."""
    return plan(suite).jobs(suite)


def run(suite: EvaluationSuite) -> str:
    return FIGURE.render(plan(suite).compute(suite))
