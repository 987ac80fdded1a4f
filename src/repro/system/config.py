"""System configurations (Table 4.1 and the five evaluation schemes of §5.1).

A :class:`SystemConfig` bundles everything needed to build one simulated
machine: the host CMP, the memory substrate (DDR baseline or HMC network) and,
for the Active-Routing configurations, the engine parameters and the tree
construction scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..core.config import AREConfig
from ..core.schemes import Scheme
from ..cpu.config import CMPConfig, paper_cmp_config, scaled_cmp_config
from ..hmc.config import HMCConfig, HMCNetworkConfig, default_network
from ..network.topology import build_network_topology
from ..mem import DRAMAddressMapping


class SystemKind(enum.Enum):
    """The five configurations evaluated in Section 5.1."""

    DRAM = "DRAM"
    HMC = "HMC"
    ART = "ART"
    ARF_TID = "ARF-tid"
    ARF_ADDR = "ARF-addr"

    @property
    def uses_hmc(self) -> bool:
        return self is not SystemKind.DRAM

    @property
    def uses_active_routing(self) -> bool:
        return self in (SystemKind.ART, SystemKind.ARF_TID, SystemKind.ARF_ADDR)

    @property
    def scheme(self) -> Optional[Scheme]:
        return {
            SystemKind.ART: Scheme.ART,
            SystemKind.ARF_TID: Scheme.ARF_TID,
            SystemKind.ARF_ADDR: Scheme.ARF_ADDR,
        }.get(self)

    @classmethod
    def from_name(cls, name: str) -> "SystemKind":
        normalized = name.strip().lower().replace("_", "-")
        for kind in cls:
            if kind.value.lower() == normalized or kind.name.lower() == normalized:
                return kind
        raise ValueError(f"unknown system configuration {name!r}")


#: Paper plotting order.
CONFIG_ORDER: List[SystemKind] = [SystemKind.DRAM, SystemKind.HMC, SystemKind.ART,
                                  SystemKind.ARF_TID, SystemKind.ARF_ADDR]
#: Configurations that offload (used by the latency/heat-map figures).
AR_CONFIGS: List[SystemKind] = [SystemKind.ART, SystemKind.ARF_TID, SystemKind.ARF_ADDR]


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine."""

    kind: SystemKind
    cmp: CMPConfig = field(default_factory=scaled_cmp_config)
    hmc_cube: HMCConfig = field(default_factory=HMCConfig)
    hmc_net: HMCNetworkConfig = field(default_factory=HMCNetworkConfig)
    dram_mapping: DRAMAddressMapping = field(default_factory=DRAMAddressMapping)
    are: AREConfig = field(default_factory=AREConfig)
    cpu_freq_ghz: float = 2.0
    profile: str = "scaled"

    @property
    def network_label(self) -> Optional[str]:
        """The network fingerprint, or ``None`` when it cannot matter.

        ``None`` for the DRAM baseline (no memory network) and for the default
        Table 4.1 network, so every label and cache key that predates the
        topology dimension stays byte-identical.
        """
        if not self.kind.uses_hmc or self.hmc_net.is_default:
            return None
        return self.hmc_net.label

    @property
    def label(self) -> str:
        """Scheme label, suffixed with the network fingerprint when non-default.

        ``"ARF-tid"`` on the default network, ``"ARF-tid@mesh16c4"`` on a
        variant one; this string keys the in-memory result matrix and joins
        the persistent run-cache key, so two network variants of the same
        scheme can never collide.
        """
        network = self.network_label
        return self.kind.value if network is None else f"{self.kind.value}@{network}"

    def with_network(self, net: HMCNetworkConfig) -> "SystemConfig":
        """The same machine with a different memory-network shape."""
        return replace(self, hmc_net=net)


def make_network_config(topology: Optional[str] = None,
                        num_cubes: Optional[int] = None,
                        num_controllers: Optional[int] = None,
                        link_bandwidth: Optional[float] = None,
                        failure_rate: Optional[float] = None,
                        failure_seed: Optional[int] = None) -> HMCNetworkConfig:
    """An :class:`HMCNetworkConfig` with the given overrides, validated eagerly.

    The topology is test-built once (cheap, graph-only) so an impossible shape
    — e.g. 18 cubes in a dragonfly — fails right here with the builder's
    actionable message instead of deep inside a system build.
    ``link_bandwidth`` is in bytes per CPU cycle (Table 4.1 default: 12.5).
    """
    overrides = {name: value for name, value in (("topology", topology),
                                                 ("num_cubes", num_cubes),
                                                 ("num_controllers", num_controllers),
                                                 ("failure_rate", failure_rate),
                                                 ("failure_seed", failure_seed))
                 if value is not None}
    if link_bandwidth is not None:
        if link_bandwidth <= 0:
            raise ValueError(f"link bandwidth must be > 0 bytes/cycle, "
                             f"got {link_bandwidth}")
        overrides["link"] = replace(default_network().link,
                                    bandwidth_bytes_per_cycle=link_bandwidth)
    net = replace(default_network(), **overrides) if overrides else default_network()
    if net.num_controllers < 1:
        raise ValueError(f"controller count must be >= 1, got {net.num_controllers}")
    if net.failure_rate < 0:
        raise ValueError(f"failure rate must be >= 0, got {net.failure_rate}")
    build_network_topology(net.topology, num_cubes=net.num_cubes,
                           num_controllers=net.num_controllers)
    return net


def make_system_config(kind: "SystemKind | str", profile: str = "scaled",
                       num_cores: Optional[int] = None,
                       topology: Optional[str] = None,
                       num_cubes: Optional[int] = None,
                       num_controllers: Optional[int] = None,
                       link_bandwidth: Optional[float] = None,
                       failure_rate: Optional[float] = None,
                       failure_seed: Optional[int] = None) -> SystemConfig:
    """Build a :class:`SystemConfig` for one of the five evaluation schemes.

    ``profile`` selects between the full Table 4.1 machine (``"paper"``) and the
    scaled-down machine used by the default experiments (``"scaled"``), whose
    cache capacities shrink together with the workload footprints.
    The remaining keywords override the memory network: shape
    (``topology``/``num_cubes``/``num_controllers``), link bandwidth in
    bytes/cycle, and the seeded random-failure process.  Impossible shapes
    are rejected here rather than mid-build.
    """
    if isinstance(kind, str):
        kind = SystemKind.from_name(kind)
    if profile == "paper":
        cmp = paper_cmp_config()
    elif profile == "scaled":
        cmp = scaled_cmp_config(num_cores or 4)
    else:
        raise ValueError(f"unknown profile {profile!r}; choose 'paper' or 'scaled'")
    if num_cores is not None and profile == "paper":
        cmp = replace(cmp, num_cores=num_cores)
    config = SystemConfig(kind=kind, cmp=cmp, profile=profile)
    net_overrides = dict(topology=topology, num_cubes=num_cubes,
                         num_controllers=num_controllers,
                         link_bandwidth=link_bandwidth,
                         failure_rate=failure_rate, failure_seed=failure_seed)
    if any(value is not None for value in net_overrides.values()):
        config = config.with_network(make_network_config(**net_overrides))
    return config


def all_system_configs(profile: str = "scaled",
                       num_cores: Optional[int] = None) -> List[SystemConfig]:
    """One config per evaluation scheme, in paper plotting order."""
    return [make_system_config(kind, profile=profile, num_cores=num_cores)
            for kind in CONFIG_ORDER]


def table_4_1(config: Optional[SystemConfig] = None) -> List[Tuple[str, str]]:
    """Render the Table 4.1 system-configuration rows for ``config``."""
    config = config or make_system_config(SystemKind.ARF_TID, profile="paper")
    cmp = config.cmp
    cache = cmp.cache
    cube = config.hmc_cube
    net = config.hmc_net
    link = net.link
    lane_gbps = link.bandwidth_bytes_per_cycle * config.cpu_freq_ghz * 8 / 16
    return [
        ("CPU Core", f"{cmp.num_cores} O3cores @ {config.cpu_freq_ghz:.0f} GHz, "
                     f"issue/commit width: {cmp.core.issue_width}, ROB: {cmp.core.rob_size}"),
        ("L1I/DCache", f"Private, {cache.l1_size // 1024}KB, {cache.l1_assoc} way"),
        ("L2Cache", f"S-NUCA {cache.l2_size // 1024}KB, {cache.l2_assoc} way, MESI, "
                    f"{cache.l2_banks} banks"),
        ("NoC", f"{cmp.mesh_rows}x{cmp.mesh_cols} mesh, 4 MC at 4 corners"),
        ("DRAM Baseline", f"{config.dram_mapping.num_channels} MCs, "
                          f"{config.dram_mapping.ranks_per_channel} ranks/channel, "
                          f"{config.dram_mapping.banks_per_rank} banks/rank"),
        ("HMC", f"{cube.num_vaults} vaults, {cube.banks_per_vault} banks/vault"),
        ("HMC-Net", f"{net.num_cubes} cube {net.topology}, {net.num_controllers} controllers, "
                    f"minimal routing, 16 lanes/link @ {lane_gbps:.1f} Gbps/lane"),
    ]
