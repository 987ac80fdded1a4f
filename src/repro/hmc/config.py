"""Configuration of a single Hybrid Memory Cube and of the cube network.

:attr:`HMCNetworkConfig.label` is the network's fingerprint inside every
config label and run-cache key.  Its format lives here alone: the shape
(``mesh16c4``), the failure process when enabled (``-f10s7``), a
non-default link bandwidth (``-bw25``), and a digest suffix for any other
deviation from Table 4.1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..dram.timing import HMC_VAULT_TIMING, DRAMTiming
from ..network.link import LinkConfig


@dataclass(frozen=True)
class HMCConfig:
    """Parameters of one cube (Table 4.1: 4 GB, 32 vaults, 8 banks/vault)."""

    num_vaults: int = 32
    banks_per_vault: int = 8
    vault_timing: DRAMTiming = field(default_factory=lambda: HMC_VAULT_TIMING)
    #: Internal TSV bandwidth per vault in bytes per CPU cycle (10 GB/s/vault).
    vault_bytes_per_cycle: float = 5.0
    #: Crossbar switch traversal latency in CPU cycles (1 GHz switch clock).
    crossbar_latency: float = 2.0
    #: Fixed vault-controller pipeline latency in CPU cycles.
    vault_controller_latency: float = 8.0
    #: HMC DRAM access energy per bit (paper: 12 pJ/bit).
    energy_pj_per_bit: float = 12.0


@dataclass(frozen=True)
class HMCNetworkConfig:
    """Parameters of the cube network (Table 4.1: 16-cube dragonfly, 4 controllers)."""

    num_cubes: int = 16
    num_controllers: int = 4
    topology: str = "dragonfly"
    link: LinkConfig = field(default_factory=LinkConfig)
    router_delay: float = 2.0
    controller_latency: float = 4.0
    #: Granule for interleaving normal requests across the host-side controllers.
    controller_interleave: int = 4096
    #: Expected random link failures per 10,000 cycles (0 = failure-free).
    failure_rate: float = 0.0
    #: Seed of the deterministic failure timeline (victim/repair/gap draws).
    failure_seed: int = 0

    @property
    def is_default(self) -> bool:
        """True for the Table 4.1 network every existing figure was built on."""
        return self == default_network()

    @property
    def label(self) -> str:
        """Short deterministic fingerprint of this network, e.g. ``mesh16c4``.

        The shape dimensions (topology, cube count, controller count) are
        spelled out; any further deviation from the defaults (link parameters,
        router delay, ...) is folded into an 8-hex digest suffix so that two
        different networks can never share a label.  Experiment labels and
        run-cache keys embed this string, which is what keeps results from
        different networks apart.

        The failure process is spelled out too (e.g. ``mesh16c4-f0.5s7``) —
        but only when it is enabled, so every failure-free label (and with it
        every cache key and golden result) is byte-identical.  A link
        bandwidth deviating on its own is likewise spelled out
        (``dragonfly16c4-bw25``) rather than hidden in the digest: bandwidth
        is a sweep axis and its rows should be readable in figure tables.
        The failure seed appears only inside the failure fragment.  These
        bytes are pinned by the frozen corpus in ``tests/test_spec.py``.
        """
        bandwidth = self.link.bandwidth_bytes_per_cycle
        default_link = default_network().link
        base = f"{self.topology}{self.num_cubes}c{self.num_controllers}"
        if self.failure_rate:
            base += f"-f{self.failure_rate:g}s{self.failure_seed}"
        if bandwidth != default_link.bandwidth_bytes_per_cycle:
            base += f"-bw{bandwidth:g}"
        # Only the bandwidth field of the link is spelled out: any *other*
        # link deviation (latency, energy) must still fall through to the
        # digest below or two different networks could share a label.
        spelled_out = replace(default_network(), topology=self.topology,
                              num_cubes=self.num_cubes,
                              num_controllers=self.num_controllers,
                              failure_rate=self.failure_rate,
                              failure_seed=self.failure_seed,
                              link=replace(default_link,
                                           bandwidth_bytes_per_cycle=bandwidth))
        if self == spelled_out:
            return base
        # The digest hashes the repr the config had while it still carried a
        # ``routing="static"`` field, so off-axis labels keep their bytes.
        legacy = repr(self).replace(", failure_rate=",
                                    ", routing='static', failure_rate=", 1)
        digest = hashlib.sha256(legacy.encode()).hexdigest()[:8]
        return f"{base}-{digest}"


_DEFAULT_NETWORK: "HMCNetworkConfig | None" = None


def default_network() -> HMCNetworkConfig:
    """The shared default :class:`HMCNetworkConfig` instance (Table 4.1)."""
    global _DEFAULT_NETWORK
    if _DEFAULT_NETWORK is None:
        _DEFAULT_NETWORK = HMCNetworkConfig()
    return _DEFAULT_NETWORK
