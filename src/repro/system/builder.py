"""Assemble a complete simulated machine from a :class:`SystemConfig`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.host import ActiveRoutingHost
from ..cpu.cmp import ChipMultiprocessor
from ..dram.dram_system import DRAMSystem
from ..hmc.hmc_memory import HMCMemorySystem
from ..sim import Simulator
from .config import SystemConfig, SystemKind, make_system_config


@dataclass
class BuiltSystem:
    """A ready-to-run machine: simulator + host CMP + memory (+ AR host)."""

    config: SystemConfig
    sim: Simulator
    cmp: ChipMultiprocessor
    memory: Union[DRAMSystem, HMCMemorySystem]
    ar_host: Optional[ActiveRoutingHost] = None

    @property
    def is_active_routing(self) -> bool:
        return self.ar_host is not None

    @property
    def trace_mode(self) -> str:
        """Which workload trace variant this machine executes."""
        return "active" if self.is_active_routing else "baseline"


def build_system(config: Union[SystemConfig, SystemKind, str],
                 num_cores: Optional[int] = None) -> BuiltSystem:
    """Build the machine described by ``config``.

    ``config`` may be a full :class:`SystemConfig`, a :class:`SystemKind`, or a
    configuration name such as ``"ARF-tid"`` (in which case the scaled profile
    is used).
    """
    if not isinstance(config, SystemConfig):
        config = make_system_config(config, num_cores=num_cores)
    sim = Simulator(cpu_freq_ghz=config.cpu_freq_ghz)

    if config.kind.uses_hmc:
        memory: Union[DRAMSystem, HMCMemorySystem] = HMCMemorySystem(
            sim, cube_config=config.hmc_cube, net_config=config.hmc_net)
    else:
        memory = DRAMSystem(sim, mapping=config.dram_mapping)

    ar_host = None
    if config.kind.uses_active_routing:
        scheme = config.kind.scheme
        assert scheme is not None
        assert isinstance(memory, HMCMemorySystem)
        ar_host = ActiveRoutingHost(sim, memory, scheme, are_config=config.are)

    cmp = ChipMultiprocessor(sim, config.cmp, memory, offload_backend=ar_host)
    faults = getattr(memory, "faults", None)
    if faults is not None:
        # The random fault process quiesces relative to the workload's own
        # finish time, not the queue occupancy: the verdict is a pure
        # function of (seed, finish time), the rule every degraded result
        # was captured under.
        faults.finish_time_provider = (
            lambda: cmp.finish_time() if cmp.all_done else None)
    return BuiltSystem(config=config, sim=sim, cmp=cmp, memory=memory, ar_host=ar_host)
