"""HMC vault controller: per-vault DRAM banks behind a TSV data path."""

from __future__ import annotations

from typing import List, Optional

from ..mem import HMCAddressMapping
from ..sim import Publisher, Simulator
from ..dram.bank import DRAMBank
from .config import HMCConfig

class VaultController(Publisher):
    """One of the 32 vaults on a cube's logic layer.

    The vault controller serializes accesses to its banks (open-row policy)
    and its TSV bundle, and reports access energy using the HMC per-bit cost.

    Plain slotted state rather than a :class:`~repro.sim.Component`: every
    HMC build creates hundreds of vaults and most of them are never accessed.
    The TSV is an inlined ``tsv_busy_until`` reservation, banks are created
    (and registered) on first access, and accesses and energy are derived
    from the read, write and byte counts when read.
    """

    COUNTERS = (("accesses", "accesses"), ("reads", "_n_reads"),
                ("writes", "_n_writes"), ("bytes", "_n_bytes"),
                ("energy_pj", "energy_pj"), ("tsv.busy_cycles", "_n_tsv_busy"),
                ("tsv.queue_wait_cycles", "_n_tsv_wait"))

    __slots__ = ("sim", "name", "cube_id", "vault_id", "tsv_busy_until",
                 "_banks", "_timing", "_bank_stride", "_banks_per_vault",
                 "_row_stride", "_blocks_per_row", "_bytes_per_cycle",
                 "_controller_latency", "_energy_pj_per_bit", "_n_reads",
                 "_n_writes", "_n_bytes", "_n_tsv_busy", "_n_tsv_wait")

    def __init__(self, sim: Simulator, cube_id: int, vault_id: int,
                 mapping: HMCAddressMapping, config: HMCConfig) -> None:
        self.sim = sim
        self.name = f"hmc.cube{cube_id}.vault{vault_id}"
        self.cube_id = cube_id
        self.vault_id = vault_id
        self.tsv_busy_until = 0.0
        self._banks: List[Optional[DRAMBank]] = [None] * mapping.banks_per_vault
        self._timing = config.vault_timing
        # service() runs once per vault access: hoist the address-decode
        # strides (same math as HMCAddressMapping.bank_of/row_of).
        self._bank_stride = mapping.block_size * mapping.num_vaults
        self._banks_per_vault = mapping.banks_per_vault
        self._row_stride = self._bank_stride * mapping.banks_per_vault
        self._blocks_per_row = mapping.row_size // mapping.block_size
        self._bytes_per_cycle = config.vault_bytes_per_cycle
        self._controller_latency = config.vault_controller_latency
        self._energy_pj_per_bit = config.energy_pj_per_bit
        self._n_reads = 0
        self._n_writes = 0
        self._n_bytes = 0
        self._n_tsv_busy = 0.0
        self._n_tsv_wait = 0.0
        sim.stats.register(self)

    @property
    def accesses(self) -> int:
        return self._n_reads + self._n_writes

    @property
    def energy_pj(self) -> float:
        return self._n_bytes * 8 * self._energy_pj_per_bit

    def service(self, addr: int, size: int, is_write: bool) -> float:
        """Reserve bank + TSV for one access starting now; returns finish time."""
        bank_idx = (addr // self._bank_stride) % self._banks_per_vault
        row = (addr // self._row_stride) // self._blocks_per_row
        bank = self._banks[bank_idx]
        if bank is None:
            bank = self._banks[bank_idx] = DRAMBank(
                self.sim, f"{self.name}.bank{bank_idx}", self._timing)
        earliest = self.sim.now + self._controller_latency
        # DRAMBank.access(row, earliest), inlined on the bank's slots.
        open_row = bank.open_row
        if open_row is None:
            latency = bank._row_closed_cycles
            bank._n_row_closed += 1
        elif open_row == row:
            latency = bank._row_hit_cycles
            bank._n_row_hit += 1
        else:
            latency = bank._row_miss_cycles
            bank._n_row_miss += 1
        start = bank.busy_until
        if start < earliest:
            start = earliest
        bank_finish = start + latency
        bank.busy_until = bank_finish
        wait = start - earliest
        if wait > 0:
            bank._n_queue_wait += wait
        bank._n_busy += latency
        bank.open_row = row
        bank._n_accesses += 1
        occupancy = size / self._bytes_per_cycle
        start = self.tsv_busy_until
        if start < bank_finish:
            start = bank_finish
        tsv_finish = start + occupancy
        self.tsv_busy_until = tsv_finish
        wait = start - bank_finish
        if wait > 0:
            self._n_tsv_wait += wait
        self._n_tsv_busy += occupancy
        if is_write:
            self._n_writes += 1
        else:
            self._n_reads += 1
        self._n_bytes += size
        return tsv_finish
