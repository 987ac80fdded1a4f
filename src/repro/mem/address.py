"""Physical-address decomposition for the two memory substrates.

Both mappings follow the usual interleaved layout of memory-network studies:
consecutive *interleave granules* (4 KB pages by default for the cube network,
matching the unified-memory-network design the paper adopts) rotate across
cubes / channels so that large arrays naturally spread over the whole network.

Both XOR-fold the granule index (``g ^ (g >> 3) ^ (g >> 7)``) before the
modulo, as real memory controllers hash their channel/cube selection bits:
strided and lock-step streams from several cores then do not camp on one
channel, which would leave the DDR baseline unrealistically serialized.  The
fold is written out in ``cube_of`` and ``channel_of`` rather than called,
because both run once per memory request.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _require_power_of_two(value: int, what: str) -> None:
    if not _is_power_of_two(value):
        raise ValueError(f"{what} must be a power of two, got {value}")


@dataclass(frozen=True)
class HMCAddressMapping:
    """Decompose a physical address into (cube, vault, bank, row) coordinates.

    ``cube_interleave`` is the granule rotated across cubes (page-level by
    default); ``block_size`` is the granule rotated across vaults inside a cube
    so that sequential blocks exploit vault-level parallelism.
    """

    num_cubes: int = 16
    num_vaults: int = 32
    banks_per_vault: int = 8
    block_size: int = 64
    cube_interleave: int = 4096
    row_size: int = 2048

    def __post_init__(self) -> None:
        # Cube selection is a modulo over hashed granules, so any positive cube
        # count interleaves correctly; topology factorizations (2x4 mesh, 3x6
        # dragonfly, ...) legitimately produce non-power-of-two counts.
        if self.num_cubes < 1:
            raise ValueError(f"num_cubes must be positive, got {self.num_cubes}")
        _require_power_of_two(self.num_vaults, "num_vaults")
        _require_power_of_two(self.banks_per_vault, "banks_per_vault")
        _require_power_of_two(self.block_size, "block_size")
        _require_power_of_two(self.cube_interleave, "cube_interleave")
        _require_power_of_two(self.row_size, "row_size")
        if self.cube_interleave < self.block_size:
            raise ValueError("cube_interleave must be at least one block")

    def block_of(self, addr: int) -> int:
        """Block-aligned address (cache-line granularity)."""
        return addr // self.block_size * self.block_size

    def cube_of(self, addr: int) -> int:
        granule = addr // self.cube_interleave
        return (granule ^ (granule >> 3) ^ (granule >> 7)) % self.num_cubes

    def vault_of(self, addr: int) -> int:
        return (addr // self.block_size) % self.num_vaults

    def bank_of(self, addr: int) -> int:
        return (addr // (self.block_size * self.num_vaults)) % self.banks_per_vault

    def row_of(self, addr: int) -> int:
        per_bank_stride = self.block_size * self.num_vaults * self.banks_per_vault
        return (addr // per_bank_stride) // (self.row_size // self.block_size)

    def describe(self, addr: int) -> dict:
        """Return every coordinate of ``addr`` (useful for debugging layouts)."""
        return {
            "addr": addr,
            "cube": self.cube_of(addr),
            "vault": self.vault_of(addr),
            "bank": self.bank_of(addr),
            "row": self.row_of(addr),
        }


@dataclass(frozen=True)
class DRAMAddressMapping:
    """Decompose a physical address for the conventional DDR baseline."""

    num_channels: int = 4
    ranks_per_channel: int = 4
    banks_per_rank: int = 64
    block_size: int = 64
    channel_interleave: int = 4096
    row_size: int = 8192

    def __post_init__(self) -> None:
        _require_power_of_two(self.num_channels, "num_channels")
        _require_power_of_two(self.ranks_per_channel, "ranks_per_channel")
        _require_power_of_two(self.banks_per_rank, "banks_per_rank")
        _require_power_of_two(self.block_size, "block_size")
        _require_power_of_two(self.channel_interleave, "channel_interleave")
        _require_power_of_two(self.row_size, "row_size")

    def block_of(self, addr: int) -> int:
        return addr // self.block_size * self.block_size

    def channel_of(self, addr: int) -> int:
        granule = addr // self.channel_interleave
        return (granule ^ (granule >> 3) ^ (granule >> 7)) % self.num_channels

    def rank_of(self, addr: int) -> int:
        return (addr // self.block_size) % self.ranks_per_channel

    def bank_of(self, addr: int) -> int:
        return (addr // (self.block_size * self.ranks_per_channel)) % self.banks_per_rank

    def row_of(self, addr: int) -> int:
        per_bank_stride = self.block_size * self.ranks_per_channel * self.banks_per_rank
        return (addr // per_bank_stride) // max(1, self.row_size // self.block_size)

    def describe(self, addr: int) -> dict:
        return {
            "addr": addr,
            "channel": self.channel_of(addr),
            "rank": self.rank_of(addr),
            "bank": self.bank_of(addr),
            "row": self.row_of(addr),
        }
