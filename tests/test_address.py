"""Unit and property tests for the physical-address mappings."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.mem import DRAMAddressMapping, HMCAddressMapping
from repro.mem.layout import DataLayout

addresses = st.integers(min_value=0, max_value=2**40)


def test_hmc_mapping_rejects_invalid_shapes():
    # Non-power-of-two cube counts are legal (exact topology factorizations
    # like a 2x4 mesh produce them); zero/negative counts are not.
    assert HMCAddressMapping(num_cubes=10).num_cubes == 10
    with pytest.raises(ValueError):
        HMCAddressMapping(num_cubes=0)
    with pytest.raises(ValueError):
        HMCAddressMapping(num_vaults=12)
    with pytest.raises(ValueError):
        HMCAddressMapping(cube_interleave=48)


def test_hmc_mapping_non_power_of_two_cubes_stay_in_range():
    mapping = HMCAddressMapping(num_cubes=10)
    cubes = {mapping.cube_of(page * 4096) for page in range(512)}
    assert cubes == set(range(10))


def test_hmc_block_alignment():
    mapping = HMCAddressMapping()
    assert mapping.block_of(0x12345) == 0x12345 // 64 * 64


def test_hmc_interleaves_pages_across_cubes():
    mapping = HMCAddressMapping(num_cubes=16, cube_interleave=4096)
    cubes = {mapping.cube_of(page * 4096) for page in range(256)}
    assert cubes == set(range(16))


def test_hmc_same_page_same_cube():
    mapping = HMCAddressMapping()
    base = 7 * 4096
    assert mapping.cube_of(base) == mapping.cube_of(base + 4095)


@given(addresses)
def test_hmc_coordinates_in_range(addr):
    mapping = HMCAddressMapping()
    assert 0 <= mapping.cube_of(addr) < mapping.num_cubes
    assert 0 <= mapping.vault_of(addr) < mapping.num_vaults
    assert 0 <= mapping.bank_of(addr) < mapping.banks_per_vault
    assert mapping.row_of(addr) >= 0


@given(addresses)
def test_dram_coordinates_in_range(addr):
    mapping = DRAMAddressMapping()
    assert 0 <= mapping.channel_of(addr) < mapping.num_channels
    assert 0 <= mapping.rank_of(addr) < mapping.ranks_per_channel
    assert 0 <= mapping.bank_of(addr) < mapping.banks_per_rank
    assert mapping.row_of(addr) >= 0


@given(addresses)
def test_describe_is_consistent(addr):
    mapping = HMCAddressMapping()
    described = mapping.describe(addr)
    assert described["cube"] == mapping.cube_of(addr)
    assert described["vault"] == mapping.vault_of(addr)


def test_dram_channels_spread_over_consecutive_pages():
    mapping = DRAMAddressMapping(num_channels=4)
    channels = [mapping.channel_of(page * 4096) for page in range(64)]
    assert set(channels) == set(range(4))
    # The XOR hash must not map long runs of consecutive pages to one channel.
    longest_run = max(len(list(run)) for run in _runs(channels))
    assert longest_run < 16


def _runs(values):
    current = []
    for v in values:
        if current and current[-1] != v:
            yield current
            current = []
        current.append(v)
    if current:
        yield current


#: sha256 of the cube (HMC) and channel (DDR) chosen for each of the first
#: 4096 interleave granules of a workload layout, one byte per granule,
#: captured when the XOR fold was a separate helper function.
GRANULE_ASSIGNMENT_DIGESTS = (
    "ab04d810ae361b368065c4829c77985445e6eb35e642b3f7caa501d0468e516b",
    "755a6cbe04aa296a0264dfb8ada041988e32f2de6734ce5152fca666b7df0972",
)


def test_granule_assignments_match_the_pinned_hash():
    """Every granule of a tiny pagerank layout (and far beyond it) lands on
    the same cube and channel as before the fold was inlined."""
    base = DataLayout().allocate("probe", 1).base
    hmc, ddr = HMCAddressMapping(), DRAMAddressMapping()
    cubes = bytes(hmc.cube_of(base + g * hmc.cube_interleave) for g in range(4096))
    channels = bytes(ddr.channel_of(base + g * ddr.channel_interleave) for g in range(4096))
    assert (hashlib.sha256(cubes).hexdigest(),
            hashlib.sha256(channels).hexdigest()) == GRANULE_ASSIGNMENT_DIGESTS
