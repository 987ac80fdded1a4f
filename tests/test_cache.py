"""Unit tests for the cache hierarchy, directory and MSHR behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import Cache, CacheHierarchy, Directory
from repro.cpu.config import CacheConfig, CMPConfig, CoreConfig
from repro.cpu.noc import MeshNoC
from repro.mem import MemoryRequest
from repro.sim import Simulator


class ImmediateMemory:
    """Fake memory that completes every request after a fixed latency."""

    def __init__(self, sim, latency=100.0):
        self.sim = sim
        self.latency = latency
        self.requests = []

    @property
    def is_network_memory(self):
        return False

    def access(self, request: MemoryRequest) -> None:
        self.requests.append(request)
        finish = self.sim.now + self.latency
        self.sim.schedule(self.latency, lambda: request.complete(finish))


def small_cmp_config() -> CMPConfig:
    return CMPConfig(num_cores=2, mesh_rows=2, mesh_cols=2, core=CoreConfig(),
                     cache=CacheConfig(l1_size=1024, l1_assoc=2, l2_size=4096, l2_assoc=4,
                                       l2_banks=2, prefetch_degree=0))


@pytest.fixture
def hierarchy(sim):
    config = small_cmp_config()
    noc = MeshNoC(sim, config.mesh_rows, config.mesh_cols)
    memory = ImmediateMemory(sim)
    return CacheHierarchy(sim, config, noc, memory), memory


def test_cache_lru_eviction():
    cache = Cache(size_bytes=4 * 64, assoc=2, block_size=64)  # 2 sets x 2 ways
    assert not cache.lookup(0)
    cache.fill(0)
    cache.fill(2)      # same set as 0 (block % 2 == 0)
    assert cache.lookup(0)
    victim = cache.fill(4)  # evicts LRU of set 0, which is block 2
    assert victim == (2, False)
    assert cache.contains(0) and cache.contains(4) and not cache.contains(2)


def test_cache_dirty_eviction_reported():
    cache = Cache(size_bytes=2 * 64, assoc=1, block_size=64)
    cache.fill(0, dirty=True)
    victim = cache.fill(2, dirty=False)
    assert victim == (0, True)


def test_cache_validation():
    with pytest.raises(ValueError):
        Cache(size_bytes=100, assoc=3, block_size=64)


class StampLRU:
    """Reference LRU: per-entry recency stamps, the victim is the minimum stamp."""

    def __init__(self, num_sets, assoc):
        self.num_sets, self.assoc = num_sets, assoc
        self.sets = [dict() for _ in range(num_sets)]  # tag -> [stamp, dirty]
        self.clock = 0

    def lookup(self, block, mark_dirty=False):
        entry = self.sets[block % self.num_sets].get(block // self.num_sets)
        self.clock += 1
        if entry is None:
            return False
        entry[0] = self.clock
        if mark_dirty:
            entry[1] = True
        return True

    def fill(self, block, dirty=False):
        set_idx, tag = block % self.num_sets, block // self.num_sets
        cache_set = self.sets[set_idx]
        self.clock += 1
        if tag in cache_set:
            cache_set[tag][0] = self.clock
            cache_set[tag][1] = cache_set[tag][1] or dirty
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim_tag = min(cache_set, key=lambda t: cache_set[t][0])
            victim = (victim_tag * self.num_sets + set_idx, cache_set.pop(victim_tag)[1])
        cache_set[tag] = [self.clock, dirty]
        return victim

    def invalidate(self, block):
        return self.sets[block % self.num_sets].pop(block // self.num_sets, None) is not None

    @property
    def occupancy(self):
        return sum(len(s) for s in self.sets)


@st.composite
def _cache_streams(draw):
    """A cache geometry and an op stream over about twice its capacity, so
    hits, dirty marks and evictions all happen."""
    assoc = draw(st.integers(min_value=1, max_value=8))
    num_sets = draw(st.integers(min_value=1, max_value=4))
    blocks = st.integers(min_value=0, max_value=2 * assoc * num_sets)
    ops = draw(st.lists(st.tuples(st.sampled_from(["lookup", "fill", "invalidate"]),
                                  blocks, st.booleans()), min_size=20, max_size=200))
    return assoc, num_sets, ops


@settings(max_examples=200, deadline=None)
@given(_cache_streams())
def test_cache_matches_stamp_lru_reference(stream):
    assoc, num_sets, ops = stream
    cache = Cache(num_sets * assoc * 64, assoc, 64)
    reference = StampLRU(num_sets, assoc)
    for op, block, flag in ops:
        if op == "lookup":
            assert cache.lookup(block, mark_dirty=flag) == reference.lookup(block, flag)
        elif op == "fill":
            assert cache.fill(block, dirty=flag) == reference.fill(block, flag)
        else:
            assert cache.invalidate(block) == reference.invalidate(block)
        assert cache.occupancy == reference.occupancy


def test_directory_tracks_sharers_and_invalidations():
    directory = Directory()
    directory.add_sharer(10, 0)
    directory.add_sharer(10, 1)
    victims = directory.exclusive(10, 2)
    assert victims == [0, 1]
    assert directory.sharers(10) == {2}
    assert directory.invalidations == 2
    directory.remove_sharer(10, 2)
    assert directory.sharers(10) == set()


def test_hierarchy_miss_then_hit(sim, hierarchy):
    cache, memory = hierarchy
    results = []
    first = cache.access(0, addr=0x1000, is_write=False, on_complete=results.append)
    assert first is None          # cold miss goes to memory
    sim.run_until_idle()
    assert len(results) == 1
    assert results[0] > 100       # includes the memory latency
    # Second access to the same block hits on chip.
    second = cache.access(0, addr=0x1008, is_write=False)
    assert second is not None and second < 50


def test_hierarchy_mshr_merging(sim, hierarchy):
    cache, memory = hierarchy
    results = []
    assert cache.access(0, addr=0x2000, is_write=False, on_complete=results.append) is None
    assert cache.access(0, addr=0x2008, is_write=False, on_complete=results.append) is None
    assert len(memory.requests) == 1          # merged into one block fetch
    sim.run_until_idle()
    assert len(results) == 2
    assert sim.stats.counter("cache.mshr_merges") == 1


def test_write_invalidates_other_sharers(sim, hierarchy):
    cache, memory = hierarchy
    cache.access(0, addr=0x3000, is_write=False)
    cache.access(1, addr=0x3000, is_write=False)
    sim.run_until_idle()
    # Both cores now share the block; a write from core 0 invalidates core 1.
    latency = cache.access(0, addr=0x3000, is_write=True)
    assert latency is not None
    assert sim.stats.counter("cache.invalidations") >= 1
    assert not cache.l1s[1].contains(cache.block_of(0x3000))


def test_dirty_l2_eviction_writes_back(sim):
    config = small_cmp_config()
    noc = MeshNoC(sim, 2, 2)
    memory = ImmediateMemory(sim)
    cache = CacheHierarchy(sim, config, noc, memory)
    # Write to many distinct blocks to force L2 evictions of dirty lines.
    for i in range(200):
        cache.access(0, addr=i * 64, is_write=True)
        sim.run_until_idle()
    writebacks = [r for r in memory.requests if r.is_write]
    assert writebacks, "expected dirty L2 victims to be written back to memory"


def test_atomic_access_serializes(sim, hierarchy):
    cache, memory = hierarchy
    done = []
    cache.atomic_access(0, addr=0x4000, on_complete=done.append, occupancy=50)
    cache.atomic_access(1, addr=0x4000, on_complete=done.append, occupancy=50)
    sim.run_until_idle()
    assert len(done) == 2
    # The second atomic had to wait for the first one's slot.
    assert max(done) >= 50


def test_prefetcher_issues_extra_requests(sim):
    config = CMPConfig(num_cores=1, mesh_rows=2, mesh_cols=2, core=CoreConfig(),
                       cache=CacheConfig(l1_size=1024, l1_assoc=2, l2_size=4096,
                                         l2_assoc=4, l2_banks=2, prefetch_degree=2))
    noc = MeshNoC(sim, 2, 2)
    memory = ImmediateMemory(sim)
    cache = CacheHierarchy(sim, config, noc, memory)
    cache.access(0, addr=0, is_write=False)
    assert len(memory.requests) == 3   # demand + 2 prefetches
    sim.run_until_idle()
    assert sim.stats.counter("cache.prefetches") == 2
    # The prefetched next block now hits on chip.
    assert cache.access(0, addr=64, is_write=False) is not None


def test_hit_rates_reported(sim, hierarchy):
    cache, _memory = hierarchy
    cache.access(0, addr=0x100, is_write=False)
    sim.run_until_idle()
    cache.access(0, addr=0x100, is_write=False)
    assert 0.0 <= cache.l1_hit_rate() <= 1.0
    assert 0.0 <= cache.l2_hit_rate() <= 1.0
