"""Two-level cache hierarchy with a directory for invalidation-based coherence.

The hierarchy is the host-side substrate of every configuration: private L1s
per core, a shared S-NUCA L2 whose banks sit on mesh tiles, and a directory
that tracks which L1s hold a block so writes to shared data pay an
invalidation penalty (the coherence overhead Active-Routing eliminates for
offloaded regions).

Misses below the L2 are handed to the configured memory system (DDR baseline
or the HMC memory network) as :class:`~repro.mem.MemoryRequest` objects; MSHRs
merge concurrent misses to the same block.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..mem import AccessType, MemoryRequest
from ..sim import Component, SharedResource, Simulator
from .config import CacheConfig, CMPConfig
from .noc import MeshNoC

#: Bytes of an L2 probe's request (its response carries one block).
L2_PROBE_REQUEST_BYTES = 16

#: Signature of the completion callback handed to :meth:`CacheHierarchy.access`.
MissCallback = Callable[[float], None]


def _ignore_latency(latency: float) -> None:
    """Completion callback of a miss nobody waits on."""


class Cache:
    """A set-associative, write-back, LRU cache (tag store only).

    Each set is a plain ``tag -> dirty`` dict whose insertion order is the
    recency order: a touch moves the tag to the end (pop + re-insert), so the
    least-recently-used tag is always the first one.
    """

    def __init__(self, size_bytes: int, assoc: int, block_size: int) -> None:
        if size_bytes % (assoc * block_size) != 0:
            raise ValueError("cache size must be a multiple of assoc * block_size")
        self.block_size = block_size
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * block_size)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, block: int, mark_dirty: bool = False) -> bool:
        """Probe for ``block``; updates LRU and the dirty bit on a hit."""
        num_sets = self.num_sets
        cache_set = self._sets[block % num_sets]
        tag = block // num_sets
        dirty = cache_set.pop(tag, None)
        if dirty is None:
            self.misses += 1
            return False
        cache_set[tag] = True if mark_dirty else dirty
        self.hits += 1
        return True

    def fill(self, block: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``block``; returns ``(evicted_block, was_dirty)`` if a victim was chosen."""
        num_sets = self.num_sets
        set_idx = block % num_sets
        tag = block // num_sets
        cache_set = self._sets[set_idx]
        present = cache_set.pop(tag, None)
        if present is not None:
            cache_set[tag] = present or dirty
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim_tag = next(iter(cache_set))
            victim = (victim_tag * num_sets + set_idx, cache_set.pop(victim_tag))
        cache_set[tag] = dirty
        return victim

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; returns whether it was there."""
        num_sets = self.num_sets
        return self._sets[block % num_sets].pop(block // num_sets, None) is not None

    def contains(self, block: int) -> bool:
        num_sets = self.num_sets
        return block // num_sets in self._sets[block % num_sets]

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class Directory:
    """Tracks which cores' L1s hold each block (MESI-style sharer bookkeeping)."""

    def __init__(self) -> None:
        self._sharers: Dict[int, Set[int]] = {}
        self.invalidations = 0

    def sharers(self, block: int) -> Set[int]:
        return self._sharers.get(block, set())

    def add_sharer(self, block: int, core: int) -> None:
        # get-then-insert rather than setdefault: the latter constructs (and
        # usually discards) a fresh set on every call, once per cache access.
        sharers = self._sharers.get(block)
        if sharers is None:
            self._sharers[block] = {core}
        else:
            sharers.add(core)

    def remove_sharer(self, block: int, core: int) -> None:
        sharers = self._sharers.get(block)
        if sharers is not None:
            sharers.discard(core)
            if not sharers:
                del self._sharers[block]

    def exclusive(self, block: int, core: int) -> List[int]:
        """Make ``core`` the sole sharer; returns the cores that must be invalidated."""
        sharers = self._sharers.get(block)
        if sharers is None:
            self._sharers[block] = {core}
            return []
        if len(sharers) == 1 and core in sharers:
            # Already the sole sharer: the commonest write.
            return []
        victims = sorted(sharers - {core})
        if victims:
            self.invalidations += len(victims)
        self._sharers[block] = {core}
        return victims


class CacheHierarchy(Component):
    """Private L1s + shared banked L2 + directory, in front of a memory system."""

    def __init__(self, sim: Simulator, config: CMPConfig, noc: MeshNoC, memory_system) -> None:
        super().__init__(sim, "cache")
        self.config = config
        self.cache_config: CacheConfig = config.cache
        self.noc = noc
        self.memory = memory_system
        cc = self.cache_config
        self.l1s: List[Cache] = [Cache(cc.l1_size, cc.l1_assoc, cc.block_size)
                                 for _ in range(config.num_cores)]
        self.l2: Cache = Cache(cc.l2_size, cc.l2_assoc, cc.block_size)
        self.directory = Directory()
        # MSHRs: outstanding block -> list of (waiter callback, start_time, core_id)
        self._mshrs: Dict[int, List[Tuple[MissCallback, float, int]]] = {}
        # Per-block serializers used by atomic read-modify-writes.
        self._atomic_locks: Dict[int, SharedResource] = {}
        # access() runs once per load/store and counts on three plain ints;
        # the other access counters are derived from them when read.
        self.l1_accesses = 0
        self._n_l1_hits = 0
        self._n_l2_hits = 0
        self.energy_pj = 0.0
        # The L2 probe: its NoC hop count per (core, bank), resolved once,
        # goes to the NoC's probe log (the NoC does the accounting).
        self._probe_log = noc.probe_log_for(L2_PROBE_REQUEST_BYTES, cc.block_size)
        self._probe_hops = [[noc.hops(noc.core_tile(core), noc.bank_tile(bank))
                             for bank in range(cc.l2_banks)]
                            for core in range(config.num_cores)]
        self._probe_cycles_per_hop = 2 * noc.hop_latency
        self._n_l1_writebacks = 0
        self._n_l2_writebacks = 0
        self.invalidations = 0
        self._n_atomics = 0
        self._n_prefetches = 0
        self._n_mshr_merges = 0

    # Every L1 miss probes the L2.
    COUNTERS = (("accesses", "l1_accesses"), ("l1_accesses", "l1_accesses"),
                ("l1_hits", "_n_l1_hits"), ("l1_misses", "l1_misses"),
                ("l2_accesses", "l1_misses"), ("l2_hits", "_n_l2_hits"),
                ("l2_misses", "l2_misses"), ("energy_pj", "energy_pj"),
                ("l1_writebacks", "_n_l1_writebacks"),
                ("l2_writebacks", "_n_l2_writebacks"),
                ("invalidations", "invalidations"), ("atomics", "_n_atomics"),
                ("prefetches", "_n_prefetches"), ("mshr_merges", "_n_mshr_merges"))

    @property
    def l1_misses(self) -> int:
        return self.l1_accesses - self._n_l1_hits

    @property
    def l2_misses(self) -> int:
        return self.l1_accesses - self._n_l1_hits - self._n_l2_hits

    # -- address helpers ---------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr // self.cache_config.block_size

    # -- main access path ----------------------------------------------------------
    def access(self, core_id: int, addr: int, is_write: bool,
               on_complete: Optional[MissCallback] = None) -> Optional[float]:
        """Access one word.

        Returns the on-chip latency when the access hits in L1 or L2.  Returns
        ``None`` when the block must be fetched from memory, in which case
        ``on_complete(total_latency)`` fires when the fill returns.
        """
        cc = self.cache_config
        block = addr // cc.block_size
        self.l1_accesses += 1
        self.energy_pj += cc.l1_energy_pj

        coherence_penalty = 0.0
        if is_write:
            victims = self.directory.exclusive(block, core_id)
            if victims:
                coherence_penalty = cc.invalidation_latency
                self.invalidations += len(victims)
                for victim_core in victims:
                    self.l1s[victim_core].invalidate(block)

        if self.l1s[core_id].lookup(block, is_write):
            self._n_l1_hits += 1
            return cc.l1_latency + coherence_penalty

        # L2 probe (S-NUCA bank across the mesh): a NoC round trip from the
        # core's tile to the bank's tile.
        hops = self._probe_hops[core_id][block % cc.l2_banks]
        self._probe_log.append(hops)
        noc_latency = hops * self._probe_cycles_per_hop
        self.energy_pj += cc.l2_energy_pj
        if self.l2.lookup(block, is_write):
            self._n_l2_hits += 1
            self._fill_l1(core_id, block, dirty=is_write)
            self.directory.add_sharer(block, core_id)
            return cc.l1_latency + cc.l2_latency + noc_latency + coherence_penalty

        on_chip = cc.l1_latency + cc.l2_latency + noc_latency + coherence_penalty
        self._miss_to_memory(core_id, block, addr, is_write, on_chip, on_complete)
        if cc.prefetch_degree > 0:
            self._issue_prefetches(block)
        return None

    def _fill_l1(self, core_id: int, block: int, dirty: bool) -> None:
        victim = self.l1s[core_id].fill(block, dirty=dirty)
        self.directory.add_sharer(block, core_id)
        if victim is not None:
            victim_block, was_dirty = victim
            self.directory.remove_sharer(victim_block, core_id)
            if was_dirty:
                # Write back into the L2 (on-chip traffic only).
                self._n_l1_writebacks += 1
                self.l2.fill(victim_block, dirty=True)

    def _fill_l2(self, block: int, dirty: bool) -> None:
        victim = self.l2.fill(block, dirty=dirty)
        if victim is not None:
            victim_block, was_dirty = victim
            if was_dirty:
                self._n_l2_writebacks += 1
                self._write_back_to_memory(victim_block)

    def _write_back_to_memory(self, block: int) -> None:
        cc = self.cache_config
        request = MemoryRequest(addr=block * cc.block_size, size=cc.block_size,
                                access_type=AccessType.NORMAL_WRITE,
                                requester=self.name, issue_time=self.sim.now)
        self.memory.access(request)

    def _miss_to_memory(self, core_id: int, block: int, addr: int, is_write: bool,
                        on_chip_latency: float,
                        on_complete: Optional[MissCallback]) -> None:
        cc = self.cache_config
        now = self.sim.now
        waiter = (on_complete or _ignore_latency, now, core_id)
        waiters = self._mshrs.get(block)
        if waiters is not None:
            # Merge with the fetch of the same block that is already in flight.
            waiters.append(waiter)
            self._n_mshr_merges += 1
            return
        self._mshrs[block] = [waiter]
        request = MemoryRequest(addr=block * cc.block_size, size=cc.block_size,
                                access_type=AccessType.NORMAL_READ,
                                requester=self.name, core_id=core_id,
                                issue_time=now,
                                on_complete=partial(self._fill_done, block, is_write,
                                                    core_id, on_chip_latency))
        self.memory.access(request)

    def _fill_done(self, block: int, is_write: bool, core_id: int,
                   on_chip_latency: float, request: MemoryRequest) -> None:
        """A demand miss returned: fill the L2 and every waiter's L1, then
        complete the waiters in arrival order."""
        self._fill_l2(block, dirty=is_write)
        pending = self._mshrs.pop(block, [])
        filled_cores = set()
        for _callback, _start, waiter_core in pending:
            if waiter_core not in filled_cores:
                self._fill_l1(waiter_core, block, dirty=is_write and waiter_core == core_id)
                filled_cores.add(waiter_core)
        now = self.sim.now
        for callback, start, _waiter_core in pending:
            callback(now - start + on_chip_latency)

    def _issue_prefetches(self, block: int) -> None:
        """Next-line stream prefetcher: on a demand L2 miss, fetch the following blocks.

        Prefetches fill the L2 only, have no waiters, and do not occupy a core's
        miss window — they model the hardware stream prefetcher that keeps
        sequential baselines bandwidth-bound rather than latency-bound.
        """
        cc = self.cache_config
        mshrs = self._mshrs
        # Cache.contains() on the L2, inlined: two candidates per demand miss.
        num_sets = self.l2.num_sets
        l2_sets = self.l2._sets
        for candidate in range(block + 1, block + 1 + cc.prefetch_degree):
            if candidate in mshrs or candidate // num_sets in l2_sets[candidate % num_sets]:
                continue
            mshrs[candidate] = []
            self._n_prefetches += 1
            self.memory.access(MemoryRequest(
                addr=candidate * cc.block_size, size=cc.block_size,
                access_type=AccessType.NORMAL_READ, requester=self.name,
                issue_time=self.sim.now,
                on_complete=partial(self._prefetch_done, candidate)))

    def _prefetch_done(self, block: int, request: MemoryRequest) -> None:
        self._fill_l2(block, dirty=False)
        # Demand accesses may have merged onto the prefetch while it was in
        # flight; complete them now.
        now = self.sim.now
        for callback, start, _core in self._mshrs.pop(block, []):
            callback(now - start + self.cache_config.l2_latency)

    # -- atomics --------------------------------------------------------------------
    def atomic_access(self, core_id: int, addr: int, on_complete: MissCallback,
                      occupancy: float = 16.0) -> None:
        """Atomic read-modify-write: serialized per block, pays coherence costs."""
        block = self.block_of(addr)
        lock = self._atomic_locks.get(block)
        if lock is None:
            lock = SharedResource(self.sim, f"{self.name}.atomic.{block}")
            self._atomic_locks[block] = lock
        start, _finish = lock.reserve(occupancy)
        self._n_atomics += 1
        self.sim.schedule_at(start, partial(self._atomic_start, core_id, addr,
                                            on_complete, self.now))

    def _atomic_start(self, core_id: int, addr: int, on_complete: MissCallback,
                      issue_time: float) -> None:
        """The atomic holds its block's lock: access it as a write."""
        done = partial(self._atomic_done, on_complete, issue_time)
        latency = self.access(core_id, addr, is_write=True, on_complete=done)
        if latency is not None:
            self.sim.schedule(latency, partial(done, latency))

    def _atomic_done(self, on_complete: MissCallback, issue_time: float,
                     _latency: float) -> None:
        on_complete(self.now - issue_time)

    # -- statistics -------------------------------------------------------------------
    def l1_hit_rate(self) -> float:
        accesses = self.l1_accesses
        return self._n_l1_hits / accesses if accesses else 0.0

    def l2_hit_rate(self) -> float:
        accesses = self.l1_misses
        return self._n_l2_hits / accesses if accesses else 0.0
