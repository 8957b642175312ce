"""Tests for the cache, MSHR, coherence and hierarchy substrate."""

import pytest

from repro.cache.cache import CacheLineState, SetAssociativeCache
from repro.cache.coherence import (
    CoherenceController,
    DirectoryState,
    MoesiState,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mshr import MshrFile
from repro.trace.record import AccessKind


class TestSetAssociativeCache:
    def _cache(self, capacity=4096, assoc=4):
        return SetAssociativeCache("l1", capacity_bytes=capacity, associativity=assoc)

    def test_miss_then_hit(self):
        cache = self._cache()
        hit, _ = cache.access(0x1000, is_write=False)
        assert not hit
        hit, _ = cache.access(0x1000, is_write=False)
        assert hit

    def test_same_line_different_offsets_hit(self):
        cache = self._cache()
        cache.access(0x1000, is_write=False)
        hit, _ = cache.access(0x103F, is_write=False)
        assert hit

    def test_lru_eviction(self):
        cache = self._cache(capacity=4 * 64, assoc=4)  # one set of 4 lines
        addresses = [i * 64 * cache.num_sets for i in range(4)]
        for address in addresses:
            cache.access(address, is_write=False)
        # Touch the first line so the second becomes LRU.
        cache.access(addresses[0], is_write=False)
        _, victim = cache.access(4 * 64 * cache.num_sets, is_write=False)
        assert victim is not None
        assert victim[0] == addresses[1]

    def test_dirty_victim_counts_as_writeback(self):
        cache = self._cache(capacity=64, assoc=1)
        cache.access(0x0, is_write=True)
        _, victim = cache.access(0x0 + 64 * cache.num_sets, is_write=False)
        assert victim is not None
        assert victim[1].dirty
        assert cache.stats.writebacks == 1

    def test_write_sets_modified_state(self):
        cache = self._cache()
        cache.access(0x40, is_write=True)
        line = cache.lookup(0x40)
        assert line.state is CacheLineState.MODIFIED
        assert line.dirty

    def test_read_allocates_exclusive(self):
        cache = self._cache()
        cache.access(0x40, is_write=False)
        assert cache.lookup(0x40).state is CacheLineState.EXCLUSIVE

    def test_write_hit_upgrades_state(self):
        cache = self._cache()
        cache.access(0x40, is_write=False)
        cache.access(0x40, is_write=True)
        assert cache.lookup(0x40).state is CacheLineState.MODIFIED

    def test_miss_rate(self):
        cache = self._cache()
        cache.access(0x40, is_write=False)
        cache.access(0x40, is_write=False)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_address_mapping_roundtrip(self):
        cache = self._cache()
        address = 0x12340
        rebuilt = cache.address_of(cache.set_index(address), cache.tag(address))
        assert rebuilt == (address // 64) * 64

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", capacity_bytes=100, associativity=3)


class TestMshrFile:
    def test_allocate_and_release(self):
        mshrs = MshrFile("m", entries=1)
        entry = mshrs.allocate(0x1000, thread_id=1, is_write=False, now=0.0)
        assert entry is not None
        assert mshrs.full
        assert mshrs.release(0x1000) is entry
        assert not mshrs.full

    def test_coalescing_same_line(self):
        mshrs = MshrFile("m", entries=4)
        first = mshrs.allocate(0x1000, thread_id=1, is_write=False, now=0.0)
        entry = mshrs.allocate(0x1020, thread_id=2, is_write=True, now=1.0)
        assert entry is first
        assert entry.coalesced_count == 2
        assert entry.is_write
        assert mshrs.allocations == 1
        assert mshrs.coalesced == 1

    def test_full_file_rejects(self):
        mshrs = MshrFile("m", entries=2)
        mshrs.allocate(0x0, 1, False, 0.0)
        mshrs.allocate(0x40, 1, False, 0.0)
        assert mshrs.full
        assert mshrs.allocate(0x80, 1, False, 0.0) is None
        assert mshrs.rejections == 1

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            MshrFile("m", entries=2).release(0x40)

    def test_release_frees_slot_after_rejection(self):
        """Back-pressure edge: a full file rejects, then accepts again as
        soon as any outstanding entry retires."""
        mshrs = MshrFile("m", entries=2)
        mshrs.allocate(0x0, 1, False, 0.0)
        mshrs.allocate(0x40, 1, False, 0.0)
        assert mshrs.allocate(0x80, 1, False, 0.0) is None
        mshrs.release(0x0)
        entry = mshrs.allocate(0x80, 1, False, 1.0)
        assert entry is not None
        assert mshrs.full
        assert mshrs.allocations == 3
        assert mshrs.rejections == 1

    def test_full_file_still_coalesces_outstanding_lines(self):
        """A full file only rejects misses to NEW lines; a miss to a line
        already outstanding merges without needing a free entry."""
        mshrs = MshrFile("m", entries=1)
        mshrs.allocate(0x0, 1, False, 0.0)
        assert mshrs.full
        entry = mshrs.allocate(0x20, 2, is_write=True, now=1.0)
        assert entry is not None
        assert entry.coalesced_count == 2
        # The merge upgrades the entry to a write.
        assert entry.is_write
        assert entry.waiting_threads == [1, 2]
        assert mshrs.rejections == 0

    def test_lookup_is_line_granular(self):
        mshrs = MshrFile("m", entries=2, line_bytes=64)
        entry = mshrs.allocate(0x40, 1, False, 0.0)
        assert mshrs.allocate(0x7F, 2, False, 0.0) is entry  # same line as 0x40
        assert mshrs.allocate(0x80, 3, False, 0.0) is not entry
        assert (mshrs.allocations, mshrs.coalesced) == (2, 1)


class TestCoherenceController:
    def test_first_read_gets_exclusive_from_memory(self):
        directory = CoherenceController(home_cluster=0)
        action = directory.handle_read(0x1000, requester=5)
        assert action.requester_state is MoesiState.EXCLUSIVE
        assert action.data_from_memory

    def test_second_reader_downgrades_owner(self):
        directory = CoherenceController(home_cluster=0)
        directory.handle_read(0x1000, requester=5)
        action = directory.handle_read(0x1000, requester=7)
        assert action.requester_state is MoesiState.SHARED
        assert action.data_from_owner == 5

    def test_repeated_read_by_owner_is_silent(self):
        directory = CoherenceController(home_cluster=0)
        directory.handle_read(0x1000, requester=5)
        action = directory.handle_read(0x1000, requester=5)
        assert action.unicast_messages == 0

    def test_write_invalidates_sharers(self):
        directory = CoherenceController(home_cluster=0, broadcast_threshold=100)
        for reader in range(3):
            directory.handle_read(0x1000, requester=reader)
        action = directory.handle_write(0x1000, requester=9)
        assert set(action.invalidated_clusters) == {0, 1, 2}
        assert action.requester_state is MoesiState.MODIFIED

    def test_many_sharers_use_broadcast(self):
        directory = CoherenceController(home_cluster=0, broadcast_threshold=4)
        for reader in range(10):
            directory.handle_read(0x1000, requester=reader)
        action = directory.handle_write(0x1000, requester=20)
        assert action.broadcast_messages == 1
        assert directory.broadcasts_used == 1
        assert directory.broadcast_savings() == 9

    def test_few_sharers_use_unicasts(self):
        directory = CoherenceController(home_cluster=0, broadcast_threshold=4)
        directory.handle_read(0x1000, requester=1)
        directory.handle_read(0x1000, requester=2)
        action = directory.handle_write(0x1000, requester=3)
        assert action.broadcast_messages == 0
        assert action.unicast_messages >= 4

    def test_write_then_read_transfers_ownership(self):
        directory = CoherenceController(home_cluster=0)
        directory.handle_write(0x1000, requester=4)
        action = directory.handle_read(0x1000, requester=6)
        assert action.data_from_owner == 4
        entry = directory._entry(0x1000)
        assert entry.state is DirectoryState.SHARED

    def test_sharer_histogram(self):
        directory = CoherenceController(home_cluster=0)
        directory.handle_read(0x1000, requester=1)
        directory.handle_read(0x1000, requester=2)
        directory.handle_read(0x2000, requester=1)
        histogram = directory.sharer_histogram()
        assert histogram[2] == 1
        assert histogram[1] == 1

    def test_moesi_invariant_single_owner(self):
        directory = CoherenceController(home_cluster=0)
        directory.handle_write(0x1000, requester=1)
        directory.handle_write(0x1000, requester=2)
        entry = directory._entry(0x1000)
        assert entry.owner == 2
        assert 1 not in entry.sharers


class TestCacheHierarchy:
    def test_l1_hit_after_first_access(self):
        hierarchy = CacheHierarchy(cluster_id=0)
        first = hierarchy.access(core=0, thread_id=0, address=0x1000, is_write=False)
        second = hierarchy.access(core=0, thread_id=0, address=0x1000, is_write=False)
        assert not first.l1_hit
        assert second.l1_hit

    def test_l2_shared_between_cores(self):
        hierarchy = CacheHierarchy(cluster_id=0)
        hierarchy.access(core=0, thread_id=0, address=0x1000, is_write=False)
        result = hierarchy.access(core=1, thread_id=4, address=0x1000, is_write=False)
        assert not result.l1_hit
        assert result.l2_hit

    def test_miss_generates_trace_record(self):
        hierarchy = CacheHierarchy(cluster_id=3)
        hierarchy.access(core=0, thread_id=0, address=0x1000, is_write=False)
        assert len(hierarchy.l2_misses) == 1
        record = hierarchy.l2_misses[0]
        assert record.cluster_id == 3
        assert record.home_cluster == hierarchy.home_cluster(0x1000)

    def test_home_cluster_interleaving(self):
        hierarchy = CacheHierarchy(cluster_id=0, num_clusters=64)
        homes = {hierarchy.home_cluster(line << 6) for line in range(64)}
        assert homes == set(range(64))

    def test_miss_rates(self):
        hierarchy = CacheHierarchy(cluster_id=0)
        for i in range(16):
            hierarchy.access(core=0, thread_id=0, address=i * 64, is_write=False)
        for i in range(16):
            hierarchy.access(core=0, thread_id=0, address=i * 64, is_write=False)
        assert hierarchy.l1_miss_rate() == pytest.approx(0.5)

    def test_invalid_core_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(cluster_id=0).access(
                core=4, thread_id=0, address=0, is_write=False
            )

    def test_only_l2_misses_reach_memory(self):
        hierarchy = CacheHierarchy(cluster_id=0)
        miss = hierarchy.access(core=0, thread_id=0, address=0x2000, is_write=False)
        assert miss.l2_miss_generated
        l1_hit = hierarchy.access(core=0, thread_id=0, address=0x2000, is_write=False)
        assert not l1_hit.l2_miss_generated
        l2_hit = hierarchy.access(core=1, thread_id=4, address=0x2000, is_write=False)
        assert l2_hit.l2_hit and not l2_hit.l2_miss_generated
        assert len(hierarchy.l2_misses) == 1

    def test_home_cluster_wraps_line_interleaving(self):
        hierarchy = CacheHierarchy(cluster_id=0, num_clusters=8)
        # Line 9 on 8 clusters wraps to cluster 1; offsets within a line do
        # not change the home.
        assert hierarchy.home_cluster(9 * 64) == 1
        assert hierarchy.home_cluster(9 * 64 + 63) == 1
        assert hierarchy.home_cluster(8 * 64) == 0

    def test_dirty_l2_victim_generates_homed_writeback(self):
        """An evicted dirty L2 line becomes a memory write homed by the
        victim's own address, not the access that displaced it."""
        hierarchy = CacheHierarchy(
            cluster_id=2,
            l1_capacity_bytes=4 * 64,
            l1_associativity=4,
            l2_capacity_bytes=16 * 64,  # a single 16-way set
            l2_associativity=16,
            num_clusters=8,
        )
        hierarchy.access(core=0, thread_id=0, address=0, is_write=True)
        # Fill the L2 set from another core so core 0's L1 never writes the
        # dirty line back (which would refresh its LRU position in the L2).
        evicting = None
        for line in range(1, 17):
            evicting = hierarchy.access(
                core=1, thread_id=4, address=line * 64, is_write=False
            )
        assert evicting.writeback_generated
        # Two records for address 0: the original demand write miss and the
        # eviction writeback appended by the displacing access.
        for_line_zero = [r for r in hierarchy.l2_misses if r.address == 0]
        assert len(for_line_zero) == 2
        writeback = for_line_zero[-1]
        assert writeback.kind is AccessKind.WRITE
        assert writeback.home_cluster == hierarchy.home_cluster(0)
        assert writeback.cluster_id == 2
