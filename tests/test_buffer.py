"""Unit tests for the LRU buffer manager."""

import pytest

from repro.errors import BufferError_
from repro.geodb.buffer import BufferManager
from repro.geodb.storage import MemoryPager


def make(capacity=3, pages=10):
    pager = MemoryPager(page_size=128)
    for i in range(pages):
        no = pager.allocate_page()
        pager.write_page(no, bytes([i]) * 16)
    manager = BufferManager(pager, capacity=capacity)
    return pager, manager


class TestReadPath:
    def test_miss_then_hit(self):
        __, manager = make()
        manager.read_page(0)
        assert manager.stats.misses == 1
        manager.read_page(0)
        assert manager.stats.hits == 1
        assert manager.stats.hit_ratio == 0.5

    def test_capacity_enforced_lru(self):
        __, manager = make(capacity=3)
        for no in (0, 1, 2):
            manager.read_page(no)
        manager.read_page(0)         # 0 becomes most recent
        manager.read_page(3)         # evicts 1 (LRU)
        assert manager.stats.evictions == 1
        assert set(manager.resident_pages()) == {0, 2, 3}

    def test_reads_go_to_pager_only_on_miss(self):
        pager, manager = make()
        baseline = pager.reads
        manager.read_page(5)
        manager.read_page(5)
        manager.read_page(5)
        assert pager.reads == baseline + 1

    def test_capacity_validated(self):
        pager, __ = make()
        with pytest.raises(BufferError_):
            BufferManager(pager, capacity=0)


class TestWritePath:
    def test_write_back_on_eviction(self):
        pager, manager = make(capacity=2)
        manager.write_page(0, b"dirty!")
        writes_before = pager.writes
        manager.read_page(1)
        manager.read_page(2)          # evicts page 0, which is dirty
        assert pager.writes == writes_before + 1
        assert manager.stats.write_backs == 1
        assert pager.read_page(0).startswith(b"dirty!")

    def test_clean_eviction_skips_write(self):
        pager, manager = make(capacity=2)
        manager.read_page(0)
        writes_before = pager.writes
        manager.read_page(1)
        manager.read_page(2)
        assert pager.writes == writes_before

    def test_flush(self):
        pager, manager = make()
        manager.write_page(0, b"a")
        manager.write_page(1, b"b")
        assert manager.flush() == 2
        assert manager.flush() == 0   # now clean
        assert pager.read_page(0).startswith(b"a")

    def test_clear_flushes_and_drops(self):
        __, manager = make()
        manager.write_page(0, b"x")
        manager.read_page(1)
        manager.clear()
        assert len(manager) == 0


class TestPinning:
    def test_pinned_pages_survive_eviction(self):
        __, manager = make(capacity=2)
        manager.pin(0)
        manager.read_page(1)
        manager.read_page(2)          # must evict 1, not pinned 0
        assert 0 in manager.resident_pages()
        manager.unpin(0)

    def test_all_pinned_raises(self):
        __, manager = make(capacity=2)
        manager.pin(0)
        manager.pin(1)
        with pytest.raises(BufferError_):
            manager.read_page(2)
        assert manager.stats.pin_denials == 1

    def test_unpin_dirty_marks_frame(self):
        pager, manager = make(capacity=2)
        manager.pin(0)
        manager.unpin(0, dirty=True)
        manager.read_page(1)
        writes_before = pager.writes
        manager.read_page(2)          # evicts 0 -> write back
        assert pager.writes == writes_before + 1

    def test_unpin_without_pin_raises(self):
        __, manager = make()
        with pytest.raises(BufferError_):
            manager.unpin(0)

    def test_nested_pins(self):
        __, manager = make(capacity=2)
        manager.pin(0)
        manager.pin(0)
        manager.unpin(0)
        manager.read_page(1)
        manager.read_page(2)   # 0 still pinned once -> evict 1
        assert 0 in manager.resident_pages()
        manager.unpin(0)
        assert manager.stats.peak_pinned == 1


class TestStats:
    def test_snapshot_fields(self):
        __, manager = make()
        manager.read_page(0)
        snap = manager.stats.snapshot(len(manager))
        assert set(snap) == {"hits", "misses", "evictions", "write_backs",
                             "hit_ratio", "write_allocs", "bulk_reads",
                             "pin_denials", "resident_frames"}
        assert snap["resident_frames"] == 1

    def test_zero_access_ratio(self):
        __, manager = make()
        assert manager.stats.hit_ratio == 0.0

    def test_uncached_write_is_not_a_miss(self):
        """A full-page write to an uncached page needs no pager read, so it
        must not dent the hit ratio — it is a ``write_alloc``, not a miss."""
        pager, manager = make()
        reads_before = pager.reads
        manager.write_page(0, b"fresh")
        assert pager.reads == reads_before          # no read-before-write
        assert manager.stats.misses == 0
        assert manager.stats.hits == 0
        assert manager.stats.extra["write_allocs"] == 1
        assert manager.stats.hit_ratio == 0.0       # ratio stays read-only
        manager.write_page(0, b"again")             # cached: no second alloc
        assert manager.stats.extra["write_allocs"] == 1
        assert manager.stats.hits == 0

    def test_write_allocs_reported_to_registry(self):
        """The snapshot (the status tree's ``database.buffer``) reports
        write allocations apart from misses."""
        __, manager = make()
        manager.write_page(0, b"x")
        manager.write_page(1, b"y")
        snap = manager.stats.snapshot()
        assert snap["write_allocs"] == 2
        assert snap["misses"] == 0


class TestNoSteal:
    def test_dirty_frames_survive_no_steal_scope(self):
        pager, manager = make(capacity=2)
        with manager.no_steal():
            manager.write_page(0, b"a")
            manager.write_page(1, b"b")
            writes_before = pager.writes
            manager.write_page(2, b"c")     # no clean victim: overflow
            assert pager.writes == writes_before
            assert len(manager) == 3        # over capacity, nothing leaked
            assert manager.stats.extra["no_steal_overflows"] == 1
        # Outside the scope dirty frames evict (and write back) again.
        manager.read_page(3)
        manager.read_page(4)
        assert pager.writes > writes_before

    def test_clean_frames_still_evict_under_no_steal(self):
        pager, manager = make(capacity=2)
        with manager.no_steal():
            manager.read_page(0)
            manager.write_page(1, b"dirty")
            writes_before = pager.writes
            manager.read_page(2)            # evicts clean 0, not dirty 1
            assert pager.writes == writes_before
            assert 1 in manager.resident_pages()
            assert 0 not in manager.resident_pages()


class TestBulkScan:
    """Scan-resistant insertion: a one-shot sweep (a raster level read,
    a table scan) must not flush the hot working set out of the pool."""

    def _warm(self, manager, pages=(0, 1, 2), rounds=2):
        for __ in range(rounds):
            for no in pages:
                manager.read_page(no)

    def test_sweep_inside_bulk_scan_preserves_hot_set(self):
        __, manager = make(capacity=4, pages=16)
        self._warm(manager)
        hits_before = manager.stats.hits
        with manager.bulk_scan():
            for no in range(3, 16):          # 13 cold pages through 1 frame
                manager.read_page(no)
        assert manager.stats.extra["bulk_reads"] == 13
        assert {0, 1, 2} <= set(manager.resident_pages())
        # the hot set survives the sweep: re-reads are pure hits and the
        # vector hit ratio keeps climbing instead of collapsing
        misses_before = manager.stats.misses
        ratio_before = manager.stats.hit_ratio
        self._warm(manager, rounds=1)
        assert manager.stats.misses == misses_before
        assert manager.stats.hits == hits_before + 3
        assert manager.stats.hit_ratio > ratio_before

    def test_plain_lru_sweep_destroys_hot_set(self):
        """Contrast case: the same sweep without the hint evicts the hot
        set — this is the failure mode ``bulk_scan`` exists to prevent."""
        __, manager = make(capacity=4, pages=16)
        self._warm(manager)
        for no in range(3, 16):
            manager.read_page(no)
        assert not ({0, 1, 2} & set(manager.resident_pages()))
        misses_before = manager.stats.misses
        self._warm(manager, rounds=1)        # all cold again
        assert manager.stats.misses == misses_before + 3

    def test_bulk_hits_do_not_promote(self):
        """Touching a swept page twice must not launder it into the hot
        end: inside the scope hits skip LRU promotion."""
        __, manager = make(capacity=4, pages=16)
        self._warm(manager, rounds=1)
        with manager.bulk_scan():
            manager.read_page(3)             # miss: parked at the LRU end
            manager.read_page(3)             # hit: stays parked
            manager.read_page(4)             # miss: evicts 3, not the hot set
        assert 3 not in manager.resident_pages()
        assert {0, 1, 2} <= set(manager.resident_pages())

    def test_nested_scopes_resume_promotion_at_outermost_exit(self):
        __, manager = make(capacity=4, pages=16)
        with manager.bulk_scan():
            with manager.bulk_scan():
                manager.read_page(0)
            manager.read_page(1)             # still scan-resistant
        assert manager.stats.extra["bulk_reads"] == 2
        self._warm(manager, pages=(0, 1, 2, 3), rounds=1)
        manager.read_page(0)                 # normal promotion again
        manager.read_page(4)                 # LRU eviction takes 1, not 0
        assert 0 in manager.resident_pages()

    def test_bulk_reads_reported_to_registry(self):
        __, manager = make(capacity=2, pages=6)
        with manager.bulk_scan():
            for no in range(6):
                manager.read_page(no)
        assert manager.stats.snapshot()["bulk_reads"] == 6

    def test_raster_level_sweep_keeps_vector_pages_hot(self):
        """End-to-end regression: ``RasterStore.read_level`` sweeps its
        tile pages under ``bulk_scan``, so a whole-level read through a
        small pool leaves the (vector) record pages resident."""
        from repro.geodb import (
            RASTER,
            TEXT,
            Attribute,
            GeoClass,
            GeographicDatabase,
            MemoryPager,
            WriteAheadLog,
        )
        from repro.spatial.geometry import BBox
        from repro.workloads import synthetic_raster

        db = GeographicDatabase("GEO", pager=MemoryPager(),
                                buffer_capacity=6)
        db.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none"))
        schema = db.create_schema("img")
        schema.add_class(GeoClass("Scan", attributes=[
            Attribute("name", TEXT, required=True),
            Attribute("scan", RASTER),
        ]))
        raster = synthetic_raster(128, 128, seed=3,
                                  extent=BBox(0.0, 0.0, 128.0, 128.0))
        with db.transaction() as txn:
            oid = txn.insert("img", "Scan", {"name": "s", "scan": raster})
        ref = db.get_object(oid).get("scan")
        db.checkpoint()
        db.buffer.clear()                    # start cold: commit's no-steal
        tile_pages = {page_no                # scope left the pool overfull
                      for pages in db.raster_store._tiles.values()
                      for page_no in pages}
        hot = [page_no for page_no in range(db.pager.page_count)
               if page_no not in tile_pages][:3]
        assert hot and len(tile_pages) > db.buffer.capacity
        for page_no in hot:                  # warm the record pages
            db.buffer.read_page(page_no)
        assert db.raster_store.read_level(ref, 0) is not None
        assert db.buffer.stats.extra.get("bulk_reads", 0) >= len(tile_pages) // 2
        misses_before = db.buffer.stats.misses
        for page_no in hot:
            db.buffer.read_page(page_no)
        assert db.buffer.stats.misses == misses_before, (
            "raster level sweep evicted the hot record pages"
        )


class TestObservabilityCounters:
    """The buffer reports its cache behavior through its stats snapshot
    (``database.buffer`` in the kernel status tree)."""

    def test_scripted_pattern_matches_counters(self):
        __, manager = make(capacity=3)
        # Scripted access pattern (capacity 3, LRU):
        #   0 1 2        -> three cold misses
        #   0 1          -> two hits (2 is now least recent)
        #   3            -> miss, evicts 2
        #   3            -> hit
        #   2            -> miss, evicts 0
        for page_no in (0, 1, 2, 0, 1, 3, 3, 2):
            manager.read_page(page_no)
        snap = manager.stats.snapshot(len(manager))
        assert snap["hits"] == 3
        assert snap["misses"] == 5
        assert snap["evictions"] == 2
        assert snap["resident_frames"] == 3

    def test_write_back_counted(self):
        __, manager = make(capacity=2)
        manager.write_page(0, b"dirty!")
        manager.read_page(1)
        manager.read_page(2)          # evicts dirty page 0 -> write-back
        snap = manager.stats.snapshot()
        assert snap["write_backs"] == 1
        assert snap["evictions"] == 1

    def test_flush_counts_write_backs(self):
        __, manager = make(capacity=4)
        manager.write_page(0, b"a")
        manager.write_page(1, b"b")
        assert manager.flush() == 2
        assert manager.stats.snapshot()["write_backs"] == 2

    def test_disabled_mode_keeps_plain_stats_only(self):
        __, manager = make(capacity=2)
        manager.read_page(0)
        manager.read_page(0)
        assert manager.stats.hits == 1      # BufferStats always accounts
