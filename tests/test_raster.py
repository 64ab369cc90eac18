"""Unit tests for the tiled raster store: lifecycle, durability, wiring."""

import pytest

from repro.errors import RasterError, TypeMismatchError
from repro.geodb import (
    RASTER,
    TEXT,
    Attribute,
    GeoClass,
    GeographicDatabase,
    MemoryPager,
    Raster,
    RasterRef,
    Schema,
    WriteAheadLog,
)
from repro.geodb.raster import DEFAULT_TILE
from repro.geodb.types import RasterType, type_from_description
from repro.spatial.geometry import BBox
from repro.spatial.scale import MapScale, Viewport
from repro.workloads import (
    IMAGE_LOG_PROGRAM,
    ImageLogParams,
    build_image_log_database,
    synthetic_raster,
)


def make_db(tile: int = 16) -> GeographicDatabase:
    db = GeographicDatabase("GEO", pager=MemoryPager())
    db.wal = WriteAheadLog(MemoryPager())
    schema = db.create_schema("img")
    schema.add_class(GeoClass("Scan", attributes=[
        Attribute("name", TEXT, required=True),
        Attribute("scan", RASTER),
    ]))
    db.raster_store.tile = tile
    return db


def checker(width: int, height: int, seed: int = 0,
            extent: BBox | None = None) -> Raster:
    return synthetic_raster(width, height, seed=seed, extent=extent)


def insert_scan(db, raster, name="s"):
    with db.transaction() as txn:
        oid = txn.insert("img", "Scan", {"name": name, "scan": raster})
    return oid, db.get_object(oid).get("scan")


class TestRasterValues:
    def test_payload_size_is_validated(self):
        with pytest.raises(RasterError):
            Raster(4, 4, bytes(15))
        with pytest.raises(RasterError):
            Raster(0, 4, b"")

    def test_ref_describe_roundtrip(self):
        ref = RasterRef("r9", 100, 60, 16, 3, (0.0, 0.0, 10.0, 6.0))
        again = RasterRef.from_description(ref.describe())
        assert again == ref
        assert again.bbox() == BBox(0.0, 0.0, 10.0, 6.0)

    def test_type_encodes_only_refs(self):
        rtype = RasterType()
        ref = RasterRef("r1", 8, 8, 16, 1, None)
        assert rtype.decode(rtype.encode(ref)) == ref
        # a staged payload reaching encode means the commit path skipped
        # RasterStore staging — that must be loud, not silently inlined
        with pytest.raises(TypeMismatchError):
            rtype.encode(Raster(2, 2, bytes(4)))

    def test_type_description_roundtrip(self):
        assert type_from_description(RasterType().describe()) is \
            type_from_description({"tag": "raster"})

    def test_schema_with_raster_survives_description(self):
        schema = Schema("s")
        schema.add_class(GeoClass("C", attributes=[
            Attribute("scan", RASTER)]))
        rebuilt = Schema.from_description(schema.describe())
        attr = {a.name: a for a in rebuilt.effective_attributes("C")}["scan"]
        assert attr.type.tag == "raster"


class TestLevelSelection:
    def ref(self):
        # 256px over 256 ground units -> 1 ground unit per pixel at level 0
        return RasterRef("r1", 256, 256, 64, 3, (0.0, 0.0, 256.0, 256.0))

    def test_zoomed_in_viewport_picks_base_level(self):
        vp = Viewport(BBox(0, 0, 64, 64), 64, 64)  # 1 ground unit per cell
        assert self.ref().level_for(vp) == 0

    def test_zoomed_out_viewport_picks_coarse_level(self):
        vp = Viewport(BBox(0, 0, 256, 256), 64, 64)  # 4 ground units/cell
        assert self.ref().level_for(vp) == 2

    def test_level_is_clamped_to_pyramid_depth(self):
        vp = Viewport(BBox(0, 0, 256, 256), 2, 2)  # 128 ground units/cell
        assert self.ref().level_for(vp) == 2

    def test_map_scale_selection(self):
        # 1:8000 at 0.25mm/px -> 2 ground units per pixel -> level 1
        assert self.ref().level_for(MapScale(8000)) == 1
        assert self.ref().level_for(MapScale(100)) == 0

    def test_explicit_level_and_none(self):
        assert self.ref().level_for(1) == 1
        assert self.ref().level_for(None) == 0
        with pytest.raises(RasterError):
            self.ref().level_for(7)

    def test_ungeoreferenced_raster_stays_at_base(self):
        ref = RasterRef("r1", 64, 64, 16, 3, None)
        assert ref.level_for(MapScale(50000)) == 0


class TestStoreLifecycle:
    def test_multi_page_tiles(self):
        """A default-size tile (64x64 = 4096B) spans multiple pages."""
        db = GeographicDatabase("GEO", pager=MemoryPager())
        schema = db.create_schema("img")
        schema.add_class(GeoClass("Scan", attributes=[
            Attribute("name", TEXT, required=True),
            Attribute("scan", RASTER)]))
        __, ref = insert_scan(db, checker(64, 64))
        assert ref.tile == DEFAULT_TILE
        store = db.raster_store
        pages = store._tiles[store.tile_key(ref.rid, 0, 0)]
        assert len(pages) >= 2
        assert store.read_tile(ref.rid, 0, 0) == checker(64, 64).pixels

    def test_tile_pages_are_invisible_to_the_heap(self):
        db = make_db()
        oid, __ = insert_scan(db, checker(40, 40))
        scanned = [record for __, record in db.heap.scan()]
        assert all("rid" not in r or "oid" in r for r in scanned)
        assert {r["oid"] for r in scanned if "oid" in r} == {oid}
        assert db.verify_storage() == 1

    def test_missing_tile_and_unknown_raster(self):
        db = make_db()
        store = db.raster_store
        with pytest.raises(RasterError):
            store.read_tile("r99", 0, 0)
        with pytest.raises(RasterError):
            store.ref("r99")
        with pytest.raises(RasterError):
            store.release("r99")

    def test_release_returns_pages_to_free_list(self):
        db = make_db()
        __, ref1 = insert_scan(db, checker(40, 40, seed=1))
        store = db.raster_store
        pages_before = sum(len(p) for p in store._tiles.values())
        freed = store.release(ref1)
        assert freed == pages_before
        assert store.status()["rasters"] == 0
        assert store.status()["free_pages"] == freed
        # the next raster reuses the freed pages before allocating
        page_count = db.pager.page_count
        __, ref2 = insert_scan(db, checker(40, 40, seed=2))
        assert db.pager.page_count <= page_count + 1
        assert store.read_level(ref2, 0) == checker(40, 40, seed=2).pixels

    def test_window_reads_without_extent_are_refused(self):
        db = make_db()
        __, ref = insert_scan(db, Raster(20, 20, bytes(400)))
        with pytest.raises(RasterError):
            db.raster_store.read_window(ref, BBox(0, 0, 5, 5), 0)

    def test_obs_counters(self):
        from repro import obs

        db = make_db()
        r = checker(48, 48, extent=BBox(0, 0, 48, 48))
        obs.enable()
        try:
            __, ref = insert_scan(db, r)
            db.raster_store.read_window(ref, BBox(0, 0, 10, 10),
                                        Viewport(BBox(0, 0, 48, 48), 12, 12))
            exported = obs.RECORDER.registry.export()
            counters = {row["name"] for row in exported["counters"]}
            assert "raster.pyramid_level" in counters
            status = db.raster_store.status()
            assert status["tile_writes"] == status["tiles"] > 0
            assert status["tile_reads"] > 0
            assert status["window_reads"] == 1
        finally:
            obs.disable()


class TestRollbackAndDurability:
    def test_failed_commit_rolls_tiles_back_exactly(self):
        db = make_db()
        oid, ref0 = insert_scan(db, checker(40, 40, seed=1))
        store = db.raster_store
        tiles0 = dict(store._tiles)
        rasters0 = set(store._rasters)

        t1 = db.transaction()
        t2 = db.transaction()
        with t1, t2:
            t1.update(oid, {"name": "winner"})
            with pytest.raises(Exception):
                t2.update(oid, {"scan": checker(40, 40, seed=2)})
                t1.commit()
                t2.commit()
        assert store._tiles == tiles0
        assert set(store._rasters) == rasters0
        assert db.get_object(oid).get("scan") == ref0
        assert store.read_level(ref0, 0) == checker(40, 40, seed=1).pixels

    def test_checkpoint_then_reload_from_heap(self):
        db = make_db()
        oid, ref = insert_scan(db, checker(50, 30, seed=3))
        db.checkpoint()
        # a cold process over the surviving data pager, no WAL replay
        db2 = GeographicDatabase("GEO2", pager=db.pager)
        db2.register_schema(db.get_schema_object("img"))
        assert db2.load_from_storage() == 1
        ref2 = db2.get_object(oid).get("scan")
        assert ref2 == ref
        assert db2.raster_store.read_level(ref2, 0) == \
            checker(50, 30, seed=3).pixels

    def test_crash_before_checkpoint_recovers_from_wal(self):
        data_disk, wal_disk = MemoryPager(), MemoryPager()
        db = GeographicDatabase("GEO", pager=data_disk)
        db.attach_wal(WriteAheadLog(wal_disk))
        schema = db.create_schema("img")
        schema.add_class(GeoClass("Scan", attributes=[
            Attribute("name", TEXT, required=True),
            Attribute("scan", RASTER)]))
        db.raster_store.tile = 16
        oid, __ = insert_scan(db, checker(40, 40, seed=5))
        # crash: nothing flushed. Rebuild over the surviving "disks".
        db2 = GeographicDatabase("GEO", pager=data_disk)
        db2.register_schema(schema)
        db2.load_from_storage()
        db2.attach_wal(WriteAheadLog(wal_disk))
        assert db2.recover() == 1
        ref = db2.get_object(oid).get("scan")
        assert db2.raster_store.read_level(ref, 0) == \
            checker(40, 40, seed=5).pixels

    def test_file_backed_reopen(self, tmp_path):
        path = str(tmp_path / "geo.db")
        db = GeographicDatabase.open(path, sync_mode="none")
        schema = db.create_schema("img")
        schema.add_class(GeoClass("Scan", attributes=[
            Attribute("name", TEXT, required=True),
            Attribute("scan", RASTER)]))
        db.catalog.save_schema(schema)
        db.raster_store.tile = 16
        oid, __ = insert_scan(db, checker(33, 47, seed=9))
        db.checkpoint()
        db.close()
        db2 = GeographicDatabase.open(path, sync_mode="none")
        ref = db2.get_object(oid).get("scan")
        assert db2.raster_store.read_level(ref, 0) == \
            checker(33, 47, seed=9).pixels
        db2.close()


class TestReplication:
    def build_leader(self):
        db = make_db()
        db.enable_shipping()
        oid, ref = insert_scan(db, checker(40, 40, seed=7,
                                           extent=BBox(0, 0, 40, 40)))
        return db, oid, ref

    def test_snapshot_bootstrap_carries_tiles(self):
        from repro.geodb import LocalReplicationSource

        leader, oid, ref = self.build_leader()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader))
        fref = follower.get_object(oid).get("scan")
        assert fref == ref
        assert follower.raster_store.read_level(fref, 0) == \
            checker(40, 40, seed=7).pixels

    def test_shipped_raster_commits_replay(self):
        from repro.geodb import LocalReplicationSource

        leader, oid, __ = self.build_leader()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader))
        with leader.transaction() as txn:
            txn.update(oid, {"scan": checker(24, 24, seed=8,
                                             extent=BBox(0, 0, 24, 24))})
        assert follower.poll_replication() == 1
        fref = follower.get_object(oid).get("scan")
        assert fref.width == 24
        assert follower.raster_store.read_level(fref, 0) == \
            checker(24, 24, seed=8).pixels


class TestImageLogWorkload:
    def test_populates_and_reads(self):
        db = build_image_log_database(ImageLogParams(
            sites=2, logs_per_site=1, raster_width=64, raster_height=64))
        logs = list(db.extent("image_logs", "ImageLog"))
        assert len(logs) == 2
        ref = logs[0].get("scan")
        assert db.raster_store.read_level(ref, ref.levels - 1)

    def test_customization_program_selects_overview(self):
        from repro.lang.compiler import compile_program
        from repro.uilib.library import InterfaceObjectLibrary
        from repro.uilib.presentation import PresentationRegistry

        db = build_image_log_database(ImageLogParams(
            sites=1, logs_per_site=1, raster_width=128, raster_height=128))
        lib = InterfaceObjectLibrary()
        registry = PresentationRegistry()
        directives = compile_program(IMAGE_LOG_PROGRAM, db, lib, registry)
        assert len(directives) == 1
        ref = next(iter(db.extent("image_logs", "ImageLog"))).get("scan")
        overview = registry.attribute_format("raster_overview")
        widget = overview.build(lib, "scan", ref)
        assert f"level {ref.levels - 1}" in widget.value
        # zoomed-in context gets the full-resolution level instead
        zoomed = overview.build(
            lib, "scan", ref,
            scale=Viewport(BBox(0.0, 0.0, 4.0, 4.0), 128, 128))
        assert "level 0" in zoomed.value
