"""Spatial sharding and scatter-gather query execution.

The contract under test: once a class extent is partitioned with
:meth:`GeographicDatabase.shard_extent`, every query over it runs as a
scatter over the live shards and a gather that shapes the per-shard
results together — and the gathered answer is **byte-identical** to
what the single-extent path returns for the same query on the same
database. Pruning (disjoint cells, the no-geometry residual shard) must
be sound, the shard map must follow the class's commit version, and the
planner statistics must come back fresh after WAL recovery (the
staleness regression at the end).
"""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.geodb import (
    GeographicDatabase,
    MemoryPager,
    QueryEngine,
    WriteAheadLog,
    build_shard_map,
)
from repro.geodb.query_language import parse_query, run_query
from repro.geodb.sharding import RESIDUAL
from repro.spatial import BBox, Point
from repro.workloads import (PhoneNetParams, build_mix_schema,
                             build_phone_net_database)
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA


def make_db(n=40, residual=3) -> GeographicDatabase:
    """A mix database with points spread over [0, 100)^2.

    Positions are deterministic and cover all four quadrants; the last
    ``residual`` objects have no geometry.
    """
    db = GeographicDatabase("sg", pager=MemoryPager())
    db.register_schema(build_mix_schema())
    with db.transaction() as txn:
        for i in range(n):
            located = i < n - residual
            txn.insert(MIX_SCHEMA, MIX_CLASS, {
                "name": f"f{i:03d}",
                "size": (i * 7) % 23,
                "location": Point((i * 13) % 100, (i * 29) % 100)
                            if located else None,
            })
    return db


def answer(db, text):
    """A comparable rendering of one query's full answer.

    Ordered and aggregate answers must match *exactly* (the gather sorts
    all shard parts under the one total order, oid tie-break included).
    Row order of an unordered query is unspecified — the single-extent
    path yields extent order, the scatter path shard order — so those
    are normalized by sorting before comparison.
    """
    result = run_query(db, MIX_SCHEMA, text)
    ordered = "order by" in text or result.rows is not None and \
        any("(" in key for row in result.rows[:1] for key in row)
    if result.rows is not None:
        return result.rows if ordered else \
            sorted(result.rows, key=repr)
    oids = [obj.oid for obj in result.objects]
    return oids if "order by" in text else sorted(oids)


IDENTITY_QUERIES = [
    "select * from Feature",
    "select * from Feature where size > 10",
    "select name, size from Feature where size <= 15 order by size",
    "select * from Feature order by desc size limit 7",
    "select * from Feature where within(location, bbox(0, 0, 49, 49))",
    "select name from Feature where "
    "within(location, bbox(25, 25, 75, 75)) order by desc name limit 5",
    "select count(*), count(size), min(size), max(size), "
    "sum(size), avg(size) from Feature",
    "select count(*), avg(size) from Feature "
    "where within(location, bbox(0, 0, 60, 60))",
    "select * from Feature where size = 4",
]


class TestScatterIdentity:
    @pytest.mark.parametrize("text", IDENTITY_QUERIES)
    def test_scatter_answer_equals_single_extent_answer(self, text):
        db = make_db()
        before = answer(db, text)
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        assert answer(db, text) == before

    def test_scatter_is_reported(self):
        db = make_db()
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        result = run_query(db, MIX_SCHEMA, "select * from Feature")
        assert result.report["plan"] == "scatter"
        scatter = result.report["scatter"]
        assert scatter["shards"] == 5          # 4 cells + residual
        assert scatter["pruned"] == 0
        assert "scatter: 5 shard(s)" in result.explain()

    def test_window_prunes_disjoint_cells_and_residual(self):
        db = make_db()
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        result = run_query(
            db, MIX_SCHEMA,
            "select * from Feature where within(location, bbox(1, 1, 4, 4))")
        scatter = result.report["scatter"]
        # only the lower-left cell intersects; the residual shard is
        # skipped because the window is a necessary condition
        assert scatter["shards"] < 5
        assert scatter["pruned"] >= 1
        [described] = scatter["classes"]
        assert RESIDUAL not in described["shards"]
        assert described["pruned"] > 0

    def test_non_spatial_filter_keeps_every_shard(self):
        db = make_db()
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        result = run_query(db, MIX_SCHEMA,
                           "select * from Feature where size > 3")
        assert result.report["scatter"]["pruned"] == 0

    def test_threaded_scatter_matches_serial(self):
        db = make_db()
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        query = parse_query("select * from Feature order by size")
        serial = QueryEngine(db).execute(MIX_SCHEMA, query)
        threaded_engine = QueryEngine(db, scatter_workers=4)
        threaded = threaded_engine.execute(MIX_SCHEMA, query)
        assert [o.oid for o in threaded.objects] \
            == [o.oid for o in serial.objects]
        assert threaded.report["scatter"]["workers"] == 4

    def test_float_aggregates_identical_over_shards(self):
        """Float sum/avg do not depend on the order shards arrive in:
        the phone net (168 poles) answers bit-for-bit alike on one
        extent and on a 3x3 grid."""
        db = build_phone_net_database(PhoneNetParams(
            blocks_x=6, blocks_y=6, poles_per_street=12))
        text = ("select sum(pole_composition.pole_height), "
                "avg(pole_composition.pole_diameter) from Pole")
        single = run_query(db, "phone_net", text)
        db.shard_extent("phone_net", "Pole", "pole_location", grid=(3, 3))
        sharded = run_query(db, "phone_net", text)
        assert sharded.report["plan"] == "scatter"
        assert len(single.objects) == 168
        assert sharded.rows == single.rows

    def test_scatter_metrics(self, obs_recorder):
        db = make_db()
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        run_query(db, MIX_SCHEMA, "select * from Feature")
        registry = obs_recorder.registry
        assert registry.counter_total("query.scatter.shards") == 5
        assert registry.counter_total("query.scatter.merges") == 1


class TestShardMap:
    def test_grid_partition_with_residual(self):
        db = make_db(n=20, residual=2)
        shard_map = build_shard_map(
            db, MIX_SCHEMA, MIX_CLASS, "location", (2, 2),
            version=db.class_version(MIX_SCHEMA, MIX_CLASS))
        ids = [s.shard_id for s in shard_map.shards]
        assert ids[-1] == RESIDUAL
        assert sum(s.cardinality for s in shard_map.shards) == 20
        assert shard_map.shards[-1].cardinality == 2
        assert shard_map.shards[-1].bbox is None
        # every object lands in exactly one shard
        all_oids = [oid for s in shard_map.shards for oid in s.oids]
        assert len(all_oids) == len(set(all_oids))

    def test_shard_bbox_is_union_of_member_bboxes(self):
        db = make_db(residual=0)
        shard_map = db_map = build_shard_map(
            db, MIX_SCHEMA, MIX_CLASS, "location", (2, 2),
            version=0)
        extent = {obj.oid: obj for obj in db.extent(MIX_SCHEMA, MIX_CLASS)}
        for shard in db_map.shards:
            for oid in shard.oids:
                box = extent[oid].geometry("location").bbox()
                assert shard.bbox.contains_bbox(box)

    def test_live_shards_pruning_rules(self):
        db = make_db()
        shard_map = build_shard_map(
            db, MIX_SCHEMA, MIX_CLASS, "location", (2, 2), version=0)
        everything = shard_map.live_shards(None, prune_residual=True)
        assert everything == list(shard_map.shards)
        nowhere = shard_map.live_shards(
            BBox(1000, 1000, 1001, 1001), prune_residual=True)
        assert nowhere == []
        # without the necessary-condition guarantee the residual stays
        with_residual = shard_map.live_shards(
            BBox(1000, 1000, 1001, 1001), prune_residual=False)
        assert [s.shard_id for s in with_residual] == [RESIDUAL]

    def test_map_cache_follows_class_version(self):
        db = make_db()
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        first = db.shard_map(MIX_SCHEMA, MIX_CLASS)
        assert db.shard_map(MIX_SCHEMA, MIX_CLASS) is first
        db.insert(MIX_SCHEMA, MIX_CLASS,
                  {"name": "new", "size": 1, "location": Point(50, 50)})
        rebuilt = db.shard_map(MIX_SCHEMA, MIX_CLASS)
        assert rebuilt is not first
        assert rebuilt.cardinality == first.cardinality + 1

    def test_unsharded_class_has_no_map(self):
        db = make_db()
        assert db.shard_map(MIX_SCHEMA, MIX_CLASS) is None

    def test_shard_extent_validates_attr_and_grid(self):
        db = make_db()
        with pytest.raises(SchemaError, match="geometry"):
            db.shard_extent(MIX_SCHEMA, MIX_CLASS, "size")
        with pytest.raises(SchemaError, match="grid"):
            db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(0, 2))

    def test_shard_config_replicates_to_follower(self):
        from repro.geodb import LocalReplicationSource

        leader = make_db()
        leader.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none"))
        leader.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        follower_map = follower.shard_map(MIX_SCHEMA, MIX_CLASS)
        assert follower_map is not None
        assert follower_map.describe() == \
            leader.shard_map(MIX_SCHEMA, MIX_CLASS).describe()
        # scatter executes on the follower too
        result = run_query(follower, MIX_SCHEMA, "select * from Feature")
        assert result.report["plan"] == "scatter"


class TestStatisticsAfterRecovery:
    """Regression: planner statistics must not survive ``recover()`` stale.

    Replay bumps the commit version of every class it touches; both the
    statistics cache and the shard-map cache key on that version, so a
    plan computed before recovery can never be reused after it.
    """

    def _crashed_pagers(self):
        wal_pager = MemoryPager()
        db = GeographicDatabase("mix", pager=MemoryPager())
        db.register_schema(build_mix_schema())
        db.attach_wal(WriteAheadLog(wal_pager, sync_mode="none"))
        for i in range(6):
            db.insert(MIX_SCHEMA, MIX_CLASS,
                      {"name": f"r{i}", "size": i,
                       "location": Point(i * 10.0, i * 10.0)})
        # no checkpoint: the heap "disk" is empty, all state is in the WAL
        return wal_pager

    def test_recover_bumps_versions_and_refreshes_statistics(self):
        wal_pager = self._crashed_pagers()
        db = GeographicDatabase("mix", pager=MemoryPager())
        db.register_schema(build_mix_schema())
        db.load_from_storage()
        db.attach_wal(WriteAheadLog(wal_pager, sync_mode="none"))
        # warm the planner's view of the (still empty) pre-recovery world
        stale = db.statistics.for_class(MIX_SCHEMA, MIX_CLASS)
        assert stale.cardinality == 0
        version_before = db.class_version(MIX_SCHEMA, MIX_CLASS)
        db.recover()
        assert db.class_version(MIX_SCHEMA, MIX_CLASS) > version_before
        fresh = db.statistics.for_class(MIX_SCHEMA, MIX_CLASS)
        assert fresh is not stale
        assert fresh.cardinality == 6
        # and a plan built now sees the recovered rows
        result = run_query(db, MIX_SCHEMA,
                           "select count(*) from Feature")
        assert result.rows[0]["count(*)"] == 6

    def test_recover_refreshes_shard_maps(self):
        wal_pager = self._crashed_pagers()
        db = GeographicDatabase("mix", pager=MemoryPager())
        db.register_schema(build_mix_schema())
        db.load_from_storage()
        db.attach_wal(WriteAheadLog(wal_pager, sync_mode="none"))
        db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
        empty_map = db.shard_map(MIX_SCHEMA, MIX_CLASS)
        assert empty_map.cardinality == 0
        db.recover()
        recovered_map = db.shard_map(MIX_SCHEMA, MIX_CLASS)
        assert recovered_map is not empty_map
        assert recovered_map.cardinality == 6
