"""Cost-based planner decisions and the kernel query result cache."""

import pytest

from repro.core import GISKernel, QueryResultCache
from repro.geodb import (GeographicDatabase, MemoryPager, Query, QueryEngine,
                         WriteAheadLog, parse_query, run_query)
from repro.geodb.query import SpatialPredicate
from repro.geodb.catalog import KIND_STATISTICS, MetadataCatalog
from repro.geodb.planner import (
    FULL_SCAN,
    HASH_SCAN,
    INDEX_SCAN,
    QueryPlanner,
    _overlap_ratio,
)
from repro.spatial import BBox, LineString, Point
from repro.workloads import build_mix_schema
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA


class TestPlanDecisions:
    """Each access path wins exactly where its cost is lowest."""

    CASES = [
        # (query text, wants hash index on pole_type?, expected plan)
        ("select * from Pole where within(pole_location, "
         "bbox(-1, -1, 30, 30))", False, INDEX_SCAN),
        ("select * from Pole where within(pole_location, "
         "bbox(-1, -1, 500, 500))", False, FULL_SCAN),
        ("select * from Pole where pole_type = 1", True, HASH_SCAN),
        ("select * from Pole where pole_type = 1", False, FULL_SCAN),
        ("select * from Pole where pole_type in [0, 1]", True, HASH_SCAN),
        # = None never uses the hash index (None is not an index key)
        ("select * from Pole where pole_type = null", True, FULL_SCAN),
    ]

    @pytest.mark.parametrize("text,index,expected", CASES)
    def test_plan_choice(self, phone_db, text, index, expected):
        if index:
            phone_db.create_attribute_index("phone_net", "Pole", "pole_type")
        result = run_query(phone_db, "phone_net", text)
        assert result.report["plan"] == expected

    def test_empty_probe_bbox_disables_spatial_prefilter(self, phone_db):
        # The text parser cannot build an empty box, but code can (e.g.
        # an intersection-derived probe). It carries no information, so
        # the planner must not feed it to the R-tree.
        class _EmptyProbe(Point):
            def bbox(self):
                return BBox.empty()

        pred = SpatialPredicate("pole_location", "within", _EmptyProbe(5, 5))
        planner = QueryPlanner(phone_db)
        prefilter, equality = planner.prefilters(Query("Pole", where=pred))
        assert prefilter is None and equality is None
        result = QueryEngine(phone_db).execute(
            "phone_net", Query("Pole", where=pred))
        assert result.report["plan"] == FULL_SCAN

    def test_none_equality_correctness(self, phone_db):
        # The plan must not come from the hash index: a bucket miss does
        # not prove a predicate miss for None.
        phone_db.create_attribute_index("phone_net", "Pole", "pole_type")
        planned = run_query(phone_db, "phone_net",
                            "select * from Pole where pole_type = null")
        full = run_query(phone_db, "phone_net", "select * from Pole")
        expected = [o.oid for o in full.objects if o.get("pole_type") is None]
        assert sorted(planned.oids()) == sorted(expected)

    def test_selective_bbox_beats_big_hash_bucket(self, phone_db):
        # status='ok' covers most poles; the 30x30 probe covers few.
        phone_db.create_attribute_index("phone_net", "Pole", "status")
        result = run_query(
            phone_db, "phone_net",
            "select * from Pole where status = 'ok' and "
            "within(pole_location, bbox(-1, -1, 30, 30))")
        assert result.report["plan"] == INDEX_SCAN

    def test_tiny_hash_bucket_beats_selective_bbox(self, phone_db):
        # One-row bucket is cheaper than any R-tree descent here.
        phone_db.create_attribute_index("phone_net", "Pole", "status")
        oid = phone_db.extent("phone_net", "Pole").oids()[0]
        phone_db.update(oid, {"status": "condemned"})
        result = run_query(
            phone_db, "phone_net",
            "select * from Pole where status = 'condemned' and "
            "within(pole_location, bbox(-1, -1, 500, 500))")
        assert result.report["plan"] == HASH_SCAN
        assert result.oids() == [oid]

    def test_plans_report_and_explain_are_truthful(self, phone_db):
        phone_db.create_attribute_index("phone_net", "Pole", "status")
        result = run_query(
            phone_db, "phone_net",
            "select * from NetworkElement where status = 'ok' "
            "including subclasses")
        report = result.report
        assert report["plan"] == "mixed"
        by_class = {p["class"]: p for p in report["plans"]}
        assert set(by_class) == {"NetworkElement", "Pole", "Duct", "Cable"}
        assert by_class["Pole"]["plan"] == HASH_SCAN
        assert by_class["Pole"]["index"] == "hash(Pole.status)"
        assert by_class["Duct"]["plan"] == FULL_SCAN
        text = result.explain()
        assert "Pole: hash-scan via hash(Pole.status)" in text
        assert "Duct: full-scan" in text

    def test_index_fallback_counter(self, phone_db, obs_recorder):
        # pole_location only exists on Pole; the other closure members
        # fall back observably instead of swallowing an exception.
        result = run_query(
            phone_db, "phone_net",
            "select * from NetworkElement where "
            "within(pole_location, bbox(-1, -1, 30, 30)) "
            "including subclasses")
        registry = obs_recorder.registry
        assert registry.counter_total("query.index_fallback") >= 2.0
        assert registry.counter_value(
            "query.index_fallback", cls="Duct", attr="pole_location") == 1.0
        by_class = {p["class"]: p for p in result.report["plans"]}
        assert by_class["Pole"]["plan"] == INDEX_SCAN
        assert "not spatial here" in by_class["Duct"]["reason"]


class TestStatistics:
    def test_snapshot_cached_until_commit(self, phone_db):
        stats = phone_db.statistics
        first = stats.for_class("phone_net", "Pole")
        assert stats.for_class("phone_net", "Pole") is first
        phone_db.insert("phone_net", "Pole",
                        {"pole_location": Point(2, 2), "pole_type": 1})
        second = stats.for_class("phone_net", "Pole")
        assert second is not first
        assert second.cardinality == first.cardinality + 1

    def test_commit_bumps_only_touched_class_versions(self, phone_db):
        before = phone_db.class_version("phone_net", "Duct")
        phone_db.insert("phone_net", "Pole",
                        {"pole_location": Point(2, 2), "pole_type": 1})
        assert phone_db.class_version("phone_net", "Duct") == before
        assert phone_db.class_version("phone_net", "Pole") > 0

    def test_overlap_ratio(self):
        extent = BBox(0, 0, 100, 100)
        assert _overlap_ratio(BBox(0, 0, 100, 100), extent) == 1.0
        assert _overlap_ratio(BBox(0, 0, 50, 100), extent) == pytest.approx(0.5)
        assert _overlap_ratio(BBox(200, 200, 300, 300), extent) == 0.0
        # degenerate axis: all geometry on one vertical line
        line = BBox(10, 0, 10, 100)
        assert _overlap_ratio(BBox(0, 0, 50, 100), line) == 1.0
        assert _overlap_ratio(BBox(20, 0, 50, 100), line) == 0.0

    def test_statistics_persist_roundtrip(self, phone_db):
        catalog = MetadataCatalog(phone_db)
        catalog.save_statistics("phone_net")
        stored = catalog.load_statistics("phone_net")
        assert catalog.has(KIND_STATISTICS, "phone_net")
        assert stored["Pole"]["cardinality"] == phone_db.count("phone_net",
                                                               "Pole")
        assert "pole_location" in stored["Pole"]["spatial"]

    def test_planner_closure_order_is_deterministic(self, phone_db):
        planner = QueryPlanner(phone_db)
        query = parse_query(
            "select * from NetworkElement including subclasses")
        first = planner.class_closure("phone_net", query)
        assert first == planner.class_closure("phone_net", query)
        assert set(first) == {"NetworkElement", "Pole", "Duct", "Cable"}


class TestStatisticsAfterRecovery:
    """Regression: planner statistics must not survive ``recover()`` stale.

    Replay bumps the commit version of every class it touches, and the
    statistics cache keys on that version, so a plan computed before
    recovery can never be reused after it.
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


class TestQueryResultCache:
    QUERY = "select * from Pole where pole_type = 1"

    def test_hit_on_repeat(self, phone_db):
        cache = QueryResultCache(phone_db)
        first = cache.execute("phone_net", parse_query(self.QUERY))
        assert first.report["cache"] == "miss"
        second = cache.execute("phone_net", parse_query(self.QUERY))
        # Per-call views share the (immutable) payload but own their
        # report: a hit must not rewrite the report a prior caller holds.
        assert second is not first
        assert second.objects is first.objects
        assert second.report["cache"] == "hit"
        assert first.report["cache"] == "miss"
        assert cache.stats() == {"entries": 1, "capacity": 128,
                                 "lookups": 2, "hits": 1, "misses": 1,
                                 "invalidations": 0, "coalesced": 0}

    def test_commit_to_touched_class_invalidates(self, phone_db):
        cache = QueryResultCache(phone_db)
        first = cache.execute("phone_net", parse_query(self.QUERY))
        phone_db.insert("phone_net", "Pole",
                        {"pole_location": Point(2, 2), "pole_type": 1})
        second = cache.execute("phone_net", parse_query(self.QUERY))
        assert second is not first
        assert second.report["cache"] == "miss"
        assert len(second) == len(first) + 1
        assert cache.invalidations == 1

    def test_unrelated_commit_preserves_entry(self, phone_db):
        cache = QueryResultCache(phone_db)
        cache.execute("phone_net", parse_query(self.QUERY))
        phone_db.insert("phone_net", "Supplier",
                        {"name": "Novo", "city": "Recife", "rating": 3})
        second = cache.execute("phone_net", parse_query(self.QUERY))
        assert second.report["cache"] == "hit"
        assert cache.invalidations == 0

    def test_subclass_closure_tracks_every_member(self, phone_db):
        cache = QueryResultCache(phone_db)
        text = ("select * from NetworkElement where status = 'ok' "
                "including subclasses")
        cache.execute("phone_net", parse_query(text))
        # A commit to a *subclass* extent must invalidate the closure
        # query even though the query names only the base class.
        phone_db.insert("phone_net", "Cable",
                        {"cable_route": LineString([(0, 0), (5, 5)]),
                         "pair_count": 10, "status": "ok"})
        second = cache.execute("phone_net", parse_query(text))
        assert second.report["cache"] == "miss"

    def test_lru_eviction(self, phone_db):
        cache = QueryResultCache(phone_db, capacity=2)
        q = ["select * from Pole where pole_type = %d" % i for i in range(3)]
        cache.execute("phone_net", parse_query(q[0]))
        cache.execute("phone_net", parse_query(q[1]))
        cache.execute("phone_net", parse_query(q[2]))   # evicts q[0]
        assert len(cache) == 2
        again = cache.execute("phone_net", parse_query(q[0]))
        assert again.report["cache"] == "miss"

    def test_metrics(self, phone_db):
        cache = QueryResultCache(phone_db)
        cache.execute("phone_net", parse_query(self.QUERY))
        cache.execute("phone_net", parse_query(self.QUERY))
        phone_db.insert("phone_net", "Pole",
                        {"pole_location": Point(2, 2), "pole_type": 1})
        cache.execute("phone_net", parse_query(self.QUERY))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["invalidations"] == 1


class TestKernelQueries:
    def test_cache_shared_across_sessions(self, phone_db):
        with GISKernel(phone_db) as kernel:
            s1 = kernel.session(user="ana")
            s2 = kernel.session(user="juliano")
            first = s1.query("phone_net",
                             "select * from Pole where pole_type = 1")
            assert first.report["cache"] == "miss"
            second = s2.query("phone_net",
                              "select * from Pole where pole_type = 1")
            assert second.report["cache"] == "hit"
            assert second.objects is first.objects
            assert kernel.stats()["query_cache"]["hits"] == 1

    def test_session_commit_invalidates_for_all_sessions(self, phone_db):
        with GISKernel(phone_db) as kernel:
            s1 = kernel.session(user="ana")
            s2 = kernel.session(user="juliano")
            s1.query("phone_net", "select * from Pole where pole_type = 1")
            with kernel.transaction(s2) as txn:
                txn.insert("phone_net", "Pole",
                           {"pole_location": Point(2, 2), "pole_type": 1})
            refreshed = s1.query(
                "phone_net", "select * from Pole where pole_type = 1")
            assert refreshed.report["cache"] == "miss"
            assert any(o.get("pole_type") == 1 and
                       o.geometry("pole_location") == Point(2, 2)
                       for o in refreshed.objects)

    def test_query_accepts_query_objects_and_bypass(self, phone_db):
        with GISKernel(phone_db) as kernel:
            query = Query("Pole")
            cached = kernel.query("phone_net", query)
            assert cached.report["cache"] == "miss"
            bypass = kernel.query("phone_net", query, use_cache=False)
            assert "cache" not in bypass.report
            assert kernel.query_cache.stats()["entries"] == 1
            hit = kernel.query("phone_net", query)
            assert hit.report["cache"] == "hit"
