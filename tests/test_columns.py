"""Vectorized columnar scan path: cache lifecycle, kernel parity, MVCC.

The contract under test: for every query the engine answers through
column kernels, the answer is **byte-identical** (oids, rows, report
candidates) to the row path's answer on the same database — and the
column cache never serves stale state: commits invalidate via the class
version stamp, concurrent commits force a truthful row-path fallback,
and MVCC snapshot readers never touch columns at all.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.geodb import ColumnCache, QueryEngine
from repro.geodb.query_language import parse_query, run_query
from repro.spatial import BBox, Point
from repro.workloads import build_phone_net_database
from repro.workloads.phone_net import PhoneNetParams

SCHEMA = "phone_net"

#: A scan-heavy mix exercising every shaping path over columns:
#: comparisons, conjunction/disjunction/negation, like, dotted paths,
#: ordering (asc + desc), limit, projection, aggregates, subclass
#: closure and spatial containment.
QUERIES = [
    "select * from Pole where status = 'ok'",
    "select * from Pole where pole_type != 1 and install_year >= 1975",
    "select * from Pole where status like 'o%' or pole_type = 2",
    "select * from Pole where not status = 'ok'",
    "select * from Pole where pole_composition.pole_material = 'wood'",
    "select oid, status, install_year from Pole where install_year < 1990"
    " order by install_year",
    "select * from Pole order by desc install_year limit 5",
    "select count(*), min(install_year), max(install_year),"
    " avg(install_year) from Pole where status = 'ok'",
    "select * from Pole where within(pole_location, bbox(0, 0, 400, 400))",
    "select * from NetworkElement where install_year > 1960"
    " order by install_year including subclasses",
]


@pytest.fixture()
def db():
    return build_phone_net_database(PhoneNetParams(
        blocks_x=3, blocks_y=3, poles_per_street=4, duct_count=5, seed=7))


def answer(result):
    """A byte-comparable rendering of one result (order-preserving)."""
    return (result.oids(), result.rows,
            result.report["candidates"], len(result.objects))


def assert_equivalent(db, text):
    columns = QueryEngine(db).execute(SCHEMA, parse_query(text))
    rows = QueryEngine(db, use_columns=False).execute(
        SCHEMA, parse_query(text))
    assert answer(columns) == answer(rows)
    return columns


class TestRowColumnEquivalence:
    @pytest.mark.parametrize("text", QUERIES)
    def test_byte_identical_answers(self, db, text):
        result = assert_equivalent(db, text)
        # Full scans actually took the columnar path (truthful report).
        for class_plan in result.report["plans"]:
            if class_plan["plan"] == "full-scan":
                assert class_plan["columns"] is True

    def test_disabled_engine_reports_rows(self, db):
        result = QueryEngine(db, use_columns=False).execute(
            SCHEMA, parse_query(QUERIES[0]))
        (class_plan,) = result.report["plans"]
        assert class_plan["columns"] is False
        assert class_plan["columns_reason"] == "columns disabled"
        assert "[rows: columns disabled]" in result.explain()

    def test_explain_marks_columnar_classes(self, db):
        result = QueryEngine(db).execute(SCHEMA, parse_query(QUERIES[0]))
        assert "[columns]" in result.explain()


class TestCacheLifecycle:
    def test_build_then_hit(self, db):
        engine = QueryEngine(db)
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        cache = db.column_cache
        assert cache.builds == 1 and cache.hits == 0
        engine.execute(SCHEMA, parse_query(QUERIES[1]))
        assert cache.builds == 1 and cache.hits == 1

    def test_commit_invalidates_and_never_serves_stale(self, db):
        engine = QueryEngine(db)
        before = engine.execute(
            SCHEMA, parse_query("select * from Pole where status = 'broken'"))
        assert before.oids() == []
        victim = db.extent(SCHEMA, "Pole").oids()[0]
        with db.transaction() as txn:
            txn.update(victim, {"status": "broken"})
        after = engine.execute(
            SCHEMA, parse_query("select * from Pole where status = 'broken'"))
        assert after.oids() == [victim]
        assert db.column_cache.invalidations == 1

    def test_insert_and_delete_move_the_stamp(self, db):
        engine = QueryEngine(db)
        count = len(engine.execute(SCHEMA, parse_query(
            "select * from Pole")).objects)
        with db.transaction() as txn:
            txn.insert(SCHEMA, "Pole", {
                "pole_type": 9, "status": "new", "install_year": 2026,
                "pole_location": Point(1.0, 2.0),
            })
        assert len(engine.execute(SCHEMA, parse_query(
            "select * from Pole")).objects) == count + 1
        victim = db.extent(SCHEMA, "Pole").oids()[-1]
        with db.transaction() as txn:
            txn.delete(victim)
        result = engine.execute(SCHEMA, parse_query("select * from Pole"))
        assert len(result.objects) == count
        assert victim not in result.oids()

    def test_status_shape(self, db):
        engine = QueryEngine(db)
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        status = db.column_cache.status()
        summary = status["summary"]
        assert summary["classes"] == 1
        assert summary["rows"] == len(db.extent(SCHEMA, "Pole"))
        assert summary["builds"] == 1 and summary["hits"] == 1
        assert summary["hit_ratio"] == 0.5
        (entry,) = status["classes"]
        assert entry["class"] == "Pole"
        assert entry["paths"] == ["status"]

    def test_empty_cache_status(self, db):
        cache = ColumnCache(db)
        assert cache.status()["summary"]["hit_ratio"] is None


class TestSeqlockFallback:
    def test_mid_commit_build_falls_back_to_rows(self, db):
        engine = QueryEngine(db)
        row_answer = answer(QueryEngine(db, use_columns=False).execute(
            SCHEMA, parse_query(QUERIES[0])))
        db._mutation_seq += 1          # simulate a commit mid-apply
        try:
            assert db.column_cache.for_class(SCHEMA, "Pole") is None
            result = engine.execute(SCHEMA, parse_query(QUERIES[0]))
        finally:
            db._mutation_seq -= 1
        assert answer(result) == row_answer
        (class_plan,) = result.report["plans"]
        assert class_plan["columns"] is False
        assert class_plan["columns_reason"] == "commit in flight"
        # The lock released: the very next query builds columns again.
        retry = engine.execute(SCHEMA, parse_query(QUERIES[0]))
        assert retry.report["plans"][0]["columns"] is True
        assert answer(retry) == row_answer

    def test_fallback_counter_labelled_by_reason(self, db):
        recorder = obs.enable(registry=obs.MetricsRegistry())
        try:
            db._mutation_seq += 1
            try:
                QueryEngine(db).execute(SCHEMA, parse_query(QUERIES[0]))
            finally:
                db._mutation_seq -= 1
            QueryEngine(db, use_columns=False).execute(
                SCHEMA, parse_query(QUERIES[0]))
            registry = recorder.registry
            assert registry.counter_value(
                "query.columns.fallback", reason="commit-in-flight") == 1
            assert registry.counter_value(
                "query.columns.fallback", reason="disabled") == 1
        finally:
            obs.disable()

    def test_build_and_hit_counters(self, db):
        engine = QueryEngine(db)
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        engine.execute(SCHEMA, parse_query(QUERIES[1]))
        victim = db.extent(SCHEMA, "Pole").oids()[0]
        with db.transaction() as txn:
            txn.update(victim, {"status": "ok"})
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        summary = db.column_cache.status()["summary"]
        assert summary["builds"] == 2
        assert summary["hits"] == 1
        assert summary["invalidations"] == 1


class TestMVCCRouting:
    """Snapshot readers and mid-txn overlays never see column state."""

    def test_snapshot_reader_sees_old_state_engine_sees_new(self, db):
        engine = QueryEngine(db)
        engine.execute(SCHEMA, parse_query(QUERIES[0]))   # warm columns
        victim = engine.execute(SCHEMA, parse_query(
            "select * from Pole where status = 'ok'")).oids()[0]
        reader = db.transaction()
        try:
            with db.transaction() as txn:
                txn.update(victim, {"status": "retired"})
            # The old snapshot still answers from its version horizon...
            old = reader.query(SCHEMA, "Pole")
            assert old[victim]["status"] == "ok"
            # ...while the engine (latest state, via fresh columns) does not.
            new = engine.execute(SCHEMA, parse_query(
                "select * from Pole where status = 'ok'"))
            assert victim not in new.oids()
            assert new.report["plans"][0]["columns"] is True
        finally:
            reader.abort()

    def test_snapshot_query_leaves_cache_untouched(self, db):
        engine = QueryEngine(db)
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        cache = db.column_cache
        builds, hits = cache.builds, cache.hits
        reader = db.transaction()
        try:
            reader.query(SCHEMA, "Pole")
        finally:
            reader.abort()
        assert (cache.builds, cache.hits) == (builds, hits)

    def test_staged_overlay_invisible_to_engine(self, db):
        engine = QueryEngine(db)
        txn = db.transaction()
        try:
            txn.insert(SCHEMA, "Pole", {
                "pole_type": 4, "status": "staged", "install_year": 2030,
                "pole_location": Point(3.0, 4.0),
            })
            staged = engine.execute(SCHEMA, parse_query(
                "select * from Pole where status = 'staged'"))
            assert staged.oids() == []
        finally:
            txn.abort()


class TestHashScanParity:
    def test_hash_scan_uses_columns_with_equal_candidates(self, db):
        db.create_attribute_index(SCHEMA, "Pole", "pole_type")
        text = "select * from Pole where pole_type = 1 and status = 'ok'"
        cols = QueryEngine(db).execute(SCHEMA, parse_query(text))
        rows = QueryEngine(db, use_columns=False).execute(
            SCHEMA, parse_query(text))
        assert cols.report["plan"] == rows.report["plan"] == "hash-scan"
        assert cols.report["candidates"] == rows.report["candidates"]
        assert answer(cols) == answer(rows)
        assert cols.report["plans"][0]["columns"] is True

    def test_in_predicate_parity(self, db):
        db.create_attribute_index(SCHEMA, "Pole", "pole_type")
        assert_equivalent(
            db, "select * from Pole where pole_type in [0, 2]"
                " order by install_year")

    def test_index_scan_stays_on_rows(self, db):
        result = QueryEngine(db).execute(SCHEMA, parse_query(
            "select * from Pole where"
            " within(pole_location, bbox(0, 0, 120, 120))"))
        index_plans = [p for p in result.report["plans"]
                       if p["plan"] == "index-scan"]
        if index_plans:          # planner chose the R-tree
            assert all(p["columns"] is False for p in index_plans)
            assert all(p["columns_reason"] == "index scan"
                       for p in index_plans)


class TestResultAndStatsBatching:
    """The two perf satellites: cached oids(), batched snapshots."""

    def test_oids_computed_once(self, db):
        result = QueryEngine(db).execute(SCHEMA, parse_query(QUERIES[0]))
        assert result.oids() is result.oids()

    def test_with_report_shares_cached_oids(self, db):
        result = QueryEngine(db).execute(SCHEMA, parse_query(QUERIES[0]))
        oids = result.oids()
        assert result.with_report(cache="hit").oids() is oids

    def test_snapshot_matches_per_class_describes(self, db):
        stats = db.statistics
        snap = stats.snapshot(SCHEMA)
        stats.invalidate()
        for class_name, described in snap[SCHEMA].items():
            assert described == stats.for_class(
                SCHEMA, class_name).describe()


class TestBulkLoadedRebuild:
    def test_rebuild_is_search_equivalent(self, db):
        before = db.spatial_index(SCHEMA, "Pole", "pole_location")
        probe = BBox(0, 0, 500, 500)
        expected = sorted(before.search(probe))
        assert expected          # the workload build populated the index
        rebuilt = db.rebuild_spatial_index(SCHEMA, "Pole", "pole_location")
        rebuilt.check_invariants()
        assert db.spatial_index(SCHEMA, "Pole", "pole_location") is rebuilt
        assert sorted(rebuilt.search(probe)) == expected

    def test_rebuild_counts_a_bulk_load(self, db):
        recorder = obs.enable(registry=obs.MetricsRegistry())
        try:
            db.rebuild_spatial_index(SCHEMA, "Pole", "pole_location")
            assert recorder.registry.counter_value("rtree.bulk_loads") == 1
        finally:
            obs.disable()


class TestRunQueryIntegration:
    def test_run_query_goes_columnar_by_default(self, db):
        result = run_query(db, SCHEMA, QUERIES[0])
        assert result.report["plans"][0]["columns"] is True
