"""Columnar selection: cache lifecycle, reference parity, MVCC.

Every plan of the engine selects rows of the class's column set. The
contract under test: every answer is **byte-identical** (oids in order,
rows) to the reference evaluator's (``tests/_reference.py``, plain
``Predicate.matches`` row by row) on the same database — and the column
cache never serves stale state: commits patch sets past the class
version stamp, a build that meets an applying commit waits for it and
takes the set the commit patched, and MVCC snapshot readers never touch
columns at all.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.core.kernel import GISKernel
from repro.geodb import (ClassColumns, ColumnCache, FilePager,
                         GeographicDatabase, MetadataCatalog, QueryEngine)
from repro.geodb.query_language import parse_query, run_query
from repro.spatial import BBox, Point
from repro.workloads import build_mix_schema, build_phone_net_database
from repro.workloads.phone_net import PhoneNetParams
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA

from tests import _reference as reference

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


def assert_equivalent(db, text):
    """The engine answers ``text`` exactly like the reference: the same
    oids in the same order (extent order when unordered) and rows."""
    query = parse_query(text)
    result = QueryEngine(db).execute(SCHEMA, query)
    expected, rows = reference.evaluate(db, SCHEMA, query)
    assert (result.oids(), result.rows) == (
        [obj.oid for obj in expected], rows)
    return result


class TestRowColumnEquivalence:
    """Column selection against the row-by-row reference evaluator."""

    @pytest.mark.parametrize("text", QUERIES)
    def test_byte_identical_answers(self, db, text):
        result = assert_equivalent(db, text)
        # A full scan examines every row of its class's set.
        for class_plan in result.report["plans"]:
            if class_plan["plan"] == "full-scan":
                assert result.report["candidates"] >= len(
                    db.extent(SCHEMA, class_plan["class"]))


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
        # The commit patched the set; the scan did not rebuild it.
        cache = db.column_cache
        assert (cache.builds, cache.patches, cache.invalidations) == (1, 1, 0)

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

    def test_load_from_storage_drops_stale_sets(self, tmp_path):
        # Adopting stored records moves the extent without a commit, so
        # the class version stays 0; a set built on the empty extent
        # before the load must not answer after it.
        path = str(tmp_path / "mix.db")
        source = GeographicDatabase("mix", pager=FilePager(path))
        source.register_schema(build_mix_schema())
        for i in range(5):
            source.insert(MIX_SCHEMA, MIX_CLASS, {
                "name": f"r{i}", "size": i,
                "location": Point(i * 10.0, 1.0)})
        MetadataCatalog(source).save_all_schemas()
        source.buffer.flush()
        source.pager.close()

        reopened = GeographicDatabase("mix", pager=FilePager(path))
        reopened.register_schema(
            MetadataCatalog(reopened).load_schema(MIX_SCHEMA))
        engine = QueryEngine(reopened)
        text = "select * from Feature where size >= 0"
        try:
            before = engine.execute(MIX_SCHEMA, parse_query(text))
            assert before.oids() == []
            assert reopened.class_version(MIX_SCHEMA, MIX_CLASS) == 0
            assert reopened.load_from_storage() == 5
            after = engine.execute(MIX_SCHEMA, parse_query(text))
            assert len(after.oids()) == 5
        finally:
            reopened.pager.close()

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
    """A column build that meets an applying commit falls back to the
    commit lock: it waits for the commit, then takes the set the commit
    patched instead of building one."""

    def test_mid_commit_query_waits_then_answers_columnar(
            self, db, monkeypatch):
        engine = QueryEngine(db)
        text = "select * from Pole where status = 'broken'"
        assert engine.execute(SCHEMA, parse_query(text)).oids() == []
        victim = db.extent(SCHEMA, "Pole").oids()[0]
        applying, release = threading.Event(), threading.Event()
        real_record = GeographicDatabase._record_versions

        def paused_record(database, *args, **kwargs):
            # The extents and class versions already moved; the commit
            # lock is held and the seqlock is odd.
            applying.set()
            release.wait(10)
            return real_record(database, *args, **kwargs)

        monkeypatch.setattr(GeographicDatabase, "_record_versions",
                            paused_record)

        def commit():
            with db.transaction() as txn:
                txn.update(victim, {"status": "broken"})

        results = []
        writer = threading.Thread(target=commit)
        reader = threading.Thread(target=lambda: results.append(
            engine.execute(SCHEMA, parse_query(text))))
        writer.start()
        try:
            assert applying.wait(10)
            assert db._mutation_seq & 1
            reader.start()
            reader.join(0.2)
            assert reader.is_alive() and results == []   # waiting
        finally:
            release.set()
            writer.join(10)
            if reader.ident is not None:
                reader.join(10)
        assert not writer.is_alive() and not reader.is_alive()
        (result,) = results
        assert result.oids() == [victim]
        assert db.column_cache.builds == 1      # no build after the wait
        assert db.column_cache.for_class(SCHEMA, "Pole").version \
            == db.class_version(SCHEMA, "Pole")

    def test_build_and_hit_counters(self, db):
        engine = QueryEngine(db)
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        engine.execute(SCHEMA, parse_query(QUERIES[1]))
        victim = db.extent(SCHEMA, "Pole").oids()[0]
        with db.transaction() as txn:
            txn.update(victim, {"status": "ok"})
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        summary = db.column_cache.status()["summary"]
        assert summary["builds"] == 1
        assert summary["hits"] == 2
        assert summary["patches"] == 1
        assert summary["invalidations"] == 0
        assert_equivalent(db, QUERIES[0])


class TestCopyOnWritePatch:
    """Commits replace a column set with a patched successor and never
    touch the set a reader already holds."""

    def test_held_set_unchanged_after_commits(self, db):
        engine = QueryEngine(db)
        engine.execute(SCHEMA, parse_query(QUERIES[0]))
        engine.execute(SCHEMA, parse_query(QUERIES[8]))   # geometry
        held = db.column_cache.for_class(SCHEMA, "Pole")
        row_of = held.row_of
        before = (held.version, list(held.objects), list(held.oids),
                  dict(row_of),
                  {key: list(column)
                   for key, (__, column) in held._paths.items()},
                  {attr: (list(geoms), list(boxes))
                   for attr, (geoms, boxes) in held._geometry.items()})
        oids = db.extent(SCHEMA, "Pole").oids()
        inserted = []          # poles no cable references, to delete
        for i in range(10):
            with db.transaction() as txn:
                txn.update(oids[i], {"status": "broken",
                                     "pole_location": Point(i, i)})
                if i % 2 == 0:
                    inserted.append(txn.insert(SCHEMA, "Pole", {
                        "pole_type": 1, "status": "new",
                        "install_year": 2000 + i,
                        "pole_location": Point(1.0, float(i))}))
                elif i % 3 == 0:
                    txn.delete(inserted.pop(0))
        after = (held.version, held.objects, held.oids, held.row_of,
                 {key: column for key, (__, column) in held._paths.items()},
                 {attr: (geoms, boxes)
                  for attr, (geoms, boxes) in held._geometry.items()})
        assert after == before
        assert held.row_of is row_of
        current = db.column_cache.for_class(SCHEMA, "Pole")
        assert current is not held
        assert current.version == db.class_version(SCHEMA, "Pole")
        assert db.column_cache.patches == 10
        assert db.column_cache.builds == 1
        for text in QUERIES:
            assert_equivalent(db, text)

    def test_lazy_columns_race_commits(self, db, monkeypatch):
        """A thread adding lazy path columns to the current set while
        another commits: no commit raises, no patch fails (a failed
        patch would silently drop the set), and the final set is
        fresh."""
        patch_errors: list[Exception] = []
        real_advance = ClassColumns.advance

        def recording_advance(self, *args):
            try:
                return real_advance(self, *args)
            except Exception as exc:         # reported below
                patch_errors.append(exc)
                raise

        monkeypatch.setattr(ClassColumns, "advance", recording_advance)
        cache = db.column_cache
        pole = db.get_schema_object(SCHEMA).get_class("Pole")
        cache.for_class(SCHEMA, "Pole").path_column("status", pole)
        oids = db.extent(SCHEMA, "Pole").oids()
        done = threading.Event()
        errors: list[Exception] = []

        def writer():
            try:
                for i in range(150):
                    with db.transaction() as txn:
                        txn.update(oids[i % len(oids)],
                                   {"install_year": 1900 + i})
                        if i % 5 == 0:
                            txn.insert(SCHEMA, "Pole", {
                                "pole_type": 2, "status": "new",
                                "install_year": 1990,
                                "pole_location": Point(float(i), 2.0)})
            except Exception as exc:         # reported below
                errors.append(exc)
            finally:
                done.set()

        def lazy_columns():
            i = 0
            try:
                while not done.is_set():
                    columns = cache.for_class(SCHEMA, "Pole")
                    # a new key every round: unknown paths resolve to None
                    columns.path_column(f"probe_{i}", pole)
                    columns.geometry_column("pole_location")
                    i += 1
            except Exception as exc:         # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer),
                       threading.Thread(target=lazy_columns)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and patch_errors == []
        assert cache.patches > 0
        for text in QUERIES:
            assert_equivalent(db, text)


class TestConcurrentCommitScan:
    """Scans racing a stream of commits never read a resizing extent.

    Regression: a column build that met an applying commit used to give
    up, and the engine then refined the live extent with nothing
    guarding it — ``RuntimeError: dictionary changed size during
    iteration`` within a fraction of a second, and most scans left the
    column path. The scenario view iterated the live extent the same
    way; both now snapshot it under the seqlock, and an R-tree scan
    reads its hits under it too.
    """

    TEXT = "select * from Pole where install_year > 1980"
    #: the inserted poles land in this window
    WINDOW_TEXT = ("select * from Pole where install_year > 1980 and "
                   "within(pole_location, bbox(-1, 0, 120, 2))")

    def _race(self, db, scan, readers=2):
        """Run ``scan()`` on ``readers`` threads while 300 one-row Pole
        inserts commit; returns the errors raised anywhere."""
        done = threading.Event()
        errors: list[Exception] = []

        def writer():
            try:
                for i in range(300):
                    with db.transaction() as txn:
                        txn.insert(SCHEMA, "Pole", {
                            "pole_type": 1 + i % 3, "status": "new",
                            "install_year": 1960 + i % 50,
                            "pole_location": Point(float(i), 1.0),
                        })
            except Exception as exc:         # reported below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    scan()
            except Exception as exc:         # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader) for __ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        return errors

    def _assert_reference(self, db, result, text=TEXT):
        expected, __ = reference.evaluate(db, SCHEMA, parse_query(text))
        assert result.oids() == [obj.oid for obj in expected]

    def test_scans_stay_columnar_while_inserts_commit(self, db):
        plans: list[dict] = []
        with GISKernel(db) as kernel:
            def scan():
                result = kernel.query(SCHEMA, self.TEXT, use_cache=False)
                plans.extend(result.report["plans"])

            errors = self._race(db, scan)
            final = kernel.query(SCHEMA, self.TEXT, use_cache=False)
        assert errors == []
        assert plans
        self._assert_reference(db, final)

    def test_index_scans_survive_inserts(self, db):
        engine = QueryEngine(db)
        query = parse_query(self.WINDOW_TEXT)
        plans: list[str] = []

        def scan():
            plans.append(engine.execute(SCHEMA, query).report["plan"])

        errors = self._race(db, scan)
        assert errors == []
        assert "index-scan" in plans
        final = engine.execute(SCHEMA, query)
        assert final.report["plan"] == "index-scan"
        self._assert_reference(db, final, self.WINDOW_TEXT)

    def test_scenario_scans_survive_inserts(self, db):
        errors = self._race(db, lambda: db.scenario(SCHEMA).execute(
            parse_query(self.TEXT)))
        assert errors == []
        self._assert_reference(
            db, db.scenario(SCHEMA).execute(parse_query(self.TEXT)))


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
    """Probe plans (hash and R-tree scans) select rows of the column set,
    in extent order, examining exactly the probe's hits."""

    def test_hash_scan_uses_columns_with_equal_candidates(self, db):
        db.create_attribute_index(SCHEMA, "Pole", "pole_type")
        text = "select * from Pole where pole_type = 1 and status = 'ok'"
        result = assert_equivalent(db, text)
        assert result.report["plan"] == "hash-scan"
        bucket = db.attribute_index(SCHEMA, "Pole", "pole_type").lookup(1)
        assert result.report["candidates"] == len(bucket)

    def test_in_predicate_parity(self, db):
        db.create_attribute_index(SCHEMA, "Pole", "pole_type")
        assert_equivalent(
            db, "select * from Pole where pole_type in [0, 2]"
                " order by install_year")
        assert_equivalent(db, "select * from Pole where pole_type in [0, 2]")

    def test_index_scan_selects_column_rows(self, db):
        box = BBox(0, 0, 120, 120)
        result = assert_equivalent(db, (
            "select * from Pole where"
            " within(pole_location, bbox(0, 0, 120, 120))"))
        assert result.report["plan"] == "index-scan"
        hits = db.spatial_index(SCHEMA, "Pole", "pole_location").search(box)
        assert result.report["candidates"] == len(hits)
        columns = db.column_cache.for_class(SCHEMA, "Pole")
        assert set(columns._geometry) == {"pole_location"}


class TestResultAndStatsBatching:
    """Cached oids(), shared by every view of one result."""

    def test_oids_computed_once(self, db):
        result = QueryEngine(db).execute(SCHEMA, parse_query(QUERIES[0]))
        assert result.oids() is result.oids()

    def test_with_report_shares_cached_oids(self, db):
        result = QueryEngine(db).execute(SCHEMA, parse_query(QUERIES[0]))
        oids = result.oids()
        assert result.with_report(cache="hit").oids() is oids


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
        assert db.column_cache.builds == 1
        assert result.oids() == [obj.oid for obj in reference.evaluate(
            db, SCHEMA, parse_query(QUERIES[0]))[0]]
