"""Delta-maintained live queries: correctness against full re-execution.

The tentpole contract of the live subsystem: a watched query's
maintained result is *always* byte-identical to a fresh engine
execution, yet a ``live_update`` is delivered only when the result's
content actually changed. These tests check the contract three ways:

* unit cases per result shape (plain, ordered, ordered+limit,
  projection, aggregates) through inserts, updates and deletes, also
  across a ``LIMIT`` horizon;
* a randomized, seeded churn mix over *all* shapes at once — after
  every single commit the maintained result must match a fresh
  execution, and the presence of an update must match an actual
  content change (the per-session delivery oracle);
* the same churn with replica-routed reads underneath, and over the
  wire with two clients whose pushes must route only to the
  connection whose watch changed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.kernel import GISKernel
from repro.geodb import GeographicDatabase, LocalReplicationSource, QueryEngine
from repro.geodb.query_language import parse_query
from repro.spatial import Point
from repro.workloads import PhoneNetParams, build_phone_net_database
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA, build_mix_schema

WORLD = 1000


@pytest.fixture()
def db():
    database = GeographicDatabase("livetest")
    database.register_schema(build_mix_schema())
    with database.transaction() as txn:
        for i in range(40):
            txn.insert(MIX_SCHEMA, MIX_CLASS, {
                "name": f"seed{i:02d}",
                "size": (i * 7) % 53,
                "location": Point((i * 13) % WORLD, (i * 29) % WORLD)
                            if i % 5 else None,
            }, oid=f"Feature#seed{i:02d}")
    return database


@pytest.fixture()
def kernel(db):
    with GISKernel(db) as k:
        yield k


def fresh(db, text):
    return QueryEngine(db).execute(MIX_SCHEMA, parse_query(text))


def content(result):
    """A comparison key capturing everything a session can observe."""
    if result.rows is not None:
        return [dict(row) for row in result.rows]
    return [(obj.oid, dict(obj.values())) for obj in result.objects]


def assert_matches_fresh(db, watch, text):
    """The maintained result is the one a fresh execution returns: the
    same oids in the same order and identical rows, for every shape."""
    expected = fresh(db, text)
    got = watch.result()
    assert got.oids() == expected.oids(), f"oids diverged for {text!r}"
    assert got.rows == expected.rows, f"rows diverged for {text!r}"


class TestDeltaShapes:
    """Each result shape stays exact through its delta branches."""

    def test_plain_insert_update_delete(self, db, kernel):
        session = kernel.session(user="u")
        text = "select * from Feature where size >= 20"
        watch = session.watch(MIX_SCHEMA, text)
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "in", "size": 30},
                       oid="Feature#in")
        assert_matches_fresh(db, watch, text)
        assert "Feature#in" in watch.result().oids()
        with kernel.transaction(session) as txn:
            txn.update("Feature#in", {"size": 5})      # leaves the set
        assert_matches_fresh(db, watch, text)
        assert "Feature#in" not in watch.result().oids()
        with kernel.transaction(session) as txn:
            txn.update("Feature#in", {"size": 40})     # re-enters
            txn.delete("Feature#seed05")
        assert_matches_fresh(db, watch, text)
        assert kernel.live.stats()["fallback_reexec"] == 0

    def test_ordered_repositioning(self, db, kernel):
        session = kernel.session(user="u")
        text = "select name, size from Feature order by desc size"
        watch = session.watch(MIX_SCHEMA, text)
        first = watch.result().objects[0].oid
        with kernel.transaction(session) as txn:
            txn.update(first, {"size": -1})            # sinks to the bottom
            txn.insert(MIX_SCHEMA, MIX_CLASS,
                       {"name": "top", "size": 999}, oid="Feature#top")
        assert_matches_fresh(db, watch, text)
        assert watch.result().objects[0].oid == "Feature#top"
        assert watch.result().objects[-1].oid == first
        assert kernel.live.stats()["fallback_reexec"] == 0

    def test_ordered_limit_top_k(self, db, kernel):
        session = kernel.session(user="u")
        text = "select name, size from Feature order by desc size limit 5"
        watch = session.watch(MIX_SCHEMA, text)
        # an insert beyond the horizon is provably invisible: no
        # fallback, no push
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS,
                       {"name": "deep", "size": -100}, oid="Feature#deep")
        assert kernel.live.stats()["fallback_reexec"] == 0
        assert watch.pop_updates() == []
        assert_matches_fresh(db, watch, text)
        # an insert into the top-k is a pure delta too
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS,
                       {"name": "peak", "size": 999}, oid="Feature#peak")
        assert kernel.live.stats()["fallback_reexec"] == 0
        assert len(watch.pop_updates()) == 1
        assert_matches_fresh(db, watch, text)
        # losing a member under the horizon promotes the next row of
        # the untruncated selection: still a delta, still exact
        with kernel.transaction(session) as txn:
            txn.delete("Feature#peak")
        assert kernel.live.stats()["fallback_reexec"] == 0
        assert len(watch.pop_updates()) == 1
        assert_matches_fresh(db, watch, text)

    def test_projection_rows_stay_minimal(self, db, kernel):
        session = kernel.session(user="u")
        text = "select name from Feature where size >= 20"
        watch = session.watch(MIX_SCHEMA, text)
        member = watch.result().objects[0].oid
        # a change to an unprojected, unfiltered attribute is silent
        with kernel.transaction(session) as txn:
            txn.update(member, {"location": Point(1, 2)})
        assert watch.pop_updates() == []
        assert_matches_fresh(db, watch, text)
        # a change to the projected attribute pushes the new row
        with kernel.transaction(session) as txn:
            txn.update(member, {"name": "renamed"})
        updates = watch.pop_updates()
        assert len(updates) == 1 and updates[0].reason == "delta"
        assert_matches_fresh(db, watch, text)

    def test_aggregates_recombine_exactly(self, db, kernel):
        session = kernel.session(user="u")
        text = ("select count(*), count(size), sum(size), min(size), "
                "max(size), avg(size) from Feature where size >= 10")
        watch = session.watch(MIX_SCHEMA, text)
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 11},
                       oid="Feature#a")
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "b", "size": None},
                       oid="Feature#b")
        assert_matches_fresh(db, watch, text)
        with kernel.transaction(session) as txn:
            txn.update("Feature#a", {"size": 50})
            txn.delete("Feature#seed07")
        assert_matches_fresh(db, watch, text)
        # a member edit not touching the aggregated attribute is silent
        watch.pop_updates()
        with kernel.transaction(session) as txn:
            txn.update("Feature#a", {"name": "a2"})
        assert watch.pop_updates() == []
        assert_matches_fresh(db, watch, text)
        assert kernel.live.stats()["fallback_reexec"] == 0

    def test_float_aggregates_equal_fresh_exactly(self):
        """Float sum/avg recombined from contributions equal a fresh
        execution to the last bit, through updates and inserts — also
        when members leave and re-enter, so contributions arrive in a
        different order than the extent's."""
        phone = build_phone_net_database(PhoneNetParams(
            blocks_x=4, blocks_y=4, poles_per_street=8))
        text = ("select count(*), sum(pole_composition.pole_height), "
                "avg(pole_composition.pole_diameter) from Pole "
                "where pole_type >= 1")
        rng = random.Random(7)

        def composition():
            return {"pole_material": "wood",
                    "pole_diameter": rng.uniform(0.1, 0.5),
                    "pole_height": rng.uniform(6, 14)}

        with GISKernel(phone) as k:
            session = k.session(user="u")
            watch = session.watch("phone_net", text)
            poles = phone.extent("phone_net", "Pole").oids()
            for step in range(6):
                with k.transaction(session) as txn:
                    for oid in rng.sample(poles, 5):
                        txn.update(oid, {"pole_type": rng.randint(0, 3),
                                         "pole_composition": composition()})
                    txn.insert("phone_net", "Pole", {
                        "pole_type": 2,
                        "pole_location": Point(step, step),
                        "pole_composition": composition(),
                    })
                expected = QueryEngine(phone).execute(
                    "phone_net", parse_query(text))
                assert watch.result().rows == expected.rows
            assert k.live.stats()["fallback_reexec"] == 0


class TestTargetedDelivery:
    def test_irrelevant_commits_are_silent_but_keep_cache_fresh(
            self, db, kernel):
        session = kernel.session(user="u")
        text = "select name, size from Feature where size >= 9000"
        watch = session.watch(MIX_SCHEMA, text)
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "x", "size": 1})
        assert watch.pop_updates() == []
        # the maintained entry advanced its versions anyway: the next
        # plain kernel.query is a hit, not an invalidation
        result = kernel.query(MIX_SCHEMA, text)
        assert result.report["cache"] == "hit"
        assert result.rows == []

    def test_updates_go_only_to_changed_watches(self, db, kernel):
        s1 = kernel.session(user="a")
        s2 = kernel.session(user="b")
        low = s1.watch(MIX_SCHEMA,
                       "select name from Feature where size <= 5")
        high = s2.watch(MIX_SCHEMA,
                        "select name from Feature where size >= 9000")
        with kernel.transaction(s1) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "tiny", "size": 1})
        assert len(low.pop_updates()) == 1
        assert high.pop_updates() == []
        deliveries = []
        kernel.live.add_listener(lambda u: deliveries.append(u.session_id))
        with kernel.transaction(s2) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "tiny2", "size": 2})
        assert deliveries == [s1.session_id]

    def test_shared_state_single_maintenance(self, db, kernel):
        """A registration storm on one query costs one maintained state."""
        sessions = [kernel.session(user=f"u{i}") for i in range(5)]
        watches = [s.watch(MIX_SCHEMA, "select count(*) from Feature")
                   for s in sessions]
        assert kernel.live.stats()["queries"] == 1
        assert kernel.live.stats()["watches"] == 5
        with kernel.transaction(sessions[0]) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "n", "size": 0})
        assert all(len(w.pop_updates()) == 1 for w in watches)
        # one delta application served all five watches
        assert kernel.live.stats()["delta_applied"] == 1

    def test_session_shutdown_releases_watches(self, db, kernel):
        session = kernel.session(user="u")
        session.watch(MIX_SCHEMA, "select * from Feature")
        assert kernel.live.stats()["watches"] == 1
        session.shutdown()
        assert kernel.live.stats()["watches"] == 0
        assert kernel.live.stats()["queries"] == 0
        # the manager detached from the database listener hook
        assert not db._write_set_listeners


WATCHED = [
    "select * from Feature where size >= 25",
    "select name, size from Feature where size >= 10 and size <= 40",
    "select name, size from Feature order by size",
    "select name, size from Feature order by desc size limit 7",
    "select count(*), sum(size), min(size) from Feature where size >= 15",
    ("select count(*), sum(size) from Feature where "
     "within(location, bbox(0, 0, 500, 500))"),
]


def run_churn(db, kernel, session, watches, rng, commits, prefix="n"):
    """Seeded commit mix; after every commit every watch must match a
    fresh execution, and an update must mean a content change."""
    oids = list(db.extent(MIX_SCHEMA, MIX_CLASS).oids())
    snapshots = {w.watch_id: content(w.result()) for w, _ in watches}
    serial = 0
    for _ in range(commits):
        with kernel.transaction(session) as txn:
            for _ in range(rng.randint(1, 3)):
                action = rng.random()
                if action < 0.45 or len(oids) < 10:
                    serial += 1
                    oid = f"Feature#{prefix}{serial:04d}"
                    txn.insert(MIX_SCHEMA, MIX_CLASS, {
                        "name": f"{prefix}{serial:04d}",
                        "size": rng.randint(0, 60),
                        "location": Point(rng.randint(0, WORLD),
                                          rng.randint(0, WORLD))
                                    if rng.random() < 0.8 else None,
                    }, oid=oid)
                    oids.append(oid)
                elif action < 0.85:
                    oid = rng.choice(oids)
                    changes = {"size": rng.randint(0, 60)}
                    if rng.random() < 0.3:
                        changes["location"] = Point(rng.randint(0, WORLD),
                                                    rng.randint(0, WORLD))
                    txn.update(oid, changes)
                else:
                    oid = rng.choice(oids)
                    oids.remove(oid)
                    txn.delete(oid)
        for watch, text in watches:
            assert_matches_fresh(db, watch, text)
            now = content(watch.result())
            pushed = len(watch.pop_updates()) > 0
            changed = now != snapshots[watch.watch_id]
            assert pushed == changed, (
                f"{text!r}: pushed={pushed} but changed={changed}")
            snapshots[watch.watch_id] = now


class TestRandomizedChurn:
    def test_delta_equals_reexec_over_commit_mix(self, db, kernel):
        session = kernel.session(user="u")
        watches = [(session.watch(MIX_SCHEMA, text), text)
                   for text in WATCHED]
        run_churn(db, kernel, session, watches, random.Random(1234),
                  commits=80)
        stats = kernel.live.stats()
        # reshaping the untruncated selection is exact at any LIMIT:
        # every commit is a delta, none falls back
        assert stats["delta_applied"] == 80 * len(WATCHED)
        assert stats["fallback_reexec"] == 0

    def test_churn_with_replica_reads(self, db):
        """Replica-routed reads of the watched queries agree with the
        maintained results after a churn."""
        from repro.geodb import MemoryPager, WriteAheadLog

        db.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none"))
        with GISKernel(db) as kernel:
            follower = GeographicDatabase.follow(
                LocalReplicationSource(db), name="r0")
            kernel.attach_replica(follower)
            session = kernel.session(user="u")
            watches = [(session.watch(MIX_SCHEMA, text), text)
                       for text in WATCHED]
            run_churn(db, kernel, session, watches, random.Random(99),
                      commits=40)
            run_churn(db, kernel, session, watches, random.Random(7),
                      commits=20, prefix="m")
            for watch, text in watches:
                routed = session.query(MIX_SCHEMA, text,
                                       read_preference="replica")
                assert sorted(routed.oids()) == \
                    sorted(watch.result().oids()), text
                if routed.rows is not None and "count(" in text:
                    assert routed.rows == watch.result().rows


class TestConcurrentCommitters:
    def test_watches_converge_under_concurrent_commits(self, db, kernel):
        """Write-sets reach the manager out of commit order while other
        commits are already applied to the column sets a watch reads;
        once the committers are done every watch equals a fresh
        execution."""
        import sys
        import threading

        from repro.errors import TransactionError

        watches = [(kernel.session(user="w").watch(MIX_SCHEMA, text), text)
                   for text in WATCHED]
        seeds = list(db.extent(MIX_SCHEMA, MIX_CLASS).oids())

        errors = []

        def committer(worker):
            rng = random.Random(worker)
            session = kernel.session(user=f"c{worker}")
            mine = []       # this worker's committed inserts
            for i in range(25):
                oid = f"Feature#t{worker}-{i}"
                gone = mine[0] if len(mine) > 3 and rng.random() < 0.3 \
                    else None
                try:
                    with kernel.transaction(session) as txn:
                        txn.insert(MIX_SCHEMA, MIX_CLASS, {
                            "name": oid, "size": rng.randint(0, 60),
                            "location": Point(rng.randint(0, WORLD),
                                              rng.randint(0, WORLD))},
                            oid=oid)
                        txn.update(rng.choice(seeds + mine),
                                   {"size": rng.randint(0, 60)})
                        if gone is not None:
                            txn.delete(gone)
                except TransactionError:
                    continue    # a write-write conflict on a seed row
                except Exception as exc:    # reported by the main thread
                    errors.append(exc)
                    return
                mine.append(oid)
                if gone is not None:
                    mine.remove(gone)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=committer, args=(w,))
                       for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for watch, text in watches:
            assert_matches_fresh(db, watch, text)


class TestFallbacks:
    """The two fallbacks, reached deterministically: each re-selects,
    equals a fresh execution and pushes iff the content changed."""

    def test_version_gap(self, db, kernel):
        session = kernel.session(user="u")
        text = "select name, size from Feature where size >= 20 " \
               "order by desc size limit 5"
        watch = session.watch(MIX_SCHEMA, text)
        # the kernel's feed misses one commit that enters the top 5
        db.remove_write_set_listener(kernel._on_write_set)
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "gap", "size": 998},
                       oid="Feature#gap")
        db.add_write_set_listener(kernel._on_write_set)
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "low", "size": 1},
                       oid="Feature#low")
        assert kernel.live.stats()["fallback_reexec"] == 1
        assert watch.result().report["live"]["reason"] == "reexec:version-gap"
        assert_matches_fresh(db, watch, text)
        assert watch.result().oids()[0] == "Feature#gap"
        updates = watch.pop_updates()
        assert [u.reason for u in updates] == ["reexec"]
        # a gap over commits that leave the content alone is silent
        db.remove_write_set_listener(kernel._on_write_set)
        with kernel.transaction(session) as txn:
            txn.update("Feature#low", {"size": 2})
        db.add_write_set_listener(kernel._on_write_set)
        with kernel.transaction(session) as txn:
            txn.update("Feature#low", {"size": 3})
        assert kernel.live.stats()["fallback_reexec"] == 2
        assert_matches_fresh(db, watch, text)
        assert watch.pop_updates() == []

    def test_closure_change(self, db, kernel):
        from repro.geodb.schema import GeoClass

        session = kernel.session(user="u")
        text = "select * from Feature where size >= 20 including subclasses"
        watch = session.watch(MIX_SCHEMA, text)
        db.get_schema_object(MIX_SCHEMA).add_class(
            GeoClass("SubFeature", superclass=MIX_CLASS))
        # one commit to the base class and the new subclass: the delta
        # knows only the old closure, so the selection is rebuilt
        with kernel.transaction(session) as txn:
            txn.update("Feature#seed01", {"size": 1})
            txn.insert(MIX_SCHEMA, "SubFeature", {"name": "sub", "size": 30},
                       oid="SubFeature#1")
        assert kernel.live.stats()["fallback_reexec"] == 1
        assert watch.result().report["live"]["reason"] == \
            "reexec:closure-change"
        assert_matches_fresh(db, watch, text)
        assert "SubFeature#1" in watch.result().oids()
        assert [u.reason for u in watch.pop_updates()] == ["reexec"]
        # the rebuilt state maintains the grown closure by deltas
        with kernel.transaction(session) as txn:
            txn.update("SubFeature#1", {"size": 5})
        assert kernel.live.stats()["fallback_reexec"] == 1
        assert_matches_fresh(db, watch, text)
        assert "SubFeature#1" not in watch.result().oids()
        assert [u.reason for u in watch.pop_updates()] == ["delta"]

    def test_member_deleted_by_an_undelivered_commit(self, db, kernel):
        """A write-set delivered after a later commit already patched
        the column sets: a member that later commit deleted has no row
        and is skipped, on both sides of the half-class split, and the
        later write-set then drops it, all without a fallback."""
        session = kernel.session(user="u")
        small = "select name, size from Feature where size >= 40"
        large = "select * from Feature where size >= 0 order by size"
        watches = [(session.watch(MIX_SCHEMA, text), text)
                   for text in (small, large)]
        member, other = fresh(db, small).oids()[:2]
        captured = []
        db.remove_write_set_listener(kernel._on_write_set)
        db.add_write_set_listener(captured.append)
        with kernel.transaction(session) as txn:
            txn.update(other, {"size": 45})
        with kernel.transaction(session) as txn:
            txn.delete(member)
        db.remove_write_set_listener(captured.append)
        db.add_write_set_listener(kernel._on_write_set)
        for ws in captured:
            kernel._on_write_set(ws)
            for watch, text in watches:
                assert_matches_fresh(db, watch, text)
        assert kernel.live.stats()["fallback_reexec"] == 0

    def test_every_full_selection_is_recorded(self, db, kernel,
                                              obs_recorder):
        session = kernel.session(user="u")
        text = "select * from Feature where size >= 20"
        registry = obs_recorder.registry
        watch = session.watch(MIX_SCHEMA, text)
        assert registry.counter_total("query.executed") == 1
        db.remove_write_set_listener(kernel._on_write_set)
        with kernel.transaction(session) as txn:
            txn.update("Feature#seed01", {"size": 40})
        db.add_write_set_listener(kernel._on_write_set)
        with kernel.transaction(session) as txn:
            txn.update("Feature#seed01", {"size": 41})
        assert kernel.live.stats()["fallback_reexec"] == 1
        assert registry.counter_total("query.executed") == 2
        assert registry.counter_value("live.fallback_reexec",
                                      reason="version-gap") == 1
        assert_matches_fresh(db, watch, text)


class TestOverTheWire:
    def test_pushes_route_only_to_changed_watches(self, db, kernel):
        """Two connections, disjoint predicates: commits matching only
        A's watch must push only to A's connection — B hears nothing,
        and A's pushed rows equal a fresh execution."""
        from repro.net.client import GISClient
        from repro.net.server import ServerThread

        text_a = "select name, size from Feature where size >= 30"
        text_b = "select name, size from Feature where size >= 9000"
        with ServerThread(kernel) as (host, port):
            with GISClient(host, port) as a, GISClient(host, port) as b, \
                    GISClient(host, port) as writer:
                a.open_session(user="a")
                b.open_session(user="b")
                snap_a = a.watch(MIX_SCHEMA, text_a)
                snap_b = b.watch(MIX_SCHEMA, text_b)
                assert snap_a["count"] > 0 and snap_b["count"] == 0

                writer.insert(MIX_SCHEMA, MIX_CLASS,
                              {"name": "hit", "size": 77})
                writer.insert(MIX_SCHEMA, MIX_CLASS,
                              {"name": "miss", "size": 1})
                pushes_a = a.poll_pushes(timeout=1.0)
                pushes_b = b.poll_pushes(timeout=0.5)

                assert [p["push"] for p in pushes_a] == ["live_update"]
                assert pushes_a[0]["watch"] == snap_a["watch"]
                assert pushes_a[0]["reason"] == "delta"
                expected = fresh(db, text_a)
                assert sorted(pushes_a[0]["oids"]) == \
                    sorted(expected.oids())
                assert sorted(r["name"] for r in pushes_a[0]["rows"]) == \
                    sorted(r["name"] for r in expected.rows)
                assert pushes_b == []
                # the pushes delivered the updates: no wire watch keeps
                # a queue of results nobody reads
                assert [row["pending"] for row in
                        kernel.live.watch_status()] == [0, 0]

                # released watches stop pushing
                assert a.unwatch(snap_a["watch"]) is True
                writer.insert(MIX_SCHEMA, MIX_CLASS,
                              {"name": "hit2", "size": 88})
                assert a.poll_pushes(timeout=0.5) == []

    def test_watch_dies_with_its_connection(self, db, kernel):
        from repro.net.client import GISClient
        from repro.net.server import ServerThread
        import time

        with ServerThread(kernel) as (host, port):
            client = GISClient(host, port)
            client.open_session(user="a")
            client.watch(MIX_SCHEMA, "select * from Feature")
            assert kernel.live.stats()["watches"] == 1
            client.close()
            deadline = time.monotonic() + 5
            while kernel.live.stats()["watches"] and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert kernel.live.stats()["watches"] == 0
