"""The post-commit change feed: one write-set per commit, every consumer.

A kernel holds one database write-set listener. Per commit it maintains
the live watches, refreshes auto-refresh windows and hands the
write-set to the server's ``mutation`` push fan-out. These tests pin
the properties that only one ordered feed gives:

* one commit rebuilds an interested Class-set window once, however
  many of its rows it touched, while the wire still reports each row
  operation as its own ``mutation`` frame;
* work that never committed (an abort, a constraint veto) reaches no
  consumer;
* a follower feeds the same consumers from replicated batches;
* a consumer that raises is counted, and the others still see the
  commit.
"""

from __future__ import annotations

import pytest

from repro.active.constraints import ConstraintGuard, RelationConstraint
from repro.core import live_queries
from repro.core.kernel import GISKernel
from repro.errors import ConstraintViolationError
from repro.geodb import (
    GeographicDatabase,
    LocalReplicationSource,
    MemoryPager,
    QueryEngine,
    WriteAheadLog,
)
from repro.geodb.query_language import parse_query
from repro.net import GISClient, ServerThread
from repro.spatial import Point
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA, build_mix_schema


@pytest.fixture()
def kernel(phone_db):
    with GISKernel(phone_db) as k:
        yield k


def pole_viewer(kernel):
    """An auto-refresh session displaying the Pole Class-set window."""
    session = kernel.session(user="ana", auto_refresh=True)
    session.connect("phone_net")
    session.select_class("Pole")
    return session


def mutation_frames(client):
    """Every push on ``client`` so far: a ping's response is queued
    behind the pushes of all commits that returned before it."""
    client.ping()
    return [p for p in client.pop_pushes() if p["push"] == "mutation"]


class TestPerCommitFanOut:
    def test_instance_window_rebuilds_once_per_touched_oid(self, kernel,
                                                           pole_oid):
        viewer = pole_viewer(kernel)
        viewer.select_instance(pole_oid)
        viewer.close("classset_Pole")
        before = viewer.dispatcher.interactions
        with kernel.transaction() as txn:
            txn.update(pole_oid, {"pole_historic": "first"})
            txn.update(pole_oid, {"pole_historic": "second"})
        assert viewer.dispatcher.interactions == before + 1

    def test_three_updates_one_rebuild_three_frames(self, kernel):
        viewer = pole_viewer(kernel)
        poles = kernel.database.extent("phone_net", "Pole").oids()[:3]
        before = viewer.dispatcher.interactions
        with ServerThread(kernel) as (host, port), \
                GISClient(host, port, timeout=15) as watcher:
            watcher.subscribe(["Pole"])
            with kernel.transaction() as txn:
                for oid in poles:
                    txn.update(oid, {"pole_historic": "relined"})
            frames = mutation_frames(watcher)
        assert viewer.dispatcher.interactions == before + 1
        assert [(f["kind"], f["class"], f["oid"]) for f in frames] == \
            [("update", "Pole", oid) for oid in poles]
        assert all(f["reason"] == "subscription" for f in frames)


class TestUncommittedWorkIsSilent:
    def test_abort_and_veto_neither_refresh_nor_push(self, kernel, pole_oid):
        viewer = pole_viewer(kernel)
        db = kernel.database
        guard = ConstraintGuard(db, "phone_net")
        guard.add(RelationConstraint("Pole", "pole_location", "within",
                                     "District", "boundary"))
        try:
            with ServerThread(kernel) as (host, port), \
                    GISClient(host, port, timeout=15) as watcher:
                watcher.subscribe(["Pole"])
                window = viewer.screen.window("classset_Pole")
                before = viewer.dispatcher.interactions

                txn = db.transaction()
                txn.insert("phone_net", "Pole",
                           {"pole_location": Point(1, 1)})
                txn.abort()
                with pytest.raises(ConstraintViolationError):
                    with db.transaction() as vetoed:
                        vetoed.insert("phone_net", "Pole", {
                            "pole_location": Point(99_999, 99_999)})
                assert viewer.dispatcher.interactions == before
                assert viewer.screen.window("classset_Pole") is window
                # a real commit afterwards is the only thing pushed
                db.update(pole_oid, {"pole_historic": "committed"})
                frames = mutation_frames(watcher)
            assert [f["oid"] for f in frames] == [pole_oid]
            assert viewer.dispatcher.interactions == before + 1
        finally:
            guard.manager.detach()


class TestAFailingConsumerIsContained:
    def test_a_raising_watch_leaves_the_rest_of_the_commit_delivered(
            self, kernel, pole_oid, monkeypatch):
        """The first watch's maintenance raises: the watch after it,
        the window refresh and the wire push still see the commit."""
        viewer = pole_viewer(kernel)
        broken = viewer.watch("phone_net", "select count(*) from Pole")
        watch = viewer.watch("phone_net", "select * from Pole")
        real_apply = live_queries._LiveState.apply

        def apply(state, ws, engine):
            if state is broken._state:
                raise IndexError("watch bug")
            return real_apply(state, ws, engine)

        monkeypatch.setattr(live_queries._LiveState, "apply", apply)
        db = kernel.database
        before = viewer.dispatcher.interactions
        with ServerThread(kernel) as (host, port), \
                GISClient(host, port, timeout=15) as watcher:
            watcher.subscribe(["Pole"])
            db.update(pole_oid, {"pole_historic": "relined"})
            frames = mutation_frames(watcher)
        assert [f["oid"] for f in frames] == [pole_oid]
        assert viewer.dispatcher.interactions == before + 1
        assert [u.reason for u in watch.pop_updates()] == ["delta"]
        assert db.stats()["listener_failures"] == 1
        assert kernel.stats()["database"]["listener_failures"] == 1


class TestFollowerFeedsTheSameConsumers:
    def test_replicated_batches_maintain_watches_and_refresh(self):
        leader = GeographicDatabase("leader", pager=MemoryPager())
        leader.register_schema(build_mix_schema())
        leader.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none"))
        for i in range(3):
            leader.insert(MIX_SCHEMA, MIX_CLASS, {"name": f"a{i}", "size": i})
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        text = f"select count(*) from {MIX_CLASS}"
        with GISKernel(follower) as kernel:
            session = kernel.session(user="ana", auto_refresh=True)
            session.connect(MIX_SCHEMA)
            window = session.select_class(MIX_CLASS)
            watch = session.watch(MIX_SCHEMA, text)
            assert watch.result().rows == [{"count(*)": 3}]

            for i in range(2):
                leader.insert(MIX_SCHEMA, MIX_CLASS,
                              {"name": f"b{i}", "size": i})
            assert follower.poll_replication() == 2

            fresh = QueryEngine(follower).execute(MIX_SCHEMA,
                                                  parse_query(text))
            assert fresh.rows == [{"count(*)": 5}]
            assert watch.result().rows == fresh.rows
            assert watch.pop_updates()
            refreshed = session.screen.window(window.name)
            assert refreshed is not window
            assert len(refreshed.find("instances").items) == 5
