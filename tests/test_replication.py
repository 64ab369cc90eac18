"""WAL shipping and follower replication.

Covers the replication stack below the wire: the
:class:`~repro.geodb.wal.LogShipper` (durable-only release, bounded
retention, snapshot handoff), envelope integrity
(:func:`~repro.geodb.wal.verify_envelope`), and follower databases
(:meth:`GeographicDatabase.follow`) — bootstrap equality, idempotent
replay, gap detection, read-only enforcement, MVCC snapshot isolation
across replayed batches, and fault tolerance: a follower crashing
mid-replay and re-following, a leader checkpoint racing a slow follower
into a snapshot handoff, and refusal of damaged shipped frames.
"""

from __future__ import annotations

import copy

import pytest

from repro.errors import ReplicationError, TransactionError
from repro.geodb import (
    GeographicDatabase,
    LocalReplicationSource,
    LogShipper,
    MemoryPager,
    WriteAheadLog,
)
from repro.geodb.schema import Attribute, GeoClass, Schema
from repro.geodb.types import INTEGER, TEXT
from repro.geodb.wal import batch_checksum, make_envelope, verify_envelope
from repro.spatial import Point
from repro.workloads import build_mix_schema
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA, snapshot_state


def make_leader(name="leader", group_commit=False) -> GeographicDatabase:
    db = GeographicDatabase(name, pager=MemoryPager())
    db.register_schema(build_mix_schema())
    db.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none",
                                group_commit=group_commit))
    return db


def insert_n(db, n, prefix="obj") -> list[str]:
    return [
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": f"{prefix}{i}", "size": i})
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# LogShipper unit behaviour
# ---------------------------------------------------------------------------


class TestLogShipper:
    def test_inline_commits_ship_immediately(self):
        leader = make_leader()
        shipper = leader.enable_shipping()
        insert_n(leader, 3)
        result = shipper.poll(0)
        assert len(result["batches"]) == 3
        assert [b["lsn"] for b in result["batches"]] == [1, 2, 3]
        assert result["lsn"] == 3
        assert not result["snapshot_required"]

    def test_poll_is_cursor_incremental(self):
        leader = make_leader()
        shipper = leader.enable_shipping()
        insert_n(leader, 5)
        first = shipper.poll(0, max_batches=2)
        assert [b["lsn"] for b in first["batches"]] == [1, 2]
        rest = shipper.poll(2)
        assert [b["lsn"] for b in rest["batches"]] == [3, 4, 5]
        assert shipper.poll(5)["batches"] == []

    def test_staged_batch_held_until_durable(self):
        leader = make_leader(group_commit=True)
        shipper = leader.enable_shipping()
        txn = leader.transaction()
        txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "staged", "size": 1})
        txn.commit(wait_durable=False)
        # committed in memory, but the barrier has not run: nothing ships
        assert shipper.poll(0)["batches"] == []
        assert shipper.stats()["staged"] == 1
        txn.wait_durable()
        [batch] = shipper.poll(0)["batches"]
        assert batch["lsn"] == 1

    def test_retention_eviction_raises_base_lsn(self):
        leader = make_leader()
        shipper = leader.enable_shipping(retain=4)
        insert_n(leader, 10)
        assert shipper.base_lsn == 6
        assert shipper.head_lsn == 10
        behind = shipper.poll(3)
        assert behind["snapshot_required"]
        assert behind["batches"] == []
        fresh = shipper.poll(6)
        assert [b["lsn"] for b in fresh["batches"]] == [7, 8, 9, 10]

    def test_enable_shipping_is_idempotent(self):
        leader = make_leader()
        assert leader.enable_shipping() is leader.enable_shipping()

    def test_shipper_requires_wal(self):
        db = GeographicDatabase("bare", pager=MemoryPager())
        db.register_schema(build_mix_schema())
        with pytest.raises(ReplicationError):
            db.enable_shipping()

    def test_retain_must_be_positive(self):
        with pytest.raises(ReplicationError):
            LogShipper(retain=0)


# ---------------------------------------------------------------------------
# Envelope integrity
# ---------------------------------------------------------------------------


class TestEnvelopes:
    def _valid(self):
        records = [
            {"t": "B", "txn": 1},
            {"t": "I", "txn": 1, "op": "insert", "oid": "Feature#1",
             "schema": MIX_SCHEMA, "class": MIX_CLASS,
             "values": {"name": "a"}},
            {"t": "C", "txn": 1, "ts": 7},
        ]
        return make_envelope(7, records)

    def test_roundtrip(self):
        envelope = self._valid()
        records = verify_envelope(envelope)
        assert records[2]["ts"] == 7

    def test_tampered_record_is_refused(self):
        envelope = self._valid()
        envelope["records"][1]["values"]["name"] = "evil"
        with pytest.raises(ReplicationError, match="checksum"):
            verify_envelope(envelope)

    def test_wrong_crc_is_refused(self):
        envelope = self._valid()
        envelope["crc"] ^= 1
        with pytest.raises(ReplicationError):
            verify_envelope(envelope)

    def test_lsn_commit_ts_mismatch_is_refused(self):
        envelope = self._valid()
        envelope["lsn"] = 8
        envelope["crc"] = batch_checksum(envelope["records"])
        with pytest.raises(ReplicationError):
            verify_envelope(envelope)

    def test_non_envelope_shapes_are_refused(self):
        for bad in (None, [], {}, {"lsn": 1}, {"lsn": 1, "records": 3}):
            with pytest.raises(ReplicationError):
                verify_envelope(bad)


# ---------------------------------------------------------------------------
# Follower lifecycle
# ---------------------------------------------------------------------------


class TestFollower:
    def test_bootstrap_matches_leader(self):
        leader = make_leader()
        insert_n(leader, 8)
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        assert snapshot_state(follower) == snapshot_state(leader)
        assert follower.replication_lsn == leader.replication_lsn

    def test_incremental_replay_matches_leader(self):
        leader = make_leader()
        oids = insert_n(leader, 4)
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        leader.update(oids[0], {"size": 99})
        leader.delete(oids[1])
        insert_n(leader, 2, prefix="late")
        assert follower.poll_replication() == 4
        assert snapshot_state(follower) == snapshot_state(leader)
        assert follower.replication_lag() == 0

    def test_duplicate_envelope_is_skipped_idempotently(self):
        leader = make_leader()
        shipper = leader.enable_shipping()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        [oid] = insert_n(leader, 1)
        [envelope] = shipper.poll(0)["batches"]
        assert follower.apply_replicated(envelope) is True
        chain_len = len(follower._mvcc._chains[oid])
        # re-delivery (crash between apply and cursor save) must no-op
        assert follower.apply_replicated(envelope) is False
        assert len(follower._mvcc._chains[oid]) == chain_len
        assert follower.replication_lsn == leader.replication_lsn

    def test_lsn_gap_is_refused(self):
        leader = make_leader()
        shipper = leader.enable_shipping()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        insert_n(leader, 3)
        batches = shipper.poll(0)["batches"]
        assert follower.apply_replicated(batches[0])
        with pytest.raises(ReplicationError, match="gap"):
            follower.apply_replicated(batches[2])

    def test_follower_refuses_writes(self):
        leader = make_leader()
        insert_n(leader, 1)
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        with pytest.raises(TransactionError, match="read-only"):
            follower.insert(MIX_SCHEMA, MIX_CLASS, {"name": "no"})
        txn = follower.transaction()
        with pytest.raises(TransactionError, match="read-only"):
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "no"})
        txn.abort()
        with pytest.raises(ReplicationError):
            follower.recover()
        with pytest.raises(ReplicationError):
            follower.enable_shipping()

    def test_read_only_transactions_are_snapshot_consistent(self):
        leader = make_leader()
        [oid] = insert_n(leader, 1)
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        txn = follower.transaction()
        assert txn.read(oid)["size"] == 0
        leader.update(oid, {"size": 42})
        follower.poll_replication()
        # the open snapshot predates the replayed batch
        assert txn.read(oid)["size"] == 0
        txn.commit()  # read-only commit is legal on a follower
        txn2 = follower.transaction()
        assert txn2.read(oid)["size"] == 42
        txn2.commit()

    def test_replication_status_shapes(self):
        leader = make_leader()
        insert_n(leader, 2)
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        leader_status = leader.replication_status()
        assert leader_status["role"] == "leader"
        assert leader_status["shipper"]["head_lsn"] == 2
        follower_status = follower.replication_status()
        assert follower_status["role"] == "follower"
        assert follower_status["lag"] == 0
        assert leader.replication_lag() is None


# ---------------------------------------------------------------------------
# Fault tolerance
# ---------------------------------------------------------------------------


class TestFollowerFaults:
    def test_refollow_after_crash_mid_replay(self):
        """A follower that dies mid-replay and re-follows from its last
        applied LSN sees overlapping envelopes exactly once."""
        leader = make_leader()
        shipper = leader.enable_shipping()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        oids = insert_n(leader, 6)
        batches = shipper.poll(0)["batches"]
        # crash after applying half the stream
        for envelope in batches[:3]:
            assert follower.apply_replicated(envelope)
        applied_lsn = follower.replication_lsn
        chains = {oid: len(follower._mvcc._chains[oid])
                  for oid in oids[:3]}
        # the restarted poller re-reads from its cursor; the source may
        # re-deliver everything from 0 (cursor persistence lost)
        for envelope in shipper.poll(0)["batches"]:
            follower.apply_replicated(envelope)
        assert follower.replication_lsn == leader.replication_lsn
        assert snapshot_state(follower) == snapshot_state(leader)
        # no duplicate MVCC versions for the half applied before the crash
        for oid, length in chains.items():
            assert len(follower._mvcc._chains[oid]) == length
        assert follower.replication_lsn > applied_lsn

    def test_checkpoint_races_slow_follower_into_handoff(self):
        """A leader checkpoint truncates the WAL; with bounded shipper
        retention a slow follower must take the snapshot handoff."""
        leader = make_leader()
        source = LocalReplicationSource(leader, retain=4)
        follower = GeographicDatabase.follow(source, name="f")
        oids = insert_n(leader, 12)
        leader.update(oids[0], {"size": 1000})
        leader.checkpoint()  # WAL truncated; shipper retention bounded
        # the poll notices the cursor fell below base_lsn and resyncs;
        # the fresh snapshot already covers every retained batch
        follower.poll_replication()
        assert follower._resyncs == 1
        assert snapshot_state(follower) == snapshot_state(leader)
        assert follower.replication_lsn == leader.replication_lsn
        assert source.shipper.snapshot_handoffs == 1
        # the handoff leaves the follower fully usable for further replay
        leader.insert(MIX_SCHEMA, MIX_CLASS, {"name": "after", "size": 1})
        assert follower.poll_replication() == 1
        assert snapshot_state(follower) == snapshot_state(leader)

    def test_damaged_shipped_frame_is_refused(self):
        leader = make_leader()
        shipper = leader.enable_shipping()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        [oid] = insert_n(leader, 1)
        follower.poll_replication()
        before = snapshot_state(follower)
        leader.update(oid, {"size": 13})
        [intact] = shipper.poll(follower.replication_lsn)["batches"]
        # corrupt a *copy*, as a bit-flip on the wire would — the
        # leader's retained frame stays intact
        envelope = copy.deepcopy(intact)
        envelope["records"][1]["values"]["size"] = 666
        with pytest.raises(ReplicationError, match="checksum"):
            follower.apply_replicated(envelope)
        # nothing applied, cursor unchanged: the intact original still lands
        assert snapshot_state(follower) == before
        assert follower.poll_replication() == 1
        assert follower.find_object(oid).get("size") == 13

    def test_lag_reporting_and_metrics(self, obs_recorder):
        leader = make_leader()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        insert_n(leader, 3)
        assert follower.replication_lag() == 3
        follower.poll_replication()
        assert follower.replication_lag() == 0
        registry = obs_recorder.registry
        assert registry.counter_total("repl.ship_batches") == 3
        assert registry.gauge_value("repl.lag_records", follower="f") == 0


# ---------------------------------------------------------------------------
# Group commit integration
# ---------------------------------------------------------------------------


class TestGroupCommitShipping:
    def test_grouped_commits_ship_in_lsn_order(self):
        leader = make_leader(group_commit=True)
        shipper = leader.enable_shipping()
        txns = []
        for i in range(4):
            txn = leader.transaction()
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": f"g{i}", "size": i})
            txn.commit(wait_durable=False)
            txns.append(txn)
        assert shipper.poll(0)["batches"] == []
        for txn in txns:
            txn.wait_durable()
        lsns = [b["lsn"] for b in shipper.poll(0)["batches"]]
        assert lsns == sorted(lsns) == [1, 2, 3, 4]

    def test_follower_catches_up_after_group_barrier(self):
        leader = make_leader(group_commit=True)
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        txn = leader.transaction()
        txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "grouped", "size": 5})
        txn.commit(wait_durable=False)
        assert follower.poll_replication() == 0  # not durable yet
        txn.wait_durable()
        assert follower.poll_replication() == 1
        assert snapshot_state(follower) == snapshot_state(leader)


# ---------------------------------------------------------------------------
# Derived state: leader == follower == recovered copy
# ---------------------------------------------------------------------------

MARKER = "Marker"


def two_class_schema() -> Schema:
    schema = build_mix_schema()
    schema.add_class(GeoClass(MARKER, attributes=[
        Attribute("label", TEXT, required=True),
        Attribute("weight", INTEGER),
    ]))
    return schema


class _Delivered:
    """What one database delivers after each applied batch: write-sets
    and commit-phase bus events, in a comparable form."""

    def __init__(self, db):
        self.write_sets: list[tuple] = []
        self.events: list[tuple] = []
        db.add_write_set_listener(self._on_write_set)
        db.bus.subscribe(self._on_event)

    def _on_write_set(self, write_set):
        self.write_sets.append((
            write_set.commit_ts,
            [(op.op, op.schema_name, op.class_name, op.oid,
              None if op.changed is None else sorted(op.changed))
             for op in write_set.ops],
            dict(write_set.prev_versions),
        ))

    def _on_event(self, event):
        payload = event.payload
        if payload.get("phase") == "commit":
            self.events.append((
                event.kind, event.subject, payload["schema"],
                payload["class"], payload["values"], payload["ts"],
                payload["txn"],
            ))


def run_two_class_mix(db) -> None:
    """Inserts, updates (including an unset) and deletes over two
    classes, single-statement and multi-intent transactions."""
    features = [
        db.insert(MIX_SCHEMA, MIX_CLASS, {
            "name": f"f{i}", "size": i, "location": Point(i, 2 * i)})
        for i in range(4)
    ]
    markers = [db.insert(MIX_SCHEMA, MARKER, {"label": f"m{i}", "weight": i})
               for i in range(3)]
    with db.transaction() as txn:
        txn.update(features[0], {"size": 40, "location": Point(9, 9)})
        txn.update(markers[0], {"weight": None})
        txn.delete(markers[1])
        txn.insert(MIX_SCHEMA, MARKER, {"label": "late", "weight": 7})
    db.update(features[1], {"name": "renamed"})
    db.delete(features[2])
    with db.transaction() as txn:
        twice = txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "twice", "size": 1})
        txn.update(twice, {"size": 2})
        gone = txn.insert(MIX_SCHEMA, MARKER, {"label": "gone"})
        txn.delete(gone)
    db.update(markers[2], {"label": "last", "weight": 30})


class TestDerivedStateOracle:
    CLASSES = [(MIX_SCHEMA, MIX_CLASS), (MIX_SCHEMA, MARKER)]

    def test_follower_and_recovered_copy_match_leader(self):
        leader = GeographicDatabase("leader", pager=MemoryPager())
        leader.register_schema(two_class_schema())
        leader.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none"))
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        on_leader, on_follower = _Delivered(leader), _Delivered(follower)
        run_two_class_mix(leader)
        follower.poll_replication()
        head = leader.replication_lsn
        assert follower.replication_lsn == head == 12

        versions = {key: leader.class_version(*key) for key in self.CLASSES}
        assert versions == {(MIX_SCHEMA, MIX_CLASS): 11,
                            (MIX_SCHEMA, MARKER): 12}
        assert {key: follower.class_version(*key)
                for key in self.CLASSES} == versions

        oids = set(leader._mvcc._chains)
        assert oids == set(follower._mvcc._chains)
        for ts in range(head + 1):
            for oid in sorted(oids):
                assert follower._snapshot_values(oid, ts) \
                    == leader._snapshot_values(oid, ts), (oid, ts)

        assert len(on_leader.write_sets) == head
        assert on_follower.write_sets == on_leader.write_sets
        assert len(on_leader.events) == 18
        assert on_follower.events == on_leader.events

        # The leader never checkpointed: its WAL holds every batch.
        copy = GeographicDatabase("copy")
        copy.register_schema(two_class_schema())
        copy.attach_wal(leader.wal)
        assert copy.recover() == head
        assert {key: copy.class_version(*key)
                for key in self.CLASSES} == versions
