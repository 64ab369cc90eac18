"""Write-ahead log, atomic commit, and crash recovery.

The heart of this suite is the crash matrix: a seeded transaction mix is
run repeatedly, each time with the fault-injecting pager armed to crash
at a different write index, and after every crash the database is
rebuilt from the surviving "disks" and must land on exactly the
pre-transaction or the fully-committed state — never in between.

Set ``REPRO_CRASH_MATRIX_QUICK=1`` to thin the matrix (used by CI's
smoke step); the full matrix runs every write index for every seed.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import CrashError, ObjectNotFoundError, WALError
from repro.geodb import (
    RASTER,
    TEXT,
    Attribute,
    FaultInjectingPager,
    GeoClass,
    GeographicDatabase,
    MemoryPager,
    Schema,
    TxnState,
    WriteAheadLog,
)
from repro.geodb.raster import downsample
from repro.spatial.geometry import BBox
from repro.workloads import (
    build_mix_schema,
    run_transaction_mix,
    snapshot_state,
    synthetic_raster,
)
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA

QUICK = bool(os.environ.get("REPRO_CRASH_MATRIX_QUICK"))
SEEDS = (7,) if QUICK else (7, 23, 91)
STRIDE = 3 if QUICK else 1


# ---------------------------------------------------------------------------
# WAL unit behaviour
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_commit_forces_a_checksummed_batch(self):
        wal = WriteAheadLog(MemoryPager(), sync_mode="none")
        wal.log_begin(1)
        wal.log_intent(1, {"op": "insert", "oid": "X#1"})
        assert wal.pager.page_count == 0  # nothing reaches the log yet
        wal.log_commit(1)
        assert wal.pager.page_count >= 1
        kinds = [doc["t"] for doc in wal.records()]
        assert kinds == ["B", "I", "C"]
        [txn] = wal.replay()
        assert [doc["t"] for doc in txn] == ["B", "I", "C"]
        assert txn[1]["oid"] == "X#1"

    def test_abort_drops_the_buffered_batch(self):
        wal = WriteAheadLog(MemoryPager(), sync_mode="none")
        wal.log_begin(1)
        wal.log_intent(1, {"op": "insert", "oid": "X#1"})
        wal.log_abort(1)
        assert wal.pager.page_count == 0
        assert wal.replay() == []

    def test_batches_never_share_a_page(self):
        wal = WriteAheadLog(MemoryPager(), sync_mode="none")
        for txn_id in (1, 2):
            wal.log_begin(txn_id)
            wal.log_intent(txn_id, {"op": "insert", "oid": f"X#{txn_id}"})
            wal.log_commit(txn_id)
        assert wal.pager.page_count == 2  # one (padded) page per batch
        assert [t[1]["oid"] for t in wal.replay()] == ["X#1", "X#2"]

    def test_batch_spanning_multiple_pages(self):
        wal = WriteAheadLog(MemoryPager(), sync_mode="none")
        wal.log_begin(1)
        wal.log_intent(1, {"op": "insert", "oid": "X#1",
                           "blob": "v" * (3 * wal.pager.page_size)})
        wal.log_commit(1)
        assert wal.pager.page_count > 3
        [txn] = wal.replay()
        assert len(txn[1]["blob"]) == 3 * wal.pager.page_size

    def test_uncommitted_txn_is_not_replayed(self):
        wal = WriteAheadLog(MemoryPager(), sync_mode="none")
        wal.log_begin(1)
        wal.log_intent(1, {"op": "insert", "oid": "X#1"})
        wal.log_commit(1)
        wal.log_begin(2)
        wal.log_intent(2, {"op": "delete", "oid": "X#1"})
        # txn 2 never commits: its records stay pending, off the log
        assert [t[0]["txn"] for t in wal.replay()] == [1]

    def test_torn_flush_keeps_the_stable_prefix(self):
        inner = MemoryPager()
        fault = FaultInjectingPager(inner)
        wal = WriteAheadLog(fault, sync_mode="none")
        wal.log_begin(1)
        wal.log_intent(1, {"op": "insert", "oid": "X#1"})
        wal.log_commit(1)
        fault.arm(0, torn=True)  # tear the very next page write
        wal.log_begin(2)
        wal.log_intent(2, {"op": "insert", "oid": "X#2"})
        with pytest.raises(CrashError):
            wal.log_commit(2)
        assert wal.damaged
        survivor = WriteAheadLog(inner, sync_mode="none")
        assert [t[1]["oid"] for t in survivor.replay()] == ["X#1"]

    def test_damaged_log_refuses_further_commits(self):
        fault = FaultInjectingPager(MemoryPager())
        wal = WriteAheadLog(fault, sync_mode="none")
        fault.arm(0)
        wal.log_begin(1)
        with pytest.raises(CrashError):
            wal.log_commit(1)
        with pytest.raises(WALError):
            wal.log_begin(2)

    def test_checkpoint_truncates_and_clears_damage(self):
        inner = MemoryPager()
        fault = FaultInjectingPager(inner)
        wal = WriteAheadLog(fault, sync_mode="none")
        wal.log_begin(1)
        wal.log_commit(1)
        assert inner.page_count == 1
        wal.checkpoint()
        assert inner.page_count == 0
        assert wal.replay() == []

    def test_checkpoint_with_pending_txn_raises(self):
        wal = WriteAheadLog(MemoryPager(), sync_mode="none")
        wal.log_begin(1)
        with pytest.raises(WALError):
            wal.checkpoint()

    def test_unknown_sync_mode_rejected(self):
        with pytest.raises(WALError):
            WriteAheadLog(MemoryPager(), sync_mode="eventually")

    def test_stats_shape(self):
        wal = WriteAheadLog(MemoryPager(), sync_mode="fsync")
        wal.log_begin(1)
        wal.log_commit(1)
        stats = wal.stats()
        assert stats["appends"] == 2
        assert stats["flushes"] == 1
        assert stats["fsyncs"] == 1
        assert stats["pending_txns"] == 0
        assert stats["damaged"] is False
        # group-commit surface (the direct log_commit above groups
        # nothing, but the keys must always be present for dashboards)
        assert stats["group_commit"] is True
        assert stats["group_commits"] == 0
        assert stats["group_commit_batches"] == 0


class TestGroupCommitDamagedTail:
    """A torn/failed staged write must poison the whole log, not just
    the transaction that tripped it: staged-but-unbarriered batches may
    sit in front of the tear, so nothing may be trusted until recovery
    truncates the tail."""

    def test_damage_refuses_staged_commits_and_waits(self):
        fault = FaultInjectingPager(MemoryPager())
        wal = WriteAheadLog(fault, sync_mode="none", group_commit=True)
        wal.log_begin(1)
        ticket = wal.log_commit_staged(1)
        fault.arm(0)
        wal.log_begin(2)
        with pytest.raises(CrashError):
            wal.log_commit_staged(2)
        assert wal.damaged
        # the earlier staged batch may not claim durability either
        with pytest.raises(WALError):
            wal.wait_durable(ticket)
        with pytest.raises(WALError):
            wal.log_begin(3)
        # the WAL-rule helper must be a quiet no-op on a damaged log
        # (the buffer manager calls it mid-steal; raising there would
        # turn a log fault into a buffer-pool crash)
        wal.force()

    def test_recovery_truncates_damaged_tail_and_resumes(self):
        wal_inner = MemoryPager()
        wal_fault = FaultInjectingPager(wal_inner)
        db = _mix_db(wal_fault, capacity=64)
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1},
                  oid="Feature#gd_a")
        wal_fault.arm(0, torn=True)
        with pytest.raises(CrashError):
            db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "b", "size": 2},
                      oid="Feature#gd_b")
        assert db.wal.damaged
        recovered = _recover(MemoryPager(), wal_inner)
        assert recovered.find_object("Feature#gd_a") is not None
        assert recovered.find_object("Feature#gd_b") is None
        # recovery checkpointed the damaged tail away: commits flow again
        assert recovered.wal.pager.page_count == 0
        recovered.insert(MIX_SCHEMA, MIX_CLASS, {"name": "c", "size": 3},
                         oid="Feature#gd_c")
        assert recovered.find_object("Feature#gd_c") is not None


# ---------------------------------------------------------------------------
# Commit atomicity (rollback on apply/log failure)
# ---------------------------------------------------------------------------


def _mix_db(wal_fault_pager=None, heap_pager=None, capacity=8):
    db = GeographicDatabase("mix", pager=heap_pager or MemoryPager(),
                            buffer_capacity=capacity)
    db.register_schema(build_mix_schema())
    if wal_fault_pager is not None:
        db.attach_wal(WriteAheadLog(wal_fault_pager, sync_mode="none"))
    return db


class TestCommitAtomicity:
    def test_log_failure_rolls_back_every_structure(self):
        wal_fault = FaultInjectingPager(MemoryPager())
        db = _mix_db(wal_fault)
        base = db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "keep", "size": 1})
        db.checkpoint()
        before = snapshot_state(db)
        before_heap = db.verify_storage()
        wal_fault.arm(0)  # the next commit's log flush crashes
        txn = db.transaction()
        txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "new", "size": 2},
                   oid="Feature#doomed")
        txn.update(base, {"size": 99})
        with pytest.raises(CrashError):
            txn.commit()
        # ABORTED means no observable change, anywhere.
        assert txn.state is TxnState.ABORTED
        assert snapshot_state(db) == before
        assert db.find_object("Feature#doomed") is None
        assert db.verify_storage() == before_heap
        assert db.get_object(base).get("size") == 1

    def test_aborted_commit_leaves_no_phantom_intents(self):
        wal_fault = FaultInjectingPager(MemoryPager())
        db = _mix_db(wal_fault)
        oid = db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1})
        wal_fault.arm(0)
        txn = db.transaction()
        txn.update(oid, {"size": 42})
        with pytest.raises(CrashError):
            txn.commit()
        # Satellite: commit() must clear the intents like abort() does,
        # so the dead transaction never reports phantom staged state.
        assert txn.intents == []
        assert txn.staged_value(oid) == db.get_object(oid).values()

    def test_rollback_restores_spatial_and_attr_indexes(self):
        from repro.spatial.geometry import BBox, Point

        wal_fault = FaultInjectingPager(MemoryPager())
        db = _mix_db(wal_fault)
        index = db.create_attribute_index(MIX_SCHEMA, MIX_CLASS, "size")
        oid = db.insert(MIX_SCHEMA, MIX_CLASS,
                        {"name": "a", "size": 5, "location": Point(10, 10)})
        wal_fault.arm(0)
        with pytest.raises(CrashError):
            with db.transaction() as txn:
                txn.update(oid, {"size": 6, "location": Point(90, 90)})
        assert index.lookup(5) == {oid}
        assert index.lookup(6) == set()
        rtree = db.spatial_index(MIX_SCHEMA, MIX_CLASS, "location")
        assert list(rtree.search(BBox(9, 9, 11, 11))) == [oid]
        assert list(rtree.search(BBox(89, 89, 91, 91))) == []


class TestDeleteThenUpdateRegression:
    def test_update_after_staged_delete_fails_at_stage_time(self):
        db = _mix_db()
        oid = db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1})
        txn = db.transaction()
        txn.delete(oid)
        with pytest.raises(ObjectNotFoundError):
            txn.update(oid, {"size": 2})
        with pytest.raises(ObjectNotFoundError):
            txn.delete(oid)
        # The failed stage must not poison the transaction: the delete
        # alone still commits, atomically.
        txn.commit()
        assert db.find_object(oid) is None

    def test_insert_after_staged_delete_is_allowed(self):
        db = _mix_db()
        oid = db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1},
                        oid="Feature#reborn")
        with db.transaction() as txn:
            txn.delete(oid)
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "b", "size": 2},
                       oid=oid)
        assert db.get_object(oid).get("name") == "b"


# ---------------------------------------------------------------------------
# File-backed open / recover
# ---------------------------------------------------------------------------


class TestFileBackedRecovery:
    def test_clean_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "geo.db")
        db = GeographicDatabase.open(path, sync_mode="flush")
        db.register_schema(build_mix_schema())
        db.catalog.save_schema(db.get_schema_object(MIX_SCHEMA))
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1},
                  oid="Feature#f1")
        state = snapshot_state(db)
        db.close()
        db2 = GeographicDatabase.open(path, sync_mode="flush")
        assert snapshot_state(db2) == state
        assert db2.wal.pager.page_count == 0  # close checkpointed the log
        db2.close()

    def test_unclean_shutdown_replays_the_log(self, tmp_path):
        path = str(tmp_path / "geo.db")
        db = GeographicDatabase.open(path, sync_mode="flush")
        db.register_schema(build_mix_schema())
        db.catalog.save_schema(db.get_schema_object(MIX_SCHEMA))
        db.checkpoint()  # make the schema durable
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1},
                  oid="Feature#f1")
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "b", "size": 2},
                  oid="Feature#f2")
        db.update("Feature#f2", {"size": 3})
        db.delete("Feature#f1")
        state = snapshot_state(db)
        assert db.wal.pager.page_count > 0
        # Simulate a crash: drop the handle without close(); the dirty
        # buffer frames never reach the heap file, only the WAL did.
        del db
        db2 = GeographicDatabase.open(path, sync_mode="flush")
        assert snapshot_state(db2) == state
        assert db2.get_object("Feature#f2").get("size") == 3
        assert db2.wal.recovered_txns > 0
        db2.close()

    def test_recovered_oid_counter_does_not_collide(self, tmp_path):
        path = str(tmp_path / "geo.db")
        db = GeographicDatabase.open(path, sync_mode="flush")
        db.register_schema(build_mix_schema())
        db.catalog.save_schema(db.get_schema_object(MIX_SCHEMA))
        db.checkpoint()
        auto_oid = db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1})
        del db
        db2 = GeographicDatabase.open(path, sync_mode="flush")
        fresh = db2.insert(MIX_SCHEMA, MIX_CLASS, {"name": "b", "size": 2})
        assert fresh != auto_oid
        db2.close()


# ---------------------------------------------------------------------------
# The crash matrix
# ---------------------------------------------------------------------------


def _build_crashable(seed):
    """A mix database over fault-wrapped memory 'disks', base state durable."""
    heap_inner, wal_inner = MemoryPager(), MemoryPager()
    heap_fault = FaultInjectingPager(heap_inner)
    wal_fault = FaultInjectingPager(wal_inner)
    db = _mix_db(wal_fault, heap_pager=heap_fault)
    with db.transaction() as txn:
        for i in range(3):
            txn.insert(MIX_SCHEMA, MIX_CLASS,
                       {"name": f"base-{i}", "size": i},
                       oid=f"Feature#base{seed}_{i}")
    db.checkpoint()
    # Zero the write counters so a later arm(n) and the unarmed budget
    # measurement count from the same point (after base setup).
    heap_fault.arm(None)
    wal_fault.arm(None)
    return db, heap_inner, wal_inner, heap_fault, wal_fault


def _recover(heap_inner, wal_inner):
    """Simulate a restart: fresh database over the surviving 'disks'."""
    db = GeographicDatabase("mix", pager=heap_inner, buffer_capacity=8)
    db.register_schema(build_mix_schema())
    db.load_from_storage()
    db.attach_wal(WriteAheadLog(wal_inner, sync_mode="none"))
    db.recover()
    return db


def _run_mix(db, seed):
    return run_transaction_mix(db, txns=6, ops_per_txn=3, seed=seed,
                               oid_prefix=f"s{seed}_", checkpoint_every=2)


def _assert_recovers(outcome, heap_inner, wal_inner):
    recovered = _recover(heap_inner, wal_inner)
    state = snapshot_state(recovered)
    acceptable = outcome.acceptable_states()
    assert state in acceptable, (
        f"recovered state matches neither pre- nor post-transaction state "
        f"(crash at {outcome.crash_point}, {outcome.committed} committed)"
    )
    # Recovery must be stable: a second crash-free reopen changes nothing.
    again = _recover(heap_inner, wal_inner)
    assert snapshot_state(again) == state


def _write_budget(seed, pager_pick):
    """Total writes the un-faulted run issues on the picked pager."""
    db, __, __, heap_fault, wal_fault = _build_crashable(seed)
    outcome = _run_mix(db, seed)
    assert not outcome.crashed
    return pager_pick(heap_fault, wal_fault).writes, outcome


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_crash_matrix_wal_writes(seed, torn):
    """Crash on every WAL write index: atomic per-transaction recovery."""
    budget, clean = _write_budget(seed, lambda h, w: w)
    assert budget > 0
    crashes = 0
    for n in range(0, budget, STRIDE):
        db, heap_inner, wal_inner, __, wal_fault = _build_crashable(seed)
        wal_fault.arm(n, torn=torn)
        outcome = _run_mix(db, seed)
        assert outcome.crashed and outcome.crash_point == "commit"
        crashes += 1
        _assert_recovers(outcome, heap_inner, wal_inner)
    assert crashes > 0
    # Sanity: armed beyond the budget, the mix completes and the final
    # state survives recovery verbatim.
    db, heap_inner, wal_inner, __, wal_fault = _build_crashable(seed)
    wal_fault.arm(budget + 1, torn=torn)
    outcome = _run_mix(db, seed)
    assert not outcome.crashed
    assert outcome.post_state == clean.post_state
    _assert_recovers(outcome, heap_inner, wal_inner)


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_matrix_with_concurrent_snapshot_reader(seed):
    """Crash on every WAL write index while a snapshot reader is mid-scan.

    The reader opens its transaction before the mix starts; whatever
    write index the crash lands on, the reader's snapshot must keep
    answering with the exact pre-mix state — never a blend of pre- and
    post-crash values, and never a mix-created object. Recovery of the
    crashed 'disks' must still land on an acceptable state.
    """
    budget, __ = _write_budget(seed, lambda h, w: w)
    assert budget > 0
    base_oids = [f"Feature#base{seed}_{i}" for i in range(3)]
    crashes = 0
    for n in range(0, budget, STRIDE):
        db, heap_inner, wal_inner, __, wal_fault = _build_crashable(seed)
        reader = db.transaction()
        baseline = {oid: reader.read(oid) for oid in base_oids}
        assert all(values is not None for values in baseline.values())
        wal_fault.arm(n)
        outcome = _run_mix(db, seed)
        assert outcome.crashed and outcome.crash_point == "commit"
        crashes += 1
        # The reader's snapshot is pinned to the pre-mix state: the same
        # values as before the crash, and none of the mix's objects.
        for oid in base_oids:
            assert reader.read(oid) == baseline[oid]
        view = reader.query(MIX_SCHEMA, MIX_CLASS)
        assert set(view) == set(base_oids)
        assert {oid: values for oid, values in view.items()} == baseline
        reader.abort()
        _assert_recovers(outcome, heap_inner, wal_inner)
    assert crashes > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_matrix_heap_writes(seed):
    """Crash on every heap write index (checkpoint flushes): no data loss."""
    budget, __ = _write_budget(seed, lambda h, w: h)
    assert budget > 0  # checkpoint_every guarantees heap flushes
    crashes = 0
    for n in range(0, budget, STRIDE):
        db, heap_inner, wal_inner, heap_fault, __ = _build_crashable(seed)
        heap_fault.arm(n)
        outcome = _run_mix(db, seed)
        if not outcome.crashed:
            continue  # arming landed past the last flush of this run
        assert outcome.crash_point == "checkpoint"
        # A checkpoint crash loses nothing: every committed transaction
        # must be recovered exactly.
        assert outcome.pre_state == outcome.post_state
        crashes += 1
        _assert_recovers(outcome, heap_inner, wal_inner)
    assert crashes > 0


def _run_group_committers(committers, arm_at=None, torn=False):
    """``committers`` threads each commit one two-object transaction
    through a group-commit WAL; returns the surviving log 'disk', the
    fault pager and each thread's outcome."""
    wal_inner = MemoryPager()
    wal_fault = FaultInjectingPager(wal_inner)
    db = _mix_db(wal_fault, capacity=64)
    if arm_at is not None:
        wal_fault.arm(arm_at, torn=torn)
    start = threading.Barrier(committers)
    outcomes: list[str | None] = [None] * committers

    def work(i):
        try:
            start.wait(timeout=30)
            txn = db.transaction()
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": f"g{i}a", "size": i},
                       oid=f"Feature#g{i}a")
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": f"g{i}b", "size": i},
                       oid=f"Feature#g{i}b")
            txn.commit()
            outcomes[i] = "committed"
        except (CrashError, WALError):
            outcomes[i] = "crashed"

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(committers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "hung committer"
    return wal_inner, wal_fault, outcomes


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_crash_matrix_concurrent_group_committers(torn):
    """Crash on every WAL write index under *threaded* group committers.

    Whatever batch the crash lands in, recovery must show every
    transaction either fully present (both its objects) or fully absent
    — a half-replayed batch would mean a commit record survived ahead
    of its intents or a torn page slipped past the checksums. Threads
    that reported success before the crash must always be present:
    with the staged-batch protocol their pages reached the 'disk'
    before commit() returned.
    """
    committers = 6
    wal_inner, wal_fault, outcomes = _run_group_committers(committers)
    assert outcomes == ["committed"] * committers
    budget = wal_fault.writes
    assert budget >= committers  # each batch stages at least one page

    crashes = 0
    for n in range(0, budget, STRIDE):
        wal_inner, __, outcomes = _run_group_committers(
            committers, arm_at=n, torn=torn
        )
        assert "crashed" in outcomes, f"arming write {n} must crash someone"
        crashes += 1
        heap_disk = MemoryPager()
        recovered = _recover(heap_disk, wal_inner)
        for i in range(committers):
            has_a = recovered.find_object(f"Feature#g{i}a") is not None
            has_b = recovered.find_object(f"Feature#g{i}b") is not None
            assert has_a == has_b, (
                f"crash at write {n}: committer {i} recovered "
                f"half-applied (a={has_a}, b={has_b})"
            )
            if outcomes[i] == "committed":
                assert has_a, (
                    f"crash at write {n}: committer {i} reported success "
                    f"but its transaction is gone after recovery"
                )
        # stability: a second reopen of the same disks changes nothing
        # (the first recovery checkpointed the replayed state into
        # heap_disk and truncated the log; the reopen reads it back)
        again = _recover(heap_disk, wal_inner)
        assert snapshot_state(again) == snapshot_state(recovered)
    assert crashes > 0


# ---------------------------------------------------------------------------
# The tile crash matrix (multi-page raster commits)
# ---------------------------------------------------------------------------

RASTER_SIDE = 96  # with the 64-px default tile: 2x2 tiles @ L0 + 1 @ L1


def _raster_schema() -> Schema:
    schema = Schema("img")
    schema.add_class(GeoClass("Scan", attributes=[
        Attribute("name", TEXT, required=True),
        Attribute("scan", RASTER),
    ]))
    return schema


def _scan_raster(seed):
    return synthetic_raster(RASTER_SIDE, RASTER_SIDE, seed=seed,
                            extent=BBox(0.0, 0.0, float(RASTER_SIDE),
                                        float(RASTER_SIDE)))


def _build_raster_crashable():
    """A raster database over fault-wrapped 'disks', base scan durable."""
    heap_inner, wal_inner = MemoryPager(), MemoryPager()
    heap_fault = FaultInjectingPager(heap_inner)
    wal_fault = FaultInjectingPager(wal_inner)
    db = GeographicDatabase("img", pager=heap_fault, buffer_capacity=64)
    db.register_schema(_raster_schema())
    db.attach_wal(WriteAheadLog(wal_fault, sync_mode="none"))
    with db.transaction() as txn:
        txn.insert("img", "Scan", {"name": "before", "scan": _scan_raster(5)},
                   oid="Scan#log")
    db.checkpoint()
    heap_fault.arm(None)
    wal_fault.arm(None)
    return db, heap_inner, wal_inner, heap_fault, wal_fault


def _overwrite_scan(db):
    """The crashable transaction: replace the scan (a multi-page, multi-
    tile batch — every tile rides the WAL commit) plus a scalar update
    whose visibility must stay atomic with the pixels."""
    with db.transaction() as txn:
        txn.update("Scan#log", {"name": "after", "scan": _scan_raster(9)})


def _recover_raster(heap_inner, wal_inner):
    db = GeographicDatabase("img", pager=heap_inner, buffer_capacity=64)
    db.register_schema(_raster_schema())
    db.load_from_storage()
    db.attach_wal(WriteAheadLog(wal_inner, sync_mode="none"))
    db.recover()
    return db


def _assert_raster_state(db, raster):
    """Every pyramid level reads back byte-identical to ``raster``."""
    ref = db.get_object("Scan#log").get("scan")
    assert (ref.width, ref.height) == (raster.width, raster.height)
    for level in range(ref.levels):
        expected, lw, lh = downsample(raster.pixels, raster.width,
                                      raster.height, level)
        assert ref.level_dims(level) == (lw, lh)
        assert db.raster_store.read_level(ref, level) == expected, (
            f"level {level} pixels diverge after recovery"
        )


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_tile_commit_crash_matrix_wal_writes(torn):
    """Crash on every WAL write index of a multi-page tile commit.

    The overwrite transaction carries five tiles (2x2 level-0 grid plus
    the level-1 overview), each tile blob spanning heap pages and the
    whole batch spanning several WAL pages. Wherever the crash lands —
    clean stop or torn page — recovery must land on exactly the
    pre-commit raster or the fully-committed one, byte-identical at
    every pyramid level, and never on a half-written blend. The scalar
    ``name`` update committed alongside the pixels pins which of the
    two states recovery chose.
    """
    db, __, __, __, wal_fault = _build_raster_crashable()
    _overwrite_scan(db)
    budget = wal_fault.writes
    # the batch really is multi-page: base64 tile payloads alone exceed
    # several WAL pages, so the matrix has genuine torn-prefix points
    assert budget >= 4
    before, after = _scan_raster(5), _scan_raster(9)

    crashes = 0
    for n in range(0, budget, STRIDE):
        db, heap_inner, wal_inner, __, wal_fault = _build_raster_crashable()
        wal_fault.arm(n, torn=torn)
        with pytest.raises(CrashError):
            _overwrite_scan(db)
        crashes += 1
        recovered = _recover_raster(heap_inner, wal_inner)
        name = recovered.get_object("Scan#log").get("name")
        assert name in ("before", "after")
        _assert_raster_state(recovered, after if name == "after" else before)
        # stability: a second reopen of the same disks changes nothing
        again = _recover_raster(heap_inner, wal_inner)
        assert again.get_object("Scan#log").get("name") == name
        _assert_raster_state(again, after if name == "after" else before)
    assert crashes > 0

    # Sanity: armed past the budget the overwrite completes, and the
    # committed pixels survive recovery verbatim.
    db, heap_inner, wal_inner, __, wal_fault = _build_raster_crashable()
    wal_fault.arm(budget + 1, torn=torn)
    _overwrite_scan(db)
    recovered = _recover_raster(heap_inner, wal_inner)
    assert recovered.get_object("Scan#log").get("name") == "after"
    _assert_raster_state(recovered, after)


def test_tile_commit_crash_matrix_heap_writes():
    """Crash on every heap write index of the post-commit checkpoint:
    the WAL replays the tile batch, losing nothing."""
    db, __, __, heap_fault, __ = _build_raster_crashable()
    _overwrite_scan(db)
    db.checkpoint()
    budget = heap_fault.writes
    assert budget > 0
    after = _scan_raster(9)

    crashes = 0
    for n in range(0, budget, STRIDE):
        db, heap_inner, wal_inner, heap_fault, __ = _build_raster_crashable()
        _overwrite_scan(db)
        heap_fault.arm(n)
        try:
            db.checkpoint()
        except CrashError:
            crashes += 1
        recovered = _recover_raster(heap_inner, wal_inner)
        assert recovered.get_object("Scan#log").get("name") == "after"
        _assert_raster_state(recovered, after)
    assert crashes > 0


# ---------------------------------------------------------------------------
# Observability surface
# ---------------------------------------------------------------------------


class TestWalObservability:
    def test_commit_emits_wal_counters_and_span(self, obs_recorder):
        wal_fault = FaultInjectingPager(MemoryPager())
        db = _mix_db(wal_fault)
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1})
        registry = obs_recorder.registry
        assert registry.counter("wal.appends", type="B").value == 1
        assert registry.counter("wal.appends", type="I").value == 1
        assert registry.counter("wal.appends", type="C").value == 1
        span = obs_recorder.tracer.last_trace("txn.commit")
        assert span is not None
        assert span.attrs["intents"] == 1

    def test_recovery_counter(self):
        heap_inner, wal_inner = MemoryPager(), MemoryPager()
        db = GeographicDatabase("mix", pager=heap_inner)
        db.register_schema(build_mix_schema())
        db.attach_wal(WriteAheadLog(wal_inner, sync_mode="none"))
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": "a", "size": 1},
                  oid="Feature#r1")
        # Drop without checkpoint; the heap pages are still in the buffer.
        recovered = _recover(MemoryPager(), wal_inner)
        assert recovered.find_object("Feature#r1") is not None
        assert recovered.wal.stats()["recovered_txns"] == 1
