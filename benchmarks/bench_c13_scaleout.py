"""Experiment C13 — scale-out reads: replica routing.

The same read workload is spread round-robin over 0 / 1 / 2 attached
followers via ``read_preference="replica"`` (docs/REPLICATION.md).
Under the GIL this buys isolation (a replica serves reads while the
leader commits) rather than CPU parallelism, so we report throughput
and verify the invariant that matters: while a writer commits
concurrently, every follower read observes exactly the leader state at
the follower's replication LSN — each commit inserts one row, so a
snapshot at LSN L must count ``base + L`` rows, for every L the poller
lands on.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke step) shrinks the
extent and the read and commit counts; the snapshot-consistency
assertion runs in both modes.
"""

import os
import threading
import time

from repro.core.kernel import GISKernel
from repro.geodb import (
    GeographicDatabase,
    LocalReplicationSource,
    MemoryPager,
    WriteAheadLog,
)
from repro.spatial import Point
from repro.workloads import build_mix_schema
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA

from _support import print_header, print_table

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
EXTENT = 600 if QUICK else 3000
WORLD = 1000.0
REPLICA_READS = 40 if QUICK else 200
WRITER_COMMITS = 15 if QUICK else 60


def make_db(name="c13", wal=False) -> GeographicDatabase:
    db = GeographicDatabase(name, pager=MemoryPager())
    db.register_schema(build_mix_schema())
    if wal:
        db.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none"))
    with db.transaction() as txn:
        for i in range(EXTENT):
            located = i % 50 != 0   # a few rows have no geometry
            txn.insert(MIX_SCHEMA, MIX_CLASS, {
                "name": f"f{i:05d}",
                "size": (i * 7) % 97,
                "location": Point((i * 13) % WORLD, (i * 29) % WORLD)
                            if located else None,
            })
    return db


# ---------------------------------------------------------------------------
# Replica fan-out and snapshot consistency under writes
# ---------------------------------------------------------------------------


def run_replicas(count: int) -> dict:
    """REPLICA_READS queries routed by preference over `count` replicas,
    while a writer commits on the leader; every follower read must see
    exactly the leader state at the follower's own replication LSN."""
    leader = make_db(wal=True)
    base = leader.count(MIX_SCHEMA, MIX_CLASS)
    kernel = GISKernel(leader)
    followers = []
    for i in range(count):
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name=f"r{i}")
        followers.append(follower)
        kernel.attach_replica(follower)

    stop = threading.Event()
    consistency_errors: list[str] = []

    def writer():
        for i in range(WRITER_COMMITS):
            leader.insert(MIX_SCHEMA, MIX_CLASS,
                          {"name": f"live{i:03d}", "size": i})
            time.sleep(0.001)
        stop.set()

    lsn0 = followers[0].replication_lsn if followers else 0

    def poller():
        # a read txn's snapshot_ts IS the follower's commit LSN; every
        # leader commit adds one row, so a snapshot at LSN L must hold
        # exactly base + (L - bootstrap) rows — whatever the kernel's
        # replica reads and the shipping poller do concurrently
        while not stop.is_set():
            for follower in followers:
                follower.poll_replication()
                txn = follower.transaction()
                seen = sum(1 for _ in txn.query(MIX_SCHEMA, MIX_CLASS))
                expected = base + (txn.snapshot_ts - lsn0)
                txn.abort()
                if seen != expected:
                    consistency_errors.append(
                        f"follower {follower.name} snapshot at lsn "
                        f"{txn.snapshot_ts} sees {seen} rows, expected "
                        f"{expected}")
            time.sleep(0.001)

    threads = [threading.Thread(target=writer)]
    if followers:
        threads.append(threading.Thread(target=poller))
    preference = "replica" if followers else "leader"
    for t in threads:
        t.start()
    executed = 0
    start = time.perf_counter()
    for i in range(REPLICA_READS):
        kernel.query(MIX_SCHEMA,
                     "select count(*), max(size) from Feature",
                     use_cache=False, read_preference=preference)
        executed += 1
    elapsed = time.perf_counter() - start
    for t in threads:
        t.join(timeout=600)
    for follower in followers:
        follower.poll_replication()
    lags = [follower.replication_lag() for follower in followers]
    kernel.shutdown()
    assert not consistency_errors, consistency_errors[:3]
    return {
        "replicas": count,
        "qps": executed / elapsed,
        "final_lag": max(lags) if lags else 0,
        "checks": "ok",
    }


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


def test_c13_scaleout(capsys):
    replicas = [run_replicas(n) for n in (0, 1, 2)]

    with capsys.disabled():
        print_header("C13", "scale-out reads: replica routing")
        print(f"\nreplica routing over {EXTENT} objects under a concurrent "
              f"writer ({WRITER_COMMITS} commits):")
        print_table(
            ["replicas", "reads/s", "final lag", "snapshot checks"],
            [[r["replicas"], f"{r['qps']:.0f}", r["final_lag"],
              r["checks"]] for r in replicas],
        )


if __name__ == "__main__":
    class _Capsys:
        class _Ctx:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def disabled(self):
            return self._Ctx()

    test_c13_scaleout(_Capsys())
