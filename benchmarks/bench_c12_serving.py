"""Experiment C12 — the serving layer: remote clients and group commit.

Two questions about the network daemon (docs/SERVING.md):

* **Request throughput** — one kernel, one event loop, many blocking
  clients. Each of N client threads runs a fixed mixed workload (ping,
  cached query, session browse, stats) over its own connection; we
  report aggregate requests/second and the p50 and p99 per-request
  latency at N = 16 / 64 / 256 connections. The interesting shape is
  that throughput should *hold* as N grows, while p99 grows roughly
  linearly with N. Two of the four kinds (ping, and the cached query
  once it is fresh) are loop-safe and answered on the event loop;
  ``select_class`` and ``stats`` go through the executor.

* **Group commit** — 64 threads committing concurrently through one
  file-backed WAL in ``fsync`` mode. With ``group_commit=False`` every
  commit pays its own device sync under the log lock; with grouping, a
  leader's single barrier covers every batch staged while the previous
  barrier was in flight. The acceptance gate is the whole point of the
  subsystem: grouped commit throughput must be at least **1.8x** the
  per-commit-fsync baseline at 64 committers.

Full mode repeats the whole measurement five times, judges the
group-commit gate on the median speedup, and writes every metric's
median, IQR and runs to ``BENCH_C12.json`` at the repo root. Quick mode
(``REPRO_BENCH_QUICK=1``, the CI smoke step) runs once, shrinks client
counts and op counts, skips the ratio assertions and writes no record.
"""

import os
import shutil
import statistics
import tempfile
import threading
import time
from typing import Any

from repro.core.kernel import GISKernel
from repro.geodb import FilePager, GeographicDatabase, WriteAheadLog
from repro.net import GISClient, ServerThread
from repro.workloads import (
    PhoneNetParams,
    build_mix_schema,
    build_phone_net_database,
)
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA

from _support import median_iqr, print_header, print_table, record_results

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
CLIENT_COUNTS = (8, 16) if QUICK else (16, 64, 256)
REQUESTS_PER_CLIENT = 6 if QUICK else 40
COMMITTERS = 16 if QUICK else 64
COMMITS_PER_THREAD = 3 if QUICK else 10
REPEATS = 1 if QUICK else 5
#: grouped over per-commit fsync throughput at COMMITTERS, on the median
GROUP_SPEEDUP_MIN = 1.8


# ---------------------------------------------------------------------------
# Serving throughput
# ---------------------------------------------------------------------------


def _client_workload(host, port, latencies, errors, requests):
    """One remote client: session browse + cached queries + pings."""
    try:
        with GISClient(host, port, timeout=120) as client:
            client.open_session(user="bench")
            client.open_schema("phone_net")
            per_loop = 4
            for i in range(requests // per_loop):
                t0 = time.perf_counter()
                client.ping()
                latencies.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                client.query("phone_net", "select * from Pole")
                latencies.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                client.select_class("Pole")
                latencies.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                client.stats()
                latencies.append(time.perf_counter() - t0)
            client.close_session()
    except Exception as exc:  # noqa: BLE001 - report, don't hang the bench
        errors.append(exc)


def run_serving(clients: int) -> dict:
    db = build_phone_net_database(
        PhoneNetParams(blocks_x=2, blocks_y=2, poles_per_street=3,
                       duct_count=3, seed=11)
    )
    kernel = GISKernel(db)
    latencies: list[float] = []
    errors: list[Exception] = []
    with ServerThread(kernel) as (host, port):
        threads = [
            threading.Thread(target=_client_workload,
                             args=(host, port, latencies, errors,
                                   REQUESTS_PER_CLIENT))
            for _ in range(clients)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        elapsed = time.perf_counter() - start
    kernel.shutdown()
    assert not errors, f"{len(errors)} client errors: {errors[:3]}"
    latencies.sort()
    total = len(latencies)
    return {
        "clients": clients,
        "requests": total,
        "rps": total / elapsed,
        "p50_ms": latencies[total // 2] * 1e3,
        "p99_ms": latencies[min(total - 1, int(total * 0.99))] * 1e3,
    }


# ---------------------------------------------------------------------------
# Group commit vs per-commit fsync
# ---------------------------------------------------------------------------


def run_committers(group_commit: bool) -> dict:
    """COMMITTERS threads, COMMITS_PER_THREAD single-insert txns each."""
    tmp = tempfile.mkdtemp(prefix="bench_c12_")
    try:
        path = os.path.join(tmp, "bench.db")
        db = GeographicDatabase("bench", pager=FilePager(path))
        db.register_schema(build_mix_schema())
        wal = db.attach_wal(
            WriteAheadLog.open(path + ".wal", sync_mode="fsync",
                               group_commit=group_commit)
        )
        start_gate = threading.Barrier(COMMITTERS)
        errors: list[Exception] = []

        def commit_loop(w):
            try:
                start_gate.wait(timeout=60)
                for i in range(COMMITS_PER_THREAD):
                    with db.transaction() as txn:
                        txn.insert(MIX_SCHEMA, MIX_CLASS,
                                   {"name": f"w{w}:{i}", "size": i},
                                   oid=f"Feature#w{w}_{i}")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=commit_loop, args=(w,))
                   for w in range(COMMITTERS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        elapsed = time.perf_counter() - start
        assert not errors, f"committer errors: {errors[:3]}"
        stats = wal.stats()
        commits = COMMITTERS * COMMITS_PER_THREAD
        db.close()
        return {
            "commits": commits,
            "cps": commits / elapsed,
            "fsyncs": stats["fsyncs"],
            "group_commits": stats["group_commits"],
            "group_batches": stats["group_commit_batches"],
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


def measure() -> dict[str, float]:
    """One repeat: serving at every client count, then both commit
    modes; returns flat ``metric @clients`` values."""
    run: dict[str, float] = {}
    for clients in CLIENT_COUNTS:
        serving = run_serving(clients)
        for metric in ("rps", "p50_ms", "p99_ms"):
            run[f"{metric} @{clients}"] = serving[metric]
    solo = run_committers(group_commit=False)
    grouped = run_committers(group_commit=True)
    # every commit must be covered by a batch, whatever the timing
    assert grouped["group_batches"] == grouped["commits"]
    run.update({"per-commit cps": solo["cps"],
                "grouped cps": grouped["cps"],
                "per-commit fsyncs": solo["fsyncs"],
                "grouped fsyncs": grouped["fsyncs"],
                "speedup": grouped["cps"] / solo["cps"]})
    return run


def test_c12_serving(capsys):
    runs = [measure() for __ in range(REPEATS)]
    spread = {key: median_iqr([run[key] for run in runs])
              for key in runs[0]}
    med = {key: statistics.median(run[key] for run in runs)
           for key in runs[0]}
    commits = COMMITTERS * COMMITS_PER_THREAD
    payload: dict[str, Any] = {
        "experiment": "C12",
        "quick": QUICK,
        "repeats": REPEATS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "serving": {
            str(clients): {metric: spread[f"{metric} @{clients}"]
                           for metric in ("rps", "p50_ms", "p99_ms")}
            for clients in CLIENT_COUNTS},
        "group_commit": {"committers": COMMITTERS,
                         "commits": commits,
                         "per_commit_cps": spread["per-commit cps"],
                         "grouped_cps": spread["grouped cps"],
                         "per_commit_fsyncs": spread["per-commit fsyncs"],
                         "grouped_fsyncs": spread["grouped fsyncs"],
                         "speedup": spread["speedup"]},
        "gates": {"judged_on": "median",
                  "group_speedup_min": GROUP_SPEEDUP_MIN},
    }
    recorded = record_results("BENCH_C12.json", payload, QUICK)

    with capsys.disabled():
        print_header("C12", "serving layer: remote request throughput "
                            "and WAL group commit")
        print(f"{'quick' if QUICK else 'full'} mode, median of {REPEATS} "
              f"run{'s' if REPEATS > 1 else ''}\n")
        print_table(
            ["clients", "requests", "req/s", "p50", "p99"],
            [[clients, clients * REQUESTS_PER_CLIENT,
              f"{med[f'rps @{clients}']:.0f}",
              f"{med[f'p50_ms @{clients}']:.2f}ms",
              f"{med[f'p99_ms @{clients}']:.2f}ms"]
             for clients in CLIENT_COUNTS],
        )
        print(f"\ngroup commit at {COMMITTERS} committers x "
              f"{COMMITS_PER_THREAD} txns (fsync WAL, file-backed):")
        print_table(
            ["mode", "commits", "commits/s", "fsyncs"],
            [["per-commit", commits, f"{med['per-commit cps']:.0f}",
              f"{med['per-commit fsyncs']:.0f}"],
             ["grouped", commits, f"{med['grouped cps']:.0f}",
              f"{med['grouped fsyncs']:.0f}"]],
        )
        print(f"\ngrouped/per-commit speedup: {med['speedup']:.2f}x")
        if REPEATS > 1:
            print()
            print_table(["metric", "median", "IQR", "runs"],
                        [[key, value["median"], value["iqr"],
                          " ".join(map(str, value["runs"]))]
                         for key, value in spread.items()])
        print(f"\n{recorded}")

    if not QUICK:
        # Acceptance: the barrier sharing must actually pay off.
        assert med["speedup"] >= GROUP_SPEEDUP_MIN, (
            f"group commit median speedup {med['speedup']:.2f}x below "
            f"the {GROUP_SPEEDUP_MIN}x gate"
        )
        assert med["grouped fsyncs"] < med["per-commit fsyncs"]


if __name__ == "__main__":
    class _Capsys:
        class _Ctx:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def disabled(self):
            return self._Ctx()

    test_c12_serving(_Capsys())
