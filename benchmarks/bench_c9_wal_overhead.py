"""Experiment C9 — write-ahead logging: what durability costs.

The durability subsystem (docs/DURABILITY.md) buys atomic commit and
crash recovery with extra work on the commit path: framing + CRC of the
redo records, the log page writes, and the commit barrier (nothing,
``flush`` or ``fsync`` depending on the sync mode). This experiment
prices that against the no-WAL seed behaviour on the same file-backed
database:

* **single-statement** transactions (auto-commit, one insert each) —
  the worst case: every statement pays a full barrier;
* **batched** transactions (50 statements per commit) — the intended
  shape: one barrier amortized over the batch.

The acceptance target is on the amortized path: batched commit latency
under the full-durability mode (``fsync``) must stay within 2.5x the
no-WAL baseline. The single-statement fsync number is reported honestly
— it is dominated by device sync latency and is exactly why databases
batch, group-commit, or drop to ``flush``.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke step) shrinks
the op counts and skips the ratio assertions.
"""

import os
import shutil
import tempfile
import time

from repro.geodb import FilePager, GeographicDatabase, WriteAheadLog
from repro.workloads import build_mix_schema
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA

from _support import capture_metrics, print_header, print_metrics, print_table

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SINGLE_OPS = 40 if QUICK else 200
BATCHED_OPS = 400 if QUICK else 3000
BATCH = 50
#: WAL configurations; None = the pre-WAL seed behaviour (no log at all).
MODES = (None, "none", "flush", "fsync")


def _label(mode: str | None) -> str:
    return "no-wal" if mode is None else f"wal-{mode}"


def run_workload(mode: str | None, ops: int, batch: int) -> dict:
    """Insert ``ops`` objects in ``batch``-sized transactions; seconds/op."""
    tmp = tempfile.mkdtemp(prefix="bench_c9_")
    try:
        path = os.path.join(tmp, "bench.db")
        db = GeographicDatabase("bench", pager=FilePager(path))
        db.register_schema(build_mix_schema())
        if mode is not None:
            db.attach_wal(WriteAheadLog.open(path + ".wal", sync_mode=mode))
        # untimed warmup: first-commit code paths, page allocation
        with db.transaction() as txn:
            for i in range(5):
                txn.insert(MIX_SCHEMA, MIX_CLASS,
                           {"name": f"warm-{i}", "size": i},
                           oid=f"Feature#warm{i}")
        done = 0
        start = time.perf_counter()
        while done < ops:
            with db.transaction() as txn:
                for __ in range(min(batch, ops - done)):
                    txn.insert(MIX_SCHEMA, MIX_CLASS,
                               {"name": f"obj-{done}", "size": done},
                               oid=f"Feature#b{done}")
                    done += 1
        elapsed = time.perf_counter() - start
        wal_stats = db.wal.stats() if db.wal is not None else {}
        db.close()
        return {"per_op": elapsed / ops, "wal": wal_stats}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_grid() -> dict[tuple[str, str], dict]:
    results: dict[tuple[str, str], dict] = {}
    for mode in MODES:
        results[(_label(mode), "single")] = run_workload(mode, SINGLE_OPS, 1)
        results[(_label(mode), "batched")] = run_workload(
            mode, BATCHED_OPS, BATCH)
    return results


def run_metrics_sample() -> None:
    """One instrumented fsync-mode run, for the observability report."""
    with capture_metrics():
        run_workload("fsync", BATCH * 2, BATCH)
        print_metrics(["wal.", "txn."])


def test_c9_wal_overhead(capsys):
    grid = run_grid()

    def us(key):
        return grid[key]["per_op"] * 1e6

    rows = []
    for mode in MODES:
        label = _label(mode)
        single = us((label, "single"))
        batched = us((label, "batched"))
        fsyncs = grid[(label, "single")]["wal"].get("fsyncs", 0)
        rows.append([
            label,
            f"{single:.1f}us",
            f"{single / us(('no-wal', 'single')):.2f}x",
            f"{batched:.1f}us",
            f"{batched / us(('no-wal', 'batched')):.2f}x",
            fsyncs or "-",
        ])
    with capsys.disabled():
        print_header("C9", "write-ahead log overhead: commit latency "
                           "per statement vs the no-WAL seed")
        print_table(
            ["mode", "single", "vs seed", f"batched({BATCH})", "vs seed",
             "fsyncs"],
            rows,
        )
        print(f"\nsingle-statement fsync pays one device sync per insert "
              f"({grid[('wal-fsync', 'single')]['wal'].get('fsyncs', 0)} "
              f"syncs for {SINGLE_OPS} ops); batching amortizes it "
              f"{BATCH}-fold — that is the supported shape for bulk loads.")
        run_metrics_sample()

    if not QUICK:
        # Acceptance: durability within 2.5x of the seed when amortized.
        assert us(("wal-fsync", "batched")) <= \
            2.5 * us(("no-wal", "batched"))
        # The barrier-free log costs bookkeeping only, even per-statement.
        assert us(("wal-none", "single")) <= \
            2.5 * us(("no-wal", "single"))


if __name__ == "__main__":
    class _Capsys:
        class _Ctx:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def disabled(self):
            return self._Ctx()

    test_c9_wal_overhead(_Capsys())
    print("\nC9 ok")
