"""Server launcher: open the persisted database, serve it, report at exit.

Run by ``run.py`` as its own process (never inside the load
generator's process: a server thread there spreads run-to-run figures
several times wider)::

    python3 perfbench/server.py --db DB [--pristine FILE] [--opens N]
                                [--trace 0|1] --out OUT.json

Set-up is timed ``--opens`` times. With ``--pristine`` each open starts
from a fresh copy of that file (the copy is not timed); without it the
single open recovers ``--db`` as it was left, which is the restart
check. An open covers: catalog schemas, heap load with the spatial
index bulk-load, WAL attach and recover (``fsync`` policy), the Figure 5
method, the kernel and the Figure 6 program install. The last open is
served on 127.0.0.1 on an ephemeral port, announced as one JSON line on
stdout. A line on stdin (or EOF) stops the server; the report (set-up
times, peak RSS, counters and, when traced, every span plus a status
snapshot taken at each ``stats`` request) is written to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

#: span names whose per-open totals make up the set-up breakdown
SETUP_SPANS = ("setup.load_from_storage", "setup.recover",
               "setup.install_program", "spatial.bulk_load")


def open_stack(path: str):
    """Open ``path`` and build the served kernel; returns (db, kernel)."""
    from repro.core.kernel import GISKernel
    from repro.geodb import GeographicDatabase
    from repro.lang import FIGURE_6_PROGRAM
    from repro.workloads import register_pole_methods

    db = GeographicDatabase.open(path, sync_mode="fsync")
    register_pole_methods(db)
    kernel = GISKernel(db)
    kernel.install_program(FIGURE_6_PROGRAM, persist=False)
    return db, kernel


def release(db, kernel) -> None:
    kernel.shutdown()
    db.pager.close()
    db.wal.close()


def status_snapshot(db, kernel, server, recorder) -> dict:
    """Exact counters from the public status surfaces, plus span counts."""
    wal = db.wal.stats()
    cache = kernel.query_cache.stats()
    columns = db.column_cache.status()["summary"]
    live = kernel.live.stats()
    return {
        "wal.fsyncs": wal["fsyncs"],
        "wal.bytes": db.wal.pager.writes * db.wal.pager.page_size,
        "storage.page_writes": db.pager.writes,
        "buffer.write_backs": db.stats_buffer()["write_backs"],
        "query_cache.lookups": cache["lookups"],
        "query_cache.hits": cache["hits"],
        "columns.builds": columns["builds"],
        "columns.hits": columns["hits"],
        "live.updates": live["pushes"],
        "live.delta_applied": live["delta_applied"],
        "live.fallback_reexec": live["fallback_reexec"],
        "net.pushes_sent": server.counters["pushes_sent"],
        "net.pushes_dropped": server.counters["pushes_dropped"],
        **dict(recorder.counts),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", required=True)
    parser.add_argument("--pristine")
    parser.add_argument("--opens", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from spans import SpanRecorder, install_layer_spans

        recorder = SpanRecorder()
        install_layer_spans(recorder)

    from speed import loop_ms

    setup_s: list[float] = []
    #: reference loop ms just before each open (see speed.py)
    setup_speed: list[float] = []
    setup_parts: list[dict] = []
    db = kernel = None
    for i in range(args.opens):
        if db is not None:
            release(db, kernel)
            db = kernel = None
            gc.collect()
        if args.pristine:
            for suffix in ("", ".wal"):
                if os.path.exists(args.db + suffix):
                    os.remove(args.db + suffix)
            shutil.copyfile(args.pristine, args.db)
        setup_speed.append(statistics.median(loop_ms() for __ in range(5)))
        first_span = len(recorder.spans) if recorder else 0
        start = time.perf_counter()
        db, kernel = open_stack(args.db)
        setup_s.append(time.perf_counter() - start)
        if recorder is not None:
            parts = dict.fromkeys(SETUP_SPANS, 0.0)
            for span in recorder.spans[first_span:]:
                if span[3] in parts:
                    parts[span[3]] += span[5] - span[4]
            setup_parts.append(parts)

    from repro.net.router import Router
    from repro.net.server import GISServer

    server = GISServer(kernel, "127.0.0.1", 0)
    snapshots: list[dict] = []
    if recorder is not None:
        traced_handle = Router.handle

        def handle(router, state, doc):
            if isinstance(doc, dict) and doc.get("kind") == "stats":
                snapshots.append({
                    "id": doc.get("id"),
                    "counts": status_snapshot(db, kernel, server, recorder),
                })
            return traced_handle(router, state, doc)

        Router.handle = handle

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)

        def wait_stdin() -> None:
            sys.stdin.readline()
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=wait_stdin, daemon=True).start()
        await stop.wait()
        # let the clients' disconnects finish their session teardown
        # (the last step closes their sessions) before stop() cancels
        # the connection tasks
        for __ in range(200):
            if not server.stats()["connections"] \
                    and not kernel.session_count:
                break
            await asyncio.sleep(0.02)
        await asyncio.sleep(0.02)
        await server.stop()

    asyncio.run(serve())

    report = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "setup_parts": setup_parts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "counters": dict(server.counters),
        "snapshots": snapshots,
        "spans": recorder.spans if recorder is not None else [],
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, separators=(",", ":"))
    # The database is deliberately left without a checkpoint: the
    # restart check must find every acknowledged write through WAL
    # recovery alone.
    return 0


if __name__ == "__main__":
    sys.exit(main())
