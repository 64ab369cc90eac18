"""Experiment C14 — live queries: maintained selections vs re-execution.

A dashboard of standing queries over a churning extent is the worst
case for an invalidate-on-commit result cache: every commit moves the
class version, every standing query misses, and the engine re-runs all
of them from scratch. The live subsystem (:mod:`repro.core.live_queries`)
instead keeps each watch's selection, re-decides only the rows a commit
wrote with the query's column kernel, and reshapes the selection
through the engine's shaper when it moved. It selects in full only on
registration and when a selection's base is unknown (version gap,
closure change).

Two questions, two oracles:

* **Work avoided** — the same standing-query set maintained both ways
  over the same seeded commit mix. We count full selections
  (``QueryEngine.select``: every cache miss, watch registration and
  fallback). Acceptance gate: invalidate-on-commit must run at least
  **5x** more full selections than the live path. Reshapes are counted
  in their own column: a reshape runs the shaper over the maintained
  selection, not a selection. Both strategies' per-commit maintenance
  time is reported (no gate): the live write-set pass against the
  repaint of every standing query.

* **Exactness** — after every commit, every live result must be
  byte-identical to a fresh engine execution: the same oids in the same
  order and identical rows, for every shape (the mix aggregates the
  integer ``size`` attribute, so sums are exact).

A third section runs the push fan-out over the wire: two connections
watch disjoint predicates while a writer churns rows matching only the
first — every ``live_update`` frame must arrive at the connection whose
result changed, and none at the other (the per-session delivery
oracle).

Full mode repeats the first two sections 5 times, gates on the medians
and writes ``BENCH_C14.json`` at the repo root. Quick mode
(``REPRO_BENCH_QUICK=1``, the CI smoke step) runs once over a smaller
extent and fewer commits, skips the ratio assertion and writes no
record.
"""

import os
import random
import statistics
import time

from repro.core.kernel import GISKernel
from repro.geodb import GeographicDatabase, MemoryPager, QueryEngine
from repro.geodb.query_language import parse_query
from repro.net.client import GISClient
from repro.net.server import ServerThread
from repro.spatial import Point
from repro.workloads import build_mix_schema
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA

from _support import median_iqr, print_header, print_table, record_results

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
EXTENT = 400 if QUICK else 2000
COMMITS = 40 if QUICK else 240
WIRE_COMMITS = 10 if QUICK else 40
REPEATS = 1 if QUICK else 5
WORLD = 1000
SEED = 20260808

#: the standing dashboard: every result shape a watch maintains
STANDING = [
    "select count(*), avg(size) from Feature where "
    "within(location, bbox(0, 0, 250, 250))",
    "select count(*), avg(size) from Feature where "
    "within(location, bbox(500, 500, 750, 750))",
    "select count(*), sum(size), min(size), max(size) from Feature "
    "where size >= 48",
    "select name, size from Feature where size >= 90",
    "select name, size from Feature where size <= 3",
    "select name, size from Feature order by desc size limit 10",
    "select * from Feature where size >= 25 and size <= 30",
    "select count(*) from Feature",
]


def make_db(name="c14") -> GeographicDatabase:
    db = GeographicDatabase(name, pager=MemoryPager())
    db.register_schema(build_mix_schema())
    with db.transaction() as txn:
        for i in range(EXTENT):
            txn.insert(MIX_SCHEMA, MIX_CLASS, {
                "name": f"f{i:05d}",
                "size": (i * 7) % 97,
                "location": Point((i * 13) % WORLD, (i * 29) % WORLD)
                            if i % 50 else None,
            }, oid=f"Feature#f{i:05d}")
    return db


class SelectCounter:
    """Counts full selections behind a kernel's result cache.

    ``QueryEngine.execute`` selects through ``select``, and live watches
    call ``select`` directly on registration and fallback, so patching
    the engine instance's ``select`` counts both strategies alike.
    """

    def __init__(self, engine):
        self.engine = engine
        self.count = 0

    def __enter__(self):
        inner = self.engine.select

        def counting(schema_name, query):
            self.count += 1
            return inner(schema_name, query)

        self.engine.select = counting
        return self

    def __exit__(self, *exc):
        del self.engine.select
        return False


def churn_ops(rng, oids, serial):
    """One commit's worth of mutations; returns (ops, new serial)."""
    ops = []
    for _ in range(rng.randint(1, 3)):
        action = rng.random()
        if action < 0.4:
            serial += 1
            oid = f"Feature#live{serial:05d}"
            ops.append(("insert", oid, {
                "name": f"live{serial:05d}",
                "size": rng.randint(0, 96),
                "location": Point(rng.randint(0, WORLD),
                                  rng.randint(0, WORLD))
                            if rng.random() < 0.9 else None,
            }))
            oids.append(oid)
        elif action < 0.85 or len(oids) < 20:
            ops.append(("update", rng.choice(oids), {
                "size": rng.randint(0, 96)}))
        else:
            oid = rng.choice(oids)
            oids.remove(oid)
            ops.append(("delete", oid, None))
    return ops, serial


def apply_ops(kernel, ops):
    with kernel.transaction() as txn:
        for op, oid, values in ops:
            if op == "insert":
                txn.insert(MIX_SCHEMA, MIX_CLASS, values, oid=oid)
            elif op == "update":
                txn.update(oid, values)
            else:
                txn.delete(oid)


def run_live() -> dict:
    """Maintained watches; exactness checked every commit."""
    db = make_db("c14-live")
    oracle = QueryEngine(db)
    kernel = GISKernel(db)
    session = kernel.session(user="dash")
    rng = random.Random(SEED)
    oids = list(db.extent(MIX_SCHEMA, MIX_CLASS).oids())
    mismatches = 0
    live = kernel.live
    maintain_s: list[float] = []
    inner = live._on_write_set

    def timed(ws):
        start = time.perf_counter()
        inner(ws)
        maintain_s.append(time.perf_counter() - start)

    live._on_write_set = timed
    with SelectCounter(kernel.query_cache.engine) as counter:
        watches = [(session.watch(MIX_SCHEMA, text), parse_query(text))
                   for text in STANDING]
        serial = 0
        for _ in range(COMMITS):
            ops, serial = churn_ops(rng, oids, serial)
            apply_ops(kernel, ops)
            for watch, query in watches:
                fresh = oracle.execute(MIX_SCHEMA, query)
                result = watch.result()
                if result.oids() != fresh.oids() or result.rows != fresh.rows:
                    mismatches += 1
        selections = counter.count
    stats = live.stats()
    kernel.shutdown()
    return {
        "selections": selections,
        "deltas": stats["delta_applied"],
        "reshapes": stats["reshapes"],
        "fallbacks": stats["fallback_reexec"],
        "pushes": stats["pushes"],
        "mismatches": mismatches,
        "maintain_p50_ms": statistics.median(maintain_s) * 1e3,
    }


def run_baseline() -> dict:
    """Invalidate-on-commit: re-read every standing query per commit."""
    db = make_db("c14-base")
    kernel = GISKernel(db)
    rng = random.Random(SEED)
    oids = list(db.extent(MIX_SCHEMA, MIX_CLASS).oids())
    queries = [parse_query(text) for text in STANDING]
    repaint_s: list[float] = []
    with SelectCounter(kernel.query_cache.engine) as counter:
        for query in queries:            # the dashboard's first paint
            kernel.query(MIX_SCHEMA, query)
        serial = 0
        for _ in range(COMMITS):
            ops, serial = churn_ops(rng, oids, serial)
            apply_ops(kernel, ops)
            start = time.perf_counter()
            for query in queries:        # every commit repaints it all
                kernel.query(MIX_SCHEMA, query)
            repaint_s.append(time.perf_counter() - start)
        selections = counter.count
    cache_stats = kernel.query_cache.stats()
    kernel.shutdown()
    return {
        "selections": selections,
        "invalidations": cache_stats["invalidations"],
        "hits": cache_stats["hits"],
        "maintain_p50_ms": statistics.median(repaint_s) * 1e3,
    }


def run_wire() -> dict:
    """Per-session delivery over TCP: pushes only where content changed."""
    db = make_db("c14-wire")
    kernel = GISKernel(db)
    pushes_hot = pushes_cold = 0
    final_rows = None
    with ServerThread(kernel) as (host, port):
        with GISClient(host, port) as hot, GISClient(host, port) as cold, \
                GISClient(host, port) as writer:
            hot.open_session(user="hot")
            cold.open_session(user="cold")
            hot_watch = hot.watch(
                MIX_SCHEMA, "select count(*), sum(size) from Feature "
                            "where size >= 200")
            cold.watch(MIX_SCHEMA, "select name from Feature "
                                   "where size >= 300 and size <= 250")
            for i in range(WIRE_COMMITS):
                # every commit lands in the hot watch, never the cold one
                writer.insert(MIX_SCHEMA, MIX_CLASS,
                              {"name": f"w{i:03d}", "size": 200 + i})
            pushes_hot = len([p for p in hot.poll_pushes(timeout=2.0)
                              if p["push"] == "live_update"])
            pushes_cold = len([p for p in cold.poll_pushes(timeout=0.5)
                               if p["push"] == "live_update"])
            final = kernel.query(MIX_SCHEMA,
                                 "select count(*), sum(size) from Feature "
                                 "where size >= 200", use_cache=False)
            final_rows = final.rows
            assert hot_watch["count"] == 0
    kernel.shutdown()
    expected_sum = sum(200 + i for i in range(WIRE_COMMITS))
    return {
        "commits": WIRE_COMMITS,
        "pushes_hot": pushes_hot,
        "pushes_cold": pushes_cold,
        "content_ok": final_rows == [{"count(*)": WIRE_COMMITS,
                                      "sum(size)": expected_sum}],
    }


def test_c14_live_queries(capsys):
    runs = [(run_live(), run_baseline()) for __ in range(REPEATS)]
    wire = run_wire()
    live, baseline = runs[0]     # counts are the same in every run
    ratio = median_iqr([base["selections"] / max(lv["selections"], 1)
                        for lv, base in runs])
    live_ms = median_iqr([lv["maintain_p50_ms"] for lv, __ in runs])
    base_ms = median_iqr([base["maintain_p50_ms"] for __, base in runs])
    mismatches = sum(lv["mismatches"] for lv, __ in runs)
    recorded = record_results("BENCH_C14.json", {
        "experiment": "C14",
        "quick": QUICK,
        "extent": EXTENT,
        "commits": COMMITS,
        "standing_queries": len(STANDING),
        "repeats": REPEATS,
        "selections": {"live": live["selections"],
                       "invalidate_on_commit": baseline["selections"],
                       "ratio": ratio},
        "live": {key: live[key] for key in
                 ("deltas", "reshapes", "fallbacks", "pushes")},
        "maintain_ms_per_commit_p50": {"live": live_ms,
                                       "invalidate_on_commit": base_ms},
        "mismatches": mismatches,
        "wire": wire,
        "gates": {"judged_on": "median",
                  "selection_ratio_min": 5.0,
                  "mismatches_max": 0,
                  "cold_pushes_max": 0},
    }, QUICK)

    with capsys.disabled():
        print_header("C14", "live queries: maintained selections vs "
                            "invalidate-on-commit")
        print(f"\n{len(STANDING)} standing queries over {EXTENT} objects, "
              f"{COMMITS} commits of churn, median of {REPEATS} "
              f"run{'s' if REPEATS > 1 else ''}:")
        print_table(
            ["strategy", "full selections", "deltas", "reshapes",
             "fallbacks", "pushes", "maintain/commit p50"],
            [
                ["invalidate-on-commit", baseline["selections"],
                 "-", "-", "-", "-", f"{base_ms['median']:.3f}ms"],
                ["live (maintained)", live["selections"], live["deltas"],
                 live["reshapes"], live["fallbacks"], live["pushes"],
                 f"{live_ms['median']:.3f}ms"],
            ],
        )
        print(f"\nselection ratio: {ratio['median']:.1f}x fewer full "
              f"selections ({baseline['selections']} vs "
              f"{live['selections']})")
        print(f"exactness: {mismatches} mismatches across "
              f"{REPEATS * COMMITS * len(STANDING)} per-commit comparisons")
        print(f"\nwire delivery over {wire['commits']} hot commits: "
              f"hot connection {wire['pushes_hot']} push(es), "
              f"cold connection {wire['pushes_cold']}, "
              f"content {'ok' if wire['content_ok'] else 'DIVERGED'}")
        print(f"\n{recorded}")

    assert mismatches == 0, (
        f"{mismatches} live results diverged from fresh execution"
    )
    assert wire["pushes_cold"] == 0, "push delivered to an unchanged watch"
    assert wire["content_ok"], "pushed result diverged from fresh execution"
    if not QUICK:
        assert ratio["median"] >= 5.0, (
            f"live maintenance saved only {ratio['median']:.1f}x full "
            "selections, below the 5x gate"
        )
        assert wire["pushes_hot"] == wire["commits"], (
            f"hot watch expected {wire['commits']} pushes, got "
            f"{wire['pushes_hot']}"
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

    test_c14_live_queries(_Capsys())
