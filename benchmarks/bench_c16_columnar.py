"""Experiment C16 — vectorized columnar scans and STR-packed index builds.

The query engine selects every plan's rows from per-class column sets
stamped with the class commit version (:mod:`repro.geodb.columns`),
with fused predicate kernels
(:meth:`~repro.geodb.query.Predicate.compile_columns`) that select row
positions without materializing objects, and columnar ordering /
aggregation / projection; R-trees that rebuild wholesale are STR bulk
loaded (:meth:`~repro.spatial.rtree.RTree.bulk_load`). This experiment
prices the columnar selection against a benchmark-local **object
scan** (:class:`ObjectScan`), which the engine no longer has: an extent
snapshot per closure class, ``Predicate.matches`` per object, and the
engine's public shaper over a transient batch of the matches — the
work an object-by-object engine route does. The database is a phone
net sized so scans dominate:

* **cold mix** — a scan-heavy filter/aggregate mix (selective filters,
  conjunctions, a dotted-path refine, aggregates, order+limit, a
  subclass-closure aggregate), column caches warm, result cache
  absent. Gate: >= 3x faster than the object scan, byte-identical
  answers.
* **build amortization** — the first columnar scan after an
  invalidation pays the column build. Gate: first scan (build
  included) <= 2x one object scan, so the build amortizes within two
  scans.
* **post-commit scan** — columns warm, one transaction updates one
  pole, then the next columnar scan runs. Gate: <= 2x a warm scan,
  because the commit patched the class's column set instead of leaving
  a whole-class rebuild to the scan.
* **STR bulk load** — packing an R-tree from the extent's entries
  versus the per-entry insert loop. Gate: bulk load is not slower.
* **windowed count** — ``select count(*)`` of Pole ``within`` and
  Cable ``intersects`` map windows of 2–4% of the net's area, the probe
  shape every analysis-mode viewport sends. The columnar side runs the
  engine's plan (an R-tree scan whose candidates the rectangle kernel
  decides from coordinates); the object scan judges every object with
  ``relate``. Recorded, with byte-identical answers; no gate.

Full mode repeats the whole measurement five times: every gate judges
the median ratio, and ``BENCH_C16.json`` at the repo root records each
ratio's median, IQR and runs (single runs moved the mix speedup
between 6.9x and 13.5x back to back). Quick mode
(``REPRO_BENCH_QUICK=1``, the CI smoke step) runs once, shrinks the
database and round counts and only prints its results; at smoke sizes
per-query fixed overhead dilutes the kernel advantage and timings are
noise-bound, so quick mode relaxes the mix gate to "no slower than the
object scan" and skips the amortization, post-commit and bulk-load gates.
Byte-identity holds in both modes.
"""

import math
import os
import random
import statistics
import time
from typing import Any

from repro.geodb import ClassColumns, QueryEngine, parse_query
from repro.geodb.query import TruePredicate
from repro.spatial import RTree
from repro.workloads import PhoneNetParams, build_phone_net_database

from _support import (capture_metrics, median_iqr, print_header,
                      print_metrics, print_table, record_results)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
PARAMS = (PhoneNetParams(blocks_x=4, blocks_y=4, poles_per_street=12,
                         duct_count=10, seed=7)
          if QUICK else
          PhoneNetParams(blocks_x=16, blocks_y=16, poles_per_street=110,
                         duct_count=80, seed=7))
ROUNDS = 3 if QUICK else 7
#: whole-measurement repeats; the gates judge the median
REPEATS = 1 if QUICK else 5

SCHEMA = "phone_net"

#: The cold mix: scan-heavy shapes, one per columnar execution surface.
MIX = [
    ("selective equality",
     "select * from Pole where status = 'leaning'"),
    ("range + equality conjunction",
     "select * from Pole where install_year >= 1990 and pole_type = 2"),
    ("dotted-path refine",
     "select * from Pole where pole_composition.pole_material = 'wood' "
     "and install_year < 1960"),
    ("filtered aggregates",
     "select count(*), min(install_year), max(install_year), "
     "avg(install_year) from Pole where status = 'ok'"),
    ("subclass-closure aggregate",
     "select count(*), avg(install_year) from NetworkElement "
     "where install_year >= 1950 including subclasses"),
    ("order + limit (top-k)",
     "select * from Pole order by desc install_year limit 10"),
    ("selective ordered projection",
     "select oid, install_year from Pole where status = 'leaning' "
     "order by install_year"),
]

AMORTIZE = MIX[0][1]

#: windows per class for the windowed count, each 2–4% of the net's area
WINDOWS = 4 if QUICK else 12


def windowed_queries() -> list[str]:
    """Seeded ``count(*)`` texts: Pole ``within`` and Cable
    ``intersects`` windows, each covering 2–4% of the net's area."""
    rng = random.Random(16)
    width, height = PARAMS.extent
    texts = []
    for __ in range(WINDOWS):
        for template in (
                "select count(*) from Pole where within(pole_location, {})",
                "select count(*) from Cable where intersects(cable_route, "
                "{})"):
            side = math.sqrt(rng.uniform(0.02, 0.04) * width * height)
            x = rng.uniform(0.0, width - side)
            y = rng.uniform(0.0, height - side)
            texts.append(template.format(
                f"bbox({x:.2f}, {y:.2f}, {x + side:.2f}, {y + side:.2f})"))
    return texts


def build_db():
    return build_phone_net_database(PARAMS)


class ObjectScan:
    """The baseline: every closure class scanned object by object.

    Each class's extent is snapshot, ``Predicate.matches`` judges each
    object (a browse query takes them all), and the matches, wrapped in
    a transient column batch, go through the engine's shaper, so both
    sides share one ordering, aggregate and projection code path.
    """

    def __init__(self, db):
        self.db = db
        self.engine = QueryEngine(db)

    def execute(self, schema_name: str, query):
        db = self.db
        geo_class = db.get_schema_object(schema_name).get_class(
            query.class_name)
        parts = []
        candidates = 0
        for name in self.engine.planner.class_closure(schema_name, query):
            objects = list(db.extent(schema_name, name))
            candidates += len(objects)
            if isinstance(query.where, TruePredicate):
                matches = objects
            else:
                matches = [obj for obj in objects
                           if query.where.matches(obj, geo_class)]
            parts.append((ClassColumns.transient(matches),
                          range(len(matches))))
        report = {"plan": "object-scan", "index": None, "plans": [],
                  "candidates": candidates}
        return self.engine.shape(query, geo_class, parts, report)


def _best_of(rounds: int, fn) -> float:
    fn()  # warmup
    best = float("inf")
    for __ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_byte_identical(db) -> None:
    """Every mix query answers identically on both sides (oids, rows,
    candidate counts) — the speedup must not buy a different answer."""
    columns = QueryEngine(db)
    objects = ObjectScan(db)
    for __, text in MIX:
        query = parse_query(text)
        a = columns.execute(SCHEMA, query)
        b = objects.execute(SCHEMA, query)
        assert (a.oids(), a.rows, a.report["candidates"]) == \
               (b.oids(), b.rows, b.report["candidates"]), \
               f"result drift on: {text}"


def check_windowed_identical(db) -> None:
    """Every windowed count answers identically on both sides (oids and
    rows; the R-tree plan examines fewer candidates by design)."""
    columns = QueryEngine(db)
    objects = ObjectScan(db)
    for text in windowed_queries():
        query = parse_query(text)
        a = columns.execute(SCHEMA, query)
        b = objects.execute(SCHEMA, query)
        assert (a.oids(), a.rows) == (b.oids(), b.rows), \
            f"result drift on: {text}"


def bench_queries(db, texts: list[str]) -> dict[str, float]:
    """Seconds per pass over ``texts``: column kernels vs the object
    scan."""
    queries = [parse_query(text) for text in texts]
    columns = QueryEngine(db)
    rows = ObjectScan(db)

    def run_columns():
        for query in queries:
            columns.execute(SCHEMA, query)

    def run_rows():
        for query in queries:
            rows.execute(SCHEMA, query)

    return {"rows": _best_of(ROUNDS, run_rows),
            "columns": _best_of(ROUNDS, run_columns)}


def bench_amortization(db) -> dict[str, float]:
    """Cost of the first columnar scan after an invalidation.

    The first scan pays the extent snapshot + column build; it must
    stay within 2x of one object scan (the build amortizes by scan two,
    which runs on warm columns).
    """
    query = parse_query(AMORTIZE)
    columns = QueryEngine(db)
    rows = ObjectScan(db)

    row_scan = _best_of(ROUNDS, lambda: rows.execute(SCHEMA, query))
    first = warm = float("inf")
    for __ in range(ROUNDS):
        db.column_cache.invalidate()
        start = time.perf_counter()
        columns.execute(SCHEMA, query)
        first = min(first, time.perf_counter() - start)
        start = time.perf_counter()
        columns.execute(SCHEMA, query)
        warm = min(warm, time.perf_counter() - start)
    return {"row_scan": row_scan, "first_scan": first, "warm_scan": warm}


def bench_post_commit(db) -> dict[str, float]:
    """Cost of the first columnar scan after a one-row commit.

    Each round warms the columns, times a warm scan, commits a one-pole
    status update and times the next scan. The commit patches the Pole
    column set, so that scan must stay within 2x of the warm one.
    """
    query = parse_query(AMORTIZE)
    columns = QueryEngine(db)
    victim = db.extent(SCHEMA, "Pole").oids()[0]
    original = db.get_object(victim).get("status")
    warm = post = commit = float("inf")
    # an even number of rounds leaves the victim's status as it was
    for i in range(ROUNDS + 1):
        columns.execute(SCHEMA, query)
        start = time.perf_counter()
        columns.execute(SCHEMA, query)
        warm = min(warm, time.perf_counter() - start)
        start = time.perf_counter()
        with db.transaction() as txn:
            txn.update(victim, {"status": "leaning" if i % 2 == 0
                                else original})
        commit = min(commit, time.perf_counter() - start)
        start = time.perf_counter()
        columns.execute(SCHEMA, query)
        post = min(post, time.perf_counter() - start)
    return {"post_commit_warm_scan": warm, "post_commit_scan": post,
            "one_row_commit": commit}


def bench_bulk_load(db) -> dict[str, float]:
    """STR-packing an R-tree vs growing it with per-entry inserts."""
    entries = [(obj.geometry("pole_location").bbox(), obj.oid)
               for obj in db.extent(SCHEMA, "Pole")
               if obj.geometry("pole_location") is not None]

    def insert_loop():
        tree = RTree(max_entries=16)
        for box, oid in entries:
            tree.insert(box, oid)
        return tree

    def bulk():
        return RTree.bulk_load(entries, max_entries=16)

    probe = insert_loop().bbox()
    assert sorted(bulk().search(probe)) == sorted(insert_loop().search(probe))
    return {"entries": float(len(entries)),
            "insert_s": _best_of(ROUNDS, insert_loop),
            "bulk_s": _best_of(ROUNDS, bulk)}


def run_metrics_sample(db) -> None:
    """One instrumented pass, for the observability counter report."""
    with capture_metrics():
        engine = QueryEngine(db)
        for __, text in MIX:
            engine.execute(SCHEMA, parse_query(text))
            engine.execute(SCHEMA, parse_query(text))
        db.rebuild_spatial_index(SCHEMA, "Pole", "pole_location")
        print_metrics(["query.", "rtree."])


def measure(db) -> dict[str, float]:
    """One whole measurement: every timing and ratio."""
    mix = bench_queries(db, [text for __, text in MIX])
    amortize = bench_amortization(db)
    post_commit = bench_post_commit(db)
    bulk = bench_bulk_load(db)
    windowed = bench_queries(db, windowed_queries())
    return {
        "rows_s": mix["rows"], "columns_s": mix["columns"],
        **amortize, **post_commit,
        "entries": bulk["entries"], "insert_s": bulk["insert_s"],
        "bulk_s": bulk["bulk_s"],
        "mix_speedup": mix["rows"] / mix["columns"],
        "first_ratio": amortize["first_scan"] / amortize["row_scan"],
        "warm_speedup": amortize["row_scan"] / amortize["warm_scan"],
        "post_commit_ratio": (post_commit["post_commit_scan"]
                              / post_commit["post_commit_warm_scan"]),
        "bulk_speedup": bulk["insert_s"] / bulk["bulk_s"],
        "windowed_rows_s": windowed["rows"],
        "windowed_columns_s": windowed["columns"],
        "windowed_speedup": windowed["rows"] / windowed["columns"],
    }


def test_c16_columnar(capsys):
    db = build_db()
    pole_count = db.count(SCHEMA, "Pole")
    check_byte_identical(db)
    check_windowed_identical(db)
    runs = [measure(db) for __ in range(REPEATS)]
    #: per-key median over the runs (timings and ratios alike)
    med = {key: statistics.median(run[key] for run in runs)
           for key in runs[0]}
    spread = {key: median_iqr([run[key] for run in runs])
              for key in ("mix_speedup", "first_ratio", "warm_speedup",
                          "post_commit_ratio", "bulk_speedup",
                          "windowed_speedup")}
    mix_speedup = med["mix_speedup"]
    first_ratio = med["first_ratio"]
    bulk_speedup = med["bulk_speedup"]
    post_commit_ratio = med["post_commit_ratio"]

    rows = [
        [f"cold mix ({len(MIX)} queries)", f"{med['rows_s'] * 1e3:.2f}ms",
         f"{med['columns_s'] * 1e3:.2f}ms", f"{mix_speedup:.2f}x faster"],
        ["first scan (incl. build)", f"{med['row_scan'] * 1e6:.1f}us",
         f"{med['first_scan'] * 1e6:.1f}us",
         f"{first_ratio:.2f}x of one object scan"],
        ["warm scan", f"{med['row_scan'] * 1e6:.1f}us",
         f"{med['warm_scan'] * 1e6:.1f}us",
         f"{med['warm_speedup']:.2f}x faster"],
        ["scan after a one-row commit", "-",
         f"{med['post_commit_scan'] * 1e6:.1f}us",
         f"{post_commit_ratio:.2f}x of a warm scan "
         f"({med['post_commit_warm_scan'] * 1e6:.1f}us)"],
        [f"rtree build ({int(med['entries'])} entries)",
         f"{med['insert_s'] * 1e3:.2f}ms", f"{med['bulk_s'] * 1e3:.2f}ms",
         f"{bulk_speedup:.2f}x faster"],
        [f"windowed count ({2 * WINDOWS} queries)",
         f"{med['windowed_rows_s'] * 1e3:.2f}ms",
         f"{med['windowed_columns_s'] * 1e3:.2f}ms",
         f"{med['windowed_speedup']:.2f}x faster"],
    ]

    payload: dict[str, Any] = {
        "experiment": "C16",
        "quick": QUICK,
        "poles": pole_count,
        "repeats": REPEATS,
        #: what the ``rows_s``/``row_scan_s``/``*_vs_row`` keys measure
        "baseline": "benchmark-local object scan (ObjectScan)",
        "cold_mix": {"rows_s": med["rows_s"], "columns_s": med["columns_s"],
                     "speedup": spread["mix_speedup"]},
        "amortization": {"row_scan_s": med["row_scan"],
                         "first_scan_s": med["first_scan"],
                         "warm_scan_s": med["warm_scan"],
                         "first_ratio_vs_row": spread["first_ratio"],
                         "warm_speedup": spread["warm_speedup"]},
        "post_commit": {"warm_scan_s": med["post_commit_warm_scan"],
                        "post_commit_scan_s": med["post_commit_scan"],
                        "one_row_commit_s": med["one_row_commit"],
                        "ratio_vs_warm": spread["post_commit_ratio"]},
        "bulk_load": {"entries": int(med["entries"]),
                      "insert_s": med["insert_s"],
                      "bulk_s": med["bulk_s"],
                      "speedup": spread["bulk_speedup"]},
        "windowed_count": {"queries": 2 * WINDOWS,
                           "area_share": [0.02, 0.04],
                           "rows_s": med["windowed_rows_s"],
                           "columns_s": med["windowed_columns_s"],
                           "speedup": spread["windowed_speedup"]},
        "gates": {"judged_on": "median",
                  "cold_mix_speedup_min": 3.0,
                  "first_scan_ratio_max": 2.0,
                  "post_commit_ratio_max": 2.0,
                  "bulk_load_speedup_min": 1.0},
    }
    recorded = record_results("BENCH_C16.json", payload, QUICK)

    with capsys.disabled():
        print_header("C16", "vectorized columnar scans and STR-packed "
                            "index builds")
        print(f"phone-net: {pole_count} poles "
              f"({'quick' if QUICK else 'full'} mode, median of "
              f"{REPEATS} run{'s' if REPEATS > 1 else ''})\n")
        print_table(["workload", "object scan", "columns", "ratio"], rows)
        if REPEATS > 1:
            print()
            print_table(["ratio", "median", "IQR", "runs"],
                        [[key, value["median"], value["iqr"],
                          " ".join(map(str, value["runs"]))]
                         for key, value in spread.items()])
        print(f"\n{recorded}")
        run_metrics_sample(db)

    # At smoke sizes fixed per-query overhead dilutes the kernels:
    # quick mode only requires "no slower"; full mode holds the 3x gate.
    mix_gate = 1.0 if QUICK else 3.0
    assert mix_speedup >= mix_gate, (
        f"cold mix median only {mix_speedup:.2f}x faster than the object "
        f"scan (gate: {mix_gate}x)"
    )
    if not QUICK:
        assert first_ratio <= 2.0, (
            f"first columnar scan median {first_ratio:.2f}x of an object "
            f"scan (gate: 2x — the build must amortize within two scans)"
        )
        assert post_commit_ratio <= 2.0, (
            f"scan after a one-row commit median {post_commit_ratio:.2f}x "
            f"of a warm scan (gate: 2x — the commit must patch the "
            f"column set, not leave a rebuild to the scan)"
        )
        assert bulk_speedup >= 1.0, (
            f"STR bulk load median {bulk_speedup:.2f}x of the insert loop "
            f"(gate: not slower)"
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

    test_c16_columnar(_Capsys())
    print("\nC16 ok")
