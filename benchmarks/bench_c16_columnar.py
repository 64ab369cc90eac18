"""Experiment C16 — vectorized columnar scans and STR-packed index builds.

The PR added a columnar execution path to the query engine: per-class
column caches stamped with the class commit version
(:mod:`repro.geodb.columns`), fused predicate kernels
(:meth:`~repro.geodb.query.Predicate.compile_columns`) that select row
positions without materializing objects, columnar ordering /
aggregation / projection, and STR bulk loading
(:meth:`~repro.spatial.rtree.RTree.bulk_load`) wherever R-trees rebuild
wholesale. This experiment prices the columnar selection against the
engine's own row path (``use_columns=False``: a per-object
``Predicate.matches`` refine, the matches then shaped by the same
column shaper every route uses) on a phone-net database sized so scans
dominate:

* **cold mix** — a scan-heavy filter/aggregate mix (selective filters,
  conjunctions, a dotted-path refine, aggregates, order+limit, a
  subclass-closure aggregate), column caches warm, result cache
  absent. Gate: >= 3x faster than the row path, byte-identical
  answers.
* **build amortization** — the first columnar scan after an
  invalidation pays the column build. Gate: first scan (build
  included) <= 2x one row scan, so the build amortizes within two
  scans.
* **STR bulk load** — packing an R-tree from the extent's entries
  versus the per-entry insert loop. Gate: bulk load is not slower.

Full mode repeats the whole measurement five times: every gate judges
the median ratio, and ``BENCH_C16.json`` at the repo root records each
ratio's median, IQR and runs (single runs moved the mix speedup
between 6.9x and 13.5x back to back). Quick mode
(``REPRO_BENCH_QUICK=1``, the CI smoke step) runs once, shrinks the
database and round counts and only prints its results; at smoke sizes
per-query fixed overhead dilutes the kernel advantage and timings are
noise-bound, so quick mode relaxes the mix gate to "no slower than the
row path" and skips the amortization and bulk-load gates.
Byte-identity holds in both modes.
"""

import os
import statistics
import time
from typing import Any

from repro.geodb import QueryEngine, parse_query
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


def build_db():
    return build_phone_net_database(PARAMS)


def _best_of(rounds: int, fn) -> float:
    fn()  # warmup
    best = float("inf")
    for __ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_byte_identical(db) -> None:
    """Every mix query answers identically on both paths (oids, rows,
    candidate counts) — the speedup must not buy a different answer."""
    columns = QueryEngine(db)
    rows = QueryEngine(db, use_columns=False)
    for __, text in MIX:
        query = parse_query(text)
        a = columns.execute(SCHEMA, query)
        b = rows.execute(SCHEMA, query)
        assert (a.oids(), a.rows, a.report["candidates"]) == \
               (b.oids(), b.rows, b.report["candidates"]), \
               f"result drift on: {text}"
        for class_plan in a.report["plans"]:
            assert class_plan["columns"], f"mix query fell back: {text}"


def bench_cold_mix(db) -> dict[str, float]:
    """Seconds per full mix pass: column kernels vs the row path."""
    queries = [parse_query(text) for __, text in MIX]
    columns = QueryEngine(db)
    rows = QueryEngine(db, use_columns=False)

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
    stay within 2x of one row scan (the build amortizes by scan two,
    which runs on warm columns).
    """
    query = parse_query(AMORTIZE)
    columns = QueryEngine(db)
    rows = QueryEngine(db, use_columns=False)

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
        print_metrics(["query.columns.", "rtree."])


def measure(db) -> dict[str, float]:
    """One whole measurement: every timing and the four ratios."""
    mix = bench_cold_mix(db)
    amortize = bench_amortization(db)
    bulk = bench_bulk_load(db)
    return {
        "rows_s": mix["rows"], "columns_s": mix["columns"],
        **amortize,
        "entries": bulk["entries"], "insert_s": bulk["insert_s"],
        "bulk_s": bulk["bulk_s"],
        "mix_speedup": mix["rows"] / mix["columns"],
        "first_ratio": amortize["first_scan"] / amortize["row_scan"],
        "warm_speedup": amortize["row_scan"] / amortize["warm_scan"],
        "bulk_speedup": bulk["insert_s"] / bulk["bulk_s"],
    }


def test_c16_columnar(capsys):
    db = build_db()
    pole_count = db.count(SCHEMA, "Pole")
    check_byte_identical(db)
    runs = [measure(db) for __ in range(REPEATS)]
    #: per-key median over the runs (timings and ratios alike)
    med = {key: statistics.median(run[key] for run in runs)
           for key in runs[0]}
    spread = {key: median_iqr([run[key] for run in runs])
              for key in ("mix_speedup", "first_ratio", "warm_speedup",
                          "bulk_speedup")}
    mix_speedup = med["mix_speedup"]
    first_ratio = med["first_ratio"]
    bulk_speedup = med["bulk_speedup"]

    rows = [
        [f"cold mix ({len(MIX)} queries)", f"{med['rows_s'] * 1e3:.2f}ms",
         f"{med['columns_s'] * 1e3:.2f}ms", f"{mix_speedup:.2f}x faster"],
        ["first scan (incl. build)", f"{med['row_scan'] * 1e6:.1f}us",
         f"{med['first_scan'] * 1e6:.1f}us",
         f"{first_ratio:.2f}x of one row scan"],
        ["warm scan", f"{med['row_scan'] * 1e6:.1f}us",
         f"{med['warm_scan'] * 1e6:.1f}us",
         f"{med['warm_speedup']:.2f}x faster"],
        [f"rtree build ({int(med['entries'])} entries)",
         f"{med['insert_s'] * 1e3:.2f}ms", f"{med['bulk_s'] * 1e3:.2f}ms",
         f"{bulk_speedup:.2f}x faster"],
    ]

    payload: dict[str, Any] = {
        "experiment": "C16",
        "quick": QUICK,
        "poles": pole_count,
        "repeats": REPEATS,
        "cold_mix": {"rows_s": med["rows_s"], "columns_s": med["columns_s"],
                     "speedup": spread["mix_speedup"]},
        "amortization": {"row_scan_s": med["row_scan"],
                         "first_scan_s": med["first_scan"],
                         "warm_scan_s": med["warm_scan"],
                         "first_ratio_vs_row": spread["first_ratio"],
                         "warm_speedup": spread["warm_speedup"]},
        "bulk_load": {"entries": int(med["entries"]),
                      "insert_s": med["insert_s"],
                      "bulk_s": med["bulk_s"],
                      "speedup": spread["bulk_speedup"]},
        "gates": {"judged_on": "median",
                  "cold_mix_speedup_min": 3.0,
                  "first_scan_ratio_max": 2.0,
                  "bulk_load_speedup_min": 1.0},
    }
    recorded = record_results("BENCH_C16.json", payload, QUICK)

    with capsys.disabled():
        print_header("C16", "vectorized columnar scans and STR-packed "
                            "index builds")
        print(f"phone-net: {pole_count} poles "
              f"({'quick' if QUICK else 'full'} mode, median of "
              f"{REPEATS} run{'s' if REPEATS > 1 else ''})\n")
        print_table(["workload", "row path", "columns", "ratio"], rows)
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
        f"cold mix median only {mix_speedup:.2f}x faster than the row "
        f"path (gate: {mix_gate}x)"
    )
    if not QUICK:
        assert first_ratio <= 2.0, (
            f"first columnar scan median {first_ratio:.2f}x of a row scan "
            f"(gate: 2x — the build must amortize within two scans)"
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
