"""Experiment C11 — cost-based planning, batched refine, result cache.

The query engine replaced the fixed-priority executor (spatial
prefilter > hash > scan, per-oid ``find_object``) with cost-based
per-class planning, batched candidate fetch, column kernels over
full/hash scans and a kernel-wide snapshot-consistent result cache.
Both executors refine objects with the same ``Predicate.matches``.
This experiment prices the engine against an in-bench replica of the
seed executor, over a phone-net database large enough for plan quality
to matter:

* **cold mix** — a representative query mix (selective and covering
  spatial probes, indexed equality, dotted-path refine, mixed subclass
  closure, aggregates), each query cold (no result cache). Gate:
  >= 1.5x faster than the seed executor.
* **cold single query** — a plain full-scan query, pricing the planner
  overhead a one-off query pays. Gate: <= 1.2x of seed.
* **warm cache** — the same query repeated through the kernel's
  :class:`~repro.core.query_cache.QueryResultCache`. Gate: >= 3x
  faster than re-executing on the seed path.

Full-mode results land in ``BENCH_C11.json`` at the repo root. Quick
mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke step) shrinks the
database and the round counts and only prints its results; at smoke
sizes the cold timings are noise-bound, so quick mode relaxes the
cold-mix gate to "no slower than seed" and skips the cold-overhead
gate. The warm-cache gate (3x)
holds in both modes; the full gate set runs in full mode.
"""

import os
import time
from typing import Any

from repro.geodb import QueryEngine, parse_query
from repro.geodb.query import _resolve_path
from repro.core import QueryResultCache
from repro.errors import QueryError
from repro.workloads import PhoneNetParams, build_phone_net_database

from _support import (capture_metrics, print_header, print_metrics,
                      print_table, record_results)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
PARAMS = (PhoneNetParams(blocks_x=4, blocks_y=4, poles_per_street=12,
                         duct_count=10, seed=7)
          if QUICK else
          PhoneNetParams(blocks_x=10, blocks_y=10, poles_per_street=24,
                         duct_count=60, seed=7))
ROUNDS = 3 if QUICK else 7
WARM_REPEATS = 50 if QUICK else 300

SCHEMA = "phone_net"

#: The cold mix: one query per access-path decision the planner makes.
MIX = [
    ("selective bbox",
     "select * from Pole where within(pole_location, bbox(0, 0, 60, 60))"),
    ("covering bbox + equality",
     "select * from Pole where pole_type = 1 and "
     "within(pole_location, bbox(-10, -10, 10000, 10000))"),
    ("indexed equality",
     "select * from Pole where pole_type = 2"),
    ("dotted-path refine",
     "select * from Pole where pole_composition.pole_material = 'wood'"),
    ("mixed subclass closure",
     "select * from NetworkElement where status = 'ok' "
     "including subclasses"),
    ("aggregate over extent",
     "select count(*), min(install_year), avg(install_year) from Pole"),
]

SINGLE = "select * from Pole where install_year >= 1980"
WARM = MIX[1][1]


class SeedEngine:
    """Replica of the pre-PR executor, for an honest baseline.

    Fixed priority (spatial prefilter, else hash when *every* closure
    class is indexed, else scan), per-oid ``find_object`` resolution,
    interpreted ``Predicate.matches`` refine and ``_resolve_path``
    shaping — the exact shape of the seed's ``QueryEngine._execute``.
    """

    def __init__(self, database):
        self.database = database

    def execute(self, schema_name: str, query):
        db = self.database
        schema = db.get_schema_object(schema_name)
        geo_class = schema.get_class(query.class_name)
        candidates = self._candidates(schema_name, query)
        matches = [obj for obj in candidates
                   if query.where.matches(obj, geo_class)]
        if query.aggregates:
            return self._aggregate(matches, geo_class, query)
        matches = self._order(matches, geo_class, query)
        if query.limit is not None:
            matches = matches[: query.limit]
        return matches

    def _candidates(self, schema_name: str, query):
        db = self.database
        class_names = [query.class_name]
        if query.include_subclasses:
            schema = db.get_schema_object(schema_name)
            pending, class_names = [query.class_name], []
            while pending:
                current = pending.pop()
                class_names.append(current)
                pending.extend(schema.subclasses(current))

        prefilter = query.where.spatial_prefilter()
        if prefilter is not None:
            attr, box = prefilter
            if not box.is_empty():
                out = []
                for cname in class_names:
                    try:
                        index = db.spatial_index(schema_name, cname, attr)
                    except Exception:
                        out.extend(db.extent(schema_name, cname))
                        continue
                    for oid in index.search(box):
                        obj = db.find_object(oid)
                        if obj is not None:
                            out.append(obj)
                return out

        equality = query.where.equality_prefilter()
        if equality is not None:
            attr, values = equality
            indexes = [db.attribute_index(schema_name, cname, attr)
                       for cname in class_names]
            if all(index is not None for index in indexes):
                out = []
                for index in indexes:
                    for oid in sorted(index.lookup_many(values)):
                        obj = db.find_object(oid)
                        if obj is not None:
                            out.append(obj)
                return out

        out = []
        for cname in class_names:
            out.extend(db.extent(schema_name, cname))
        return out

    @staticmethod
    def _order(matches, geo_class, query):
        if not query.order_by:
            return matches
        path = query.order_by
        descending = path.startswith("-")
        if descending:
            path = path[1:]

        def key(obj):
            try:
                value = _resolve_path(obj, geo_class, path)
            except QueryError:
                value = None
            return (value is None, value)

        return sorted(matches, key=key, reverse=descending)

    @staticmethod
    def _aggregate(matches, geo_class, query):
        row = {}
        for op, path in query.aggregates or ():
            label = f"{op}({path or '*'})"
            if op == "count" and path is None:
                row[label] = len(matches)
                continue
            values = []
            for obj in matches:
                try:
                    value = _resolve_path(obj, geo_class, path)
                except QueryError:
                    value = None
                if value is not None:
                    values.append(value)
            if op == "count":
                row[label] = len(values)
            elif not values:
                row[label] = None
            elif op == "min":
                row[label] = min(values)
            elif op == "max":
                row[label] = max(values)
            elif op == "sum":
                row[label] = sum(values)
            else:
                row[label] = sum(values) / len(values)
        return [row]


def build_db():
    db = build_phone_net_database(PARAMS)
    db.create_attribute_index(SCHEMA, "Pole", "pole_type")
    db.create_attribute_index(SCHEMA, "Pole", "status")
    return db


def _best_of(rounds: int, fn) -> float:
    fn()  # warmup
    best = float("inf")
    for __ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_cold_mix(db) -> dict[str, float]:
    """Seconds per full mix pass, seed executor vs new engine (no cache)."""
    queries = [(label, parse_query(text)) for label, text in MIX]
    seed, new = SeedEngine(db), QueryEngine(db)

    def run_seed():
        for __, query in queries:
            seed.execute(SCHEMA, query)

    def run_new():
        for __, query in queries:
            new.execute(SCHEMA, query)

    # Sanity: both executors agree on every mix query's matching set.
    for __, query in queries:
        if query.aggregates:
            expected = seed.execute(SCHEMA, query)
            assert new.execute(SCHEMA, query).rows == expected
        else:
            expected = sorted(o.oid for o in seed.execute(SCHEMA, query))
            got = sorted(new.execute(SCHEMA, query).oids())
            assert got == expected, f"result drift on: {query.describe()}"

    return {"seed": _best_of(ROUNDS, run_seed),
            "new": _best_of(ROUNDS, run_new)}


def bench_cold_single(db) -> dict[str, float]:
    """Per-execution cost of one plain scan query (planner overhead)."""
    query = parse_query(SINGLE)
    seed, new = SeedEngine(db), QueryEngine(db)
    repeats = 20 if QUICK else 60

    def run_seed():
        for __ in range(repeats):
            seed.execute(SCHEMA, query)

    def run_new():
        for __ in range(repeats):
            new.execute(SCHEMA, query)

    return {"seed": _best_of(ROUNDS, run_seed) / repeats,
            "new": _best_of(ROUNDS, run_new) / repeats}


def bench_warm_cache(db) -> dict[str, float]:
    """Per-query cost of a repeated query: seed re-run vs cache hits."""
    query = parse_query(WARM)
    seed = SeedEngine(db)
    cache = QueryResultCache(db)

    def run_seed():
        for __ in range(WARM_REPEATS):
            seed.execute(SCHEMA, query)

    def run_cached():
        for __ in range(WARM_REPEATS):
            cache.execute(SCHEMA, query)

    result = {"seed": _best_of(ROUNDS, run_seed) / WARM_REPEATS,
              "cached": _best_of(ROUNDS, run_cached) / WARM_REPEATS}
    assert cache.hits > 0 and cache.misses >= 1
    return result


def run_metrics_sample(db) -> None:
    """One instrumented pass over the mix, for the observability report."""
    with capture_metrics():
        cache = QueryResultCache(db)
        for __, text in MIX:
            cache.execute(SCHEMA, parse_query(text))
            cache.execute(SCHEMA, parse_query(text))
        print_metrics(["query."])


def test_c11_query_planner(capsys):
    db = build_db()
    pole_count = db.count(SCHEMA, "Pole")
    cold = bench_cold_mix(db)
    single = bench_cold_single(db)
    warm = bench_warm_cache(db)

    cold_speedup = cold["seed"] / cold["new"]
    single_ratio = single["new"] / single["seed"]
    warm_speedup = warm["seed"] / warm["cached"]

    rows = [
        ["cold mix (6 queries)", f"{cold['seed'] * 1e3:.2f}ms",
         f"{cold['new'] * 1e3:.2f}ms", f"{cold_speedup:.2f}x faster"],
        ["cold single query", f"{single['seed'] * 1e6:.1f}us",
         f"{single['new'] * 1e6:.1f}us", f"{single_ratio:.2f}x of seed"],
        ["warm repeat (cache)", f"{warm['seed'] * 1e6:.1f}us",
         f"{warm['cached'] * 1e6:.1f}us", f"{warm_speedup:.0f}x faster"],
    ]

    payload: dict[str, Any] = {
        "experiment": "C11",
        "quick": QUICK,
        "poles": pole_count,
        "cold_mix": {"seed_s": cold["seed"], "new_s": cold["new"],
                     "speedup": round(cold_speedup, 3)},
        "cold_single": {"seed_s": single["seed"], "new_s": single["new"],
                        "ratio_vs_seed": round(single_ratio, 3)},
        "warm_cache": {"seed_s": warm["seed"], "cached_s": warm["cached"],
                       "speedup": round(warm_speedup, 1)},
        "gates": {"cold_mix_speedup_min": 1.5,
                  "cold_single_ratio_max": 1.2,
                  "warm_cache_speedup_min": 3.0},
    }
    recorded = record_results("BENCH_C11.json", payload, QUICK)

    with capsys.disabled():
        print_header("C11", "cost-based planning, batched refine and the "
                            "query result cache")
        print(f"phone-net: {pole_count} poles "
              f"({'quick' if QUICK else 'full'} mode)\n")
        print_table(["workload", "seed executor", "this PR", "ratio"], rows)
        print(f"\n{recorded}")
        run_metrics_sample(db)

    assert warm_speedup >= 3.0, (
        f"warm cache only {warm_speedup:.2f}x faster than seed re-run "
        f"(gate: 3x)"
    )
    # Cold timings are noise-bound at smoke sizes: quick mode only
    # requires "no slower than seed"; full mode holds the real gates.
    cold_gate = 1.0 if QUICK else 1.5
    assert cold_speedup >= cold_gate, (
        f"cold mix only {cold_speedup:.2f}x faster than the seed executor "
        f"(gate: {cold_gate}x)"
    )
    if not QUICK:
        # One-off queries pay planning and the column lookup; the
        # batched fetch must keep that within 1.2x of the seed path.
        assert single_ratio <= 1.2, (
            f"cold single query {single_ratio:.2f}x of seed (gate: 1.2x)"
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

    test_c11_query_planner(_Capsys())
    print("\nC11 ok")
