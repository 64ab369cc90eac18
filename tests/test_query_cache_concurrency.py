"""QueryResultCache under concurrent committers (satellite of the
serving-layer PR: many remote connections now share one kernel cache).

The cache's contract is *snapshot consistency*: a lookup may never
return a result that a fresh execution against the latest committed
state would not also produce. These tests hammer that contract from
multiple threads — readers spinning on cached queries while writers
commit — and then assert the strong oracles that survive nondeterminism:

* **freshness**: once a thread's own commit has returned, its next
  cached query reflects that commit (read-your-own-commit through the
  cache, not just through MVCC);
* **monotonicity**: under insert-only writers, observed counts never
  go backwards;
* **convergence**: after the dust settles, the cached result equals an
  uncached execution, entry versions are current, and further lookups
  are hits.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.query_cache import QueryResultCache
from repro.geodb import GeographicDatabase
from repro.geodb.query_language import parse_query
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA, build_mix_schema
from tests import _reference

QUERY_ALL = "select * from Feature"


@pytest.fixture()
def db():
    database = GeographicDatabase("cachetest")
    database.register_schema(build_mix_schema())
    for i in range(8):
        database.insert(MIX_SCHEMA, MIX_CLASS,
                        {"name": f"seed{i}", "size": i},
                        oid=f"Feature#seed{i}")
    return database


@pytest.fixture()
def cache(db):
    return QueryResultCache(db, capacity=32)


def cached_count(cache, text=QUERY_ALL):
    return len(cache.execute(MIX_SCHEMA, parse_query(text)))


def fresh_count(cache, text=QUERY_ALL):
    return len(cache.engine.execute(MIX_SCHEMA, parse_query(text)))


class TestReadYourOwnCommit:
    def test_every_commit_is_visible_to_its_thread(self, db, cache):
        """Each writer thread alternates commit → cached query and must
        see its own insert immediately, no matter how the other writers
        interleave with it."""
        writers, per_writer = 6, 12
        failures: list[str] = []

        def writer(w):
            for i in range(per_writer):
                oid = f"Feature#w{w}:{i}"
                with db.transaction() as txn:
                    txn.insert(MIX_SCHEMA, MIX_CLASS,
                               {"name": oid, "size": i}, oid=oid)
                result = cache.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
                oids = set(result.oids())
                if oid not in oids:
                    failures.append(
                        f"{oid} committed but absent from cached result "
                        f"(cache={result.report.get('cache')})"
                    )
                    return

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert failures == []
        assert cached_count(cache) == 8 + writers * per_writer
        assert cached_count(cache) == fresh_count(cache)


class TestMonotonicity:
    def test_counts_never_go_backwards_under_inserts(self, db, cache):
        """Insert-only committers: a reader spinning on the cached query
        must observe a non-decreasing count (a regression here means the
        cache served an entry from before a commit it had already
        revealed)."""
        stop = threading.Event()
        violations: list[tuple[int, int]] = []
        observed: list[int] = []

        def reader():
            last = -1
            while not stop.is_set():
                count = cached_count(cache)
                if count < last:
                    violations.append((last, count))
                    return
                last = count
                observed.append(count)

        def writer(w):
            for i in range(25):
                with db.transaction() as txn:
                    txn.insert(MIX_SCHEMA, MIX_CLASS,
                               {"name": f"m{w}:{i}", "size": i},
                               oid=f"Feature#m{w}:{i}")

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=60)
        assert violations == [], f"count went backwards: {violations[:3]}"
        assert observed, "readers never completed a query"
        assert cached_count(cache) == 8 + 4 * 25


class TestConvergence:
    def test_cache_converges_and_serves_hits(self, db, cache):
        """After mixed insert/update/delete churn from many threads, the
        cached result matches an uncached execution, and with writers
        quiesced the next lookups are pure hits."""
        def churner(w):
            oid = f"Feature#churn{w}"
            with db.transaction() as txn:
                txn.insert(MIX_SCHEMA, MIX_CLASS,
                           {"name": oid, "size": 0}, oid=oid)
            for i in range(10):
                cached_count(cache)
                with db.transaction() as txn:
                    txn.update(oid, {"size": i})
                cached_count(cache, "select name from Feature")
            if w % 2:
                with db.transaction() as txn:
                    txn.delete(oid)

        threads = [threading.Thread(target=churner, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert cached_count(cache) == fresh_count(cache) == 8 + 4
        # writers quiesced: the entry is current, so lookups hit
        hits_before = cache.hits
        for _ in range(5):
            result = cache.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
            assert result.report["cache"] == "hit"
        assert cache.hits == hits_before + 5

    def test_stats_are_consistent_after_hammering(self, db, cache):
        """hits + misses equals lookups, invalidations never exceeds
        misses' entry builds, and the entry table respects capacity —
        even when 8 threads hammer 40 distinct fingerprints through a
        capacity-32 cache while commits invalidate under them."""
        queries = [QUERY_ALL, "select name from Feature"] + [
            f"select * from Feature where size = {i}" for i in range(38)
        ]
        lookups = threading.local()
        totals: list[int] = []
        lock = threading.Lock()

        def worker(w):
            mine = 0
            for i in range(30):
                cache.execute(MIX_SCHEMA,
                              parse_query(queries[(w * 7 + i) % len(queries)]))
                mine += 1
                if i % 10 == 5:
                    with db.transaction() as txn:
                        txn.insert(MIX_SCHEMA, MIX_CLASS,
                                   {"name": f"s{w}:{i}", "size": i},
                                   oid=f"Feature#s{w}:{i}")
            with lock:
                totals.append(mine)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        stats = cache.stats()
        assert sum(totals) == 8 * 30
        assert stats["lookups"] == sum(totals)
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["invalidations"] <= stats["misses"]
        assert stats["coalesced"] <= stats["misses"]
        assert stats["entries"] <= cache.capacity
        # and the cache still answers correctly
        assert cached_count(cache) == fresh_count(cache)


class TestPerCallReports:
    def test_shared_result_is_never_mutated(self, db, cache):
        """Concurrent lookups of the same entry each get their own
        report: a thread reading ``report["cache"]`` can never observe
        another thread's status written into a shared object."""
        warm = cache.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
        assert warm.report["cache"] == "miss"
        barrier = threading.Barrier(8)
        results: list = []
        lock = threading.Lock()

        def reader():
            barrier.wait()
            for _ in range(50):
                result = cache.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
                with lock:
                    results.append(result)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert len(results) == 8 * 50
        assert all(r.report["cache"] == "hit" for r in results)
        # the first miss's view still says miss — nobody rewrote it
        assert warm.report["cache"] == "miss"
        # all hits share the stored objects; none is the stored result
        assert all(r.objects is warm.objects for r in results)
        # the engine-built report itself carries no cache field
        bypass = cache.engine.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
        assert "cache" not in bypass.report


class TestSingleFlight:
    def test_identical_misses_coalesce_to_one_execution(self, db, cache):
        """N threads missing the same cold key at the same versions run
        the query once; followers share the leader's result and are
        counted both as misses and as coalesced."""
        executions: list[int] = []
        lock = threading.Lock()
        inner = cache.engine.execute
        release = threading.Event()

        def slow_execute(schema_name, query):
            with lock:
                executions.append(1)
            release.wait(timeout=30)    # hold followers in the flight
            return inner(schema_name, query)

        cache.engine.execute = slow_execute
        barrier = threading.Barrier(6)
        results: list = []
        rlock = threading.Lock()

        def racer(n):
            barrier.wait()
            if n == 0:
                # give the followers time to pile onto the flight
                threading.Timer(0.3, release.set).start()
            result = cache.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
            with rlock:
                results.append(result)

        threads = [threading.Thread(target=racer, args=(n,))
                   for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        cache.engine.execute = inner

        assert len(executions) == 1, "coalescing must execute exactly once"
        assert len(results) == 6
        statuses = sorted(r.report["cache"] for r in results)
        assert statuses == ["coalesced"] * 5 + ["miss"]
        assert all(set(r.oids()) == set(results[0].oids()) for r in results)
        stats = cache.stats()
        assert stats["lookups"] == 6
        assert stats["hits"] == 0 and stats["misses"] == 6
        assert stats["coalesced"] == 5

    def test_followers_survive_a_failing_leader(self, db, cache):
        """A leader whose execution raises must not strand its
        followers: they wake up and execute independently."""
        inner = cache.engine.execute
        entered = threading.Event()
        proceed = threading.Event()
        calls: list[int] = []
        lock = threading.Lock()

        def flaky_execute(schema_name, query):
            with lock:
                calls.append(1)
                first = len(calls) == 1
            if first:
                entered.set()
                proceed.wait(timeout=30)
                raise RuntimeError("leader died")
            return inner(schema_name, query)

        cache.engine.execute = flaky_execute
        errors: list[BaseException] = []
        results: list = []
        rlock = threading.Lock()

        def leader():
            try:
                cache.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
            except RuntimeError as exc:
                with rlock:
                    errors.append(exc)

        def follower():
            entered.wait(timeout=30)
            result = cache.execute(MIX_SCHEMA, parse_query(QUERY_ALL))
            with rlock:
                results.append(result)

        lt = threading.Thread(target=leader)
        fts = [threading.Thread(target=follower) for _ in range(3)]
        lt.start()
        for t in fts:
            t.start()
        # let the followers join the flight, then kill the leader
        import time
        time.sleep(0.2)
        proceed.set()
        lt.join(timeout=60)
        for t in fts:
            t.join(timeout=60)
        cache.engine.execute = inner

        assert len(errors) == 1     # the leader saw its own exception
        assert len(results) == 3    # every follower still got an answer
        assert all(r.report["cache"] == "miss" for r in results)
        assert all(len(r) == 8 for r in results)


class TestPreparedTexts:
    def test_memo_under_threads_answers_like_the_reference(self):
        """16 threads query 24 distinct texts through a capacity-8 cache,
        the way ``GISKernel.query`` does (prepare, freshness check,
        execute with the prepared key), while a committer inserts and
        deletes rows no text matches. The memo evicts and re-inserts
        under them; every answer equals the reference, and the counters
        stay exact."""
        db = GeographicDatabase("memotest")
        db.register_schema(build_mix_schema())
        for i in range(40):
            db.insert(MIX_SCHEMA, MIX_CLASS, {"name": f"f{i}", "size": i},
                      oid=f"Feature#f{i:02d}")
        cache = QueryResultCache(db, capacity=8)
        texts = [f"select * from Feature where size = {k}"
                 for k in range(12)] + [
            f"select name from Feature where size >= {k} order by size "
            f"limit 3" for k in range(12)]
        expected = {}
        for text in texts:
            objects, rows = _reference.evaluate(db, MIX_SCHEMA,
                                                parse_query(text))
            expected[text] = ([obj.oid for obj in objects], rows)
        errors: list = []
        executed = [0] * 16
        stop = threading.Event()

        def reader(w):
            try:
                for i in range(150):
                    text = texts[(w * 5 + i * 7) % len(texts)]
                    cache.fresh(MIX_SCHEMA, text)
                    query, key = cache.prepare(MIX_SCHEMA, text)
                    result = cache.execute(MIX_SCHEMA, query, key)
                    executed[w] += 1
                    oids, rows = expected[text]
                    if rows is None:
                        assert sorted(result.oids()) == sorted(oids), text
                    else:
                        assert result.oids() == oids, text
                        assert result.rows == rows, text
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append((w, exc))

        def committer():
            i = 0
            while not stop.is_set():
                oid = f"Feature#tmp{i}"
                with db.transaction() as txn:
                    txn.insert(MIX_SCHEMA, MIX_CLASS,
                               {"name": "tmp", "size": -1}, oid=oid)
                with db.transaction() as txn:
                    txn.delete(oid)
                i += 1
                stop.wait(0.002)    # let entries live long enough to hit

        writer = threading.Thread(target=committer)
        readers = [threading.Thread(target=reader, args=(w,))
                   for w in range(16)]
        writer.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=120)
        stop.set()
        writer.join(timeout=30)

        assert errors == []
        stats = cache.stats()
        assert stats["lookups"] == sum(executed) == 16 * 150
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert len(cache._prepared) <= cache.capacity
