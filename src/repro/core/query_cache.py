"""Snapshot-consistent query result cache for the shared kernel.

Analysis-mode panels re-issue the same queries constantly (the paper's
§2.2 explanation mode literally replays the query that produced a
window). A :class:`QueryResultCache` memoizes whole
:class:`~repro.geodb.query_engine.QueryResult` objects keyed by
``(schema, query fingerprint)`` and validates every lookup against the
MVCC commit state of the classes the query touches:

* ``GeographicDatabase._commit_locked`` bumps a per-class commit
  version (``class_version``) for every class a commit writes;
* an entry stores the version of *every class in the query's closure*
  at execution time;
* a lookup recomputes the closure (so a newly created subclass is
  noticed) and compares versions — any drift evicts the entry and
  re-executes.

Because versions only move inside the commit critical section, a cached
result is exactly the result a fresh execution against the latest
committed state would produce: the cache can never serve a read that an
MVCC snapshot opened *now* would not also see. Results are shared,
immutable objects; per-call metadata (``report["cache"]``) is returned
on a shallow :meth:`~repro.geodb.query_engine.QueryResult.with_report`
view, never written into the stored result.

Concurrency:

* every counter update and every stats read happens under the cache
  lock, so ``hits + misses == lookups`` holds exactly under churn;
* concurrent identical misses are **coalesced**: the first thread
  executes, followers with the *same* observed versions wait on its
  flight and share the result (a follower that already observed newer
  versions — e.g. it just committed — starts a fresh flight instead,
  preserving read-your-own-commit);
* entry installs are freshness-guarded: an install never replaces an
  entry whose versions are strictly newer (a slow single-flight leader
  cannot clobber a delta-maintained entry the
  :class:`~repro.core.live_queries.LiveQueryManager` advanced past it).

The cache is owned by the :class:`~repro.core.kernel.GISKernel`, so all
sessions of one kernel share hits (and all of them see invalidations,
whichever session committed).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from ..geodb.database import GeographicDatabase
from ..geodb.query import Query
from ..geodb.query_engine import QueryEngine, QueryResult


class _Entry:
    __slots__ = ("result", "versions")

    def __init__(self, result: QueryResult, versions: dict[str, int]):
        self.result = result
        #: class name -> commit version observed when the entry was built
        self.versions = versions


class _Flight:
    """One in-progress execution that identical misses can join."""

    __slots__ = ("versions", "done", "result")

    def __init__(self, versions: dict[str, int]):
        self.versions = versions
        self.done = threading.Event()
        #: set by the leader before ``done``; None means the leader
        #: failed and followers must execute for themselves
        self.result: QueryResult | None = None


class QueryResultCache:
    """LRU of query results, validated against per-class commit versions."""

    def __init__(self, database: GeographicDatabase, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.database = database
        self.engine = QueryEngine(database)
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._inflight: dict[tuple, _Flight] = {}
        self._lock = threading.Lock()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: misses served by joining another thread's in-flight execution
        self.coalesced = 0

    @staticmethod
    def make_key(schema_name: str, query: Query) -> tuple:
        """The entry key for one query (shared with the live manager)."""
        return (schema_name, query.fingerprint())

    def observed_versions(self, schema_name: str,
                          query: Query) -> dict[str, int]:
        """Current per-class commit versions over the query's closure."""
        closure = self.engine.planner.class_closure(schema_name, query)
        db = self.database
        return {
            class_name: db.class_version(schema_name, class_name)
            for class_name in closure
        }

    def execute(self, schema_name: str, query: Query) -> QueryResult:
        """The query's result — cached when still commit-consistent.

        The returned object is a per-call view: it shares the (immutable)
        rows/objects of the stored result but owns its report, where
        ``report["cache"]`` says whether this call hit or missed.
        """
        key = self.make_key(schema_name, query)
        versions = self.observed_versions(schema_name, query)
        with self._lock:
            self.lookups += 1
            entry = self._entries.get(key)
            if entry is not None:
                if entry.versions == versions:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry.result.with_report(cache="hit")
                # A commit moved one of the touched classes (or the
                # closure itself changed): the entry is stale.
                del self._entries[key]
                self.invalidations += 1
            self.misses += 1
            flight = self._inflight.get(key)
            if flight is not None and flight.versions == versions:
                # Same key, same observed commit state: join the
                # in-progress execution instead of duplicating it.
                self.coalesced += 1
            else:
                # Lead a fresh flight. A stale flight (older versions)
                # is replaced as the join target — its leader still
                # finishes and installs behind the freshness guard.
                flight = None
                leader_flight = _Flight(versions)
                self._inflight[key] = leader_flight
        if flight is not None:
            flight.done.wait()
            if flight.result is not None:
                return flight.result.with_report(cache="coalesced")
            # The leader failed; fall through and execute independently
            # (its exception already propagated on the leading thread).
            return self.engine.execute(schema_name, query) \
                .with_report(cache="miss")

        try:
            result = self.engine.execute(schema_name, query)
        except Exception:
            with self._lock:
                if self._inflight.get(key) is leader_flight:
                    del self._inflight[key]
            leader_flight.done.set()
            raise
        leader_flight.result = result
        with self._lock:
            self._install_locked(key, _Entry(result, versions))
            if self._inflight.get(key) is leader_flight:
                del self._inflight[key]
        leader_flight.done.set()
        return result.with_report(cache="miss")

    # ------------------------------------------------------------------
    # Maintained entries (live query manager)
    # ------------------------------------------------------------------

    def put_maintained(self, key: tuple, result: QueryResult,
                       versions: dict[str, int]) -> None:
        """Install a delta-maintained result at its advanced versions.

        Subject to the same freshness guard as miss installs, so a
        racing full execution and a delta application converge on the
        newer of the two.
        """
        with self._lock:
            self._install_locked(key, _Entry(result, versions))

    def _install_locked(self, key: tuple, entry: _Entry) -> None:
        """Insert/replace behind the freshness guard; caller holds lock."""
        existing = self._entries.get(key)
        if existing is not None and self._strictly_fresher(
                existing.versions, entry.versions):
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @staticmethod
    def _strictly_fresher(a: dict[str, int], b: dict[str, int]) -> bool:
        """True when ``a`` covers every class of ``b`` at >= versions and
        is newer somewhere — i.e. replacing ``a`` with ``b`` would move
        the entry backwards in commit time."""
        if a == b:
            return False
        return all(cls in a and a[cls] >= ver for cls, ver in b.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "coalesced": self.coalesced,
            }
