"""Live queries: standing selections reshaped by the engine, with
targeted push.

The result cache (:mod:`repro.core.query_cache`) invalidates a whole
entry on *any* commit to a closure class — correct, but for standing
queries it means constant re-execution of barely-changed windows. A
:class:`LiveQueryManager` keeps the results of **watched** queries
(``session.watch(schema, text)``) current instead. A watch keeps its
untruncated selection — the member oids of each closure class — and
maintains it over the column sets each commit has already patched
(``_apply_batch`` advances the column cache before write-set listeners
run):

* the written oids of a commit's structured write-set
  (:class:`~repro.geodb.database.CommitWriteSet`) are mapped to rows of
  their class's fresh column set and narrowed by the query's column
  kernel (:meth:`~repro.geodb.query.Predicate.compile_columns`), the
  same kernel the engine selects with;
* when a member entered, left or was written, the whole selection is
  reshaped through the engine's one shaper
  (:meth:`~repro.geodb.query_engine.QueryEngine.shape`), so ordering,
  ``LIMIT``, projection and aggregates equal a fresh execution at any
  limit;
* the cached entry's versions advance in step
  (:meth:`~repro.core.query_cache.QueryResultCache.put_maintained`), so
  plain ``kernel.query`` lookups keep hitting;
* a ``live_update`` is delivered *only* to the watches whose result
  content actually changed — an insert that misses the predicate, or an
  update that leaves the projected row identical, is silent.

A full selection replaces maintenance only when the selection's base is
unknown: the entry missed a commit (``version-gap`` — e.g. a commit
landed while the watch was being registered) or the class closure
itself changed (``closure-change`` — a subclass appeared).

Correctness under races: write-set listeners run on committing threads
*outside* the commit lock, so deliveries can arrive out of order. The
manager serializes on its own lock and applies a write-set only when
the maintained versions equal the commit's ``prev_versions`` for every
touched class; newer state skips the (already-covered) commit, anything
else re-selects against current versions. Maintenance is idempotent per
oid — each written oid's membership is decided from the class's current
column set, never from the write-set's values — so the maintained
selection always converges to what a fresh execution would select.
"""

from __future__ import annotations

import itertools
import threading
from itertools import compress
from typing import TYPE_CHECKING, Any, Callable

from .. import obs
from ..errors import SessionError
from ..geodb.columns import ClassColumns
from ..geodb.database import CommitWriteSet
from ..geodb.query import Query, TruePredicate
from ..geodb.query_engine import QueryEngine, QueryResult
from ..geodb.schema import GeoClass

if TYPE_CHECKING:  # pragma: no cover - import cycle with kernel/session
    from .kernel import GISKernel
    from .session import GISSession

_watch_ids = itertools.count(1)


class LiveUpdate:
    """One delivered change of a watched result."""

    __slots__ = ("watch_id", "session_id", "schema_name", "query_text",
                 "reason", "result", "commit_ts")

    def __init__(self, watch_id: str, session_id: str, schema_name: str,
                 query_text: str, reason: str, result: QueryResult,
                 commit_ts: int):
        self.watch_id = watch_id
        self.session_id = session_id
        self.schema_name = schema_name
        self.query_text = query_text
        #: ``"delta"`` (selection maintained and reshaped) or
        #: ``"reexec"`` (fallback to a full selection)
        self.reason = reason
        self.result = result
        self.commit_ts = commit_ts


class Watch:
    """One session's registration on a standing query."""

    __slots__ = ("watch_id", "session_id", "schema_name", "query",
                 "callback", "updates", "active", "_state", "_manager")

    def __init__(self, watch_id: str, session_id: str, schema_name: str,
                 query: Query, state: "_LiveState",
                 manager: "LiveQueryManager",
                 callback: Callable[[LiveUpdate], None] | None):
        self.watch_id = watch_id
        self.session_id = session_id
        self.schema_name = schema_name
        self.query = query
        self.callback = callback
        #: undelivered updates, appended in commit order (drain with
        #: :meth:`pop_updates`)
        self.updates: list[LiveUpdate] = []
        self.active = True
        self._state = state
        self._manager = manager

    def result(self) -> QueryResult:
        """The current maintained result (shared, immutable)."""
        return self._state.result

    def pop_updates(self) -> list[LiveUpdate]:
        updates, self.updates = self.updates, []
        return updates

    def unwatch(self) -> None:
        self._manager.unregister(self)


def _member_rows(columns: ClassColumns, members: set[str]) -> list[int]:
    """The rows of ``members`` in ``columns``, in extent order.

    A member that a later, not yet delivered commit deleted has no row
    and is skipped; that commit's write-set drops it. A selection of
    most of the class filters the oid column; a smaller one maps its
    oids through ``row_of`` and sorts the rows. Each is the faster one
    on its side of half the class (EXPERIMENTS.md P5).
    """
    if 2 * len(members) > columns.cardinality:
        return list(compress(range(columns.cardinality),
                             map(members.__contains__, columns.oids)))
    row_of = columns.row_of
    return sorted([row_of[oid] for oid in members if oid in row_of])


class _LiveState:
    """The maintained selection of one (schema, query fingerprint)."""

    __slots__ = ("schema_name", "query", "key", "geo_class", "members",
                 "versions", "result", "watches", "deltas", "fallbacks",
                 "last_reason", "last_commit_ts")

    def __init__(self, schema_name: str, query: Query, key: tuple):
        self.schema_name = schema_name
        self.query = query
        self.key = key
        self.watches: dict[str, Watch] = {}
        self.deltas = 0
        self.fallbacks = 0
        self.last_reason = "build"
        self.last_commit_ts = 0

    def load(self, geo_class: GeoClass, parts: list[tuple],
             result: QueryResult, versions: dict[str, int]) -> None:
        """Take over a full selection: ``parts`` as the engine's
        :meth:`~repro.geodb.query_engine.QueryEngine.select` returned
        them, one per closure class in closure order."""
        self.geo_class = geo_class
        #: closure class -> member oids, in closure order (the closure)
        self.members = {columns.class_name: {columns.oids[i] for i in rows}
                        for columns, rows in parts}
        self.versions = dict(versions)
        self.result = result

    def apply(self, ws: CommitWriteSet,
              engine: QueryEngine) -> QueryResult | None:
        """Apply one applicable write-set; the reshaped result, or None
        when no member entered, left or was written.

        Each touched class's written oids are mapped to rows of its
        current column set; the query's column kernel decides which of
        them are members now. A member is never judged from the
        write-set itself, so a later commit already applied to the set
        is harmless: its own write-set re-decides the oids it wrote.
        """
        written: dict[str, set[str]] = {}
        for op in ws.ops:
            if op.schema_name == self.schema_name \
                    and op.class_name in self.members:
                written.setdefault(op.class_name, set()).add(op.oid)
        column_cache = engine.database.column_cache
        where = self.query.where
        moved = False
        sets: dict[str, ClassColumns] = {}
        for class_name, oids in written.items():
            members = self.members[class_name]
            columns = sets[class_name] = column_cache.for_class(
                self.schema_name, class_name)
            row_of = columns.row_of
            rows = [row for oid in oids
                    if (row := row_of.get(oid)) is not None]
            if not isinstance(where, TruePredicate):
                rows = where.compile_columns(self.geo_class, columns)(rows)
            selected = {columns.oids[row] for row in rows}
            if selected or not members.isdisjoint(oids):
                moved = True
                members -= oids
                members |= selected
        if not moved:
            return None
        parts = []
        for class_name, members in self.members.items():
            columns = sets.get(class_name)
            if columns is None:
                columns = column_cache.for_class(self.schema_name,
                                                 class_name)
            parts.append((columns, _member_rows(columns, members)))
        return engine.shape(self.query, self.geo_class, parts,
                            dict(self.result.report))

    def publish(self, result: QueryResult, reason: str,
                commit_ts: int) -> None:
        """Install ``result`` with its live provenance in the report."""
        result.report["live"] = {
            "reason": reason,
            "deltas": self.deltas,
            "fallbacks": self.fallbacks,
            "commit_ts": commit_ts,
        }
        self.result = result
        self.last_reason = reason
        self.last_commit_ts = commit_ts


class LiveQueryManager:
    """Kernel-owned registry of watched queries and their maintenance.

    Owned by one :class:`~repro.core.kernel.GISKernel`; states are
    shared per (schema, fingerprint), so a thousand sessions watching
    the same window cost one maintained result. The kernel's write-set
    listener hands every commit (and every replicated batch on a
    follower) to :meth:`_on_write_set`.
    """

    def __init__(self, kernel: "GISKernel"):
        self.kernel = kernel
        self.cache = kernel.query_cache
        self._lock = threading.RLock()
        self._states: dict[tuple, _LiveState] = {}
        self._watches: dict[str, Watch] = {}
        #: server-side listeners fanning updates out over the wire
        self._listeners: list[Callable[[LiveUpdate], None]] = []
        self._closed = False
        self.registered = 0
        self.delta_applied = 0
        #: deltas that moved a selection and reshaped it
        self.reshapes = 0
        self.fallback_reexec = 0
        self.pushes = 0
        self.callback_errors = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def watch(self, session: "GISSession", schema_name: str, query,
              callback: Callable[[LiveUpdate], None] | None = None
              ) -> Watch:
        """Register a standing query for ``session``.

        ``query`` is query-language text or a
        :class:`~repro.geodb.query.Query`. Returns a :class:`Watch`
        whose :meth:`~Watch.result` is kept maintained; every
        content change appends a :class:`LiveUpdate` to
        ``watch.updates`` (and invokes ``callback``, when given).
        """
        if self._closed:
            raise SessionError("live query manager is shut down")
        if isinstance(query, str):
            query, key = self.cache.prepare(schema_name, query)
        else:
            key = self.cache.make_key(schema_name, query)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = _LiveState(schema_name, query, key)
                self._select_into(state)
                self.cache.put_maintained(key, state.result,
                                          dict(state.versions))
                self._states[key] = state
            watch = Watch(f"w{next(_watch_ids)}", session.session_id,
                          schema_name, query, state, self, callback)
            state.watches[watch.watch_id] = watch
            self._watches[watch.watch_id] = watch
            self.registered += 1
            return watch

    def unregister(self, watch: Watch) -> None:
        """Drop one watch; the state dies with its last watcher."""
        with self._lock:
            if self._watches.pop(watch.watch_id, None) is None:
                return
            watch.active = False
            state = self._states.get(watch._state.key)
            if state is not None:
                state.watches.pop(watch.watch_id, None)
                if not state.watches:
                    del self._states[state.key]

    def drop_session(self, session_id: str) -> None:
        """Release every watch a (closing) session still holds."""
        with self._lock:
            doomed = [w for w in self._watches.values()
                      if w.session_id == session_id]
        for watch in doomed:
            self.unregister(watch)

    def add_listener(self, listener: Callable[[LiveUpdate], None]) -> None:
        """Subscribe to every delivered update (server push fan-out)."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[LiveUpdate], None]
                        ) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Maintenance (runs on committing threads)
    # ------------------------------------------------------------------

    def _on_write_set(self, ws: CommitWriteSet) -> None:
        # A watch that raises is counted; a later version gap re-selects.
        with self._lock:
            for state in list(self._states.values()):
                self.kernel.database.deliver(self._maintain, state, ws)

    def _maintain(self, state: _LiveState, ws: CommitWriteSet) -> None:
        schema_name = state.schema_name
        touched = [c for (s, c) in ws.prev_versions
                   if s == schema_name and c in state.members]
        if not touched:
            return
        rec = obs.RECORDER
        engine = self.cache.engine
        # the closure itself may have grown (a subclass created by this
        # very commit); recompute and compare before trusting the delta
        if engine.planner.class_closure(schema_name, state.query) \
                != list(state.members):
            self._reselect(state, ws, "closure-change", rec)
            return
        if all(state.versions.get(c, 0) >= ws.commit_ts for c in touched):
            return      # already covered by a rebuild past this commit
        if any(state.versions.get(c, 0)
               != ws.prev_versions[(schema_name, c)]
               for c in touched):
            # discontinuity: this entry missed a commit in between
            self._reselect(state, ws, "version-gap", rec)
            return
        old = state.result
        result = state.apply(ws, engine)
        for class_name in touched:
            state.versions[class_name] = ws.commit_ts
        state.deltas += 1
        self.delta_applied += 1
        if result is not None:
            self.reshapes += 1
            state.publish(result, "delta", ws.commit_ts)
        self.cache.put_maintained(state.key, state.result,
                                  dict(state.versions))
        if result is not None and self._changed(state, old, ws):
            self._notify(state, "delta", ws.commit_ts, rec)

    def _select_into(self, state: _LiveState) -> None:
        """Full selection + state load, at pre-read versions.

        Versions are observed *before* selecting, so the loaded content
        is at least as new as its claim — a concurrent commit then
        triggers a harmless re-selection rather than a silent skip.
        """
        engine = self.cache.engine
        versions = self.cache.observed_versions(state.schema_name,
                                                state.query)
        geo_class, parts, report = engine.select(state.schema_name,
                                                 state.query)
        state.load(geo_class, parts,
                   engine.shape(state.query, geo_class, parts, report),
                   versions)

    def _reselect(self, state: _LiveState, ws: CommitWriteSet,
                  reason: str, rec) -> None:
        old = state.result
        self._select_into(state)
        state.fallbacks += 1
        self.fallback_reexec += 1
        if rec.enabled:
            rec.inc("live.fallback_reexec", reason=reason)
        state.publish(state.result, f"reexec:{reason}", ws.commit_ts)
        self.cache.put_maintained(state.key, state.result,
                                  dict(state.versions))
        if self._changed(state, old, ws):
            self._notify(state, "reexec", ws.commit_ts, rec)

    @staticmethod
    def _changed(state: _LiveState, old: QueryResult,
                 ws: CommitWriteSet) -> bool:
        """Whether the published content moved past ``old``.

        Content is the rows and, unless the query aggregates, the oids
        in order. A bare-object result shares the live objects, so a
        member the write-set updated in place changed it too.
        """
        new = state.result
        if state.query.aggregates:
            return new.rows != old.rows
        if new.oids() != old.oids() or new.rows != old.rows:
            return True
        if new.rows is not None:
            return False
        oids = set(old.oids())
        return any(op.op == "update" and op.oid in oids for op in ws.ops)

    def _notify(self, state: _LiveState, reason: str, commit_ts: int,
                rec) -> None:
        for watch in list(state.watches.values()):
            update = LiveUpdate(watch.watch_id, watch.session_id,
                                state.schema_name, state.query.describe(),
                                reason, state.result, commit_ts)
            watch.updates.append(update)
            self.pushes += 1
            if rec.enabled:
                rec.inc("live.push", reason=reason)
            if watch.callback is not None:
                try:
                    watch.callback(update)
                except Exception:
                    self.callback_errors += 1
            for listener in list(self._listeners):
                try:
                    listener(update)
                except Exception:
                    self.callback_errors += 1

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "watches": len(self._watches),
                "queries": len(self._states),
                "registered": self.registered,
                "delta_applied": self.delta_applied,
                "reshapes": self.reshapes,
                "fallback_reexec": self.fallback_reexec,
                "pushes": self.pushes,
                "callback_errors": self.callback_errors,
            }

    def watch_status(self) -> list[dict[str, Any]]:
        """One row per live watch (``live.watches`` in the status tree)."""
        with self._lock:
            return [
                {
                    "watch": watch.watch_id,
                    "session": watch.session_id,
                    "schema": watch.schema_name,
                    "query": state.query.describe(),
                    "rows": len(state.result),
                    "deltas": state.deltas,
                    "fallbacks": state.fallbacks,
                    "last": state.last_reason,
                    "pending": len(watch.updates),
                }
                for state in self._states.values()
                for watch in state.watches.values()
            ]

    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for watch in self._watches.values():
                watch.active = False
            self._watches.clear()
            self._states.clear()
            self._listeners.clear()
