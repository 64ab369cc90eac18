"""Live queries: delta-maintained standing results with targeted push.

The result cache (:mod:`repro.core.query_cache`) invalidates a whole
entry on *any* commit to a closure class — correct, but for standing
queries it means constant re-execution of barely-changed windows. A
:class:`LiveQueryManager` keeps the results of **watched** queries
(``session.watch(schema, text)``) incrementally correct instead:

* every written object of a commit's structured write-set
  (:class:`~repro.geodb.database.CommitWriteSet`) is judged by the
  standing query's :meth:`~repro.geodb.query.Predicate.matches` — the
  evaluator the engine refines objects with;
* row deltas are applied to the maintained result: ordered results
  re-merge through the engine's total order ``(value is None, value,
  oid)``, aggregates recombine from per-object contributions, projected
  rows recompute only for the touched oids;
* the cached entry's versions advance in step
  (:meth:`~repro.core.query_cache.QueryResultCache.put_maintained`), so
  plain ``kernel.query`` lookups keep hitting;
* a ``live_update`` is delivered *only* to the watches whose result
  content actually changed — an insert that misses the predicate, or an
  update that leaves the projected row identical, is silent.

Fallback to a full re-execution happens only when a delta is
inapplicable:

* the entry missed a commit (version discontinuity — e.g. a commit
  landed while the watch was being registered);
* the class closure itself changed (a subclass appeared);
* the result was truncated by a ``LIMIT`` horizon and the delta moves a
  member out of (or reorders it within an unknowable part of) the
  window;
* an unordered ``LIMIT`` result's membership changes (its row order is
  plan-dependent, so no maintained order can be proven equal).

Correctness under races: write-set listeners run on committing threads
*outside* the commit lock, so deliveries can arrive out of order. The
manager serializes on its own lock and applies a write-set only when
the maintained versions equal the commit's ``prev_versions`` for every
touched class; newer state skips the (already-covered) commit, anything
else re-executes against current versions. Application is idempotent
per oid — membership is consulted before every mutation, and match
re-evaluation reads the *live* object — so the maintained result always
converges to what a fresh execution would return.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable

from .. import obs
from ..errors import SessionError
from ..geodb.database import CommitWriteSet, GeographicDatabase, WriteOp
from ..geodb.instances import GeoObject
from ..geodb.query import MISSING, Query, compile_path
from ..geodb.query_engine import (QueryEngine, QueryResult,
                                  finalize_aggregate)

if TYPE_CHECKING:  # pragma: no cover - import cycle with kernel/session
    from .kernel import GISKernel
    from .session import GISSession

_watch_ids = itertools.count(1)


class _Fallback(Exception):
    """Raised inside delta application when the delta is inapplicable."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


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
        #: ``"delta"`` (patched in place) or ``"reexec"`` (fallback)
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


class _LiveState:
    """The maintained result of one (schema, query fingerprint)."""

    __slots__ = (
        "schema_name", "query", "key", "geo_class", "closure",
        "closure_keys", "versions", "order", "proj_accessors",
        "agg_specs", "membership", "objects", "keys", "rows", "contribs",
        "agg_row", "complete", "base_report", "result", "watches",
        "deltas", "fallbacks", "last_reason", "last_commit_ts",
    )

    def __init__(self, schema_name: str, query: Query, key: tuple):
        self.schema_name = schema_name
        self.query = query
        self.key = key
        self.watches: dict[str, Watch] = {}
        self.deltas = 0
        self.fallbacks = 0
        self.last_reason = "build"
        self.last_commit_ts = 0

    # -- build / rebuild -------------------------------------------------

    def load(self, engine: QueryEngine, result: QueryResult,
             versions: dict[str, int]) -> None:
        """(Re)derive every maintained structure from a fresh execution."""
        db = engine.database
        schema = db.get_schema_object(self.schema_name)
        self.geo_class = schema.get_class(self.query.class_name)
        self.closure = engine.planner.class_closure(self.schema_name,
                                                    self.query)
        self.closure_keys = {(self.schema_name, c) for c in self.closure}
        self.versions = dict(versions)
        if self.query.order_by and not self.query.aggregates:
            self.order = QueryEngine._order_key(self.geo_class, self.query)
        else:
            self.order = None
        if self.query.projection is not None:
            # a projected ``oid`` is the object's oid, which every
            # projected row already carries
            self.proj_accessors = [
                (path, compile_path(path, self.geo_class))
                for path in self.query.projection if path != "oid"
            ]
        else:
            self.proj_accessors = None
        self.agg_specs = []
        if self.query.aggregates:
            for op, path in self.query.aggregates:
                accessor = (compile_path(path, self.geo_class)
                            if path is not None else None)
                self.agg_specs.append(
                    (op, path, f"{op}({path or '*'})", accessor))

        self.objects = list(result.objects)
        if self.agg_specs:
            self.membership = {obj.oid: True for obj in self.objects}
            self.keys = None
            self.rows = None
            self.contribs = [
                ({obj.oid: value for obj in self.objects
                  if (value := spec[3](obj)) is not MISSING
                  and value is not None}
                 if spec[3] is not None else None)
                for spec in self.agg_specs
            ]
            self.agg_row = dict(result.rows[0])
            self.complete = True
        else:
            key_fn = self.order[0] if self.order else None
            self.keys = ([key_fn(obj) for obj in self.objects]
                         if key_fn else None)
            self.membership = (
                {obj.oid: k for obj, k in zip(self.objects, self.keys)}
                if self.keys is not None
                else {obj.oid: True for obj in self.objects})
            self.rows = (list(result.rows)
                         if result.rows is not None else None)
            self.contribs = None
            self.agg_row = None
            # a result truncated at the LIMIT horizon cannot know what
            # lies beyond it; membership-shrinking deltas must re-execute
            self.complete = (self.query.limit is None
                             or len(self.objects) < self.query.limit)
        self.base_report = dict(result.report)
        self.result = result

    # -- publishing ------------------------------------------------------

    def publish(self, reason: str, commit_ts: int) -> None:
        """Build a fresh immutable :class:`QueryResult` snapshot."""
        limit = self.query.limit
        if self.agg_specs:
            objects = list(self.objects)
            rows: list[dict[str, Any]] | None = [dict(self.agg_row)]
        else:
            objects = (list(self.objects[:limit]) if limit is not None
                       else list(self.objects))
            rows = (list(self.rows[:limit]) if limit is not None
                    else list(self.rows)) if self.rows is not None else None
        report = dict(self.base_report)
        report["live"] = {
            "reason": reason,
            "deltas": self.deltas,
            "fallbacks": self.fallbacks,
            "commit_ts": commit_ts,
        }
        report["matches"] = len(objects)
        self.result = QueryResult(self.query, objects, rows, report)
        self.last_reason = reason
        self.last_commit_ts = commit_ts

    # -- delta application ----------------------------------------------

    def apply(self, ws: CommitWriteSet,
              db: GeographicDatabase) -> tuple[bool, bool]:
        """Apply one applicable write-set.

        Returns ``(changed, republish)``: ``changed`` when the published
        *content* changed (a push is owed), ``republish`` when the
        internal state mutated at all — an aggregate's membership can
        churn while its row stays identical (one member leaves, another
        enters), and the published snapshot's object set must still be
        refreshed even though no update is delivered. Raises
        :class:`_Fallback` when the delta cannot be proven equal to a
        re-execution.
        """
        changed = False
        agg_dirty = False
        for op in ws.ops:
            if (op.schema_name, op.class_name) not in self.closure_keys:
                continue
            if self.agg_specs:
                agg_dirty |= self._apply_aggregate_op(op, db)
            else:
                changed |= self._apply_row_op(op, db)
        if agg_dirty:
            old_row = self.agg_row
            self.agg_row = self._aggregate_row()
            changed = self.agg_row != old_row
        return changed, changed or agg_dirty

    def _resolve(self, op: WriteOp, db: GeographicDatabase):
        """(object, matches_now) for an insert/update op.

        The live extent object is the source of truth: if a later,
        already-applied commit deleted it the op degrades to a removal,
        and re-processing that later commit finds nothing left to do —
        idempotent convergence.
        """
        if op.op == "delete":
            return None, False
        obj = db.find_object(op.oid)
        if obj is None:
            return None, False
        return obj, bool(self.query.where.matches(obj, self.geo_class))

    # .. plain / ordered / projected results ..

    def _apply_row_op(self, op: WriteOp, db: GeographicDatabase) -> bool:
        obj, now_match = self._resolve(op, db)
        was_member = op.oid in self.membership
        if not was_member and not now_match:
            return False
        if was_member and not now_match:
            return self._remove_member(op.oid)
        if not was_member:
            return self._add_member(obj)
        return self._update_member(obj)

    def _add_member(self, obj: GeoObject) -> bool:
        limit = self.query.limit
        if self.order is None:
            if limit is not None and len(self.objects) + 1 > limit:
                # unordered LIMIT: which rows a fresh execution keeps is
                # plan-dependent; no maintained choice is provably equal
                raise _Fallback("unordered-limit-overflow")
            self.objects.append(obj)
            if self.rows is not None:
                self.rows.append(self._project_row(obj))
            self.membership[obj.oid] = True
            return True
        key = self.order[0](obj)
        pos = self._insert_pos(key)
        if not self.complete and limit is not None and pos >= limit:
            # beyond the truncation horizon of a known-incomplete
            # result: the stored top-k is unchanged
            return False
        self.objects.insert(pos, obj)
        self.keys.insert(pos, key)
        if self.rows is not None:
            self.rows.insert(pos, self._project_row(obj))
        self.membership[obj.oid] = key
        if not self.complete and limit is not None \
                and len(self.objects) > limit:
            dropped = self.objects.pop()
            self.keys.pop()
            if self.rows is not None:
                self.rows.pop()
            del self.membership[dropped.oid]
        # visible only when it lands inside the published window
        return limit is None or pos < limit

    def _remove_member(self, oid: str) -> bool:
        if not self.complete:
            raise _Fallback("limit-horizon-removal")
        pos = self._member_pos(oid)
        self.objects.pop(pos)
        if self.keys is not None:
            self.keys.pop(pos)
        if self.rows is not None:
            self.rows.pop(pos)
        del self.membership[oid]
        limit = self.query.limit
        return limit is None or pos < limit

    def _update_member(self, obj: GeoObject) -> bool:
        pos = self._member_pos(obj.oid)
        if self.order is not None:
            new_key = self.order[0](obj)
            if new_key != self.membership[obj.oid]:
                if not self.complete:
                    # the member may sink below the horizon and an
                    # unseen row take its place — only a re-execution
                    # can know
                    raise _Fallback("limit-horizon-reorder")
                self.objects.pop(pos)
                self.keys.pop(pos)
                row = self.rows.pop(pos) if self.rows is not None else None
                new_pos = self._insert_pos(new_key)
                self.objects.insert(new_pos, obj)
                self.keys.insert(new_pos, new_key)
                if self.rows is not None:
                    self.rows[new_pos:new_pos] = [row]
                self.membership[obj.oid] = new_key
                limit = self.query.limit
                if limit is not None and pos >= limit and new_pos >= limit:
                    return self._refresh_row(obj, new_pos)
                self._refresh_row(obj, new_pos)
                return True
        if self.rows is not None:
            return self._refresh_row(obj, pos)
        # bare-object result: the shared object's values changed in
        # place, so the content a session displays changed
        return True

    def _refresh_row(self, obj: GeoObject, pos: int) -> bool:
        if self.rows is None:
            return True
        new_row = self._project_row(obj)
        if new_row == self.rows[pos]:
            return False
        self.rows[pos] = new_row
        limit = self.query.limit
        return limit is None or pos < limit

    def _project_row(self, obj: GeoObject) -> dict[str, Any]:
        row: dict[str, Any] = {"oid": obj.oid}
        for path, accessor in self.proj_accessors:
            value = accessor(obj)
            row[path] = None if value is MISSING else value
        return row

    def _insert_pos(self, key) -> int:
        """Leftmost position for ``key`` in the (total) result order."""
        keys, descending = self.keys, self.order[1]
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if (keys[mid] < key) != descending:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _member_pos(self, oid: str) -> int:
        if self.keys is not None:
            pos = self._insert_pos(self.membership[oid])
            if pos < len(self.objects) and self.objects[pos].oid == oid:
                return pos
        for i, obj in enumerate(self.objects):
            if obj.oid == oid:
                return i
        raise _Fallback("membership-desync")   # pragma: no cover

    # .. aggregates ..

    def _apply_aggregate_op(self, op: WriteOp,
                            db: GeographicDatabase) -> bool:
        obj, now_match = self._resolve(op, db)
        was_member = op.oid in self.membership
        if not was_member and not now_match:
            return False
        if was_member and not now_match:
            pos = next(i for i, o in enumerate(self.objects)
                       if o.oid == op.oid)
            self.objects.pop(pos)
            del self.membership[op.oid]
            for contrib in self.contribs:
                if contrib is not None:
                    contrib.pop(op.oid, None)
            return True
        if not was_member:
            self.objects.append(obj)
            self.membership[obj.oid] = True
        dirty = not was_member
        for spec, contrib in zip(self.agg_specs, self.contribs):
            if contrib is None:
                continue
            value = spec[3](obj)
            if value is MISSING or value is None:
                dirty |= contrib.pop(obj.oid, None) is not None
            else:
                dirty |= contrib.get(obj.oid, MISSING) != value
                contrib[obj.oid] = value
        return dirty

    def _aggregate_row(self) -> dict[str, Any]:
        """Recombine the per-object contributions into one row.

        Finalized by the engine's :func:`finalize_aggregate` — the same
        SQL-style empty-input rules and order-independent float sums —
        so the row equals a fresh execution's exactly.
        """
        return {
            label: (len(self.membership) if op == "count" and path is None
                    else finalize_aggregate(op, contrib.values()))
            for (op, path, label, _accessor), contrib in zip(self.agg_specs,
                                                             self.contribs)
        }


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
        self.database: GeographicDatabase = kernel.database
        self.cache = kernel.query_cache
        self._lock = threading.RLock()
        self._states: dict[tuple, _LiveState] = {}
        self._watches: dict[str, Watch] = {}
        #: server-side listeners fanning updates out over the wire
        self._listeners: list[Callable[[LiveUpdate], None]] = []
        self._closed = False
        self.registered = 0
        self.delta_applied = 0
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
        whose :meth:`~Watch.result` is kept delta-maintained; every
        content change appends a :class:`LiveUpdate` to
        ``watch.updates`` (and invokes ``callback``, when given).
        """
        if self._closed:
            raise SessionError("live query manager is shut down")
        if isinstance(query, str):
            from ..geodb.query_language import parse_query

            query = parse_query(query)
        key = self.cache.make_key(schema_name, query)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = _LiveState(schema_name, query, key)
                self._execute_into(state)
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
        with self._lock:
            for state in list(self._states.values()):
                self._maintain(state, ws)

    def _maintain(self, state: _LiveState, ws: CommitWriteSet) -> None:
        touched = [c for (s, c) in ws.prev_versions
                   if (s, c) in state.closure_keys]
        if not touched:
            return
        rec = obs.RECORDER
        # the closure itself may have grown (a subclass created by this
        # very commit); recompute and compare before trusting the delta
        closure = self.cache.engine.planner.class_closure(
            state.schema_name, state.query)
        if closure != state.closure:
            self._reexecute(state, ws, "closure-change", rec)
            return
        if all(state.versions.get(c, 0) >= ws.commit_ts for c in touched):
            return      # already covered by a rebuild past this commit
        if any(state.versions.get(c, 0)
               != ws.prev_versions[(state.schema_name, c)]
               for c in touched):
            # discontinuity: this entry missed a commit in between
            self._reexecute(state, ws, "version-gap", rec)
            return
        try:
            changed, republish = state.apply(ws, self.database)
        except _Fallback as exc:
            self._reexecute(state, ws, exc.reason, rec)
            return
        for class_name in touched:
            state.versions[class_name] = ws.commit_ts
        state.deltas += 1
        self.delta_applied += 1
        if republish:
            state.publish("delta", ws.commit_ts)
        self.cache.put_maintained(state.key, state.result,
                                  dict(state.versions))
        if changed:
            self._notify(state, "delta", ws.commit_ts, rec)

    def _execute_into(self, state: _LiveState) -> None:
        """Full execution + state load, at pre-read versions.

        Versions are observed *before* executing, so the loaded content
        is at least as new as its claim — a concurrent commit then
        triggers a harmless re-execution rather than a silent skip.
        """
        versions = self.cache.observed_versions(state.schema_name,
                                                state.query)
        result = self.cache.engine.execute(state.schema_name, state.query)
        state.load(self.cache.engine, result, versions)
        self.cache.put_maintained(state.key, result, versions)

    def _reexecute(self, state: _LiveState, ws: CommitWriteSet,
                   reason: str, rec) -> None:
        old = state.result
        self._execute_into(state)
        state.fallbacks += 1
        self.fallback_reexec += 1
        if rec.enabled:
            rec.inc("live.fallback_reexec", reason=reason)
        changed = not self._content_equal(state.query, old, state.result)
        if not changed:
            # membership and rows agree — but an in-place update to a
            # member of a bare-object result is invisible to that
            # comparison (old and new share the mutated objects)
            oids = set(old.oids())
            changed = old.rows is None and any(
                op.op == "update" and op.oid in oids
                for op in ws.ops
                if (op.schema_name, op.class_name) in state.closure_keys)
        if changed:
            state.publish(f"reexec:{reason}", ws.commit_ts)
            self.cache.put_maintained(state.key, state.result,
                                      dict(state.versions))
            self._notify(state, "reexec", ws.commit_ts, rec)

    @staticmethod
    def _content_equal(query: Query, a: QueryResult,
                       b: QueryResult) -> bool:
        if query.order_by and not query.aggregates:
            return a.oids() == b.oids() and a.rows == b.rows
        if sorted(a.oids()) != sorted(b.oids()):
            return False
        if a.rows is None or query.aggregates:
            return a.rows == b.rows
        return ({r["oid"]: r for r in a.rows}
                == {r["oid"]: r for r in b.rows})

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
