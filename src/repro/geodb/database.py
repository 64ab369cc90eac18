"""The geographic database: schemas, extents, indexes, events, primitives.

This is the substrate everything else plugs into. It owns:

* the **schema catalog** (multiple named schemas of classes),
* the **extents** (live objects per class), persisted through the page
  store + buffer manager,
* **spatial indexes** (one R-tree per geometry attribute per class),
* a **reverse-reference index** for referential integrity,
* the **event bus** on which the exploratory primitives of §3.3
  (``Get_Schema``, ``Get_Class``, ``Get_Value``) and the mutation events
  are published — the hook the active mechanism listens on,
* **method implementations** callable from instance displays.

The three ``get_*`` primitives both publish their database event *and*
return the requested data; the paper's R1/R2 split (query rule +
customization rule per event) is realized by the rule engines subscribed
to the bus.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .. import obs
from ..active.event_bus import Event, EventBus, EventKind
from ..errors import (
    ObjectNotFoundError,
    ReplicationError,
    SchemaError,
    TransactionConflictError,
    TransactionError,
)
from ..spatial.geometry import BBox
from ..spatial.rtree import RTree
from .attr_index import HashIndex
from .buffer import BufferManager
from .instances import Extent, GeoObject
from .mvcc import VersionStore
from .raster import Raster, RasterStore
from .schema import GeoClass, Schema
from .storage import FilePager, HeapFile, MemoryPager, Pager, RecordId
from .transactions import Transaction, _Intent
from .wal import (REC_INTENT, REC_RASTER, LogShipper, WriteAheadLog,
                  verify_envelope)

if TYPE_CHECKING:
    from .columns import ClassColumns


class WriteOp:
    """One committed row operation: what happened, where, to which oid.

    Deliberately value-free — consumers that need the row's current
    state resolve the oid against the live extent, so the commit path
    never copies pre/post images for observers. An update also names
    the attributes it wrote: ``changed`` is the update's own change
    mapping, held by reference and read only for its keys.
    """

    __slots__ = ("op", "schema_name", "class_name", "oid", "changed")

    def __init__(self, op: str, schema_name: str, class_name: str,
                 oid: str, changed: dict[str, Any] | None = None):
        self.op = op                  # "insert" | "update" | "delete"
        self.schema_name = schema_name
        self.class_name = class_name
        self.oid = oid
        #: an update's change mapping, read for its keys (None otherwise)
        self.changed = changed if op == "update" else None

    def __repr__(self) -> str:          # pragma: no cover - debug aid
        return (f"WriteOp({self.op} {self.schema_name}.{self.class_name}"
                f" {self.oid})")


class CommitWriteSet:
    """The structured write-set of one committed transaction.

    The database's only post-commit change feed for views: live-query
    maintenance, window auto-refresh and wire pushes all read it. Built
    inside the commit critical section (so ``prev_versions`` is exactly
    the per-class commit version each touched class had *before* this
    commit bumped it to ``commit_ts``) and handed to write-set listeners
    after the durability wait, on the committing thread. A follower
    builds one per replicated batch the same way. Delta maintainers use
    ``prev_versions`` to decide whether a cached result is contiguous
    with this commit or has missed one in between.
    """

    __slots__ = ("commit_ts", "ops", "prev_versions", "session_id")

    def __init__(self, commit_ts: int, ops: list[WriteOp],
                 prev_versions: dict[tuple[str, str], int],
                 session_id: str | None = None):
        self.commit_ts = commit_ts
        self.ops = ops
        #: (schema, class) -> class version immediately before this commit
        self.prev_versions = prev_versions
        #: the committing transaction's session (None: no session, or a
        #: replicated batch)
        self.session_id = session_id

    def classes(self) -> set[tuple[str, str]]:
        return set(self.prev_versions)


class GeographicDatabase:
    """An object-oriented geographic DBMS instance.

    Parameters
    ----------
    name:
        Database name (e.g. ``"GEO"`` in the paper's §3.3 example).
    pager:
        Page backend; defaults to an in-memory pager.
    buffer_capacity:
        Number of buffer frames in front of the pager.
    """

    def __init__(self, name: str, pager: Pager | None = None,
                 buffer_capacity: int = 64,
                 wal: WriteAheadLog | None = None):
        self.name = name
        self.bus = EventBus()
        self.pager = pager or MemoryPager()
        self.buffer = BufferManager(self.pager, capacity=buffer_capacity)
        self.heap = HeapFile(self.pager)
        self.heap.attach_buffer(self.buffer)
        #: write-ahead log; when attached, commits are durable and
        #: :meth:`recover` replays the log tail on re-open.
        self.wal = wal
        #: set by :meth:`open`; plain constructor use leaves it None.
        self.catalog = None

        self._schemas: dict[str, Schema] = {}
        #: (schema, class) -> Extent
        self._extents: dict[tuple[str, str], Extent] = {}
        #: oid -> (schema, class)
        self._locations: dict[str, tuple[str, str]] = {}
        #: oid -> RecordId in the heap
        self._rids: dict[str, RecordId] = {}
        #: (schema, class, attr) -> RTree over oids
        self._spatial: dict[tuple[str, str, str], RTree] = {}
        #: (schema, class, attr) -> HashIndex over scalar values
        self._attr_indexes: dict[tuple[str, str, str], "HashIndex"] = {}
        #: target oid -> {(source oid, attr path)}
        self._incoming_refs: dict[str, set[tuple[str, str]]] = {}
        #: (schema, class, method) -> callable(db, obj, *args)
        self._methods: dict[tuple[str, str, str], Callable] = {}
        #: (schema, class) -> commit ts of the last commit touching the
        #: class; the one freshness key of derived state (column sets,
        #: query-result-cache entries, live watches)
        self._class_versions: dict[tuple[str, str], int] = {}
        #: callables invoked with a :class:`CommitWriteSet` after every
        #: commit's durability point (on the committing thread, outside
        #: the commit lock); empty list = zero capture overhead
        self._write_set_listeners: list[Callable[[CommitWriteSet], None]] = []
        #: write-set listener calls that raised (each is contained)
        self._listener_failures = 0
        #: lazily created columnar scan cache (repro.geodb.columns);
        #: _apply_batch patches its entries past every batch
        self._column_cache = None
        #: lazily created tiled raster store (see repro.geodb.raster);
        #: stays None until a raster payload is committed or adopted
        self._raster_store: RasterStore | None = None

        # -- replication (leader/follower) ------------------------------
        #: True for follower instances created by :meth:`follow` — all
        #: write paths are refused, state changes arrive only through
        #: :meth:`apply_replicated`
        self._read_only = False
        #: the follower's replication source (LocalReplicationSource /
        #: RemoteReplicationSource); None on leaders
        self._repl_source = None
        #: batches applied through :meth:`apply_replicated`
        self._applied_batches = 0
        #: snapshot re-bootstraps performed by :meth:`poll_replication`
        self._resyncs = 0

        # -- multi-version concurrency control (snapshot isolation) ----
        #: per-oid version chains; see repro.geodb.mvcc
        self._mvcc = VersionStore()
        #: commit timestamp of the most recently committed transaction
        self._commit_ts = 0
        #: txn_id -> snapshot timestamp, for every live transaction
        self._snapshots: dict[int, int] = {}
        #: (commit_ts, write set) per committed transaction, ascending,
        #: kept until the GC watermark passes it — the first-committer-
        #: wins validation window
        self._commit_log: list[tuple[int, frozenset[str]]] = []
        #: serializes begin-snapshot and the whole commit critical
        #: section (validate -> log -> apply -> version); reentrant so
        #: rule actions may open nested auto-commit transactions
        self._commit_lock = threading.RLock()
        #: seqlock guarding lock-free reads against the apply phase:
        #: odd while a batch is mutating the extents / locations /
        #: indexes, even otherwise. Written only by :meth:`_mutating`
        #: (under :attr:`_commit_lock`); read by :meth:`_read_stable`
        #: and the inline fast paths of :meth:`_snapshot_values` and
        #: ``Transaction.read``.
        self._mutation_seq = 0

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------

    def create_schema(self, name: str, doc: str = "") -> Schema:
        if name in self._schemas:
            raise SchemaError(f"schema {name!r} already exists")
        schema = Schema(name, doc=doc)
        self._schemas[name] = schema
        return schema

    def register_schema(self, schema: Schema) -> Schema:
        """Adopt an externally built :class:`Schema` object."""
        if schema.name in self._schemas:
            raise SchemaError(f"schema {schema.name!r} already exists")
        self._schemas[schema.name] = schema
        return schema

    def get_schema_object(self, name: str) -> Schema:
        if name not in self._schemas:
            raise SchemaError(f"database {self.name!r} has no schema {name!r}")
        return self._schemas[name]

    def schema_names(self) -> list[str]:
        return list(self._schemas)

    def register_method(self, schema_name: str, class_name: str,
                        method_name: str, impl: Callable) -> None:
        """Attach a Python implementation to a declared class method."""
        schema = self.get_schema_object(schema_name)
        methods = schema.effective_methods(class_name)
        if method_name not in methods:
            raise SchemaError(
                f"class {class_name!r} declares no method {method_name!r}"
            )
        self._methods[(schema_name, class_name, method_name)] = impl

    def call_method(self, obj: GeoObject, method_name: str, *args) -> Any:
        """Invoke a registered method implementation on an instance."""
        location = self.locate_object(obj.oid)
        if location is None:
            raise ObjectNotFoundError(f"object {obj.oid} is not in the database")
        schema_name, class_name = location
        schema = self.get_schema_object(schema_name)
        for cls in schema.ancestry(class_name):
            impl = self._methods.get((schema_name, cls.name, method_name))
            if impl is not None:
                return impl(self, obj, *args)
        raise SchemaError(
            f"no implementation registered for {class_name}.{method_name}"
        )

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------

    def extent(self, schema_name: str, class_name: str) -> Extent:
        self.get_schema_object(schema_name).get_class(class_name)
        key = (schema_name, class_name)
        if key not in self._extents:
            self._extents[key] = Extent(class_name)
        return self._extents[key]

    def extent_with_subclasses(self, schema_name: str,
                               class_name: str) -> Iterator[GeoObject]:
        """Objects of the class and of all its (transitive) subclasses."""
        schema = self.get_schema_object(schema_name)
        pending = [class_name]
        while pending:
            current = pending.pop()
            yield from self.extent(schema_name, current)
            pending.extend(schema.subclasses(current))

    def find_object(self, oid: str) -> GeoObject | None:
        location = self._locations.get(oid)
        if location is None:
            return None
        return self._extents[location].get(oid)

    def get_object(self, oid: str) -> GeoObject:
        obj = self.find_object(oid)
        if obj is None:
            raise ObjectNotFoundError(f"object {oid} does not exist")
        return obj

    def locate_object(self, oid: str) -> tuple[str, str] | None:
        return self._locations.get(oid)

    def count(self, schema_name: str, class_name: str) -> int:
        return len(self.extent(schema_name, class_name))

    # ------------------------------------------------------------------
    # Class versions and derived state
    # ------------------------------------------------------------------

    def class_version(self, schema_name: str, class_name: str) -> int:
        """Commit timestamp of the last commit that touched the class.

        ``0`` for classes never written through the commit path. It is
        the one freshness key of derived state: column sets, the
        kernel's query-result cache and live watches validate against
        it. Column sets are patched to the new version by every batch;
        result-cache entries and watches refresh lazily after it moves.
        Changes outside the commit path drop what they make stale
        (:meth:`load_from_storage` and :meth:`resync` reset the column
        cache).
        """
        return self._class_versions.get((schema_name, class_name), 0)

    def add_write_set_listener(
            self, listener: Callable[[CommitWriteSet], None]) -> None:
        """Subscribe to structured per-commit write-sets.

        Listeners run on the committing thread after the durability
        wait, before the post-commit event-bus publish — commit order is
        delivery order. A follower delivers each replicated batch the
        same way, on the thread that applied it. Capture is only
        performed while at least one listener is registered, so an idle
        database pays nothing. A listener that raises is counted in
        ``stats()["listener_failures"]``; the commit still returns.
        """
        if listener not in self._write_set_listeners:
            self._write_set_listeners.append(listener)

    def remove_write_set_listener(
            self, listener: Callable[[CommitWriteSet], None]) -> None:
        try:
            self._write_set_listeners.remove(listener)
        except ValueError:
            pass

    def deliver(self, consumer: Callable[..., Any], *args: Any) -> None:
        """Run one write-set consumer; one that raises is counted in
        ``stats()["listener_failures"]`` and the commit stands."""
        try:
            consumer(*args)
        except Exception:
            self._listener_failures += 1

    @property
    def column_cache(self):
        """The columnar scan cache (:class:`~repro.geodb.columns.ColumnCache`)."""
        if self._column_cache is None:
            from .columns import ColumnCache

            self._column_cache = ColumnCache(self)
        return self._column_cache

    # ------------------------------------------------------------------
    # Spatial index access
    # ------------------------------------------------------------------

    def spatial_index(self, schema_name: str, class_name: str,
                      attr: str) -> RTree:
        attrs = self._attributes(schema_name, class_name)
        if attr not in attrs or not attrs[attr].is_spatial():
            raise SchemaError(
                f"{class_name}.{attr} is not a geometry attribute"
            )
        key = (schema_name, class_name, attr)
        if key not in self._spatial:
            self._spatial[key] = RTree(max_entries=16)
        return self._spatial[key]

    def rebuild_spatial_index(self, schema_name: str, class_name: str,
                              attr: str) -> RTree:
        """Rebuild one R-tree wholesale by STR bulk-loading the extent.

        An index grown by per-commit quadratic-split inserts drifts
        toward overlapping nodes; STR packing rebuilds it with tight,
        non-overlapping leaves in O(n log n). Searches over the rebuilt
        tree return the same entries (order aside) — this is an
        administrative optimization, not a semantic change.
        """
        index = self.spatial_index(schema_name, class_name, attr)
        entries = [
            (obj.geometry(attr).bbox(), obj.oid)
            for obj in self.extent(schema_name, class_name)
            if obj.geometry(attr) is not None
        ]
        rebuilt = RTree.bulk_load(entries, max_entries=index.max_entries)
        self._spatial[(schema_name, class_name, attr)] = rebuilt
        return rebuilt

    # -- attribute (hash) indexes -----------------------------------------

    def create_attribute_index(self, schema_name: str, class_name: str,
                               attr: str) -> HashIndex:
        """Build (or return) a hash index over a scalar attribute.

        Existing extent members are indexed immediately; subsequent
        commits maintain the index. Equality (`=`, `in`) predicates on the
        attribute are then answered through it by the query engine.
        """
        attrs = self._attributes(schema_name, class_name)
        if attr not in attrs:
            raise SchemaError(f"{class_name!r} has no attribute {attr!r}")
        if attrs[attr].is_spatial():
            raise SchemaError(
                f"{class_name}.{attr} is spatial; use the R-tree instead"
            )
        key = (schema_name, class_name, attr)
        if key in self._attr_indexes:
            return self._attr_indexes[key]
        index = HashIndex(attr)
        for obj in self.extent(schema_name, class_name):
            index.insert(obj.get(attr), obj.oid)
        self._attr_indexes[key] = index
        return index

    def attribute_index(self, schema_name: str, class_name: str,
                        attr: str) -> HashIndex | None:
        """The hash index for an attribute, or None when not created."""
        return self._attr_indexes.get((schema_name, class_name, attr))

    def drop_attribute_index(self, schema_name: str, class_name: str,
                             attr: str) -> None:
        key = (schema_name, class_name, attr)
        if key not in self._attr_indexes:
            raise SchemaError(f"no attribute index on {class_name}.{attr}")
        del self._attr_indexes[key]

    def window_query(self, schema_name: str, class_name: str, attr: str,
                     window: BBox) -> list[GeoObject]:
        """Objects whose ``attr`` geometry bbox intersects ``window``."""
        index = self.spatial_index(schema_name, class_name, attr)
        out = []
        for oid in index.search(window):
            obj = self.find_object(oid)
            if obj is not None:
                out.append(obj)
        return out

    # ------------------------------------------------------------------
    # Exploratory primitives (§3.3): Get_Schema, Get_Class, Get_Value
    # ------------------------------------------------------------------

    def get_schema(self, schema_name: str, context: Any = None,
                   session_id: str | None = None) -> dict[str, Any]:
        """The ``Get_Schema`` primitive: schema metadata for browsing.

        Publishes a :class:`EventKind.GET_SCHEMA` event, then returns the
        schema description (class names, docs, hierarchy). ``session_id``
        tags the event with the originating session so the shared kernel
        can record decisions per session.
        """
        schema = self.get_schema_object(schema_name)
        self.bus.publish(Event(EventKind.GET_SCHEMA, schema_name,
                               context=context, session_id=session_id))
        return {
            "name": schema.name,
            "doc": schema.doc,
            "classes": [
                {
                    "name": cls.name,
                    "doc": cls.doc,
                    "superclass": cls.superclass,
                    "instance_count": len(self.extent(schema_name, cls.name)),
                }
                for cls in schema.classes()
            ],
            "hierarchy": schema.hierarchy(),
        }

    def get_class(self, schema_name: str, class_name: str,
                  context: Any = None, session_id: str | None = None
                  ) -> tuple[GeoClass, ClassColumns]:
        """The ``Get_Class`` primitive: a class definition plus extension.

        The extension is the class's column set
        (:meth:`~repro.geodb.columns.ColumnCache.for_class`), so it holds
        committed state only, as every scan does.
        """
        schema = self.get_schema_object(schema_name)
        geo_class = schema.get_class(class_name)
        self.bus.publish(
            Event(
                EventKind.GET_CLASS,
                class_name,
                payload={"schema": schema_name},
                context=context,
                session_id=session_id,
            )
        )
        return geo_class, self.column_cache.for_class(schema_name, class_name)

    def get_value(self, oid: str, context: Any = None,
                  session_id: str | None = None) -> GeoObject:
        """The ``Get_Value`` primitive: one instance for display."""
        obj = self.get_object(oid)
        schema_name, class_name = self._locations[oid]
        self.bus.publish(
            Event(
                EventKind.GET_VALUE,
                oid,
                payload={"schema": schema_name, "class": class_name},
                context=context,
                session_id=session_id,
            )
        )
        return obj

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self, session_id: str | None = None) -> Transaction:
        """Begin a snapshot-isolated transaction.

        ``session_id`` tags the commit's mutation events with the
        originating session (the shared kernel passes it through
        :meth:`repro.core.kernel.GISKernel.transaction`).
        """
        return Transaction(self, session_id=session_id)

    def scenario(self, schema_name: str):
        """Open a simulation-mode sandbox over one schema (§2.2)."""
        from .scenario import Scenario

        return Scenario(self, schema_name)

    @property
    def raster_store(self) -> RasterStore:
        """The tiled raster store, created on first use.

        Reads resolve :class:`~repro.geodb.raster.RasterRef` attribute
        values through it (``db.raster_store.read_window(ref, bbox,
        scale)``); writes never touch it directly — staging a
        :class:`~repro.geodb.raster.Raster` payload in a transaction is
        the only write path.
        """
        if self._raster_store is None:
            self._raster_store = RasterStore(self)
        return self._raster_store

    def _stage_rasters(self, intents: list[_Intent]) -> list:
        """Cut staged :class:`Raster` payloads into tile sets.

        Runs at the top of the commit critical section, *before* the
        intents are WAL-encoded: each payload is swapped for the
        :class:`RasterRef` of its freshly staged tile set, so the intent
        records (and every downstream consumer — heap records, MVCC
        versions, replication) only ever see the descriptor. Pure
        computation; no page is written until the apply phase.
        """
        writes = []
        for intent in intents:
            if intent.values is None:
                continue
            for name, value in intent.values.items():
                if isinstance(value, Raster):
                    write = self.raster_store.stage(value)
                    intent.values[name] = write.ref
                    writes.append(write)
        return writes

    def checkpoint(self) -> int:
        """Flush dirty buffer frames, sync the pager, and reset the WAL.

        Returns the number of frames written back. Once the heap pages are
        durable, every logged transaction is reflected in them, so the
        write-ahead log truncates to empty (a crash between the sync and
        the truncation only re-replays idempotent redo records). Old MVCC
        versions below the oldest live snapshot are garbage-collected on
        the way out.

        Runs under the commit lock: a checkpoint racing a worker-thread
        commit could otherwise flush half-applied pages to the heap
        before the WAL commit record is durable — a crash would then
        leave a partial transaction on disk with no commit record to
        complete it (and ``wal.checkpoint()`` would refuse while the
        racing commit's records are still pending).
        """
        with self._commit_lock:
            if self.wal is not None:
                # WAL rule: staged (group-commit) batches must be on
                # stable storage before the heap pages they cover.
                self.wal.force()
            if self._raster_store is not None:
                # The tile directory rides the same flush+sync as the
                # tile pages it references, so once the WAL truncates
                # below, the durable heap is raster-complete.
                self._raster_store.persist()
            flushed = self.buffer.flush()
            sync = getattr(self.pager, "sync", None)
            if callable(sync):
                sync()
            if self.wal is not None:
                self.wal.checkpoint()
            self.gc_versions()
        return flushed

    # -- MVCC: snapshots, version reads, garbage collection ----------------

    def _begin_snapshot(self, txn: Transaction) -> int:
        """Pin a new transaction to the current commit timestamp."""
        with self._commit_lock:
            ts = self._commit_ts
            self._snapshots[txn.txn_id] = ts
            return ts

    def _release_snapshot_id(self, txn_id: int) -> None:
        """Unpin a snapshot by transaction id.

        Also the target of each transaction's ``weakref.finalize``
        callback, so an abandoned (never committed/aborted) transaction
        releases its snapshot at garbage collection instead of pinning
        the GC watermark forever. Idempotent; takes the commit lock so
        a finalizer firing mid-``gc_versions`` cannot mutate
        ``_snapshots`` under the watermark ``min()`` scan (reentrant,
        so a finalizer triggered while this thread commits is fine).
        """
        with self._commit_lock:
            self._snapshots.pop(txn_id, None)

    def _snapshot_values(self, oid: str, ts: int) -> dict[str, Any] | None:
        """Attribute values of ``oid`` as of commit timestamp ``ts``.

        The chain-less case is the hot path (objects untouched since the
        last GC), so it checks the chain dict directly instead of going
        through :meth:`VersionStore.visible` — the read benchmark's
        ≤1.5x-of-seed gate leaves no room for an extra call.

        Lock-free but commit-safe: the mutation seqlock is sampled
        before the chain check and re-checked after the extent
        fall-through. A commit seeds a base version for every chain-less
        oid in its write set *before* the seqlock goes odd and the
        extents mutate, so either the chain routes this read to the
        pre-commit version, or the seqlock re-check catches the
        transition and the read goes to :meth:`_read_stable`.
        """
        seq = self._mutation_seq
        if oid in self._mvcc._chains:
            version = self._mvcc.visible(oid, ts)
            if version is None or version.values is None:
                return None
            return dict(version.values)
        obj = self.find_object(oid)
        values = None if obj is None else obj.values()
        if self._mutation_seq == seq:
            return values
        return self._read_stable(lambda: self._version_values(oid, ts))

    def _version_values(self, oid: str, ts: int) -> dict[str, Any] | None:
        """One unvalidated :meth:`_snapshot_values` read."""
        version = self._mvcc.visible(oid, ts)
        if version is VersionStore.UNKNOWN:
            obj = self.find_object(oid)
            return None if obj is None else obj.values()
        if version is None or version.values is None:
            return None
        return dict(version.values)

    def _snapshot_locate(self, oid: str, ts: int) -> tuple[str, str] | None:
        """(schema, class) of ``oid`` as of ``ts``, or None if absent."""
        def locate():
            version = self._mvcc.visible(oid, ts)
            if version is VersionStore.UNKNOWN:
                return self._locations.get(oid)
            if version is None or version.values is None:
                return None
            return (version.schema_name, version.class_name)

        return self._read_stable(locate)

    def _read_stable(self, read: Callable[[], Any]) -> Any:
        """The reader half of the seqlock: ``read()`` of a stable state.

        Every lock-free reader of the live extents, locations and
        indexes that cannot rely on seeded chains alone comes here. Up
        to 8 rounds: a round is skipped while a batch is applying (odd
        seqlock) or when ``read`` trips over a concurrent resize
        (``RuntimeError``), and its result is accepted only if the
        seqlock did not move. After 8 rounds ``read`` runs under the
        commit lock, so it waits for the batch instead of giving up.
        """
        for __ in range(8):
            seq = self._mutation_seq
            if seq & 1:
                continue
            try:
                result = read()
            except RuntimeError:
                continue
            if self._mutation_seq == seq:
                return result
        with self._commit_lock:
            return read()

    def oldest_snapshot(self) -> int:
        """The GC watermark: the oldest live snapshot (or the current ts)."""
        with self._commit_lock:
            return min(self._snapshots.values(), default=self._commit_ts)

    def gc_versions(self) -> int:
        """Drop versions below the watermark; returns how many were freed.

        Runs automatically from :meth:`checkpoint`; callable directly by
        long-lived servers that checkpoint rarely.
        """
        with self._commit_lock:
            watermark = min(self._snapshots.values(), default=self._commit_ts)
            reclaimed = self._mvcc.gc(watermark)
            # Commit-log entries at or below the watermark can no longer
            # conflict with any live or future snapshot.
            self._commit_log = [
                entry for entry in self._commit_log if entry[0] > watermark
            ]
        if reclaimed and obs.RECORDER.enabled:
            obs.RECORDER.inc("mvcc.gc_reclaimed", reclaimed)
        return reclaimed

    # -- durability (write-ahead log) --------------------------------------

    def attach_wal(self, wal: WriteAheadLog) -> WriteAheadLog:
        """Route subsequent commits through a write-ahead log."""
        self.wal = wal
        # WAL rule for group commit: a stolen dirty heap page must never
        # reach the pager ahead of the (possibly still staged) log batch
        # that covers it.
        self.buffer.pre_steal_hook = wal.force
        return wal

    @classmethod
    def open(cls, path: str, name: str | None = None,
             buffer_capacity: int = 64, wal_path: str | None = None,
             sync_mode: str = "fsync") -> "GeographicDatabase":
        """Open (or create) a file-backed database with crash recovery.

        Loads the schemas persisted in the metadata catalog, rebuilds the
        in-memory state from the heap, then replays the write-ahead log
        tail (``<path>.wal`` unless ``wal_path`` overrides it) so that a
        crash after a commit fsync loses nothing. Method implementations
        are not persisted; re-register them after opening. The catalog is
        exposed as ``db.catalog`` for saving schemas before close.
        """
        from .catalog import KIND_SCHEMA, MetadataCatalog

        db = cls(
            name or os.path.splitext(os.path.basename(path))[0] or "GEO",
            pager=FilePager(path), buffer_capacity=buffer_capacity,
        )
        catalog = MetadataCatalog(db)
        db.catalog = catalog
        for schema_name in catalog.names(KIND_SCHEMA):
            db.register_schema(catalog.load_schema(schema_name))
        db.load_from_storage()
        db.attach_wal(
            WriteAheadLog.open(wal_path or path + ".wal",
                               page_size=db.pager.page_size,
                               sync_mode=sync_mode)
        )
        db.recover()
        return db

    def recover(self) -> int:
        """Replay committed transactions from the WAL tail; returns the count.

        Call after :meth:`load_from_storage` on a freshly opened database
        (:meth:`open` does both). Replay is idempotent: intents whose
        effect already reached the heap before the crash are skipped, so
        a partially flushed committed transaction is completed rather
        than doubled. Ends with a checkpoint that folds the recovered
        state into the heap and resets the log.
        """
        if self._read_only:
            raise ReplicationError(
                f"database {self.name!r} is a read-only follower; it has "
                "no log to recover — re-follow its leader instead"
            )
        if self.wal is None:
            return 0
        replayed = 0
        with self._commit_lock:
            for records in self.wal.replay():
                self._replay_batch(records, self._batch_commit_ts(records))
                replayed += 1
        self.wal.recovered_txns += replayed
        if self.wal.pager.page_count:
            # Always fold the replayed state into the heap and truncate:
            # a stale (possibly torn) tail left in place would sit in
            # front of future batches and hide them from the next replay.
            self.checkpoint()
        return replayed

    def _replay_batch(self, records: list[dict[str, Any]], commit_ts: int
                      ) -> tuple[list[_Intent], CommitWriteSet | None]:
        """Redo one logged batch at ``commit_ts`` (caller locks).

        Crash recovery and follower replication both come here: tile
        records are redone into the raster store (they precede the
        intents that reference them), the intent records are decoded
        once, and :meth:`_apply_batch` applies them idempotently.
        Returns the intents and the captured write-set.
        """
        intents = []
        for doc in records:
            kind = doc.get("t")
            if kind == REC_RASTER:
                self.raster_store.replay_tile(doc)
            elif kind == REC_INTENT:
                intents.append(_Intent(
                    doc["op"], doc["schema"], doc["class"], doc["oid"],
                    self._decode_record_values(doc["schema"], doc["class"],
                                               doc["values"])))
        write_set, __ = self._apply_batch(
            commit_ts, intents, seed=bool(self._snapshots), replay=True)
        return intents, write_set

    def _batch_commit_ts(self, records: list[dict[str, Any]]) -> int:
        """Commit timestamp of one replayed WAL batch.

        Logs written before commit records carried timestamps lack the
        ``ts`` field; those batches are assigned the next free timestamp
        so recovered versions still land in commit order.
        """
        for doc in records:
            if doc.get("t") == "C" and doc.get("ts") is not None:
                return doc["ts"]
        return self._commit_ts + 1

    def _encode_intent(self, intent: _Intent) -> dict[str, Any]:
        """A JSON-safe redo record for one staged mutation."""
        return {
            "op": intent.op,
            "schema": intent.schema_name,
            "class": intent.class_name,
            "oid": intent.oid,
            "values": self._encode_values(intent.schema_name,
                                          intent.class_name, intent.values),
        }

    # ------------------------------------------------------------------
    # Replication: leader-side shipping, follower mode
    # ------------------------------------------------------------------

    def enable_shipping(self, retain: int = 256) -> LogShipper:
        """Attach (or return) the WAL's :class:`LogShipper`.

        ``retain`` bounds how many durable batches stay pollable; a
        follower that falls further behind gets a snapshot handoff. The
        shipper's ``base_lsn`` is seeded with the current commit
        timestamp under the commit lock, so a follower bootstrapped from
        :meth:`replication_snapshot` can always resume from its LSN.
        """
        if self._read_only:
            raise ReplicationError(
                f"database {self.name!r} is a follower; followers do not "
                "ship their log (chain replication is not supported)"
            )
        if self.wal is None:
            raise ReplicationError(
                f"database {self.name!r} has no write-ahead log; attach "
                "one before enabling log shipping"
            )
        with self._commit_lock:
            if self.wal.shipper is None:
                self.wal.attach_shipper(
                    LogShipper(base_lsn=self._commit_ts, retain=retain)
                )
            return self.wal.shipper

    def replication_snapshot(self) -> dict[str, Any]:
        """A consistent full-state export for follower bootstrap.

        Taken under the commit lock, so the object set, the class
        versions and the LSN all describe the same commit point. Values
        are schema-encoded (JSON-safe), making the document wire-ready.
        """
        with self._commit_lock:
            objects = []
            for extent in self._extents.values():
                for obj in extent:
                    objects.append(self._record_for(obj))
            return {
                "name": self.name,
                "lsn": self._commit_ts,
                "schemas": [s.describe() for s in self._schemas.values()],
                "objects": objects,
                "class_versions": [
                    [s, c, v] for (s, c), v in self._class_versions.items()
                ],
                "rasters": (self._raster_store.export()
                            if self._raster_store is not None else []),
            }

    @classmethod
    def follow(cls, source, name: str | None = None,
               buffer_capacity: int = 64) -> "GeographicDatabase":
        """Create a read-only follower bootstrapped from ``source``.

        ``source`` is a replication source (see
        :mod:`repro.geodb.replication`): ``snapshot()`` yields the
        bootstrap document, ``poll(cursor)`` yields shipped batches.
        The follower replays batches idempotently at their logged commit
        timestamps, so its MVCC history matches the leader's and any
        read-only transaction on it is snapshot-consistent with the
        leader at the follower's current LSN. Drive it with
        :meth:`poll_replication`.
        """
        snapshot = source.snapshot()
        db = cls(name or f"{snapshot.get('name', 'GEO')}-replica",
                 buffer_capacity=buffer_capacity)
        db._repl_source = source
        db._install_snapshot(snapshot)
        db._read_only = True
        return db

    def _install_snapshot(self, doc: dict[str, Any]) -> int:
        """Adopt a snapshot document's schemas and objects (caller is a
        fresh or just-reset follower)."""
        for schema_desc in doc.get("schemas", []):
            if schema_desc["name"] not in self._schemas:
                self.register_schema(Schema.from_description(schema_desc))
        # Tiles first: objects below may carry RasterRefs into them.
        for tile_doc in doc.get("rasters", []):
            self.raster_store.replay_tile(tile_doc)
        for record in doc.get("objects", []):
            self._adopt(record, None)
        self._rebuild_indexes()
        for schema_name, class_name, version in doc.get("class_versions", []):
            self._class_versions[(schema_name, class_name)] = version
        self._commit_ts = doc["lsn"]
        return len(doc.get("objects", []))

    def apply_replicated(self, envelope: dict[str, Any]) -> bool:
        """Apply one shipped batch; returns False when already applied.

        The follower half of log shipping. The envelope is verified
        first (checksum, exactly one timestamped commit record) — a
        damaged frame is refused with :class:`ReplicationError` and the
        follower keeps its last consistent state. Replay is idempotent
        by LSN: a batch at or below the applied LSN is skipped outright,
        so a follower that crashed mid-stream and re-follows never
        records duplicate versions. The batch goes through the same
        :meth:`_apply_batch` and :meth:`_publish_commit` as a local
        commit, so concurrent read-only transactions on the follower
        stay snapshot-consistent throughout, and its events carry
        ``replicated: True``.
        """
        records = verify_envelope(envelope)
        lsn = envelope["lsn"]
        with self._commit_lock:
            if lsn <= self._commit_ts:
                return False
            if lsn > self._commit_ts + 1:
                raise ReplicationError(
                    f"replication gap: follower {self.name!r} is at lsn "
                    f"{self._commit_ts} but the next shipped batch is "
                    f"{lsn}; re-bootstrap from a snapshot"
                )
            intents, write_set = self._replay_batch(records, lsn)
            self._applied_batches += 1
        # Post-apply delivery mirrors the leader's post-commit phase, so
        # a kernel serving sessions off this follower maintains watches,
        # refreshes windows and pushes exactly like on the leader. Every
        # record of a batch carries the leader's transaction id.
        self._publish_commit(intents, write_set, lsn, records[0].get("txn"),
                             replicated=True)
        return True

    def poll_replication(self, max_batches: int = 64) -> int:
        """Pull and apply pending batches from the follower's source.

        Returns the number of batches applied. Handles the snapshot
        handoff transparently: when the source reports the cursor has
        fallen behind the retained window (leader checkpointed/evicted
        past us), the follower re-bootstraps from a fresh snapshot and
        resumes. Updates the ``repl.lag_records`` gauge.
        """
        source = self._require_follower()
        applied = 0
        while True:
            result = source.poll(self._commit_ts, max_batches=max_batches)
            if result.get("snapshot_required"):
                self.resync()
                self._resyncs += 1
                continue
            batches = result.get("batches", [])
            for envelope in batches:
                if self.apply_replicated(envelope):
                    applied += 1
            if len(batches) < max_batches:
                lag = max(result.get("lsn", self._commit_ts)
                          - self._commit_ts, 0)
                if obs.RECORDER.enabled:
                    obs.RECORDER.gauge("repl.lag_records", lag,
                                       follower=self.name)
                return applied

    def resync(self) -> int:
        """Re-bootstrap the follower from a fresh leader snapshot.

        The snapshot-handoff path for a follower that outlived the
        shipper's retention window. State is cleared *in place* (live
        transactions alias the extent/chain dicts) under the commit lock
        and seqlock; snapshots pinned before the resync are abandoned —
        their reads resolve against the new bootstrap state, which is
        the only consistent state the follower still has.
        """
        source = self._require_follower()
        snapshot = source.snapshot()
        with self._commit_lock, self._mutating():
            for extent in self._extents.values():
                extent._objects.clear()
            self._locations.clear()
            self._rids.clear()
            self._spatial.clear()
            self._mvcc._chains.clear()
            self._commit_log.clear()
            self._column_cache = None
            self.heap = HeapFile(self.pager)
            self.heap.attach_buffer(self.buffer)
            # Drop the raster directory with the rest of the state;
            # the snapshot's tile docs rebuild it from scratch.
            self._raster_store = None
            return self._install_snapshot(snapshot)

    @property
    def replication_lsn(self) -> int:
        """The commit timestamp this instance has applied up to.

        On a leader this is simply the current commit timestamp; on a
        follower it is the LSN of the last replicated batch (or the
        bootstrap snapshot).
        """
        return self._commit_ts

    def replication_lag(self) -> int | None:
        """Records behind the source's shipped head; None on leaders."""
        if self._repl_source is None:
            return None
        head = self._repl_source.head_lsn()
        return max(head - self._commit_ts, 0)

    def replication_status(self) -> dict[str, Any]:
        """LSN/lag/shipping summary for CLI and net ``repl_status``."""
        status: dict[str, Any] = {
            "name": self.name,
            "role": "follower" if self._read_only else "leader",
            "lsn": self.replication_lsn,
        }
        if self._read_only:
            status["lag"] = self.replication_lag()
            status["applied_batches"] = self._applied_batches
            status["resyncs"] = self._resyncs
        elif self.wal is not None and self.wal.shipper is not None:
            status["shipper"] = self.wal.shipper.stats()
        return status

    def _require_follower(self):
        if self._repl_source is None:
            raise ReplicationError(
                f"database {self.name!r} is not a follower (no "
                "replication source attached)"
            )
        return self._repl_source

    def _require_writable(self, op: str) -> None:
        """Raise on any write path of a read-only follower."""
        if self._read_only:
            raise TransactionError(
                f"cannot {op} on {self.name!r}: read-only follower "
                "(writes go to the leader; use read_preference='leader')"
            )

    def _attributes(self, schema_name: str, class_name: str) -> dict:
        """A class's effective attributes by name."""
        schema = self.get_schema_object(schema_name)
        return {a.name: a for a in schema.effective_attributes(class_name)}

    def _encode_values(self, schema_name: str, class_name: str,
                       values: dict[str, Any] | None
                       ) -> dict[str, Any] | None:
        """Schema-encode attribute values (JSON-safe): the inverse of
        :meth:`_decode_record_values`, for heap records, logged intents
        and snapshot objects."""
        if values is None:
            return None
        attrs = self._attributes(schema_name, class_name)
        return {
            attr: (None if value is None else attrs[attr].type.encode(value))
            for attr, value in values.items()
        }

    def _decode_record_values(self, schema_name: str, class_name: str,
                              values: dict[str, Any] | None
                              ) -> dict[str, Any] | None:
        """Decode stored attribute values: heap records, logged intents,
        shipped batches and snapshot objects all use this one decoder."""
        if values is None:
            return None
        attrs = self._attributes(schema_name, class_name)
        return {
            attr: (None if raw is None else attrs[attr].type.decode(raw))
            for attr, raw in values.items()
        }

    def close(self) -> None:
        """Checkpoint and release a file-backed database and its WAL."""
        self.checkpoint()
        close = getattr(self.pager, "close", None)
        if callable(close):
            close()
        if self.wal is not None:
            self.wal.close()

    def insert(self, schema_name: str, class_name: str, values: dict[str, Any],
               oid: str | None = None, context: Any = None) -> str:
        """Single-statement insert (auto-commit)."""
        with self.transaction() as txn:
            new_oid = txn.insert(schema_name, class_name, values, oid=oid)
        return new_oid

    def update(self, oid: str, changes: dict[str, Any], context: Any = None) -> None:
        with self.transaction() as txn:
            txn.update(oid, changes)

    def delete(self, oid: str, context: Any = None) -> None:
        with self.transaction() as txn:
            txn.delete(oid)

    # -- commit machinery (called by Transaction) --------------------------

    def _commit_transaction(self, txn: Transaction,
                            wait_durable: bool = True) -> int | None:
        """Commit ``txn``; returns a WAL durability ticket or ``None``.

        With ``wait_durable=True`` (the default) the call blocks in the
        WAL's group commit until the transaction's log batch is covered
        by a barrier, so ``commit()`` keeps its historical meaning:
        returned means durable. ``wait_durable=False`` returns the
        ticket instead — the commit is applied and visible but not yet
        guaranteed on disk until :meth:`WriteAheadLog.wait_durable` is
        called with the ticket (servers overlap that wait with other
        work; see :meth:`Transaction.commit`).
        """
        intents = txn.intents
        if intents:
            self._require_writable("commit writes")
        rec = obs.RECORDER
        ticket: int | None = None
        with rec.span("txn.commit", txn=txn.txn_id, intents=len(intents)):
            with self._commit_lock:
                commit_ts, ticket, write_set_delta = self._commit_locked(
                    txn, intents, rec)
            txn.commit_ts = commit_ts
            if txn._on_commit is not None:
                txn._on_commit(commit_ts)
            # The durability wait runs *outside* the commit lock: while
            # this committer waits on the group barrier, other sessions
            # stage their own commits, and one leader fsyncs for all of
            # them — commit throughput scales with connection count.
            if ticket is not None and wait_durable:
                self.wal.wait_durable(ticket)
                ticket = None
            self._publish_commit(intents, write_set_delta, commit_ts,
                                 txn.txn_id, txn.session_id)
        return ticket

    def _commit_locked(self, txn: Transaction, intents: list[_Intent],
                       rec) -> tuple[int, int | None, CommitWriteSet | None]:
        """The serialized commit critical section.

        The local-only steps around :meth:`_apply_batch`: validation,
        integrity checks, WAL logging and the commit record, the
        no-steal scope and the commit log. Returns ``(commit_ts,
        durability_ticket, write_set_delta)``; the ticket is ``None``
        when the WAL already ran its barrier inline (group commit off,
        or no WAL attached), and the delta is ``None`` unless write-set
        listeners are registered."""
        write_set = frozenset(intent.oid for intent in intents)
        # Phase 0: first-committer-wins validation. Any transaction that
        # committed after our snapshot and wrote one of our oids makes
        # the staged intents (computed against the snapshot) stale.
        contended = self._conflicting_oids(txn.snapshot_ts, write_set)
        if contended:
            if rec.enabled:
                rec.inc("txn.conflicts")
            raise TransactionConflictError(
                f"transaction {txn.txn_id} (snapshot {txn.snapshot_ts}) "
                f"lost first-committer-wins on {sorted(contended)}",
                oids=sorted(contended),
            )
        # Phase 1: referential integrity over the staged end state.
        self._check_references(txn)
        # Phase 2: pre-commit events let integrity rules veto the commit.
        for intent in intents:
            self.bus.publish(
                Event(
                    EventKind(intent.op),
                    intent.oid,
                    payload={
                        "schema": intent.schema_name,
                        "class": intent.class_name,
                        "values": intent.values,
                        "phase": "validate",
                        "txn": txn.txn_id,
                        "staged": txn.staged_value(intent.oid),
                    },
                    session_id=txn.session_id,
                )
            )
        # Phase 3: log, then apply. The redo records are buffered in the
        # WAL and forced by the commit record in one barrier — the
        # durability point, reached inside the apply phase once every
        # intent applied. The buffer's no-steal scope keeps every page
        # the apply dirties (including a rollback's restorations) away
        # from the pager until then, so a crash anywhere in here leaves
        # the heap at the pre-transaction state and recovery sees no
        # commit record. A failed attempt publishes no commit timestamp,
        # so the ts is reused.
        commit_ts = self._commit_ts + 1
        # Raster payloads are cut into tile sets first, swapping each for
        # its RasterRef, so the intents encoded below carry descriptors.
        raster_writes = self._stage_rasters(intents)
        wal = self.wal
        log_commit = None
        if wal is not None:
            wal.log_begin(txn.txn_id)
            for write in raster_writes:
                for doc in write.wal_docs():
                    wal.log_raster(txn.txn_id, doc)
            for intent in intents:
                wal.log_intent(txn.txn_id, self._encode_intent(intent))
            # With group commit the barrier runs after the commit lock is
            # released (see _commit_transaction); only pages are written.
            log_commit = partial(
                wal.log_commit_staged if getattr(wal, "group_commit", False)
                else wal.log_commit, txn.txn_id, commit_ts=commit_ts)
        # Seeding is skipped when no other snapshot is live: new
        # transactions serialize on the commit lock at begin, so no
        # reader can exist that the chain would need to protect.
        other_snapshots = len(self._snapshots)
        if txn.txn_id in self._snapshots:
            other_snapshots -= 1
        with self.buffer.no_steal():
            try:
                write_set_delta, ticket = self._apply_batch(
                    commit_ts, intents, seed=other_snapshots > 0,
                    session_id=txn.session_id, rasters=raster_writes,
                    log_commit=log_commit)
            except Exception:
                if wal is not None:
                    wal.log_abort(txn.txn_id)
                raise
        if write_set:
            self._commit_log.append((commit_ts, write_set))
        return commit_ts, ticket, write_set_delta

    @contextmanager
    def _mutating(self):
        """The writer half of the seqlock: odd for the block's duration.

        The one place :attr:`_mutation_seq` moves. Callers hold the
        commit lock.
        """
        self._mutation_seq += 1
        try:
            yield
        finally:
            self._mutation_seq += 1

    def _apply_batch(self, commit_ts: int, intents: list[_Intent], *,
                     seed: bool, session_id: str | None = None,
                     replay: bool = False, rasters=(),
                     log_commit: Callable[[], Any] | None = None
                     ) -> tuple[CommitWriteSet | None, Any]:
        """Apply one committed batch at ``commit_ts`` (caller locks).

        The one path by which local commits, replicated batches and WAL
        recovery change state, so rules and derived state see every
        change the same way wherever it came from:

        1. with ``seed``, give every chain-less written oid a base
           version (its pre-image, or a tombstone for a fresh insert),
           so lock-free snapshot readers resolve it through the chain
           instead of the mid-apply — or rolled-back — extent;
        2. make the seqlock odd, so readers of anything else retry;
        3. apply staged raster tile sets (``rasters``), then each
           intent — with ``replay``, one whose effect is already present
           is skipped, which makes redo idempotent — then
           ``log_commit`` (a local commit's WAL commit record, whose
           result is the durability ticket). Any failure runs the undo
           journal, restoring the extents, heap, indexes and reference
           maps, and re-raises; seeded base versions stay, as they
           equal the restored state;
        4. publish ``commit_ts``, bump the version of every touched
           class (the result cache and live watches refresh on it),
           record one MVCC version per written oid, and capture the
           :class:`CommitWriteSet` if anyone listens;
        5. make the seqlock even, then patch every cached column set of
           a touched class past the batch: a copy-on-write successor
           at the new class version replaces it
           (:meth:`~repro.geodb.columns.ColumnCache.advance`), so the
           next scan does not rebuild the class.

        Returns ``(write-set or None, ticket)`` for
        :meth:`_publish_commit`.
        """
        if seed:
            self._seed_write_set(intents)
        undo: list[Callable[[], None]] = []
        ticket = None
        with self._mutating():
            try:
                for write in rasters:
                    self.raster_store.apply(write, undo)
                for intent in intents:
                    op = intent.op
                    if replay and (op == "insert") == (
                            intent.oid in self._locations):
                        continue
                    if op == "insert":
                        self._apply_insert(intent, undo)
                    elif op == "update":
                        self._apply_update(intent, undo)
                    else:
                        self._apply_delete(intent, undo)
                if log_commit is not None:
                    ticket = log_commit()
            except Exception:
                while undo:
                    undo.pop()()
                raise
            self._commit_ts = max(self._commit_ts, commit_ts)
            #: (schema, class) -> class version before this batch
            prev_versions: dict[tuple[str, str], int] = {}
            for intent in intents:
                key = (intent.schema_name, intent.class_name)
                if key not in prev_versions:
                    prev = prev_versions[key] = self._class_versions.get(
                        key, 0)
                    self._class_versions[key] = max(prev, commit_ts)
            self._record_versions(commit_ts, intents)
            write_set = None
            if intents and self._write_set_listeners:
                write_set = CommitWriteSet(
                    commit_ts,
                    [WriteOp(i.op, i.schema_name, i.class_name, i.oid,
                             i.values) for i in intents],
                    prev_versions, session_id)
        if self._column_cache is not None:
            self._column_cache.advance(intents, prev_versions)
        return write_set, ticket

    def _publish_commit(self, intents: list[_Intent],
                        write_set: CommitWriteSet | None, commit_ts: int,
                        txn_id, session_id: str | None = None,
                        replicated: bool = False) -> None:
        """The post-commit step of every applied batch.

        Runs on the committing (or applying) thread after the commit
        lock is released and, for a local commit, after the durability
        wait: subscribers only ever observe fully committed versions,
        and the fan-out does not extend the critical section other
        writers serialize on. Write-set listeners (live query
        maintenance, window refresh, wire pushes) run first, so a rule
        reacting to the commit-phase event already observes
        maintained standing results.
        """
        if write_set is not None:
            for listener in list(self._write_set_listeners):
                self.deliver(listener, write_set)
        for intent in intents:
            payload = {
                "schema": intent.schema_name,
                "class": intent.class_name,
                "values": intent.values,
                "phase": "commit",
                "txn": txn_id,
                "ts": commit_ts,
            }
            if replicated:
                payload["replicated"] = True
            self.bus.publish(Event(EventKind(intent.op), intent.oid,
                                   payload=payload, session_id=session_id))

    def _conflicting_oids(self, snapshot_ts: int,
                          write_set: frozenset[str]) -> set[str]:
        """Oids in ``write_set`` written by commits after ``snapshot_ts``."""
        if not write_set:
            return set()
        contended: set[str] = set()
        for ts, oids in reversed(self._commit_log):
            if ts <= snapshot_ts:
                break
            contended |= oids & write_set
        return contended

    def _seed_write_set(self, intents: list[_Intent]) -> None:
        """Seed a base version for every chain-less oid ``intents`` write.

        Runs *before* the apply phase mutates the extents, so concurrent
        lock-free snapshot readers resolve these oids through the
        version chain (the pre-image at timestamp 0, or a base tombstone
        for an oid being freshly inserted) instead of the mid-commit —
        and possibly later rolled-back — extent.
        """
        last_intent = {intent.oid: intent for intent in intents}
        for oid, intent in last_intent.items():
            if self._mvcc.has_chain(oid):
                continue
            obj = self.find_object(oid)
            if obj is None:
                self._mvcc.seed_base(oid, None, intent.schema_name,
                                     intent.class_name)
            else:
                schema_name, class_name = self._locations[oid]
                self._mvcc.seed_base(oid, obj.values(),
                                     schema_name, class_name)

    def _record_versions(self, commit_ts: int,
                         intents: list[_Intent]) -> None:
        """Append one version per oid ``intents`` write at ``commit_ts``."""
        last_intent = {intent.oid: intent for intent in intents}
        for oid, intent in last_intent.items():
            obj = self.find_object(oid)
            if obj is None:
                self._mvcc.record(oid, commit_ts, None,
                                  intent.schema_name, intent.class_name)
            else:
                schema_name, class_name = self._locations[oid]
                self._mvcc.record(oid, commit_ts, obj.values(),
                                  schema_name, class_name)

    def _check_references(self, txn: Transaction) -> None:
        for intent in txn.intents:
            if intent.op == "delete":
                incoming = {
                    (src, attr)
                    for (src, attr) in self._incoming_refs.get(intent.oid, set())
                    if txn.staged_exists(src)
                }
                if incoming:
                    raise TransactionError(
                        f"cannot delete {intent.oid}: referenced by "
                        f"{sorted(src for src, __ in incoming)}"
                    )
                continue
            schema = self.get_schema_object(intent.schema_name)
            attrs = schema.effective_attributes(intent.class_name)
            for attr in attrs:
                if not attr.is_reference() or not intent.values:
                    continue
                target = intent.values.get(attr.name)
                if target is None:
                    continue
                if not txn.staged_exists(target):
                    raise TransactionError(
                        f"{intent.oid}.{attr.name} references missing object "
                        f"{target!r}"
                    )
                expected = attr.type.class_name  # type: ignore[union-attr]
                location = None
                for other in txn.intents:
                    if other.oid == target and other.op == "insert":
                        location = (other.schema_name, other.class_name)
                location = location or self.locate_object(target)
                if location is not None and not self._class_is_a(
                    location[0], location[1], expected
                ):
                    raise TransactionError(
                        f"{intent.oid}.{attr.name} must reference {expected}, "
                        f"got {location[1]} ({target})"
                    )

    def _class_is_a(self, schema_name: str, class_name: str, expected: str) -> bool:
        schema = self.get_schema_object(schema_name)
        return any(cls.name == expected for cls in schema.ancestry(class_name))

    # -- apply helpers -------------------------------------------------------
    #
    # Each helper performs its mutations step by step, appending the exact
    # inverse of every completed step to ``undo``. Rolling back means
    # popping and running the journal in reverse, which restores the
    # extents, heap, indexes and reference maps even when an apply failed
    # half-way through a single intent.

    def _apply_insert(self, intent, undo: list) -> None:
        schema = self.get_schema_object(intent.schema_name)
        obj = GeoObject.create(
            schema, intent.class_name, intent.values or {}, oid=intent.oid
        )
        extent = self.extent(intent.schema_name, intent.class_name)
        extent.add(obj)
        undo.append(lambda: extent.remove(obj.oid))
        self._locations[obj.oid] = (intent.schema_name, intent.class_name)
        undo.append(lambda: self._locations.pop(obj.oid, None))
        self._rids[obj.oid] = self.heap.insert(self._record_for(obj))
        undo.append(lambda: self.heap.delete(self._rids.pop(obj.oid)))
        self._reindex(obj.oid, {}, obj.values(), undo)

    def _apply_update(self, intent, undo: list) -> None:
        obj = self.get_object(intent.oid)
        schema = self.get_schema_object(intent.schema_name)

        def rewrite():
            self._rids[obj.oid] = self.heap.overwrite(
                self._rids[obj.oid], self._record_for(obj))

        # Journaled first, so a rollback re-encodes the restored object.
        undo.append(rewrite)
        after = intent.values or {}
        before = obj.update(schema, after)
        undo.append(lambda: obj.update(schema, before))
        self._reindex(obj.oid, before, after, undo)
        rewrite()

    def _apply_delete(self, intent, undo: list) -> None:
        obj = self.get_object(intent.oid)
        extent = self.extent(intent.schema_name, intent.class_name)
        location = self._locations[intent.oid]
        self._reindex(obj.oid, obj.values(), {}, undo)
        self.heap.delete(self._rids.pop(intent.oid))
        # Runs after the location is restored, so it can re-encode.
        undo.append(lambda: self._rids.__setitem__(
            intent.oid, self.heap.insert(self._record_for(obj))))
        order = extent.oids()
        extent.remove(intent.oid)
        undo.append(lambda: extent.restore(obj, order))
        del self._locations[intent.oid]
        undo.append(
            lambda: self._locations.__setitem__(intent.oid, location)
        )

    # -- maintenance of derived structures ------------------------------------

    def _record_for(self, obj: GeoObject) -> dict[str, Any]:
        """The heap / snapshot record of a live object."""
        schema_name, class_name = self._locations[obj.oid]
        return {
            "oid": obj.oid,
            "schema": schema_name,
            "class": class_name,
            "values": self._encode_values(schema_name, class_name,
                                          obj.values()),
        }

    def _reindex(self, oid: str, before: dict[str, Any],
                 after: dict[str, Any], undo: list | None = None) -> None:
        """Move ``oid``'s R-tree, hash and reference entries from
        ``before`` to ``after`` (attribute name -> value; missing means
        unset), journaling the inverse move in ``undo``.

        The one per-write maintenance of derived state: an insert passes
        ``({}, values)``, an update the written attributes' previous and
        new values, a delete ``(values, {})``. Only attributes whose
        value changed move.
        """
        schema_name, class_name = self._locations[oid]
        attrs = self._attributes(schema_name, class_name)
        for name in before.keys() | after.keys():
            old, new = before.get(name), after.get(name)
            if old == new:
                continue
            key = (schema_name, class_name, name)
            if attrs[name].is_spatial():
                if old is not None:
                    self._spatial[key].delete(old.bbox(), oid)
                if new is not None:
                    self.spatial_index(*key).insert(new.bbox(), oid)
            elif attrs[name].is_reference():
                if old is not None:
                    refs = self._incoming_refs[old]
                    refs.discard((oid, name))
                    if not refs:
                        del self._incoming_refs[old]
                if new is not None:
                    self._incoming_refs.setdefault(new, set()).add(
                        (oid, name))
            if key in self._attr_indexes:
                self._attr_indexes[key].delete(old, oid)
                self._attr_indexes[key].insert(new, oid)
        if undo is not None:
            undo.append(lambda: self._reindex(oid, after, before))

    def _rebuild_indexes(self) -> None:
        """Build every R-tree, hash index and the reference map from the
        extents: the one wholesale build, for objects placed outside the
        commit path.

        An R-tree is STR-packed for every key that has a tree or a
        geometry, so none appears where no geometry is. Hash indexes are
        refilled in place, so an index a caller holds stays live.
        """
        self._incoming_refs.clear()
        for index in self._attr_indexes.values():
            index.clear()
        for (schema_name, class_name), extent in self._extents.items():
            schema = self._schemas[schema_name]
            for attr in schema.effective_attributes(class_name):
                name = attr.name
                key = (schema_name, class_name, name)
                values = [(obj.oid, value) for obj in extent
                          if (value := obj.get(name)) is not None]
                if attr.is_spatial() and (values or key in self._spatial):
                    self.rebuild_spatial_index(*key)
                for oid, value in values:
                    if attr.is_reference():
                        self._incoming_refs.setdefault(value, set()).add(
                            (oid, name))
                    if key in self._attr_indexes:
                        self._attr_indexes[key].insert(value, oid)

    # ------------------------------------------------------------------
    # Recovery / introspection
    # ------------------------------------------------------------------

    def load_from_storage(self) -> int:
        """Rebuild extents, indexes and references from existing heap pages.

        Call after re-opening a file-backed database and registering its
        schemas (e.g. via :meth:`MetadataCatalog.load_schema`). Records are
        *adopted* — not re-inserted — so the heap is untouched and every
        restored object keeps its record id. Returns the number of objects
        restored. Catalog documents are skipped.

        Adoption moves extents without a commit, so class versions stay
        put; the column cache is dropped instead, as :meth:`resync`
        does, because a set built before the load would still look
        fresh. It runs under the commit lock and seqlock, as resync does.
        """
        from .instances import ensure_oid_counter_above

        loaded = 0
        max_suffix = 0
        with self._commit_lock, self._mutating():
            for rid, record in list(self.heap.scan()):
                if record.get("_catalog"):
                    continue
                if record.get(RasterStore.DIRECTORY_MARKER):
                    self.raster_store.adopt(rid, record)
                    continue
                oid = record["oid"]
                if oid in self._locations:
                    continue  # already live (idempotent reload)
                self._adopt(record, rid)
                loaded += 1
                __, __, suffix = oid.rpartition("#")
                if suffix.isdigit():
                    max_suffix = max(max_suffix, int(suffix))
            self._rebuild_indexes()
            self._column_cache = None
        if max_suffix:
            ensure_oid_counter_above(max_suffix)
        return loaded

    def _adopt(self, record: dict[str, Any], rid: RecordId | None) -> None:
        """Place one stored or shipped record as a live object.

        Registers it in its extent and locations. ``rid`` is the
        record's heap address, or ``None`` to write the record to the
        heap now. The caller rebuilds the indexes and references once
        every record is placed (:meth:`_rebuild_indexes`).
        """
        schema_name, class_name = record["schema"], record["class"]
        obj = GeoObject.create(
            self.get_schema_object(schema_name), class_name,
            self._decode_record_values(schema_name, class_name,
                                       record["values"]),
            oid=record["oid"])
        self.extent(schema_name, class_name).add(obj)
        self._locations[obj.oid] = (schema_name, class_name)
        self._rids[obj.oid] = (rid if rid is not None
                               else self.heap.insert(self._record_for(obj)))

    def stats(self) -> dict[str, Any]:
        return {
            "schemas": len(self._schemas),
            "objects": len(self._locations),
            "extents": {
                f"{s}.{c}": len(ext)
                for (s, c), ext in list(self._extents.items())
            },
            "spatial_indexes": len(self._spatial),
            "listener_failures": self._listener_failures,
            "buffer": self.stats_buffer(),
            "heap": self.heap.stats(),
            "mvcc": self._mvcc.stats(),
            "rasters": (self._raster_store.status()
                        if self._raster_store is not None else {}),
        }

    def stats_buffer(self) -> dict[str, Any]:
        return self.buffer.stats.snapshot(len(self.buffer))

    def verify_storage(self) -> int:
        """Re-read every object from the heap and compare with memory.

        Returns the number of verified objects; raises on any divergence.
        Used by tests to prove the page store actually holds the data.
        """
        verified = 0
        for oid, rid in self._rids.items():
            record = self.heap.read(rid)
            decoded = self._decode_record_values(
                record["schema"], record["class"], record["values"])
            if decoded != self.get_object(oid).values():
                raise ObjectNotFoundError(
                    f"stored record for {oid} diverges from the live object"
                )
            verified += 1
        return verified

    def __repr__(self) -> str:
        return (
            f"GeographicDatabase({self.name!r}, schemas={self.schema_names()}, "
            f"objects={len(self._locations)})"
        )
