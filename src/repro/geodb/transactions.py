"""Transactions over the geographic database.

Every transaction runs under **snapshot isolation**: at begin it takes a
snapshot timestamp from the database, and all of its reads
(:meth:`Transaction.read`, :meth:`Transaction.query`,
:meth:`Transaction.staged_value`) observe the database exactly as of
that timestamp — concurrent commits stay invisible — merged with the
transaction's *own* staged writes (read-your-writes).

Updates are buffered as *write intents* and applied atomically at commit:

1. **first-committer-wins validation**: if any transaction that
   committed after this one's snapshot wrote an overlapping oid, commit
   raises :class:`~repro.errors.TransactionConflictError` and the
   transaction aborts (callers retry with a fresh snapshot);
2. every intent is validated against schema types and referential
   integrity;
3. *pre-commit* mutation events (``phase="validate"``) are published so
   active integrity rules — the paper's [11] prototype "maintaining
   topological constraints in the gis" — can veto the transaction by
   raising :class:`~repro.errors.ConstraintViolationError`;
4. intents are applied to extents, the heap file and the spatial
   indexes, a new version per touched oid is recorded at the commit
   timestamp, and the write-ahead log's commit record carries that
   timestamp;
5. *post-commit* mutation events (``phase="commit"``, tagged with the
   commit timestamp and the originating session) are published for
   customization and refresh rules.

Aborting simply drops the intent buffer; nothing was applied.
"""

from __future__ import annotations

import threading
import weakref
from enum import Enum
from typing import Any

from ..errors import ObjectNotFoundError, TransactionError
from .instances import GeoObject, fresh_oid

# Transaction ids must stay unique when sessions commit from worker
# threads; a plain ``itertools.count`` offers no such guarantee across
# implementations, so allocation takes a (tiny) explicit lock.
_txn_id_lock = threading.Lock()
_next_txn_id = 0


def _allocate_txn_id() -> int:
    global _next_txn_id
    with _txn_id_lock:
        _next_txn_id += 1
        return _next_txn_id


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _Intent:
    """One buffered mutation."""

    __slots__ = ("op", "schema_name", "class_name", "oid", "values")

    def __init__(self, op: str, schema_name: str, class_name: str, oid: str,
                 values: dict[str, Any] | None):
        self.op = op  # "insert" | "update" | "delete"
        self.schema_name = schema_name
        self.class_name = class_name
        self.oid = oid
        self.values = values

    def __repr__(self) -> str:
        return f"<{self.op} {self.oid}>"


class Transaction:
    """A unit of atomic mutation against a :class:`GeographicDatabase`.

    Usable as a context manager: the block commits on normal exit and
    aborts on exception::

        with db.transaction() as txn:
            txn.insert("phone_net", "Pole", {...})

    ``snapshot_ts`` is the commit timestamp the transaction's reads are
    pinned to; ``session_id`` (set by
    :meth:`repro.core.kernel.GISKernel.transaction`) tags the commit's
    mutation events with the originating session.
    """

    __slots__ = ("database", "txn_id", "session_id", "state", "_intents",
                 "snapshot_ts", "_fast", "_chains", "_db_locations",
                 "_db_extents", "_finalizer", "_durable_ticket",
                 "commit_ts", "_on_commit", "__weakref__")

    def __init__(self, database, session_id: str | None = None):
        self.database = database
        self.txn_id = _allocate_txn_id()
        self.session_id = session_id
        self.state = TxnState.ACTIVE
        self._intents: list[_Intent] = []
        #: group-commit ticket of a commit(wait_durable=False), until waited
        self._durable_ticket = None
        #: commit timestamp (the replication LSN) once committed; the
        #: kernel's read-your-writes routing waits for a replica to reach
        #: it before serving the session's next replica read
        self.commit_ts: int | None = None
        #: optional callable(commit_ts) invoked right after a successful
        #: commit (set by GISKernel.transaction to track session LSNs)
        self._on_commit = None
        #: all reads observe the database as of this commit timestamp
        self.snapshot_ts: int = database._begin_snapshot(self)
        # A transaction abandoned without commit()/abort() must not pin
        # the GC watermark forever: release the snapshot when the object
        # is collected. commit()/abort() call the finalizer explicitly
        # (it runs once, whichever comes first).
        self._finalizer = weakref.finalize(
            self, database._release_snapshot_id, self.txn_id
        )
        # Hot-path read support: ``_fast`` is True exactly while the
        # transaction is ACTIVE with no staged writes (the read-only
        # common case); the dict references let :meth:`read` skip the
        # attribute chains through the database. All three dicts are
        # mutated in place, never replaced, so the aliases stay valid.
        self._fast = True
        self._chains = database._mvcc._chains
        self._db_locations = database._locations
        self._db_extents = database._extents

    # -- protocol guards ------------------------------------------------------

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}; "
                "no further operations are allowed"
            )

    # -- snapshot + staged view ------------------------------------------------

    def read(self, oid: str) -> dict[str, Any] | None:
        """The attribute values of ``oid`` as this transaction sees them.

        Snapshot-consistent: concurrent commits are invisible; the
        transaction's own staged writes are visible (read-your-writes).
        ``None`` when the object does not exist in this view.
        """
        # Hot path — a read-only transaction over chain-less (stable)
        # objects must stay within 1.5x of the raw extent read, so the
        # common case is inlined: active, no staged writes (one flag
        # check), no version chain — answer from the current committed
        # state, which chain-lessness proves equals the snapshot state.
        # The extent fall-through is bracketed by the database's
        # mutation seqlock (sampled *before* the chain check): a commit
        # seeds chains for its write set before going odd, so either
        # the chain routes the read to the snapshot version, or the
        # re-check sees the seqlock move and retries; a persistent
        # commit stream degrades to a locked read.
        if self._fast:
            db = self.database
            seq = db._mutation_seq
            if oid in self._chains:
                return db._snapshot_values(oid, self.snapshot_ts)
            location = self._db_locations.get(oid)
            if location is None:
                values = None
            else:
                obj = self._db_extents[location].get(oid)
                values = None if obj is None else obj.values()
            if db._mutation_seq == seq:
                return values
            # Contended: a commit moved the seqlock mid-read. Resolve
            # through the database's retrying snapshot read.
            return db._snapshot_values(oid, self.snapshot_ts)
        self._require_active()
        return self.staged_value(oid)

    def exists(self, oid: str) -> bool:
        """Whether ``oid`` exists in this transaction's view."""
        return self.read(oid) is not None

    def query(self, schema_name: str, class_name: str
              ) -> dict[str, dict[str, Any]]:
        """All live objects of one class in this transaction's view.

        Returns ``oid -> values`` over the snapshot, overlaid with this
        transaction's staged inserts/updates/deletes of that class.
        Subclass extents are not merged in; query each class explicitly.
        """
        self._require_active()
        db = self.database
        db.get_schema_object(schema_name).get_class(class_name)
        # Candidate collection scans the live extent dict, which a
        # concurrent commit may be mutating, so it runs as a seqlock-
        # validated read. Per-oid value resolution below is
        # snapshot-safe on its own.
        extent = db.extent(schema_name, class_name)
        candidates = db._read_stable(
            lambda: set(extent.oids())
            | db._mvcc.class_oids(schema_name, class_name))
        out: dict[str, dict[str, Any]] = {}
        for oid in candidates:
            values = db._snapshot_values(oid, self.snapshot_ts)
            if values is not None:
                out[oid] = values
        for intent in self._intents:
            if (intent.schema_name, intent.class_name) != (schema_name,
                                                           class_name):
                continue
            merged = self.staged_value(intent.oid)
            if merged is None:
                out.pop(intent.oid, None)
            else:
                out[intent.oid] = merged
        return out

    def staged_value(self, oid: str) -> dict[str, Any] | None:
        """The attribute values ``oid`` would have after this transaction.

        ``None`` when the object would not exist (deleted, or never
        created). Reads through to the transaction's *snapshot* for
        untouched objects — never to state committed after begin.
        """
        values = self.database._snapshot_values(oid, self.snapshot_ts)
        for intent in self._intents:
            if intent.oid != oid:
                continue
            if intent.op == "insert":
                values = dict(intent.values or {})
            elif intent.op == "update" and values is not None:
                for name, val in (intent.values or {}).items():
                    if val is None:
                        values.pop(name, None)
                    else:
                        values[name] = val
            elif intent.op == "delete":
                values = None
        return values

    def staged_exists(self, oid: str) -> bool:
        return self.staged_value(oid) is not None

    # -- mutations -------------------------------------------------------------

    def insert(self, schema_name: str, class_name: str,
               values: dict[str, Any], oid: str | None = None) -> str:
        """Stage the creation of a new object; returns its oid."""
        self._require_active()
        self.database._require_writable("insert")
        schema = self.database.get_schema_object(schema_name)
        schema.get_class(class_name)  # existence check, raises SchemaError
        # Validate types eagerly so errors surface at the call site.
        GeoObject.create(schema, class_name, values, oid="staged#0")
        new_oid = oid or fresh_oid(class_name)
        if self.staged_exists(new_oid):
            raise TransactionError(f"oid {new_oid} already exists")
        self._fast = False
        self._intents.append(
            _Intent("insert", schema_name, class_name, new_oid, dict(values))
        )
        return new_oid

    def update(self, oid: str, changes: dict[str, Any]) -> None:
        """Stage attribute changes; ``None`` values unset optional attributes."""
        self._require_active()
        self.database._require_writable("update")
        if not changes:
            raise TransactionError("update needs at least one change")
        location = self._locate(oid)
        if location is None:
            raise ObjectNotFoundError(f"object {oid} does not exist")
        if not self.staged_exists(oid):
            # Staged-deleted earlier in this transaction: fail at the call
            # site instead of blowing up (half-applied) at commit.
            raise ObjectNotFoundError(
                f"object {oid} is deleted in this transaction"
            )
        schema_name, class_name = location
        schema = self.database.get_schema_object(schema_name)
        merged = self.staged_value(oid) or {}
        probe = GeoObject(oid, class_name, merged)
        probe.update(schema, changes)  # type-checks and required-attr checks
        self._fast = False
        self._intents.append(
            _Intent("update", schema_name, class_name, oid, dict(changes))
        )

    def delete(self, oid: str) -> None:
        self._require_active()
        self.database._require_writable("delete")
        location = self._locate(oid)
        if location is None:
            raise ObjectNotFoundError(f"object {oid} does not exist")
        schema_name, class_name = location
        if not self.staged_exists(oid):
            raise ObjectNotFoundError(f"object {oid} is already deleted")
        self._fast = False
        self._intents.append(_Intent("delete", schema_name, class_name, oid, None))

    def _locate(self, oid: str) -> tuple[str, str] | None:
        """(schema, class) of an object in this transaction's view."""
        for intent in reversed(self._intents):
            if intent.oid == oid and intent.op == "insert":
                return (intent.schema_name, intent.class_name)
        return self.database._snapshot_locate(oid, self.snapshot_ts)

    # -- termination -------------------------------------------------------------

    def commit(self, wait_durable: bool = True) -> None:
        """Apply the staged intents atomically.

        ``wait_durable=False`` returns as soon as the commit is applied
        and its log batch is *staged* in the write-ahead log, without
        waiting for the group-commit barrier; call :meth:`wait_durable`
        afterwards to block until the batch is on stable storage. The
        serving layer uses this to overlap one connection's fsync wait
        with other connections' commits.
        """
        self._require_active()
        self._fast = False
        self._durable_ticket = None
        try:
            self._durable_ticket = self.database._commit_transaction(
                self, wait_durable=wait_durable
            )
        except Exception:
            # Match abort(): an ABORTED transaction holds no staged writes,
            # so staged_value()/intents never report phantom state.
            self._intents.clear()
            self.state = TxnState.ABORTED
            self._finalizer()
            raise
        self.state = TxnState.COMMITTED
        self._finalizer()

    def wait_durable(self) -> None:
        """Block until a ``commit(wait_durable=False)`` is on disk.

        No-op for a transaction committed with the default blocking
        commit, without a WAL, or already waited on. Raises
        :class:`~repro.errors.WALError` if the log was damaged before
        the batch could be covered by a barrier.
        """
        ticket, self._durable_ticket = self._durable_ticket, None
        if ticket is not None:
            self.database.wal.wait_durable(ticket)

    def abort(self) -> None:
        self._require_active()
        self._fast = False
        self._intents.clear()
        self.state = TxnState.ABORTED
        self._finalizer()

    @property
    def intents(self) -> list[_Intent]:
        return list(self._intents)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is not TxnState.ACTIVE:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def __repr__(self) -> str:
        return (
            f"<Transaction {self.txn_id} {self.state.value} "
            f"snap={self.snapshot_ts}, {len(self._intents)} intents>"
        )
