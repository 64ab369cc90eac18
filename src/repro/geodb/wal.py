"""Write-ahead logging and crash recovery for the geographic database.

The paper moves GIS data management *into* the DBMS (§2.1), so the geodb
has to behave like one: a transaction that reports ABORTED must leave no
observable change, and a committed transaction must survive a process
crash. This module supplies the durability half of that contract:

* :class:`WriteAheadLog` — an append-only, checksummed redo log in front
  of any :class:`~repro.geodb.storage.Pager`. A transaction's records
  (``begin``, one ``intent`` per staged mutation, ``commit``) are
  buffered in memory while the transaction applies and are forced to the
  log — packed into whole pages, then flushed and fsynced once — at the
  commit point. The commit-record fsync *is* the durability point: a
  crash before it loses the transaction entirely (the buffer manager's
  no-steal mode guarantees no half-applied heap page reached disk), a
  crash after it loses nothing because recovery replays the log tail.
* :class:`FaultInjectingPager` — a pager wrapper that simulates a crash
  after N successful page writes (optionally tearing the failing write),
  used by the recovery test matrix and available to any chaos harness.

Log format
----------
The log is a sequence of fixed-size pages. Each flush appends one
*batch* — all records of one committed transaction — as a contiguous run
of freshly allocated pages, zero-padded to a page boundary. A page never
mixes records from two batches, so a torn write can only damage the
batch being flushed, never an earlier committed one. Within a batch,
records are framed as::

    [4-byte payload length][4-byte CRC32 of payload][payload JSON]

Recovery walks the frames in order; a zero length skips to the next page
boundary (batch padding) or, at a page boundary, ends the log. A frame
that is truncated, fails its checksum, or does not decode ends the scan:
everything before it is the stable prefix, everything after is a torn
tail from the crash and is discarded. Only transactions whose ``commit``
record survives inside that prefix are replayed.

Group commit
------------
Commit throughput under many concurrent committers is bounded by the
fsync, not the page writes. :meth:`WriteAheadLog.log_commit_staged`
therefore splits the commit barrier in two: under the log lock it
appends the batch's pages (cheap) and hands back a monotonically
increasing *ticket*; :meth:`WriteAheadLog.wait_durable` then blocks
until a barrier covering that ticket has run. The first waiter to find
undone work becomes the **group leader** — it snapshots the highest
staged ticket, runs one barrier for every batch staged so far, and
wakes the whole group. Committers that arrive while a barrier is in
flight queue up and are covered by the *next* barrier, so the fsync
count scales with disk latency, not with committer count.

Because batches reach the log pages strictly in ticket order, a crash
always leaves a *prefix* of whole batches: a barrier covering ticket N
necessarily made every earlier ticket durable too. Recovery semantics
are unchanged — the damaged-tail scan applies verbatim.

Log shipping
------------
:class:`LogShipper` turns the log into a replication stream. Attached via
:meth:`WriteAheadLog.attach_shipper`, it retains every committed batch —
keyed by its LSN, which is the MVCC commit timestamp carried in the
commit record — and hands them to followers through :meth:`LogShipper.poll`.
Two rules keep the stream safe:

* **Durable-only shipping.** A staged batch is parked until a barrier
  covering its ticket completes; only then does it become pollable. A
  follower can therefore never apply a transaction the leader could still
  lose in a crash.
* **Bounded retention with snapshot handoff.** The shipper keeps the last
  ``retain`` durable batches in memory, independent of checkpoint
  truncation of the log pages. A cursor that has fallen behind the
  retained window (slow follower, or a fresh follower attaching mid-life)
  gets ``snapshot_required`` instead of a gap — the follower re-bootstraps
  from :meth:`GeographicDatabase.replication_snapshot` and resumes polling
  from the snapshot's LSN.

Each shipped batch travels inside an envelope carrying a CRC32 over the
canonical JSON of its records; followers re-verify it before replaying,
so a frame damaged in transit (or tampered with) is refused, mirroring
the log's own torn-tail refusal.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import deque
from typing import Any, Iterator

from .. import obs
from ..errors import CrashError, ReplicationError, WALError
from .storage import PAGE_SIZE, FilePager, Pager

#: frame header: 4-byte payload length + 4-byte CRC32 of the payload
FRAME_HEADER = 8

REC_BEGIN = "B"
REC_INTENT = "I"
REC_COMMIT = "C"
#: redo record for one raster tile write (multi-page tile payloads ride
#: the same batch as the object intents that reference them)
REC_RASTER = "R"

#: durability ladder for the commit-point barrier (cf. SQLite synchronous):
#: ``fsync`` survives power loss, ``flush`` survives a process crash only
#: (data reached the OS cache), ``none`` is for tests and benchmarks.
SYNC_MODES = ("fsync", "flush", "none")


def _frame(payload: bytes) -> bytes:
    return (
        len(payload).to_bytes(4, "big")
        + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
        + payload
    )


def batch_checksum(records: list[dict[str, Any]]) -> int:
    """CRC32 over the canonical JSON of a batch's records.

    Canonical means compact separators and sorted keys, so leader and
    follower — and both sides of a JSON wire hop — compute the same value
    for the same logical records.
    """
    payload = json.dumps(records, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    return zlib.crc32(payload) & 0xFFFFFFFF


def make_envelope(lsn: int, records: list[dict[str, Any]]) -> dict[str, Any]:
    """Wrap one committed batch for shipping (LSN + integrity checksum)."""
    return {"lsn": lsn, "records": records, "crc": batch_checksum(records)}


def verify_envelope(envelope: dict[str, Any]) -> list[dict[str, Any]]:
    """Validate a shipped envelope; returns its records or raises.

    Refuses anything a follower must not replay: a malformed envelope, a
    checksum mismatch (damaged frame), a batch without exactly one commit
    record, or a commit record without a timestamp (the LSN).
    """
    if not isinstance(envelope, dict):
        raise ReplicationError("shipped batch is not an envelope object")
    records = envelope.get("records")
    lsn = envelope.get("lsn")
    crc = envelope.get("crc")
    if not isinstance(records, list) or not all(
            isinstance(rec, dict) for rec in records):
        raise ReplicationError("shipped batch has no record list")
    if not isinstance(lsn, int) or not isinstance(crc, int):
        raise ReplicationError("shipped batch is missing its lsn or checksum")
    if batch_checksum(records) != crc:
        raise ReplicationError(
            f"shipped batch at lsn {lsn} failed its checksum — damaged "
            "frame refused (the follower keeps its last applied state)"
        )
    commits = [rec for rec in records if rec.get("t") == REC_COMMIT]
    if len(commits) != 1:
        raise ReplicationError(
            f"shipped batch at lsn {lsn} does not contain exactly one "
            f"commit record ({len(commits)} found)"
        )
    if commits[0].get("ts") != lsn:
        raise ReplicationError(
            f"shipped batch envelope lsn {lsn} disagrees with its commit "
            f"record timestamp {commits[0].get('ts')!r}"
        )
    return records


class LogShipper:
    """Subscribable stream of committed *and durable* log batches.

    One shipper serves any number of followers: each follower keeps its
    own cursor (the LSN of the last batch it applied) and calls
    :meth:`poll` to fetch everything newer. The shipper never pushes —
    pull keeps slow followers from back-pressuring the commit path.

    Thread-safety: every method takes the shipper's own lock; the WAL
    calls the ``on_*`` hooks from inside its commit paths, while
    followers poll from arbitrary threads.
    """

    def __init__(self, base_lsn: int = 0, retain: int = 256):
        if retain < 1:
            raise ReplicationError(f"shipper retention must be >= 1 "
                                   f"(got {retain})")
        self._lock = threading.Lock()
        #: staged but not yet durable: (ticket, envelope), ticket order
        self._staged: deque[tuple[int, dict[str, Any]]] = deque()
        #: durable and pollable envelopes, LSN order
        self._durable: deque[dict[str, Any]] = deque()
        #: cursors strictly below this need a snapshot handoff
        self.base_lsn = base_lsn
        #: LSN of the newest durable batch
        self.head_lsn = base_lsn
        self.retain = retain
        self.shipped_batches = 0
        self.polls = 0
        self.snapshot_handoffs = 0

    # -- WAL-side hooks (called by WriteAheadLog) -----------------------------

    def on_staged(self, ticket: int, lsn: int | None,
                  records: list[dict[str, Any]]) -> None:
        """Park a staged batch until a barrier covers ``ticket``."""
        if lsn is None:
            raise ReplicationError(
                "cannot ship a commit without a timestamp: log shipping "
                "requires commit_ts (the replication LSN) on every commit"
            )
        with self._lock:
            self._staged.append((ticket, make_envelope(lsn, records)))

    def on_durable(self, ticket: int) -> None:
        """Release parked batches covered by a completed barrier."""
        with self._lock:
            while self._staged and self._staged[0][0] <= ticket:
                _, envelope = self._staged.popleft()
                self._release(envelope)

    def on_batch(self, lsn: int | None, records: list[dict[str, Any]]) -> None:
        """Ship a batch that is already durable (inline-barrier commit)."""
        if lsn is None:
            raise ReplicationError(
                "cannot ship a commit without a timestamp: log shipping "
                "requires commit_ts (the replication LSN) on every commit"
            )
        with self._lock:
            self._release(make_envelope(lsn, records))

    def on_damaged(self) -> None:
        """Drop staged batches after a failed barrier — never shipped, so
        followers simply never see the transactions the leader lost."""
        with self._lock:
            self._staged.clear()

    def _release(self, envelope: dict[str, Any]) -> None:
        self._durable.append(envelope)
        self.head_lsn = max(self.head_lsn, envelope["lsn"])
        self.shipped_batches += 1
        while len(self._durable) > self.retain:
            evicted = self._durable.popleft()
            self.base_lsn = max(self.base_lsn, evicted["lsn"])

    # -- follower-side API ----------------------------------------------------

    def poll(self, cursor: int, max_batches: int = 64) -> dict[str, Any]:
        """Fetch durable batches with LSN > ``cursor``.

        Returns ``{"batches": [...], "lsn": head, "base_lsn": base,
        "snapshot_required": bool}``. ``snapshot_required`` means the
        cursor predates the retained window — the follower must
        re-bootstrap from a full snapshot before polling again.
        """
        with self._lock:
            self.polls += 1
            if cursor < self.base_lsn:
                self.snapshot_handoffs += 1
                return {"batches": [], "lsn": self.head_lsn,
                        "base_lsn": self.base_lsn, "snapshot_required": True}
            batches = []
            for envelope in self._durable:
                if envelope["lsn"] > cursor:
                    batches.append(envelope)
                    if len(batches) >= max_batches:
                        break
            result = {"batches": batches, "lsn": self.head_lsn,
                      "base_lsn": self.base_lsn, "snapshot_required": False}
        if batches and obs.RECORDER.enabled:
            obs.RECORDER.inc("repl.ship_batches", len(batches))
        return result

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "head_lsn": self.head_lsn,
                "base_lsn": self.base_lsn,
                "retained": len(self._durable),
                "staged": len(self._staged),
                "retain": self.retain,
                "shipped_batches": self.shipped_batches,
                "polls": self.polls,
                "snapshot_handoffs": self.snapshot_handoffs,
            }

    def __repr__(self) -> str:
        return (f"LogShipper(head={self.head_lsn}, base={self.base_lsn}, "
                f"retained={len(self._durable)})")


class WriteAheadLog:
    """Append-only, checksummed, page-framed redo log over a pager.

    Parameters
    ----------
    pager:
        Page backend holding the log (usually a dedicated
        :class:`~repro.geodb.storage.FilePager` next to the data file).
    sync_mode:
        ``"fsync"`` (default), ``"flush"`` or ``"none"`` — how hard the
        commit barrier pushes the batch toward stable storage.
    """

    def __init__(self, pager: Pager, sync_mode: str = "fsync",
                 group_commit: bool = True):
        if sync_mode not in SYNC_MODES:
            raise WALError(f"unknown sync mode {sync_mode!r}; "
                           f"expected one of {SYNC_MODES}")
        self.pager = pager
        self.sync_mode = sync_mode
        #: when True the database stages commits via
        #: :meth:`log_commit_staged` and groups their barriers through
        #: :meth:`wait_durable`; False forces one barrier per commit.
        self.group_commit = group_commit
        # Serializes buffering, batch flushes and checkpoints so commits
        # from concurrent sessions append whole batches in order (the log
        # tail — allocate_page + write_page — is not atomic by itself).
        # Reentrant because log_commit buffers its own commit record.
        self._lock = threading.RLock()
        #: txn_id -> framed records not yet forced to the log
        self._pending: dict[int, list[bytes]] = {}
        #: txn_id -> decoded record docs, kept alongside the frames so an
        #: attached shipper can hand whole batches to followers without
        #: re-reading (and re-parsing) the log pages
        self._pending_docs: dict[int, list[dict[str, Any]]] = {}
        #: attached :class:`LogShipper`, or None when not replicating
        self.shipper: LogShipper | None = None
        #: set when a log write failed part-way; the log tail may be torn,
        #: so further logging is refused until recovery truncates it.
        self.damaged = False
        self.appends = 0
        self.flushes = 0
        self.fsyncs = 0
        self.recovered_txns = 0
        # -- group-commit state (guarded by _group_cond's lock) ---------
        self._group_cond = threading.Condition()
        #: highest ticket whose pages are written (in ticket order)
        self._staged_ticket = 0
        #: highest ticket covered by a completed barrier
        self._durable_ticket = 0
        #: True while one leader's barrier is in flight
        self._flushing = False
        #: barriers run through wait_durable
        self.group_commits = 0
        #: batches made durable through those barriers
        self.group_commit_batches = 0

    @classmethod
    def open(cls, path: str, page_size: int = PAGE_SIZE,
             sync_mode: str = "fsync",
             group_commit: bool = True) -> "WriteAheadLog":
        """Open (or create) a file-backed log at ``path``."""
        return cls(FilePager(path, page_size=page_size), sync_mode=sync_mode,
                   group_commit=group_commit)

    # -- logging ---------------------------------------------------------------

    def _buffer(self, txn_id: int, doc: dict[str, Any]) -> None:
        with self._lock:
            if self.damaged:
                raise WALError(
                    "write-ahead log is damaged (a flush failed part-way); "
                    "reopen and recover the database before committing again"
                )
            payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
            self._pending.setdefault(txn_id, []).append(_frame(payload))
            self._pending_docs.setdefault(txn_id, []).append(doc)
            self.appends += 1
        if obs.RECORDER.enabled:
            obs.RECORDER.inc("wal.appends", type=doc["t"])

    def log_begin(self, txn_id: int) -> None:
        self._buffer(txn_id, {"t": REC_BEGIN, "txn": txn_id})

    def log_intent(self, txn_id: int, intent_doc: dict[str, Any]) -> None:
        """Record one staged mutation (already schema-encoded)."""
        doc = {"t": REC_INTENT, "txn": txn_id}
        doc.update(intent_doc)
        self._buffer(txn_id, doc)

    def log_raster(self, txn_id: int, tile_doc: dict[str, Any]) -> None:
        """Record one raster tile write (base64 payload, identity header).

        Logged before the tile's data pages are dirtied, like any other
        intent: recovery replays the whole tile set or none of it, so a
        crash can never surface a half-written raster.
        """
        doc = {"t": REC_RASTER, "txn": txn_id}
        doc.update(tile_doc)
        self._buffer(txn_id, doc)

    def log_commit(self, txn_id: int, commit_ts: int | None = None) -> None:
        """Force the transaction's batch to the log — the durability point.

        Appends the commit record (carrying ``commit_ts`` when given, so
        recovery can rebuild the version store at the original
        timestamps), packs the batch into freshly allocated pages and
        pushes it down with a single barrier. Raises (and marks the log
        damaged) if the underlying pager fails part-way.
        """
        with self._lock:
            lsn, docs = self._stage_batch(txn_id, commit_ts)
            try:
                self._barrier()
            except Exception:
                self.damaged = True
                if self.shipper is not None:
                    self.shipper.on_damaged()
                raise
            # The inline barrier covered every staged batch, including
            # any a concurrent staged committer wrote before us; let
            # their wait_durable return without a second barrier.
            with self._group_cond:
                covered = self._staged_ticket
                self._durable_ticket = max(self._durable_ticket, covered)
                self._group_cond.notify_all()
            if self.shipper is not None:
                # Earlier staged batches became durable under our barrier;
                # release them first so the stream stays in LSN order.
                self.shipper.on_durable(covered)
                self.shipper.on_batch(lsn, docs)

    def log_commit_staged(self, txn_id: int,
                          commit_ts: int | None = None) -> int:
        """Append the transaction's batch to the log pages *without* a
        barrier; returns the durability ticket for :meth:`wait_durable`.

        The page writes run under the log lock, so batches land in
        strictly increasing ticket order — the prefix property group
        commit's crash semantics rest on. The batch is **not durable**
        until a barrier covering the returned ticket has completed.
        """
        with self._lock:
            lsn, docs = self._stage_batch(txn_id, commit_ts)
            with self._group_cond:
                self._staged_ticket += 1
                ticket = self._staged_ticket
            if self.shipper is not None:
                # Parked (not pollable) until a barrier covers the ticket;
                # staging under the log lock keeps the park in LSN order.
                self.shipper.on_staged(ticket, lsn, docs)
            return ticket

    def _stage_batch(self, txn_id: int, commit_ts: int | None
                     ) -> tuple[int | None, list[dict[str, Any]]]:
        """Write one commit's batch onto fresh log pages (caller locks).

        Returns ``(lsn, record docs)`` so the commit paths can hand the
        batch to an attached shipper without re-reading the pages.
        """
        doc: dict[str, Any] = {"t": REC_COMMIT, "txn": txn_id}
        if commit_ts is not None:
            doc["ts"] = commit_ts
        self._buffer(txn_id, doc)
        frames = self._pending.pop(txn_id)
        docs = self._pending_docs.pop(txn_id)
        blob = b"".join(frames)
        try:
            size = self.pager.page_size
            for start in range(0, len(blob), size):
                page_no = self.pager.allocate_page()
                self.pager.write_page(page_no, blob[start:start + size])
        except Exception:
            self.damaged = True
            raise
        self.flushes += 1
        return commit_ts, docs

    def wait_durable(self, ticket: int) -> None:
        """Block until a barrier has covered ``ticket`` (group commit).

        The first waiter to find its ticket uncovered while no barrier
        is in flight becomes the leader: it snapshots the highest staged
        ticket, runs one barrier outside the condition lock, and wakes
        every waiter at or below that ticket. Waiters arriving during a
        barrier sleep until it finishes, then elect the next leader —
        so any number of concurrent committers cost at most two
        barriers per disk round-trip.
        """
        rec = obs.RECORDER
        with self._group_cond:
            while True:
                if self.damaged:
                    raise WALError(
                        "write-ahead log is damaged (a flush failed "
                        "part-way); staged commits may not be durable — "
                        "reopen and recover the database"
                    )
                if self._durable_ticket >= ticket:
                    return
                if not self._flushing:
                    self._flushing = True
                    target = self._staged_ticket
                    break
                self._group_cond.wait()
        try:
            self._barrier()
        except Exception:
            with self._group_cond:
                self.damaged = True
                self._flushing = False
                self._group_cond.notify_all()
            if self.shipper is not None:
                self.shipper.on_damaged()
            raise
        with self._group_cond:
            self._flushing = False
            covered = target - self._durable_ticket
            self._durable_ticket = max(self._durable_ticket, target)
            self.group_commits += 1
            self.group_commit_batches += max(covered, 0)
            self._group_cond.notify_all()
        if self.shipper is not None:
            self.shipper.on_durable(target)
        if rec.enabled:
            rec.observe("wal.group_size", max(covered, 1))

    def force(self) -> None:
        """Make every staged batch durable (the WAL rule helper).

        The buffer manager calls this before writing a dirty data page
        back to the heap pager, and :meth:`GeographicDatabase.checkpoint`
        before flushing the pool — log records must reach stable storage
        before any data page they cover.
        """
        with self._group_cond:
            if self.damaged:
                # A damaged tail is refused by further commits and
                # truncated by the next checkpoint; there is nothing
                # left worth forcing (and recovery's own checkpoint
                # must not trip over it).
                return
            ticket = self._staged_ticket
            if self._durable_ticket >= ticket:
                return
        self.wait_durable(ticket)

    def log_abort(self, txn_id: int) -> None:
        """Drop a transaction's buffered records; nothing reaches the log."""
        with self._lock:
            self._pending.pop(txn_id, None)
            self._pending_docs.pop(txn_id, None)

    def attach_shipper(self, shipper: LogShipper) -> LogShipper:
        """Attach a :class:`LogShipper`; batches committed from now on are
        retained for followers. Use
        :meth:`GeographicDatabase.enable_shipping` rather than calling
        this directly — it seeds ``base_lsn`` from the current commit
        timestamp under the commit lock."""
        with self._lock:
            if self.shipper is not None and self.shipper is not shipper:
                raise ReplicationError(
                    "a LogShipper is already attached to this log"
                )
            self.shipper = shipper
        return shipper

    def _barrier(self) -> None:
        if self.sync_mode == "none":
            return
        if self.sync_mode == "flush":
            flush = getattr(self.pager, "flush", None)
            if callable(flush):
                flush()
            return
        sync = getattr(self.pager, "sync", None)
        if callable(sync):
            sync()
        # A memory-backed log is trivially "synced"; the barrier still
        # counts so tests over MemoryPager observe the same protocol.
        self.fsyncs += 1

    # -- recovery --------------------------------------------------------------

    def records(self) -> Iterator[dict[str, Any]]:
        """Every intact record, in log order, up to the first torn frame."""
        size = self.pager.page_size
        data = b"".join(
            self.pager.read_page(no) for no in range(self.pager.page_count)
        )
        offset, end = 0, len(data)
        while offset + FRAME_HEADER <= end:
            length = int.from_bytes(data[offset:offset + 4], "big")
            if length == 0:
                if offset % size == 0:
                    return  # an untouched page: end of log
                offset = (offset // size + 1) * size  # batch padding
                continue
            crc = int.from_bytes(data[offset + 4:offset + 8], "big")
            start = offset + FRAME_HEADER
            if start + length > end:
                return  # torn tail: frame extends past the written pages
            payload = data[start:start + length]
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                return  # torn or corrupt frame: keep the stable prefix
            try:
                doc = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                return
            yield doc
            offset = start + length

    def replay(self) -> list[list[dict[str, Any]]]:
        """Committed transactions in log order, each as its record list.

        Transactions without a surviving ``commit`` record (in-flight at
        the crash, or cut off by a torn tail) are dropped.
        """
        open_txns: dict[Any, list[dict[str, Any]]] = {}
        committed: list[list[dict[str, Any]]] = []
        for doc in self.records():
            kind, txn_id = doc.get("t"), doc.get("txn")
            if kind == REC_BEGIN:
                open_txns[txn_id] = [doc]
            elif kind in (REC_INTENT, REC_RASTER):
                open_txns.setdefault(txn_id, []).append(doc)
            elif kind == REC_COMMIT:
                records = open_txns.pop(txn_id, None)
                if records is not None:
                    records.append(doc)
                    committed.append(records)
        return committed

    def checkpoint(self) -> None:
        """Reset the log after the database flushed and synced its pages.

        Every logged transaction is now reflected in the heap, so the log
        restarts empty; a damaged tail is discarded with it.
        """
        with self._lock:
            if self._pending:
                raise WALError(
                    "cannot checkpoint the log with in-flight transactions"
                )
            truncate = getattr(self.pager, "truncate", None)
            if not callable(truncate):
                raise WALError(
                    f"wal pager {type(self.pager).__name__} cannot truncate"
                )
            truncate()
            sync = getattr(self.pager, "sync", None)
            if callable(sync) and self.sync_mode == "fsync":
                sync()
            self.damaged = False

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "pages": self.pager.page_count,
            "page_size": self.pager.page_size,
            "page_reads": self.pager.reads,
            "page_writes": self.pager.writes,
            "sync_mode": self.sync_mode,
            "appends": self.appends,
            "flushes": self.flushes,
            "fsyncs": self.fsyncs,
            "pending_txns": len(self._pending),
            "recovered_txns": self.recovered_txns,
            "damaged": self.damaged,
            "group_commit": self.group_commit,
            "group_commits": self.group_commits,
            "group_commit_batches": self.group_commit_batches,
            "shipper": self.shipper.stats() if self.shipper else None,
        }

    def close(self) -> None:
        close = getattr(self.pager, "close", None)
        if callable(close):
            close()

    def __repr__(self) -> str:
        return (f"WriteAheadLog(pages={self.pager.page_count}, "
                f"sync={self.sync_mode}, damaged={self.damaged})")


class FaultInjectingPager(Pager):
    """Pager wrapper that simulates a crash after N successful writes.

    Drives the recovery test matrix: arm it with a write budget, run a
    workload until :class:`~repro.errors.CrashError` fires, then simulate
    a restart by wrapping the surviving ``inner`` pager (the "disk") in a
    fresh database + log — buffer frames and pending WAL batches are the
    volatile state a real crash would lose.

    ``torn=True`` additionally persists a prefix of the failing write
    before raising, modeling a torn page write; the WAL's per-record
    checksums detect and discard such tails.
    """

    def __init__(self, inner: Pager, fail_after_writes: int | None = None,
                 torn: bool = False):
        self.inner = inner
        self.page_size = inner.page_size
        self.fail_after_writes = fail_after_writes
        self.torn = torn
        #: successful writes so far (the crash index counts from arm())
        self.writes = 0
        self.crashed = False

    def arm(self, fail_after_writes: int | None,
            torn: bool | None = None) -> None:
        """(Re)arm: fail after this many further successful writes."""
        self.fail_after_writes = fail_after_writes
        self.writes = 0
        self.crashed = False
        if torn is not None:
            self.torn = torn

    def _guard(self) -> None:
        if self.crashed:
            raise CrashError("pager has crashed; reopen the database "
                             "over the surviving inner pager to recover")

    def read_page(self, page_no: int) -> bytes:
        self._guard()
        return self.inner.read_page(page_no)

    def write_page(self, page_no: int, data: bytes) -> None:
        self._guard()
        if (self.fail_after_writes is not None
                and self.writes >= self.fail_after_writes):
            self.crashed = True
            if self.torn:
                self.inner.write_page(page_no, data[:max(1, len(data) // 2)])
            raise CrashError(
                f"injected crash at write #{self.writes} "
                f"(page {page_no}{', torn' if self.torn else ''})"
            )
        self.writes += 1
        self.inner.write_page(page_no, data)

    def allocate_page(self) -> int:
        self._guard()
        return self.inner.allocate_page()

    @property
    def page_count(self) -> int:
        return self.inner.page_count

    def sync(self) -> None:
        self._guard()
        sync = getattr(self.inner, "sync", None)
        if callable(sync):
            sync()

    def flush(self) -> None:
        self._guard()
        flush = getattr(self.inner, "flush", None)
        if callable(flush):
            flush()

    def truncate(self) -> None:
        self._guard()
        truncate = getattr(self.inner, "truncate", None)
        if callable(truncate):
            truncate()
