"""LRU buffer manager over a pager.

§2.1: "the volume of data manipulated in gis is usually very high and the
interface has to provide large buffers to temporarily store and manipulate
the data retrieved from the spatial dbms ... Efficient management of
buffers is thus a typical dbms problem that the gis interface must deal
with." The paper's architecture moves that burden into the DBMS; this is
the component that carries it. Benchmark C4 drives it with map-browsing
(pan/zoom) page access patterns.

The manager caches page images with an LRU eviction policy, pin counts
(pinned pages are never evicted), write-back of dirty frames, and full
hit/miss/eviction accounting.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .. import obs
from ..errors import BufferError_
from .storage import Pager


@dataclass
class BufferStats:
    """Counters exposed for monitoring and for benchmark C4."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    write_backs: int = 0
    pin_denials: int = 0
    peak_pinned: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "write_backs": self.write_backs,
            "hit_ratio": round(self.hit_ratio, 4),
            "write_allocs": self.extra.get("write_allocs", 0),
        }


def _no_promotion(page_no: int) -> None:
    """Hit-path promotion hook while a bulk_scan scope is active."""


class _Frame:
    __slots__ = ("data", "dirty", "pins")

    def __init__(self, data: bytes):
        self.data = data
        self.dirty = False
        self.pins = 0


class BufferManager:
    """A fixed-capacity LRU page cache in front of a :class:`Pager`.

    ``read_page`` / ``write_page`` mirror the pager interface so a
    :class:`repro.geodb.storage.HeapFile` can route its IO through the
    buffer transparently (``heap.attach_buffer(manager)``).
    """

    def __init__(self, pager: Pager, capacity: int = 64):
        if capacity < 1:
            raise BufferError_("buffer capacity must be at least 1 frame")
        self.pager = pager
        self.capacity = capacity
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self.stats = BufferStats()
        #: depth of nested no-steal scopes (dirty frames pinned in memory)
        self._no_steal = 0
        #: depth of nested bulk-scan scopes (scan-resistant insertion)
        self._bulk = 0
        #: hit-path promotion hook: the bound OrderedDict move normally,
        #: a no-op inside bulk_scan scopes — swapped rather than branched
        #: so the hot hit path stays within the disabled-obs overhead gate
        self._promote = self._frames.move_to_end
        #: called before a dirty frame is written back by eviction; the
        #: database points this at ``wal.force`` so staged (group-commit)
        #: log batches reach stable storage before the data pages they
        #: cover (write-ahead rule)
        self.pre_steal_hook = None

    # -- pager-compatible interface -------------------------------------------

    def read_page(self, page_no: int) -> bytes:
        # The hit is served inline, so the hot path is one Python call
        # (``in`` + subscript beat a ``.get`` method call here).
        if page_no in self._frames:
            self.stats.hits += 1
            if obs.RECORDER.enabled:
                obs.RECORDER.inc("buffer.hits")
            self._promote(page_no)
            return self._frames[page_no].data
        return self._get_frame(page_no).data

    def write_page(self, page_no: int, data: bytes) -> None:
        frame = self._frames.get(page_no)
        if frame is None:
            # Allocating a frame for a full-page write needs no pager read,
            # so it is neither a hit nor a miss — counted apart so the C4
            # hit ratio stays a pure read-path signal.
            self._make_room()
            frame = _Frame(b"")
            self._frames[page_no] = frame
            self.stats.extra["write_allocs"] = (
                self.stats.extra.get("write_allocs", 0) + 1
            )
            rec = obs.RECORDER
            if rec.enabled:
                rec.inc("buffer.write_allocs")
                rec.gauge("buffer.resident_frames", len(self._frames))
        else:
            self._frames.move_to_end(page_no)
        frame.data = data.ljust(self.pager.page_size, b"\x00")
        frame.dirty = True

    # -- crash consistency ------------------------------------------------------

    @contextmanager
    def no_steal(self) -> Iterator["BufferManager"]:
        """Forbid eviction of dirty frames for the duration of the block.

        The transaction commit path applies mutations under this scope so
        no half-applied page can reach the pager before the WAL commit
        record is durable (the "no steal" policy). Clean frames still
        evict normally; if only dirty or pinned frames remain, the pool
        temporarily overflows its capacity instead of writing.
        """
        self._no_steal += 1
        try:
            yield self
        finally:
            self._no_steal -= 1

    # -- scan resistance ---------------------------------------------------------

    @contextmanager
    def bulk_scan(self) -> Iterator["BufferManager"]:
        """Scan-resistant caching for the duration of the block.

        A one-shot sweep over many cold pages (a full raster level, a
        table scan) would otherwise flush the hot working set out of a
        pure-LRU pool: every swept page enters at the MRU end and each
        one evicts a page that *will* be re-read. Inside this scope,
        misses are inserted at the **LRU end** instead — the sweep
        recycles its own frames and the hot set survives — and hits are
        not promoted, so the sweep cannot launder its pages into the
        hot end by touching them twice. Nesting is allowed; normal
        promotion resumes when the outermost scope exits.
        """
        self._bulk += 1
        self._promote = _no_promotion
        try:
            yield self
        finally:
            self._bulk -= 1
            if not self._bulk:
                self._promote = self._frames.move_to_end

    # -- pinning ---------------------------------------------------------------

    def pin(self, page_no: int) -> bytes:
        """Pin a page in memory and return its contents.

        Pinned pages survive eviction; every :meth:`pin` must be paired
        with an :meth:`unpin`.
        """
        frame = self._get_frame(page_no)
        frame.pins += 1
        pinned = sum(1 for f in self._frames.values() if f.pins > 0)
        self.stats.peak_pinned = max(self.stats.peak_pinned, pinned)
        return frame.data

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        frame = self._frames.get(page_no)
        if frame is None or frame.pins == 0:
            raise BufferError_(f"page {page_no} is not pinned")
        frame.pins -= 1
        if dirty:
            frame.dirty = True

    # -- internals -------------------------------------------------------------

    def _get_frame(self, page_no: int) -> _Frame:
        rec = obs.RECORDER
        if page_no in self._frames:
            self.stats.hits += 1
            if rec.enabled:
                rec.inc("buffer.hits")
            self._promote(page_no)
            return self._frames[page_no]
        self.stats.misses += 1
        if rec.enabled:
            rec.inc("buffer.misses")
        self._make_room()
        frame = _Frame(self.pager.read_page(page_no))
        self._frames[page_no] = frame
        if self._bulk:
            # Scan-resistant placement: the swept page becomes the next
            # eviction victim instead of displacing the hot set.
            self._frames.move_to_end(page_no, last=False)
            self.stats.extra["bulk_reads"] = (
                self.stats.extra.get("bulk_reads", 0) + 1
            )
            if rec.enabled:
                rec.inc("buffer.bulk_reads")
        if rec.enabled:
            rec.gauge("buffer.resident_frames", len(self._frames))
        return frame

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity:
            victim_no = None
            for page_no, frame in self._frames.items():  # LRU order
                if frame.pins == 0 and not (self._no_steal and frame.dirty):
                    victim_no = page_no
                    break
            if victim_no is None:
                if self._no_steal:
                    # Every unpinned frame is dirty mid-commit: overflow the
                    # pool rather than leak an uncommitted page to the pager.
                    self.stats.extra["no_steal_overflows"] = (
                        self.stats.extra.get("no_steal_overflows", 0) + 1
                    )
                    return
                self.stats.pin_denials += 1
                if obs.RECORDER.enabled:
                    obs.RECORDER.inc("buffer.pin_denials")
                raise BufferError_(
                    f"all {self.capacity} buffer frames are pinned; cannot evict"
                )
            self._evict(victim_no)

    def _evict(self, page_no: int) -> None:
        frame = self._frames.pop(page_no)
        self.stats.evictions += 1
        rec = obs.RECORDER
        if rec.enabled:
            rec.inc("buffer.evictions")
        if frame.dirty:
            # The WAL rule: a dirty page may cover a commit whose staged
            # log batch has not been fsynced yet (group commit); the
            # hook forces the log durable before the data page can
            # overtake it to stable storage.
            if self.pre_steal_hook is not None:
                self.pre_steal_hook()
            self.pager.write_page(page_no, frame.data)
            self.stats.write_backs += 1
            if rec.enabled:
                rec.inc("buffer.write_backs")

    # -- maintenance -------------------------------------------------------------

    def flush(self) -> int:
        """Write every dirty frame back to the pager; returns the count."""
        flushed = 0
        for page_no, frame in self._frames.items():
            if frame.dirty:
                self.pager.write_page(page_no, frame.data)
                frame.dirty = False
                flushed += 1
                self.stats.write_backs += 1
        if flushed and obs.RECORDER.enabled:
            obs.RECORDER.inc("buffer.write_backs", flushed)
        return flushed

    def clear(self) -> None:
        """Flush and drop every unpinned frame."""
        self.flush()
        pinned = {no: f for no, f in self._frames.items() if f.pins > 0}
        self._frames = OrderedDict(pinned)
        if not self._bulk:  # rebind: the old dict's bound method is stale
            self._promote = self._frames.move_to_end

    def resident_pages(self) -> list[int]:
        """Page numbers currently cached, LRU-first."""
        return list(self._frames)

    def __len__(self) -> int:
        return len(self._frames)
