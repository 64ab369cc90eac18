"""Page-based record storage for the geographic database.

§2.1 of the paper observes that "the volume of data manipulated in gis is
usually very high", making buffer management "a typical dbms problem that
the gis interface must deal with". To make that concern real (and
benchmarkable, experiment C4), the database persists records through a
page store + buffer manager rather than plain Python dicts.

Layout
------
* A :class:`PageStore` is a flat array of fixed-size pages, memory-backed
  (:class:`MemoryPager`) or file-backed (:class:`FilePager`).
* Each page is *slotted*: a small JSON header maps slot numbers to record
  byte ranges. Records are UTF-8 JSON blobs produced by
  :func:`encode_record`.
* A :class:`RecordId` is ``(page_no, slot)``. A :class:`HeapFile` provides
  insert/read/overwrite/delete over records and tracks per-page free space.

Records larger than a page spill into an *overflow chain* of dedicated
pages (bitmap attributes make this common).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Iterator

from .. import obs
from ..errors import StorageError

PAGE_SIZE = 4096


def _header_reserve(page_size: int) -> int:
    """Bytes reserved for the slot-directory header of a page."""
    return max(64, page_size // 8)


@dataclass(frozen=True, order=True)
class RecordId:
    """Stable address of a stored record."""

    page_no: int
    slot: int

    def __str__(self) -> str:
        return f"rid({self.page_no}:{self.slot})"


class Pager:
    """Abstract fixed-size page array."""

    page_size = PAGE_SIZE
    #: page I/O counts (``heap``/``wal`` ``page_reads``/``page_writes``
    #: in the status tree); concrete pagers count them per call
    reads = 0
    writes = 0

    def read_page(self, page_no: int) -> bytes:
        raise NotImplementedError

    def write_page(self, page_no: int, data: bytes) -> None:
        raise NotImplementedError

    def allocate_page(self) -> int:
        raise NotImplementedError

    @property
    def page_count(self) -> int:
        raise NotImplementedError

    def _check_data(self, data: bytes) -> bytes:
        if len(data) > self.page_size:
            raise StorageError(
                f"page write of {len(data)} bytes exceeds page size {self.page_size}"
            )
        return data.ljust(self.page_size, b"\x00")


class MemoryPager(Pager):
    """Pages held in a Python list — the default for tests and examples."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self._pages: list[bytes] = []
        self.reads = 0
        self.writes = 0

    def read_page(self, page_no: int) -> bytes:
        if not 0 <= page_no < len(self._pages):
            raise StorageError(f"page {page_no} does not exist")
        self.reads += 1
        return self._pages[page_no]

    def write_page(self, page_no: int, data: bytes) -> None:
        if not 0 <= page_no < len(self._pages):
            raise StorageError(f"page {page_no} does not exist")
        self.writes += 1
        self._pages[page_no] = self._check_data(data)

    def allocate_page(self) -> int:
        self._pages.append(b"\x00" * self.page_size)
        return len(self._pages) - 1

    def truncate(self) -> None:
        """Drop every page (WAL checkpointing resets its log this way)."""
        self._pages.clear()

    @property
    def page_count(self) -> int:
        return len(self._pages)


class FilePager(Pager):
    """Pages persisted to a single file on disk."""

    def __init__(self, path: str, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self._path = path
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size:
            raise StorageError(
                f"file {path!r} size {size} is not a multiple of page size"
            )
        self._count = size // page_size
        self.reads = 0
        self.writes = 0

    def read_page(self, page_no: int) -> bytes:
        if not 0 <= page_no < self._count:
            raise StorageError(f"page {page_no} does not exist")
        self.reads += 1
        self._file.seek(page_no * self.page_size)
        return self._file.read(self.page_size)

    def write_page(self, page_no: int, data: bytes) -> None:
        if not 0 <= page_no < self._count:
            raise StorageError(f"page {page_no} does not exist")
        self.writes += 1
        self._file.seek(page_no * self.page_size)
        self._file.write(self._check_data(data))

    def allocate_page(self) -> int:
        self._file.seek(self._count * self.page_size)
        self._file.write(b"\x00" * self.page_size)
        self._count += 1
        return self._count - 1

    def truncate(self) -> None:
        """Drop every page (WAL checkpointing resets its log this way)."""
        self._file.truncate(0)
        self._file.seek(0)
        self._count = 0

    @property
    def page_count(self) -> int:
        return self._count

    def flush(self) -> None:
        """Push buffered writes to the OS cache (no fsync)."""
        self._file.flush()

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.flush()
        self._file.close()


# ---------------------------------------------------------------------------
# Slotted pages
# ---------------------------------------------------------------------------


class SlottedPage:
    """In-memory view of one slotted page.

    Serialized layout: ``[4-byte header length][header JSON][payload bytes]``
    where the header maps slot ids to ``[offset, length]`` within the
    payload region, plus the overflow-chain pointer.
    """

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.slots: dict[int, bytes] = {}
        self.next_slot = 0
        #: page_no of the next overflow page (for oversized records), or -1.
        self.overflow_next = -1
        #: True for every page of an overflow chain (head and links); such
        #: pages never accept ordinary records and links are skipped by scan.
        self.is_overflow = False

    # -- (de)serialization -----------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, page_size: int = PAGE_SIZE) -> "SlottedPage":
        page = cls(page_size)
        header_len = int.from_bytes(data[:4], "big")
        if header_len == 0:
            return page
        header = json.loads(data[4 : 4 + header_len].decode("utf-8"))
        page.next_slot = header["n"]
        page.overflow_next = header.get("o", -1)
        page.is_overflow = bool(header.get("v", False))
        payload_base = 4 + header_len
        for slot_str, (offset, length) in header["s"].items():
            start = payload_base + offset
            page.slots[int(slot_str)] = data[start : start + length]
        return page

    def to_bytes(self) -> bytes:
        payload = bytearray()
        slot_map: dict[str, list[int]] = {}
        for slot, blob in self.slots.items():
            slot_map[str(slot)] = [len(payload), len(blob)]
            payload.extend(blob)
        header = json.dumps(
            {"n": self.next_slot, "o": self.overflow_next,
             "v": self.is_overflow, "s": slot_map},
            separators=(",", ":"),
        ).encode("utf-8")
        data = len(header).to_bytes(4, "big") + header + bytes(payload)
        if len(data) > self.page_size:
            raise StorageError("slotted page overflow (free-space accounting bug)")
        return data

    # -- capacity ----------------------------------------------------------------

    def used(self) -> int:
        return sum(len(b) for b in self.slots.values())

    def free_space(self) -> int:
        # Reserve room for the header growth: ~40 bytes per slot entry.
        reserved = 4 + _header_reserve(self.page_size) + 40 * (len(self.slots) + 1)
        return max(0, self.page_size - reserved - self.used())

    # -- record ops ----------------------------------------------------------------

    def add(self, blob: bytes) -> int:
        if len(blob) > self.free_space():
            raise StorageError("record does not fit in page")
        slot = self.next_slot
        self.next_slot += 1
        self.slots[slot] = blob
        return slot

    def get(self, slot: int) -> bytes:
        if slot not in self.slots:
            raise StorageError(f"slot {slot} is empty")
        return self.slots[slot]

    def replace(self, slot: int, blob: bytes) -> None:
        if slot not in self.slots:
            raise StorageError(f"slot {slot} is empty")
        grow = len(blob) - len(self.slots[slot])
        if grow > self.free_space():
            raise StorageError("record does not fit in page")
        self.slots[slot] = blob

    def delete(self, slot: int) -> None:
        if slot not in self.slots:
            raise StorageError(f"slot {slot} is empty")
        del self.slots[slot]


# ---------------------------------------------------------------------------
# Heap file
# ---------------------------------------------------------------------------


def encode_record(record: dict[str, Any]) -> bytes:
    """Serialize a record dict to bytes (UTF-8 JSON, compact separators)."""
    try:
        # Key order is preserved (not sorted): tuple-typed attributes rely on
        # declaration order for display.
        return json.dumps(record, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StorageError(f"record is not serializable: {exc}") from exc


def decode_record(blob: bytes) -> dict[str, Any]:
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(f"stored record is corrupt: {exc}") from exc


class HeapFile:
    """Records over a pager, with overflow chains for oversized blobs.

    The heap file goes through a *page access function* rather than the
    pager directly, so a buffer manager can interpose (see
    :meth:`attach_buffer`).
    """

    #: slot id used by pages that are links of an overflow chain
    _OVERFLOW_SLOT = 0

    def __init__(self, pager: Pager):
        self.pager = pager
        self._read = self._read_direct
        self._write = self._write_direct
        # page_no -> free bytes; rebuilt lazily for pre-existing files.
        self._free: dict[int, int] = {}
        self._rebuild_free_map()

    # -- buffer integration --------------------------------------------------

    def attach_buffer(self, buffer_manager) -> None:
        """Route page IO through a :class:`repro.geodb.buffer.BufferManager`."""
        self._read = buffer_manager.read_page
        self._write = buffer_manager.write_page

    def _read_direct(self, page_no: int) -> bytes:
        return self.pager.read_page(page_no)

    def _write_direct(self, page_no: int, data: bytes) -> None:
        self.pager.write_page(page_no, data)

    def _load(self, page_no: int) -> SlottedPage:
        return SlottedPage.from_bytes(self._read(page_no), self.pager.page_size)

    def _store(self, page_no: int, page: SlottedPage) -> None:
        self._write(page_no, page.to_bytes())
        self._free[page_no] = 0 if page.is_overflow else page.free_space()

    def _rebuild_free_map(self) -> None:
        for page_no in range(self.pager.page_count):
            page = self._load(page_no)
            self._free[page_no] = 0 if page.is_overflow else page.free_space()

    # -- public API ---------------------------------------------------------

    def insert(self, record: dict[str, Any]) -> RecordId:
        if obs.RECORDER.enabled:
            obs.RECORDER.inc("heap.records", op="insert")
        blob = encode_record(record)
        threshold = self.pager.page_size - _header_reserve(self.pager.page_size) - 128
        if len(blob) > threshold:
            return self._insert_overflow(blob)
        page_no = self._find_page_with_space(len(blob))
        page = self._load(page_no)
        slot = page.add(blob)
        self._store(page_no, page)
        return RecordId(page_no, slot)

    def _find_page_with_space(self, need: int) -> int:
        for page_no, free in self._free.items():
            if free >= need:
                return page_no
        page_no = self.pager.allocate_page()
        self._store(page_no, SlottedPage(self.pager.page_size))
        return page_no

    def _insert_overflow(self, blob: bytes) -> RecordId:
        """Spill an oversized blob over a chain of dedicated pages."""
        chunk_size = self.pager.page_size - _header_reserve(self.pager.page_size) - 128
        chunks = [blob[i : i + chunk_size] for i in range(0, len(blob), chunk_size)]
        page_nos = [self.pager.allocate_page() for __ in chunks]
        for idx, (page_no, chunk) in enumerate(zip(page_nos, chunks)):
            page = SlottedPage(self.pager.page_size)
            page.add(chunk)
            # Only chain *links* are flagged: the head stays an ordinary page
            # (its chunk fills it, so it takes no further records anyway) and
            # is therefore visited by scan(), which reassembles the chain.
            page.is_overflow = idx > 0
            page.overflow_next = page_nos[idx + 1] if idx + 1 < len(page_nos) else -1
            self._store(page_no, page)
        return RecordId(page_nos[0], self._OVERFLOW_SLOT)

    def read(self, rid: RecordId) -> dict[str, Any]:
        if obs.RECORDER.enabled:
            obs.RECORDER.inc("heap.records", op="read")
        page = self._load(rid.page_no)
        blob = page.get(rid.slot)
        if page.overflow_next >= 0 and rid.slot == self._OVERFLOW_SLOT:
            parts = [blob]
            next_no = page.overflow_next
            while next_no >= 0:
                link = self._load(next_no)
                parts.append(link.get(self._OVERFLOW_SLOT))
                next_no = link.overflow_next
            blob = b"".join(parts)
        return decode_record(blob)

    def overwrite(self, rid: RecordId, record: dict[str, Any]) -> RecordId:
        """Replace a record in place when it fits, else relocate.

        Returns the (possibly new) :class:`RecordId`.
        """
        blob = encode_record(record)
        page = self._load(rid.page_no)
        if page.overflow_next >= 0 and rid.slot == self._OVERFLOW_SLOT:
            self.delete(rid)
            return self.insert(record)
        try:
            page.replace(rid.slot, blob)
        except StorageError:
            page.delete(rid.slot)
            self._store(rid.page_no, page)
            return self.insert(record)
        self._store(rid.page_no, page)
        return rid

    def delete(self, rid: RecordId) -> None:
        if obs.RECORDER.enabled:
            obs.RECORDER.inc("heap.records", op="delete")
        page = self._load(rid.page_no)
        if page.overflow_next >= 0 and rid.slot == self._OVERFLOW_SLOT:
            next_no = page.overflow_next
            while next_no >= 0:
                link = self._load(next_no)
                follow = link.overflow_next
                empty = SlottedPage(self.pager.page_size)
                self._store(next_no, empty)
                next_no = follow
            page.overflow_next = -1
        page.delete(rid.slot)
        self._store(rid.page_no, page)

    def scan(self) -> Iterator[tuple[RecordId, dict[str, Any]]]:
        """Yield every live record (skipping overflow-chain link pages)."""
        for page_no in range(self.pager.page_count):
            page = self._load(page_no)
            if page.is_overflow:
                continue
            for slot in sorted(page.slots):
                rid = RecordId(page_no, slot)
                yield rid, self.read(rid)

    def stats(self) -> dict[str, Any]:
        return {
            "pages": self.pager.page_count,
            "free_map_entries": len(self._free),
            "page_size": self.pager.page_size,
            "page_reads": self.pager.reads,
            "page_writes": self.pager.writes,
        }
