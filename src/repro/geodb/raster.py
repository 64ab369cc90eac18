"""Tiled raster attribute storage with zoom-level pyramids.

Vector workloads (poles, ducts, cables) fit one record per page; the
bitmap attributes real GIS front-ends carry — scanned plans, well image
logs, orthophotos — do not. This module stores a raster payload as
fixed-size **tiles** on dedicated pages behind the shared
:class:`~repro.geodb.buffer.BufferManager`, so reads touch only the
tiles a window actually intersects, at a pyramid level chosen from the
display scale.

Layout
------
* A :class:`Raster` is the in-memory payload: ``width`` x ``height``
  8-bit pixels (row-major, one byte per pixel), optionally georeferenced
  by a ground ``extent``.
* At commit time the payload is cut into ``tile`` x ``tile`` pixel tiles
  per pyramid level (power-of-two point-sampled downsamples, the
  coarsest level fitting a single tile). Each tile is framed by
  :func:`encode_tile` — a JSON header carrying the raster id, level,
  tile index, payload length and a CRC32 — and chunked over one or more
  dedicated pages (a 64x64 byte tile does not fit one 4 KiB slotted
  page, so **multi-page tile writes are the norm**, not the exception).
* Tile pages are :class:`~repro.geodb.storage.SlottedPage` containers
  flagged ``is_overflow`` with the chunk in slot 0: the heap's scanner
  and free-map treat them exactly like overflow-chain links (skipped,
  zero free space), so raster pages and record pages share one pager
  and one buffer pool without stepping on each other.
* The **tile directory** (tile key -> page numbers, raster id ->
  descriptor, free page list) lives in memory and is persisted into the
  heap as a single ``_rasterdir`` record at every checkpoint — the same
  durability point at which the tile pages themselves are flushed.

Crash semantics
---------------
Tile writes ride the transaction's existing WAL batch: one ``"R"``
record per tile (base64 payload) is logged *before* the data pages are
dirtied, and the pages are only dirtied inside the buffer's no-steal
scope. A crash before the commit record is durable loses the whole
raster (the directory never referenced it); a crash after replays every
tile record idempotently — recovery can never surface a half-written
raster. Rasters are immutable: updating a raster attribute writes a
complete new tile set under a fresh raster id, so concurrent snapshot
readers keep resolving the old id (MVCC needs no page-level versioning)
and rollback is exact (the new pages return to the free list).

The object's attribute value is a :class:`RasterRef` — a small JSON-safe
descriptor — so records, WAL intents, replication snapshots and the
metadata catalog all round-trip it through the ordinary
``AttributeType.encode``/``decode`` contract.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from typing import Any, Iterator

from .. import obs
from ..errors import RasterError
from ..spatial.geometry import BBox
from ..spatial.scale import MapScale, Viewport
from .storage import SlottedPage, _header_reserve

#: default tile edge in pixels (64x64 bytes = one 4 KiB page of payload,
#: which chunks over two slotted pages — a genuine multi-page tile write)
DEFAULT_TILE = 64

#: assumed physical pixel pitch when picking a pyramid level for a
#: :class:`MapScale` (0.25 mm/pixel ~ a 100 dpi display)
MM_PER_PIXEL = 0.25


def _level_dim(size: int, level: int) -> int:
    """Pixel extent of one axis at a pyramid level (ceil division)."""
    step = 1 << level
    return max(1, -(-size // step))


def downsample(pixels: bytes, width: int, height: int,
               level: int) -> tuple[bytes, int, int]:
    """Power-of-two point-sampled downsample of a row-major bitmap.

    Level ``k`` keeps every ``2**k``-th pixel (top-left of each block),
    so composing downsamples is exact: ``downsample(downsample(p, j), k)
    == downsample(p, j + k)`` — the idempotence the property suite pins.
    Returns ``(pixels, level_width, level_height)``.
    """
    if level == 0:
        return pixels, width, height
    step = 1 << level
    lw, lh = _level_dim(width, level), _level_dim(height, level)
    out = bytearray(lw * lh)
    pos = 0
    for y in range(0, height, step):
        row = pixels[y * width: y * width + width]
        out[pos:pos + lw] = row[::step]
        pos += lw
    return bytes(out), lw, lh


def level_count(width: int, height: int, tile: int = DEFAULT_TILE) -> int:
    """Pyramid depth: levels until the coarsest fits in a single tile."""
    levels = 1
    while max(_level_dim(width, levels - 1),
              _level_dim(height, levels - 1)) > tile:
        levels += 1
    return levels


def tile_grid(width: int, height: int, tile: int) -> tuple[int, int]:
    """(columns, rows) of the tile grid covering a ``width`` x ``height`` bitmap."""
    return (-(-width // tile), -(-height // tile))


def slice_tile(pixels: bytes, width: int, height: int, tile: int,
               tx: int, ty: int) -> bytes:
    """Cut one tile out of a row-major bitmap.

    Edge tiles keep their true (smaller) size rather than being padded,
    so reassembly is byte-exact without bookkeeping.
    """
    x0, y0 = tx * tile, ty * tile
    tw = min(tile, width - x0)
    th = min(tile, height - y0)
    out = bytearray(tw * th)
    for row in range(th):
        start = (y0 + row) * width + x0
        out[row * tw:(row + 1) * tw] = pixels[start:start + tw]
    return bytes(out)


# ---------------------------------------------------------------------------
# Tile codec
# ---------------------------------------------------------------------------


def encode_tile(rid: str, level: int, index: int, data: bytes) -> bytes:
    """Frame one tile: ``[4-byte header len][header JSON][payload]``.

    The header carries the tile's identity and a CRC32 of the payload,
    so a directory pointing at the wrong pages — or a damaged page —
    is detected on read rather than silently decoded.
    """
    header = json.dumps(
        {"rid": rid, "lv": level, "ix": index, "n": len(data),
         "crc": zlib.crc32(data) & 0xFFFFFFFF},
        separators=(",", ":"),
    ).encode("utf-8")
    return len(header).to_bytes(4, "big") + header + data


def decode_tile(blob: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_tile`; validates length and checksum.

    Returns the header dict with the payload under ``"data"``; raises
    :class:`~repro.errors.RasterError` on any damage.
    """
    if len(blob) < 4:
        raise RasterError("tile frame is truncated (no header length)")
    header_len = int.from_bytes(blob[:4], "big")
    if 4 + header_len > len(blob):
        raise RasterError("tile frame is truncated (header cut off)")
    try:
        header = json.loads(blob[4:4 + header_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise RasterError(f"tile header does not decode: {exc}") from exc
    data = blob[4 + header_len:4 + header_len + header["n"]]
    if len(data) != header["n"]:
        raise RasterError(
            f"tile {header.get('rid')}/{header.get('lv')}/{header.get('ix')}"
            f" is truncated: expected {header['n']} bytes, got {len(data)}"
        )
    if (zlib.crc32(data) & 0xFFFFFFFF) != header["crc"]:
        raise RasterError(
            f"tile {header.get('rid')}/{header.get('lv')}/{header.get('ix')}"
            " failed its CRC check (damaged page?)"
        )
    header["data"] = data
    return header


# ---------------------------------------------------------------------------
# Value objects
# ---------------------------------------------------------------------------


class Raster:
    """An in-memory raster payload staged for commit.

    ``pixels`` is a row-major bytes object, one byte per pixel; ``extent``
    georeferences the bitmap (row 0 is the *north* edge, the screen
    convention :class:`~repro.spatial.scale.Viewport` uses).
    """

    __slots__ = ("width", "height", "pixels", "extent")

    def __init__(self, width: int, height: int, pixels: bytes,
                 extent: BBox | None = None):
        if width < 1 or height < 1:
            raise RasterError(f"raster must be at least 1x1, got {width}x{height}")
        pixels = bytes(pixels)
        if len(pixels) != width * height:
            raise RasterError(
                f"raster payload is {len(pixels)} bytes; "
                f"{width}x{height} needs {width * height}"
            )
        self.width = width
        self.height = height
        self.pixels = pixels
        self.extent = extent

    def __repr__(self) -> str:
        return f"<Raster {self.width}x{self.height}, {len(self.pixels)} bytes>"


class RasterRef:
    """The committed, JSON-safe descriptor of a stored raster.

    This is what lives in the object's attribute value (and therefore in
    heap records, WAL intents and replication snapshots); the pixel data
    stays in the tile pages and is read through
    :class:`RasterStore`. Immutable and cheap to copy.
    """

    __slots__ = ("rid", "width", "height", "tile", "levels", "extent")

    def __init__(self, rid: str, width: int, height: int, tile: int,
                 levels: int, extent: tuple[float, float, float, float] | None):
        self.rid = rid
        self.width = width
        self.height = height
        self.tile = tile
        self.levels = levels
        self.extent = tuple(extent) if extent is not None else None

    # -- geometry ------------------------------------------------------------

    def level_dims(self, level: int) -> tuple[int, int]:
        if not 0 <= level < self.levels:
            raise RasterError(
                f"raster {self.rid} has levels 0..{self.levels - 1}, "
                f"asked for {level}"
            )
        return (_level_dim(self.width, level), _level_dim(self.height, level))

    def tile_counts(self, level: int) -> tuple[int, int]:
        lw, lh = self.level_dims(level)
        return tile_grid(lw, lh, self.tile)

    def tiles_at(self, level: int) -> int:
        tx, ty = self.tile_counts(level)
        return tx * ty

    def total_tiles(self) -> int:
        return sum(self.tiles_at(level) for level in range(self.levels))

    def bbox(self) -> BBox | None:
        if self.extent is None:
            return None
        return BBox(*self.extent)

    # -- pyramid level selection ----------------------------------------------

    def level_for(self, scale: "MapScale | Viewport | int | None",
                  mm_per_pixel: float = MM_PER_PIXEL) -> int:
        """The pyramid level to read for a display scale or viewport.

        Picks the coarsest level whose ground-units-per-pixel still
        meets the display's resolution — coarse levels when zoomed out,
        level 0 when zoomed in (or when the raster is not
        georeferenced). An ``int`` is taken as an explicit level.
        """
        if scale is None:
            return 0
        if isinstance(scale, int):
            if not 0 <= scale < self.levels:
                raise RasterError(
                    f"raster {self.rid} has levels 0..{self.levels - 1}, "
                    f"asked for {scale}"
                )
            return scale
        if self.extent is None:
            return 0
        base_gpp = (self.extent[2] - self.extent[0]) / self.width
        if base_gpp <= 0:
            return 0
        if isinstance(scale, Viewport):
            target = scale.cell_ground_size()[0]
        elif isinstance(scale, MapScale):
            target = scale.ground_units_per_mm() * mm_per_pixel
        else:
            raise RasterError(
                f"cannot select a pyramid level from {type(scale).__name__}"
            )
        level = 0
        while (level + 1 < self.levels
               and base_gpp * (1 << (level + 1)) <= target):
            level += 1
        return level

    # -- (de)serialization ------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "rid": self.rid,
            "w": self.width,
            "h": self.height,
            "tile": self.tile,
            "levels": self.levels,
            "extent": list(self.extent) if self.extent is not None else None,
        }

    @classmethod
    def from_description(cls, desc: dict[str, Any]) -> "RasterRef":
        return cls(desc["rid"], desc["w"], desc["h"], desc["tile"],
                   desc["levels"], desc.get("extent"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RasterRef):
            return NotImplemented
        return self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash((self.rid, self.width, self.height))

    def __repr__(self) -> str:
        return (f"<RasterRef {self.rid} {self.width}x{self.height}, "
                f"{self.levels} levels, tile {self.tile}>")


class RasterWindow:
    """The pixels of one windowed read, at the level it was served from."""

    __slots__ = ("level", "x", "y", "width", "height", "pixels")

    def __init__(self, level: int, x: int, y: int, width: int, height: int,
                 pixels: bytes):
        self.level = level
        self.x = x
        self.y = y
        self.width = width
        self.height = height
        self.pixels = pixels

    def __repr__(self) -> str:
        return (f"<RasterWindow level={self.level} "
                f"[{self.x},{self.y} {self.width}x{self.height}]>")


class RasterWrite:
    """The staged tile set of one raster payload (commit-internal)."""

    __slots__ = ("rid", "ref", "tiles")

    def __init__(self, rid: str, ref: RasterRef,
                 tiles: list[tuple[int, int, bytes]]):
        self.rid = rid
        self.ref = ref
        #: (level, tile index, tile payload bytes), level-major order
        self.tiles = tiles

    def wal_docs(self) -> Iterator[dict[str, Any]]:
        """One JSON-safe redo record per tile for the commit's WAL batch."""
        desc = self.ref.describe()
        for level, index, data in self.tiles:
            yield {
                "rid": self.rid,
                "lv": level,
                "ix": index,
                "desc": desc,
                "data": base64.b64encode(data).decode("ascii"),
            }


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class RasterStore:
    """Tile pages, directory and pyramid reads for one database.

    Shares the database's pager and buffer manager: tile reads populate
    the same pool vector pages live in (which is what makes the buffer's
    ``bulk_scan`` hint matter), and tile writes obey the same no-steal /
    WAL-rule machinery as record pages.
    """

    #: marker key of the persisted directory record in the heap
    DIRECTORY_MARKER = "_rasterdir"

    def __init__(self, db, tile: int = DEFAULT_TILE):
        self.db = db
        self.tile = tile
        #: "rid/level/index" -> [page numbers]
        self._tiles: dict[str, list[int]] = {}
        #: rid -> descriptor dict (RasterRef.describe())
        self._rasters: dict[str, dict[str, Any]] = {}
        #: pages released by :meth:`release`, reused before allocating
        self._free: list[int] = []
        self._next = 1
        #: RecordId of the persisted directory record, once written
        self._dir_rid = None
        #: True when the in-memory directory diverges from the persisted one
        self._dirty = False
        # counters reported by status() (the kernel status tree)
        self.tile_reads = 0
        self.tile_writes = 0
        self.window_reads = 0

    # -- small helpers -----------------------------------------------------------

    @property
    def _pager(self):
        return self.db.pager

    @property
    def _buffer(self):
        return self.db.buffer

    def _chunk_size(self) -> int:
        size = self._pager.page_size
        return size - _header_reserve(size) - 128

    def _take_page(self) -> int:
        if self._free:
            return self._free.pop()
        return self._pager.allocate_page()

    @staticmethod
    def tile_key(rid: str, level: int, index: int) -> str:
        return f"{rid}/{level}/{index}"

    # -- staging (compute tiles outside the apply phase) --------------------------

    def stage(self, raster: Raster) -> RasterWrite:
        """Cut a payload into per-level tiles under a fresh raster id.

        Pure computation — nothing is written until :meth:`apply`, so a
        transaction that aborts before its apply phase leaves no trace.
        """
        rid = f"r{self._next}"
        self._next += 1
        levels = level_count(raster.width, raster.height, self.tile)
        extent = None
        if raster.extent is not None:
            extent = (raster.extent.min_x, raster.extent.min_y,
                      raster.extent.max_x, raster.extent.max_y)
        ref = RasterRef(rid, raster.width, raster.height, self.tile,
                        levels, extent)
        tiles: list[tuple[int, int, bytes]] = []
        for level in range(levels):
            pixels, lw, lh = downsample(raster.pixels, raster.width,
                                        raster.height, level)
            cols, rows = tile_grid(lw, lh, self.tile)
            for ty in range(rows):
                for tx in range(cols):
                    tiles.append((level, ty * cols + tx,
                                  slice_tile(pixels, lw, lh, self.tile,
                                             tx, ty)))
        return RasterWrite(rid, ref, tiles)

    # -- apply / undo (runs inside the commit's no-steal scope) -------------------

    def apply(self, write: RasterWrite, undo: list) -> None:
        """Write a staged tile set through the buffer, journaling undo ops."""
        for level, index, data in write.tiles:
            self._write_tile(write.rid, level, index, data, undo)
        self._rasters[write.rid] = write.ref.describe()
        undo.append(lambda: self._rasters.pop(write.rid, None))
        self._dirty = True

    def _write_tile(self, rid: str, level: int, index: int, data: bytes,
                    undo: list | None) -> None:
        key = self.tile_key(rid, level, index)
        blob = encode_tile(rid, level, index, data)
        chunk = self._chunk_size()
        size = self._pager.page_size
        pages: list[int] = []
        for start in range(0, len(blob), chunk):
            page_no = self._take_page()
            page = SlottedPage(size)
            # Tile pages masquerade as overflow links: the heap scanner
            # skips them and its free map never hands them to records.
            page.is_overflow = True
            page.add(blob[start:start + chunk])
            self._buffer.write_page(page_no, page.to_bytes())
            pages.append(page_no)
        previous = self._tiles.get(key)
        self._tiles[key] = pages
        if undo is not None:
            def restore(key=key, pages=pages, previous=previous):
                if previous is None:
                    self._tiles.pop(key, None)
                else:
                    self._tiles[key] = previous
                self._free.extend(pages)
            undo.append(restore)
        self.tile_writes += 1
        self._dirty = True

    def release(self, ref: "RasterRef | str") -> int:
        """Free a raster's tile pages; returns how many pages went back.

        Rasters are immutable and copy-on-write, so this is a
        maintenance call for rasters no live object *or snapshot* still
        references (e.g. after :meth:`GeographicDatabase.gc_versions`
        passed the overwriting commit).
        """
        rid = ref.rid if isinstance(ref, RasterRef) else ref
        if rid not in self._rasters:
            raise RasterError(f"unknown raster {rid!r}")
        freed = 0
        prefix = f"{rid}/"
        for key in [k for k in self._tiles if k.startswith(prefix)]:
            pages = self._tiles.pop(key)
            self._free.extend(pages)
            freed += len(pages)
        del self._rasters[rid]
        self._dirty = True
        return freed

    # -- recovery / replication ----------------------------------------------------

    def replay_tile(self, doc: dict[str, Any]) -> bool:
        """Idempotently redo one logged tile write; True when applied.

        A tile already present (its pages decode to the same payload) is
        skipped, so replaying the same batch twice — or replaying after
        a crash that flushed half the tiles — converges on the same
        state.
        """
        rid, level, index = doc["rid"], doc["lv"], doc["ix"]
        self._rasters.setdefault(rid, dict(doc["desc"]))
        suffix = rid[1:]
        if suffix.isdigit():
            self._next = max(self._next, int(suffix) + 1)
        data = base64.b64decode(doc["data"])
        key = self.tile_key(rid, level, index)
        if key in self._tiles:
            try:
                if self.read_tile(rid, level, index) == data:
                    return False
            except RasterError:
                pass  # damaged or stale pages: rewrite below
        self._write_tile(rid, level, index, data, undo=None)
        return True

    def export(self) -> list[dict[str, Any]]:
        """Every tile as a replayable doc (follower bootstrap snapshots)."""
        docs = []
        for rid, desc in sorted(self._rasters.items()):
            ref = RasterRef.from_description(desc)
            for level in range(ref.levels):
                for index in range(ref.tiles_at(level)):
                    docs.append({
                        "rid": rid, "lv": level, "ix": index, "desc": desc,
                        "data": base64.b64encode(
                            self.read_tile(rid, level, index)).decode("ascii"),
                    })
        return docs

    # -- directory persistence ------------------------------------------------------

    def persist(self) -> None:
        """Write the directory into the heap (called at checkpoint time).

        Runs before the buffer flush inside
        :meth:`GeographicDatabase.checkpoint`, so the directory and the
        tile pages it references reach the pager under the same sync.
        """
        if not self._dirty and self._dir_rid is not None:
            return
        if not self._rasters and self._dir_rid is None and not self._free:
            return  # nothing raster-shaped ever happened
        record = {
            self.DIRECTORY_MARKER: True,
            "next": self._next,
            "tile": self.tile,
            "tiles": self._tiles,
            "rasters": self._rasters,
            "free": self._free,
        }
        heap = self.db.heap
        if self._dir_rid is not None:
            self._dir_rid = heap.overwrite(self._dir_rid, record)
        else:
            self._dir_rid = heap.insert(record)
        self._dirty = False

    def adopt(self, rid, record: dict[str, Any]) -> None:
        """Restore the directory from its persisted heap record.

        Called by :meth:`GeographicDatabase.load_from_storage` when the
        scan encounters the ``_rasterdir`` record.
        """
        self._dir_rid = rid
        self._next = max(self._next, record.get("next", 1))
        self.tile = record.get("tile", self.tile)
        self._tiles = {key: list(pages)
                       for key, pages in record.get("tiles", {}).items()}
        self._rasters = dict(record.get("rasters", {}))
        self._free = list(record.get("free", []))
        self._dirty = False

    # -- reads ------------------------------------------------------------------------

    def ref(self, rid: str) -> RasterRef:
        desc = self._rasters.get(rid)
        if desc is None:
            raise RasterError(f"unknown raster {rid!r}")
        return RasterRef.from_description(desc)

    def read_tile(self, rid: str, level: int, index: int) -> bytes:
        """One tile's payload, lazily through the buffer manager."""
        key = self.tile_key(rid, level, index)
        pages = self._tiles.get(key)
        if pages is None:
            raise RasterError(f"raster tile {key} is not in the directory")
        size = self._pager.page_size
        parts = []
        for page_no in pages:
            page = SlottedPage.from_bytes(self._buffer.read_page(page_no),
                                          size)
            parts.append(page.get(0))
        doc = decode_tile(b"".join(parts))
        if (doc["rid"], doc["lv"], doc["ix"]) != (rid, level, index):
            raise RasterError(
                f"directory for {key} points at tile "
                f"{doc['rid']}/{doc['lv']}/{doc['ix']}"
            )
        self.tile_reads += 1
        return doc["data"]

    def read_region(self, ref: RasterRef, level: int, x0: int, y0: int,
                    width: int, height: int) -> bytes:
        """Pixels of a level-space rectangle, touching only its tiles."""
        lw, lh = ref.level_dims(level)
        if not (0 <= x0 and 0 <= y0 and x0 + width <= lw
                and y0 + height <= lh):
            raise RasterError(
                f"region [{x0},{y0} {width}x{height}] exceeds level {level} "
                f"({lw}x{lh}) of raster {ref.rid}"
            )
        if width == 0 or height == 0:
            return b""
        tile = ref.tile
        cols, __ = ref.tile_counts(level)
        out = bytearray(width * height)
        for ty in range(y0 // tile, (y0 + height - 1) // tile + 1):
            for tx in range(x0 // tile, (x0 + width - 1) // tile + 1):
                data = self.read_tile(ref.rid, level, ty * cols + tx)
                tw = min(tile, lw - tx * tile)
                # overlap of this tile with the requested rect
                ox0 = max(x0, tx * tile)
                ox1 = min(x0 + width, tx * tile + tw)
                oy0 = max(y0, ty * tile)
                oy1 = min(y0 + height, ty * tile + min(tile, lh - ty * tile))
                for y in range(oy0, oy1):
                    src = (y - ty * tile) * tw + (ox0 - tx * tile)
                    dst = (y - y0) * width + (ox0 - x0)
                    out[dst:dst + (ox1 - ox0)] = data[src:src + (ox1 - ox0)]
        return bytes(out)

    def read_level(self, ref: RasterRef, level: int = 0) -> bytes:
        """A whole pyramid level, reassembled from its tiles.

        Full-bitmap sweeps go through the buffer's scan-resistant hint,
        so reading a big raster once does not evict the hot vector
        working set.
        """
        lw, lh = ref.level_dims(level)
        with self._buffer.bulk_scan():
            return self.read_region(ref, level, 0, 0, lw, lh)

    def read_window(self, ref: RasterRef, window: BBox,
                    scale: "MapScale | Viewport | int | None" = None
                    ) -> RasterWindow:
        """Pixels of a ground-space window at the scale-chosen level.

        Maps ``window`` (ground coordinates) onto the pyramid level
        :meth:`RasterRef.level_for` picks for ``scale``, then reads only
        the tiles that rectangle intersects. Row 0 of the result is the
        window's north edge.
        """
        extent = ref.bbox()
        if extent is None:
            raise RasterError(
                f"raster {ref.rid} has no ground extent; use read_region "
                "for pixel-space access"
            )
        level = ref.level_for(scale)
        self.window_reads += 1
        rec = obs.RECORDER
        if rec.enabled:
            rec.inc("raster.pyramid_level", level=level)
        lw, lh = ref.level_dims(level)
        ix0 = max(window.min_x, extent.min_x)
        ix1 = min(window.max_x, extent.max_x)
        iy0 = max(window.min_y, extent.min_y)
        iy1 = min(window.max_y, extent.max_y)
        if ix0 >= ix1 or iy0 >= iy1:
            return RasterWindow(level, 0, 0, 0, 0, b"")
        fx0 = (ix0 - extent.min_x) / extent.width
        fx1 = (ix1 - extent.min_x) / extent.width
        # row 0 is the north (max_y) edge
        fy0 = (extent.max_y - iy1) / extent.height
        fy1 = (extent.max_y - iy0) / extent.height
        x0 = min(int(fx0 * lw), lw - 1)
        x1 = max(x0 + 1, min(math.ceil(fx1 * lw), lw))
        y0 = min(int(fy0 * lh), lh - 1)
        y1 = max(y0 + 1, min(math.ceil(fy1 * lh), lh))
        pixels = self.read_region(ref, level, x0, y0, x1 - x0, y1 - y0)
        return RasterWindow(level, x0, y0, x1 - x0, y1 - y0, pixels)

    # -- introspection -----------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Directory and counter summary for the CLI and benchmarks."""
        tiles = list(self._tiles.items())   # commits may add tiles meanwhile
        tile_pages = sum(len(pages) for __, pages in tiles)
        levels: dict[str, int] = {}
        for key, __ in tiles:
            level = key.split("/")[1]
            levels[level] = levels.get(level, 0) + 1
        return {
            "rasters": len(self._rasters),
            "tiles": len(tiles),
            "tile_pages": tile_pages,
            "free_pages": len(self._free),
            "tile_size": self.tile,
            "tiles_per_level": dict(sorted(levels.items())),
            "tile_reads": self.tile_reads,
            "tile_writes": self.tile_writes,
            "window_reads": self.window_reads,
        }

    def __repr__(self) -> str:
        return (f"<RasterStore rasters={len(self._rasters)} "
                f"tiles={len(self._tiles)} tile={self.tile}>")
