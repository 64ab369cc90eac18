"""Columnar scan storage: version-stamped per-class column sets.

The query engine's row path filters by calling
:meth:`~repro.geodb.query.Predicate.matches` on every candidate
:class:`~repro.geodb.instances.GeoObject` — Python calls, a path
resolution and a comparison per row per predicate term. For
the scan-heavy analysis queries the customization loop fires constantly
(rule evaluation, presentation refresh, live-query fallback
re-execution), that per-row interpreter overhead dominates once the
result cache misses.

This module materializes the attribute paths a query touches into
parallel Python lists — one **column** per path, plus an oid column and
a packed bbox column per geometry attribute — so predicate kernels
(:meth:`~repro.geodb.query.Predicate.compile_columns`) can run as plain
list comprehensions over positions, without materializing or calling
into any object until the surviving rows are known.

Freshness is judged by the class commit version alone, the one key
every piece of derived state uses: a column set is stamped with
:meth:`~repro.geodb.database.GeographicDatabase.class_version` at build
time and is discarded the moment it moves — live commits, crash-recovery
replay and replicated batches all bump it through ``_apply_batch``. The
two paths that move an extent without a commit, ``load_from_storage``
and ``resync``, drop the whole cache instead.

Building snapshots the extent as a seqlock-validated read
(:meth:`~repro.geodb.database.GeographicDatabase._read_stable`, the same
retry-then-lock protocol as every other lock-free reader): while a
commit is applying, the build retries and then waits for the commit
lock, so a scan always gets a column set.

Column sets describe **the latest committed state only**. MVCC snapshot
readers (``Transaction.read`` / ``Transaction.query``) and mid-
transaction overlays never touch this cache — they resolve through the
version store — and the engine itself only executes at the latest
commit, so a fresh column set is always the state the row path would
have scanned.
"""

from __future__ import annotations

from typing import Any

from ..spatial.geometry import Geometry
from .query import compile_path
from .schema import GeoClass


class ClassColumns:
    """The materialized columns of one (schema, class) at one version.

    ``objects`` is the extent snapshot the columns are aligned with, in
    extent (insertion) order: position ``i`` of every column describes
    ``objects[i]``. Value columns are built lazily per attribute path —
    a query only pays for the paths it touches — and are keyed by the
    *query class* too, because path resolution applies the query class's
    attribute defaults to every closure member (exactly like
    :meth:`~repro.geodb.query.Predicate.matches`).
    """

    __slots__ = ("schema_name", "class_name", "version", "cardinality",
                 "objects", "oids", "_row_of", "_paths", "_geometry")

    def __init__(self, schema_name: str, class_name: str, version: int,
                 objects: list):
        self.schema_name = schema_name
        self.class_name = class_name
        self.version = version
        self.cardinality = len(objects)
        self.objects = objects
        #: the oid column, aligned with ``objects``
        self.oids = [obj.oid for obj in objects]
        self._row_of: dict[str, int] | None = None
        #: (path, query class name) -> value column
        self._paths: dict[tuple[str, str], list] = {}
        #: geometry attr -> (value column, packed bbox column)
        self._geometry: dict[str, tuple[list, list]] = {}

    def __len__(self) -> int:
        return self.cardinality

    @property
    def row_of(self) -> dict[str, int]:
        """oid -> row position, for hash-scan selection."""
        if self._row_of is None:
            self._row_of = {oid: i for i, oid in enumerate(self.oids)}
        return self._row_of

    def path_column(self, path: str, geo_class: GeoClass) -> list:
        """The value column for an attribute path.

        Values are resolved through :func:`~repro.geodb.query.
        compile_path` with ``geo_class``'s defaults, so a position holds
        exactly what :meth:`~repro.geodb.query.Predicate.matches` would
        have compared, with the ``MISSING`` sentinel where it finds no
        value (unresolvable dotted paths).
        """
        key = (path, geo_class.name)
        column = self._paths.get(key)
        if column is None:
            accessor = compile_path(path, geo_class)
            column = [accessor(obj) for obj in self.objects]
            self._paths[key] = column
        return column

    def geometry_column(self, attr: str) -> tuple[list, list]:
        """``(geometry column, packed bbox column)`` for one attribute.

        The geometry column holds the raw attribute value (spatial
        predicates read the object's own geometry, never type defaults);
        the bbox column packs each geometry's bounds as a
        ``(min_x, min_y, max_x, max_y)`` tuple — ``None`` where the
        value is not a :class:`~repro.spatial.geometry.Geometry` — so
        kernels can reject rows on bounds without touching the geometry.
        """
        cached = self._geometry.get(attr)
        if cached is None:
            geoms = [obj._values.get(attr) for obj in self.objects]
            boxes: list = []
            for geom in geoms:
                if isinstance(geom, Geometry):
                    box = geom.bbox()
                    boxes.append((box.min_x, box.min_y,
                                  box.max_x, box.max_y))
                else:
                    boxes.append(None)
            cached = (geoms, boxes)
            self._geometry[attr] = cached
        return cached

    def column_count(self) -> int:
        """Materialized columns (paths + geometry pairs), for status."""
        return len(self._paths) + 2 * len(self._geometry)

    def describe(self) -> dict[str, Any]:
        return {
            "schema": self.schema_name,
            "class": self.class_name,
            "version": self.version,
            "rows": self.cardinality,
            "columns": self.column_count(),
            "paths": sorted(path for path, __ in self._paths),
        }


class ColumnCache:
    """Per-(schema, class) column sets for one database.

    Created lazily by :attr:`~repro.geodb.database.GeographicDatabase.
    column_cache`; entries refresh themselves on first use after any
    commit that touches their class (see module docstring).
    """

    def __init__(self, database):
        self._db = database
        self._cache: dict[tuple[str, str], ClassColumns] = {}
        # Counters feed the hit ratios in status() (the kernel status
        # tree's ``database.columns``).
        self.builds = 0
        self.hits = 0
        self.invalidations = 0

    def for_class(self, schema_name: str, class_name: str) -> ClassColumns:
        """A version-fresh column set for one class.

        Cached sets are validated against the class commit version; a
        stale set is rebuilt in place.
        """
        db = self._db
        key = (schema_name, class_name)
        cached = self._cache.get(key)
        if cached is not None \
                and cached.version == db.class_version(schema_name,
                                                       class_name):
            self.hits += 1
            return cached
        extent = db.extent(schema_name, class_name)
        # The version and the object list must come from the same
        # commit state.
        version, objects = db._read_stable(
            lambda: (db.class_version(schema_name, class_name),
                     list(extent)))
        fresh = ClassColumns(schema_name, class_name, version, objects)
        self._cache[key] = fresh
        self.builds += 1
        if cached is not None:
            self.invalidations += 1
        return fresh

    def invalidate(self) -> None:
        """Drop every column set (cold-scan measurements)."""
        self._cache.clear()

    def status(self) -> dict[str, Any]:
        """A JSON-safe export (``database.columns`` in the status tree)."""
        # list(): a concurrent query may build a class's columns meanwhile
        classes = [entry.describe() for entry in list(self._cache.values())]
        lookups = self.hits + self.builds
        return {
            "summary": {
                "classes": len(classes),
                "rows": sum(entry["rows"] for entry in classes),
                "columns": sum(entry["columns"] for entry in classes),
                "builds": self.builds,
                "hits": self.hits,
                "invalidations": self.invalidations,
                "hit_ratio": round(self.hits / lookups, 3) if lookups
                else None,
            },
            "classes": classes,
        }
