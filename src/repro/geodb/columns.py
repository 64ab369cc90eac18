"""Columnar scan storage: version-stamped per-class column sets.

Every class plan of the query engine selects row positions of one
:class:`ClassColumns` set: a full scan takes every row, a hash or
R-tree scan maps its probe's oids to rows through ``row_of``, and the
predicate's fused kernel
(:meth:`~repro.geodb.query.Predicate.compile_columns`) narrows them.
Scenario queries select the same way over a transient, unversioned set
of their overlay candidates.

A set materializes the attribute paths a query touches into parallel
Python lists — one **column** per path, plus an oid column and a packed
bbox column per geometry attribute — so kernels run as plain list
comprehensions over positions, without materializing or calling into
any object until the surviving rows are known.

Freshness is judged by the class commit version alone, the one key
every piece of derived state uses: a column set is stamped with
:meth:`~repro.geodb.database.GeographicDatabase.class_version` and
answers only while the stamp matches. Sets are **patched, not
discarded**: live commits, crash-recovery replay and replicated batches
all pass through ``_apply_batch``, which hands each batch to
:meth:`ColumnCache.advance`. Every cached set stamped with a touched
class's pre-batch version is replaced by a copy-on-write successor at
the new version that re-resolves only the rows the batch wrote
(:meth:`ClassColumns.advance`). A whole-class build happens only on a
class's first use, for a set that missed a batch, and after the two
paths that move an extent without a commit, ``load_from_storage`` and
``resync``, which drop the whole cache.

Column sets hold **committed state only**. Building snapshots the
extent as a seqlock-validated read
(:meth:`~repro.geodb.database.GeographicDatabase._read_stable`, the same
retry-then-lock protocol as every other lock-free reader): while a
commit is applying, the build retries and then waits for the commit
lock, so a scan always gets a column set — and a scan that waited takes
the set the commit just patched instead of building one. Lazy columns
resolve their values through the same protocol and are kept on the set
only when the seqlock did not move meanwhile, so a value written by a
commit that later rolls back never stays in a set. MVCC snapshot
readers (``Transaction.read`` / ``Transaction.query``) and
mid-transaction overlays never touch this cache — they resolve through
the version store.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Any

from ..spatial.geometry import Geometry
from .query import compile_path
from .schema import GeoClass


def _packed_bbox(geom) -> tuple | None:
    """A geometry's bounds as ``(min_x, min_y, max_x, max_y)``, else None."""
    if not isinstance(geom, Geometry):
        return None
    box = geom.bbox()
    return (box.min_x, box.min_y, box.max_x, box.max_y)


def _patched(column: list, updated: list, removed: list,
             appended: list, resolve) -> list:
    """A copy of ``column`` past one batch, or ``column`` itself.

    ``updated`` holds ``(row, obj)`` pairs to re-resolve in place,
    ``removed`` row positions in descending order, ``appended`` new
    objects. Without removals or appends the column is shared when
    every re-resolved value is the very object it already holds.
    """
    if not (removed or appended):
        changed = [(row, value) for row, obj in updated
                   if (value := resolve(obj)) is not column[row]]
        if not changed:
            return column
        column = list(column)
        for row, value in changed:
            column[row] = value
        return column
    column = list(column)
    for row, obj in updated:
        column[row] = resolve(obj)
    for row in removed:
        del column[row]
    column.extend(map(resolve, appended))
    return column


class ClassColumns:
    """The materialized columns of one (schema, class) at one version.

    ``objects`` is the extent snapshot the columns are aligned with, in
    extent (insertion) order: position ``i`` of every column describes
    ``objects[i]``. Value columns are built lazily per attribute path —
    a query only pays for the paths it touches — and are keyed by the
    *query class* too, because path resolution applies the query class's
    attribute defaults to every closure member (exactly like
    :meth:`~repro.geodb.query.Predicate.matches`).

    A set is never mutated once another thread can hold it, apart from
    adding lazy columns and the lazy ``oid -> row`` map: a commit
    replaces it with a successor (:meth:`advance`).

    ``database`` is the database whose committed state the set mirrors;
    lazy columns resolve through its seqlock. A **transient** batch
    (scenario candidates, benchmark baselines) has none: version ``-1``,
    never cached, and its lazy columns resolve directly.
    """

    __slots__ = ("schema_name", "class_name", "version", "cardinality",
                 "objects", "oids", "_db", "_row_of", "_paths", "_geometry")

    def __init__(self, schema_name: str, class_name: str, version: int,
                 objects: list, database=None):
        self.schema_name = schema_name
        self.class_name = class_name
        self.version = version
        self.cardinality = len(objects)
        self.objects = objects
        self._db = database
        #: the oid column, aligned with ``objects``
        self.oids = [obj.oid for obj in objects]
        self._row_of: dict[str, int] | None = None
        #: (path, query class name) -> (accessor, value column)
        self._paths: dict[tuple[str, str], tuple[Any, list]] = {}
        #: geometry attr -> (value column, packed bbox column)
        self._geometry: dict[str, tuple[list, list]] = {}

    def __len__(self) -> int:
        return self.cardinality

    @classmethod
    def transient(cls, objects: list) -> "ClassColumns":
        """An unversioned batch over ``objects``, for selecting rows of
        objects no database caches (see the class docstring)."""
        return cls("", "", -1, objects)

    @property
    def row_of(self) -> dict[str, int]:
        """oid -> row position, for index- and hash-scan selection."""
        if self._row_of is None:
            self._row_of = {oid: i for i, oid in enumerate(self.oids)}
        return self._row_of

    def _resolve(self, resolve) -> tuple[list, bool]:
        """``(values, keep)``: ``resolve`` mapped over the objects.

        The objects are live and a commit mutates them in place, so the
        values are read as a stable read of the database; ``keep`` is
        true only when the seqlock did not move around the whole read.
        Otherwise a commit applied (or rolled back) meanwhile, maybe on
        this very thread, and the values must not stay in the set.
        """
        db = self._db
        objects = self.objects
        if db is None:
            return list(map(resolve, objects)), True
        seq = db._mutation_seq
        values = db._read_stable(lambda: list(map(resolve, objects)))
        return values, not seq & 1 and db._mutation_seq == seq

    def path_column(self, path: str, geo_class: GeoClass) -> list:
        """The value column for an attribute path.

        Values are resolved through :func:`~repro.geodb.query.
        compile_path` with ``geo_class``'s defaults, so a position holds
        exactly what :meth:`~repro.geodb.query.Predicate.matches` would
        have compared, with the ``MISSING`` sentinel where it finds no
        value (unresolvable dotted paths). The accessor is kept with the
        column, so a patch re-resolves rows without re-parsing the path.
        """
        key = (path, geo_class.name)
        entry = self._paths.get(key)
        if entry is None:
            accessor = compile_path(path, geo_class)
            column, keep = self._resolve(accessor)
            if not keep:
                return column
            entry = self._paths[key] = (accessor, column)
        return entry[1]

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
            geoms, keep = self._resolve(lambda obj: obj._values.get(attr))
            cached = (geoms, list(map(_packed_bbox, geoms)))
            if keep:
                self._geometry[attr] = cached
        return cached

    def advance(self, version: int, extent,
                touched: dict[str, bool]) -> "ClassColumns":
        """The copy-on-write successor of this set past one batch.

        ``touched`` maps every oid the batch wrote in this class to
        whether the batch deleted it, ordered by each oid's last insert.
        Only those rows are re-resolved, from their final state in
        ``extent``: a kept row is updated in place, a new (or deleted
        and re-inserted) object is appended, as the extent appends it,
        and a gone row is removed. Materialized columns whose touched
        values did not change, and the ``oid -> row`` map when no row
        moved, are shared with this set, which stays unchanged for any
        reader still holding it.
        """
        row_of = self.row_of
        get = extent.get
        updated: list[tuple[int, Any]] = []
        removed: list[int] = []
        appended: list = []
        for oid, deleted in touched.items():
            obj = get(oid)
            row = row_of.get(oid)
            if row is not None and obj is not None and not deleted:
                updated.append((row, obj))
                continue
            if row is not None:
                removed.append(row)
            if obj is not None:
                appended.append(obj)
        removed.sort(reverse=True)
        successor = ClassColumns.__new__(ClassColumns)
        successor.schema_name = self.schema_name
        successor.class_name = self.class_name
        successor.version = version
        successor._db = self._db
        successor.objects = _patched(self.objects, updated, removed,
                                     appended, lambda obj: obj)
        successor.cardinality = len(successor.objects)
        oids = successor.oids = _patched(self.oids, [], removed, appended,
                                         attrgetter("oid"))
        if removed:
            successor._row_of = {oid: i for i, oid in enumerate(oids)}
        elif appended:
            successor._row_of = dict(row_of)
            successor._row_of.update(
                (obj.oid, i) for i, obj in enumerate(appended, len(self.oids)))
        else:
            successor._row_of = row_of
        # dict(): readers add lazy columns to this set concurrently
        successor._paths = {
            key: (accessor, _patched(column, updated, removed, appended,
                                     accessor))
            for key, (accessor, column) in dict(self._paths).items()}
        geometry = {}
        for attr, (geoms, boxes) in dict(self._geometry).items():
            def geom_of(obj, attr=attr):
                return obj._values.get(attr)

            new_geoms = _patched(geoms, updated, removed, appended, geom_of)
            if new_geoms is not geoms:
                # a box is a function of its geometry: without moved
                # rows, re-pack only the rows whose geometry changed
                boxes = _patched(
                    boxes, [(row, obj) for row, obj in updated
                            if removed or appended
                            or new_geoms[row] is not geoms[row]],
                    removed, appended,
                    lambda obj: _packed_bbox(geom_of(obj)))
            geometry[attr] = (new_geoms, boxes)
        successor._geometry = geometry
        return successor

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
    column_cache`. A class's set is built on first use and then patched
    past every batch that touches the class (see module docstring).
    """

    def __init__(self, database):
        self._db = database
        self._cache: dict[tuple[str, str], ClassColumns] = {}
        #: serializes installs, so no set replaces a newer one
        self._install_lock = threading.Lock()
        # Counters feed the hit ratios in status() (the kernel status
        # tree's ``database.columns``).
        self.builds = 0
        self.hits = 0
        #: stale sets rebuilt (they missed a batch)
        self.invalidations = 0
        #: sets advanced past a committed batch
        self.patches = 0
        #: patches that raised; their sets were dropped for a rebuild
        self.patch_failures = 0

    def for_class(self, schema_name: str, class_name: str) -> ClassColumns:
        """A version-fresh column set for one class.

        Cached sets are validated against the class commit version; a
        missing or stale set is rebuilt.
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

        def read():
            # The version and the object list must come from the same
            # commit state. The cache is re-checked on every round: a
            # read that waited for a commit finds the set it patched.
            version = db.class_version(schema_name, class_name)
            current = self._cache.get(key)
            if current is not None and current.version == version:
                return current, False
            return ClassColumns(schema_name, class_name, version,
                                list(extent), db), True

        columns, built = db._read_stable(read)
        if not built:
            self.hits += 1
            return columns
        # A slow build must not replace the set a commit patched past it.
        with self._install_lock:
            current = self._cache.get(key)
            if current is None or current.version < columns.version:
                self._cache[key] = columns
        self.builds += 1
        if cached is not None:
            self.invalidations += 1
        return columns

    def advance(self, intents, prev_versions: dict[tuple[str, str], int]
                ) -> None:
        """Patch every cached set past one applied batch.

        Called by ``_apply_batch`` under the commit lock, once the
        seqlock is even again. ``prev_versions`` maps each touched
        class to its version before the batch; a set stamped with it is
        replaced by its :meth:`ClassColumns.advance` successor, and a
        set stamped with anything else missed a batch and is left for
        :meth:`for_class` to rebuild. A patch that raises is counted in
        ``patch_failures`` and drops its class's set: the batch is
        already applied and must not fail.
        """
        #: key -> (the set to patch, oid -> deleted by the batch)
        touched: dict[tuple[str, str], tuple[ClassColumns, dict]] = {}
        for key, prev in prev_versions.items():
            cached = self._cache.get(key)
            if cached is not None and cached.version == prev:
                touched[key] = (cached, {})
        if not touched:
            return
        for intent in intents:
            entry = touched.get((intent.schema_name, intent.class_name))
            if entry is None:
                continue
            rows = entry[1]
            oid = intent.oid
            if intent.op == "insert":
                # a (re-)insert lands at the extent's end
                rows[oid] = rows.pop(oid, False)
            elif intent.op == "delete":
                rows[oid] = True
            else:
                rows.setdefault(oid, False)
        db = self._db
        for key, (cached, rows) in touched.items():
            try:
                successor = cached.advance(db.class_version(*key),
                                           db.extent(*key), rows)
            except Exception:
                self.patch_failures += 1
                self._cache.pop(key, None)
                continue
            with self._install_lock:
                self._cache[key] = successor
            self.patches += 1

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
                "patches": self.patches,
                "patch_failures": self.patch_failures,
                "hit_ratio": round(self.hits / lookups, 3) if lookups
                else None,
            },
            "classes": classes,
        }
