"""Cost-based query planning over class extents and their indexes.

Until now the query engine picked its access path by fixed priority
(spatial index, then hash index, then full scan). That heuristic is
wrong in both directions: a bounding box covering the whole map still
pays the R-tree walk plus a per-candidate refine, while a highly
selective hash bucket is ignored whenever any spatial prefilter exists.
This module replaces the priority rule with estimated costs:

* :class:`Statistics` — per-(schema, class) measurements: extent
  cardinality, hash-index selectivity (via
  :meth:`~repro.geodb.attr_index.HashIndex.stats`), and R-tree coverage
  (entry count plus the index's bounding box). Snapshots are cached and
  keyed by the class's **commit version**
  (:meth:`~repro.geodb.database.GeographicDatabase.class_version`), so
  they refresh lazily after every commit that touches the class and are
  free between commits.
* :class:`QueryPlanner` — chooses, **per class** of the query's closure
  (the class plus its transitive subclasses when ``include_subclasses``
  is set), the cheapest of full scan / hash scan / R-tree scan by the
  cost model below. Mixed closures therefore mix access paths — one
  subclass may scan its R-tree while an unindexed sibling falls back to
  its extent — and the per-class decisions are reported truthfully in
  the execution report.

Cost model (unit: one extent-row visit)
---------------------------------------

``full-scan``      ``1 + N`` — touch every row of the extent.
``hash-scan``      ``2 + est_rows`` — bucket probes are O(1); the work
                   is fetching and refining the bucket members.
                   ``est_rows`` is exact when the index is consulted
                   (bucket lengths are known), else the average bucket
                   size times the number of probe values.
``index-scan``     ``2·log2(N+2) + 1.15·est_rows`` — the tree descent
                   plus fetch/refine of the overlap estimate, with a
                   mild penalty for the R-tree's rectangle tests.
                   ``est_rows`` is ``N`` scaled by the probe box's
                   per-dimension overlap with the index's bounding box
                   (degenerate dimensions count as full overlap when the
                   probe spans them, zero otherwise).

A hash path is only *eligible* when every probe value is indexable —
``= None`` never consults the index (``None`` is not a key; absent
attributes resolve to type defaults, so a bucket miss does not prove a
predicate miss) — and a spatial path is only eligible when the class
actually declares the geometry attribute (a class that does not gets a
``full-scan`` plan and a ``query.index_fallback`` counter instead of a
silently swallowed exception).
"""

from __future__ import annotations

import math
from typing import Any

from .. import obs
from ..spatial.geometry import BBox

#: Plan kinds, as they appear in execution reports.
FULL_SCAN = "full-scan"
HASH_SCAN = "hash-scan"
INDEX_SCAN = "index-scan"

#: Cost constants (in extent-row-visit units). The absolute scale is
#: irrelevant; only the ratios steer decisions.
_ROW_COST = 1.0
_HASH_SETUP = 2.0
_RTREE_ROW_COST = 1.15
_SCAN_SETUP = 1.0


class ClassPlan:
    """The chosen access path for one class of a query's closure."""

    __slots__ = ("class_name", "kind", "index", "est_cost", "est_rows",
                 "reason", "columns", "columns_reason")

    def __init__(self, class_name: str, kind: str, index: str | None,
                 est_cost: float, est_rows: float, reason: str = "",
                 columns: bool = False, columns_reason: str = ""):
        self.class_name = class_name
        self.kind = kind
        #: index identity (``rtree(Cls.attr)`` / ``hash(Cls.attr)``), or None
        self.index = index
        self.est_cost = est_cost
        self.est_rows = est_rows
        #: why this path won (or why an index was not usable)
        self.reason = reason
        #: whether this class scans the columnar path (set eligible by
        #: the planner, downgraded by the engine if the column set
        #: cannot be used at execution time — see docs/COLUMNS.md)
        self.columns = columns
        #: why the row path was used when ``columns`` is False
        self.columns_reason = columns_reason

    def describe(self) -> dict[str, Any]:
        described = {
            "class": self.class_name,
            "plan": self.kind,
            "index": self.index,
            "est_cost": round(self.est_cost, 2),
            "est_rows": round(self.est_rows, 2),
            "reason": self.reason,
            "columns": self.columns,
        }
        if not self.columns and self.columns_reason:
            described["columns_reason"] = self.columns_reason
        return described

    def __repr__(self) -> str:
        return (f"<ClassPlan {self.class_name}: {self.kind}"
                f"{' via ' + self.index if self.index else ''}>")


class ClassStats:
    """One class's statistics snapshot (valid for one commit version)."""

    __slots__ = ("version", "cardinality", "spatial", "hash")

    def __init__(self, version: int, cardinality: int,
                 spatial: dict[str, dict[str, Any]],
                 hash_: dict[str, dict[str, Any]]):
        self.version = version
        self.cardinality = cardinality
        #: attr -> {entries, bbox (BBox|None)}
        self.spatial = spatial
        #: attr -> {entries, distinct, avg_bucket, max_bucket}
        self.hash = hash_

    def describe(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "cardinality": self.cardinality,
            "spatial": {
                attr: {
                    "entries": info["entries"],
                    "bbox": None if info["bbox"] is None else [
                        info["bbox"].min_x, info["bbox"].min_y,
                        info["bbox"].max_x, info["bbox"].max_y,
                    ],
                }
                for attr, info in self.spatial.items()
            },
            "hash": dict(self.hash),
        }


class Statistics:
    """Catalog-level planner statistics for one database.

    Snapshots are computed lazily on first use and cached keyed by
    ``(class commit version, extent length)``: every commit that touches
    a class bumps its version (see ``GeographicDatabase._commit_locked``),
    and bulk loads outside the commit path move the extent length, so a
    cached snapshot is exactly as fresh as the class it describes.
    """

    def __init__(self, database):
        self._db = database
        #: (schema, class) -> ClassStats
        self._cache: dict[tuple[str, str], ClassStats] = {}

    def for_class(self, schema_name: str, class_name: str,
                  schema=None) -> ClassStats:
        key = (schema_name, class_name)
        db = self._db
        version = db.class_version(schema_name, class_name)
        if schema is None:
            cardinality = len(db.extent(schema_name, class_name))
        else:
            # Batched callers (snapshot) have already validated the
            # schema/class pair — probe the extent table directly
            # instead of re-walking the catalog per class.
            extent = db._extents.get(key)
            cardinality = 0 if extent is None else len(extent)
        cached = self._cache.get(key)
        if cached is not None and cached.version == version \
                and cached.cardinality == cardinality:
            return cached
        stats = self._compute(schema_name, class_name, version, cardinality,
                              schema=schema)
        self._cache[key] = stats
        return stats

    def _compute(self, schema_name: str, class_name: str, version: int,
                 cardinality: int, schema=None) -> ClassStats:
        db = self._db
        if schema is None:
            schema = db.get_schema_object(schema_name)
        spatial: dict[str, dict[str, Any]] = {}
        hash_: dict[str, dict[str, Any]] = {}
        for attr in schema.effective_attributes(class_name):
            if attr.is_spatial():
                index = db._spatial.get((schema_name, class_name, attr.name))
                if index is not None and len(index):
                    spatial[attr.name] = {
                        "entries": len(index), "bbox": index.bbox(),
                    }
            else:
                index = db.attribute_index(schema_name, class_name, attr.name)
                if index is not None:
                    info = index.stats()
                    distinct = info["distinct_values"]
                    hash_[attr.name] = {
                        "entries": info["entries"],
                        "distinct": distinct,
                        "avg_bucket": (info["entries"] / distinct
                                       if distinct else 0.0),
                        "max_bucket": info["max_bucket"],
                    }
        return ClassStats(version, cardinality, spatial, hash_)

    def invalidate(self) -> None:
        """Drop every cached snapshot (tests / bulk administrative ops)."""
        self._cache.clear()

    def snapshot(self, schema_name: str | None = None) -> dict[str, Any]:
        """A JSON-safe export of the statistics for persistence / CLI.

        Computes fresh snapshots for every class of the named schema (or
        all schemas), so the export reflects the current commit state.
        Batched: the schema object is fetched once per schema and passed
        through, so each class costs one extent/version probe instead of
        a catalog walk plus an extent validation of its own.
        """
        db = self._db
        out: dict[str, Any] = {}
        names = [schema_name] if schema_name else db.schema_names()
        for name in names:
            schema = db.get_schema_object(name)
            out[name] = {
                cls: self.for_class(name, cls, schema=schema).describe()
                for cls in schema.class_names()
            }
        return out


def _overlap_ratio(probe: BBox, extent: BBox) -> float:
    """Fraction of the index's coverage a probe box selects, in [0, 1].

    Per-dimension overlap ratios are multiplied (the uniform-spread
    assumption). A degenerate index dimension (all geometry at one
    coordinate) contributes 1 when the probe spans it, 0 otherwise.
    """

    def axis(p_min: float, p_max: float, e_min: float, e_max: float) -> float:
        lo, hi = max(p_min, e_min), min(p_max, e_max)
        if hi < lo:
            return 0.0
        span = e_max - e_min
        if span <= 0.0:
            return 1.0
        return min(1.0, (hi - lo) / span)

    return (axis(probe.min_x, probe.max_x, extent.min_x, extent.max_x)
            * axis(probe.min_y, probe.max_y, extent.min_y, extent.max_y))


class QueryPlanner:
    """Chooses the cheapest access path per class of a query's closure."""

    def __init__(self, database):
        self._db = database
        self.statistics = database.statistics

    # -- closure ---------------------------------------------------------

    def class_closure(self, schema_name: str, query) -> list[str]:
        """The classes the query touches, in deterministic order."""
        if not query.include_subclasses:
            return [query.class_name]
        schema = self._db.get_schema_object(schema_name)
        closure: list[str] = []
        pending = [query.class_name]
        while pending:
            current = pending.pop()
            closure.append(current)
            pending.extend(schema.subclasses(current))
        return closure

    # -- planning --------------------------------------------------------

    def prefilters(self, query) -> tuple[tuple[str, BBox] | None,
                                         tuple[str, list] | None]:
        """The query's *usable* spatial and equality prefilters.

        Applies the planner's eligibility rules: an empty probe bbox
        carries no information (the index would return nothing while
        the predicate may still match), and ``= None`` cannot use a
        hash index (``None`` is not an index key, and absent attributes
        resolve to type defaults, so a bucket miss does not prove a
        predicate miss).
        """
        prefilter = query.where.spatial_prefilter()
        if prefilter is not None and prefilter[1].is_empty():
            prefilter = None
        equality = query.where.equality_prefilter()
        if equality is not None and any(v is None for v in equality[1]):
            equality = None
        return prefilter, equality

    def plan_class(
        self,
        schema_name: str,
        class_name: str,
        prefilter: tuple[str, BBox] | None,
        equality: tuple[str, list] | None,
    ) -> ClassPlan:
        """The cheapest access path for one class."""
        db = self._db
        stats = self.statistics.for_class(schema_name, class_name)
        n = stats.cardinality
        best = ClassPlan(class_name, FULL_SCAN, None,
                         _SCAN_SETUP + n * _ROW_COST, float(n),
                         reason="extent scan")

        if equality is not None:
            attr, values = equality
            index = db.attribute_index(schema_name, class_name, attr)
            if index is not None:
                # Bucket lengths are known exactly — use them instead of
                # the average-bucket estimate.
                est_rows = float(sum(
                    len(index.lookup_view(value)) for value in values
                ))
                cost = _HASH_SETUP + est_rows * _ROW_COST
                if cost < best.est_cost:
                    best = ClassPlan(
                        class_name, HASH_SCAN, f"hash({class_name}.{attr})",
                        cost, est_rows,
                        reason=f"{len(values)} bucket probe(s), "
                               f"~{est_rows:.0f} rows",
                    )

        if prefilter is not None:
            attr, box = prefilter
            info = stats.spatial.get(attr)
            if info is not None:
                # A populated R-tree proves the attribute is spatial
                # here; no schema walk needed on the common path.
                entries = info["entries"]
                ratio = _overlap_ratio(box, info["bbox"])
                est_rows = entries * ratio
                cost = (2.0 * math.log2(entries + 2)
                        + est_rows * _RTREE_ROW_COST)
                if cost < best.est_cost:
                    best = ClassPlan(
                        class_name, INDEX_SCAN,
                        f"rtree({class_name}.{attr})", cost, est_rows,
                        reason=f"bbox covers ~{ratio:.1%} of the index",
                    )
            elif not self._attr_is_spatial(schema_name, class_name, attr):
                # The prefilter names an attribute this class does not
                # declare as a geometry — observable fallback, not a
                # swallowed exception (the closure may mix classes).
                rec = obs.RECORDER
                if rec.enabled:
                    rec.inc("query.index_fallback", cls=class_name, attr=attr)
                if best.kind == FULL_SCAN:
                    best.reason = f"attribute {attr!r} not spatial here"
            else:
                # Spatial attribute exists but its R-tree is empty (the
                # extent is empty, or no row has geometry set): the full
                # scan is the only correct path and already selected.
                pass
        # Column eligibility: full and hash scans visit rows the column
        # snapshot covers one-for-one; an index scan's candidate set
        # comes from the R-tree, which has no column-side equivalent.
        if best.kind in (FULL_SCAN, HASH_SCAN):
            best.columns = True
        else:
            best.columns_reason = "index scan"
        return best

    def _attr_is_spatial(self, schema_name: str, class_name: str,
                         attr: str) -> bool:
        schema = self._db.get_schema_object(schema_name)
        for candidate in schema.effective_attributes(class_name):
            if candidate.name == attr:
                return candidate.is_spatial()
        return False
