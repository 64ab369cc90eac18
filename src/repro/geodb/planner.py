"""Cost-based query planning over class extents and their indexes.

Until now the query engine picked its access path by fixed priority
(spatial index, then hash index, then full scan). That heuristic is
wrong in both directions: a bounding box covering the whole map still
pays the R-tree walk plus a per-candidate refine, while a highly
selective hash bucket is ignored whenever any spatial prefilter exists.
This module replaces the priority rule with estimated costs.
:class:`QueryPlanner` chooses, **per class** of the query's closure (the
class plus its transitive subclasses when ``include_subclasses`` is
set), the cheapest of full scan / hash scan / R-tree scan by the cost
model below. Mixed closures therefore mix access paths — one subclass
may scan its R-tree while an unindexed sibling falls back to its
extent — and the per-class decisions are reported truthfully in the
execution report.

The cost model reads the live catalog at plan time, nothing cached: the
extent's length, the class's R-tree (entry count and root bounding box)
and the hash index's bucket lengths. Each is O(1) to read (the root box
unions at most one node's entries), so a plan is always as fresh as the
commit state it runs against, and there is no snapshot to invalidate.

Cost model (unit: one extent-row visit)
---------------------------------------

``full-scan``      ``1 + N`` — touch every row of the extent.
``hash-scan``      ``2 + est_rows`` — bucket probes are O(1); the work
                   is selecting and refining the bucket members.
                   ``est_rows`` is exact: the sum of the probed
                   buckets' lengths.
``index-scan``     ``2·log2(N+2) + 1.15·est_rows`` — the tree descent
                   plus select/refine of the overlap estimate, with a
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
                 "reason")

    def __init__(self, class_name: str, kind: str, index: str | None,
                 est_cost: float, est_rows: float, reason: str = ""):
        self.class_name = class_name
        self.kind = kind
        #: index identity (``rtree(Cls.attr)`` / ``hash(Cls.attr)``), or None
        self.index = index
        self.est_cost = est_cost
        self.est_rows = est_rows
        #: why this path won (or why an index was not usable)
        self.reason = reason

    def describe(self) -> dict[str, Any]:
        return {
            "class": self.class_name,
            "plan": self.kind,
            "index": self.index,
            "est_cost": round(self.est_cost, 2),
            "est_rows": round(self.est_rows, 2),
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        return (f"<ClassPlan {self.class_name}: {self.kind}"
                f"{' via ' + self.index if self.index else ''}>")


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
        n = len(db.extent(schema_name, class_name))
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
            rtree = db._spatial.get((schema_name, class_name, attr))
            entries = 0 if rtree is None else len(rtree)
            if entries:
                # A populated R-tree proves the attribute is spatial
                # here; no schema walk needed on the common path.
                ratio = _overlap_ratio(box, rtree.bbox())
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
        return best

    def _attr_is_spatial(self, schema_name: str, class_name: str,
                         attr: str) -> bool:
        schema = self._db.get_schema_object(schema_name)
        for candidate in schema.effective_attributes(class_name):
            if candidate.name == attr:
                return candidate.is_spatial()
        return False
