"""Query model: declarative predicates over class extents.

§2.1: "Database queries may be standard or return data on spatial
properties and relationships." The model mirrors that split:

* :class:`Comparison` — standard attribute predicates (``=``, ``<``,
  ``like`` ...), including dotted paths into tuple attributes
  (``pole_composition.pole_material = 'wood'``).
* :class:`SpatialPredicate` — a named topological relation against a probe
  geometry (``touches``, ``within`` ...), and :class:`WithinDistance` for
  metric proximity.
* :class:`And` / :class:`Or` / :class:`Not` — boolean combinators.

Predicates are pure descriptions; execution (and index selection) lives in
:mod:`repro.geodb.query_engine`.

Each predicate has one evaluator per access shape:

* :meth:`Predicate.compile_columns` fuses the predicate tree into a
  **column kernel** — ``rows -> surviving rows`` over the position lists
  of a :class:`~repro.geodb.columns.ClassColumns` set. Every query route
  selects with it: the engine's full, hash and index scans and scenario
  queries. Kernels never touch a
  :class:`~repro.geodb.instances.GeoObject`: comparisons run as list
  comprehensions over pre-resolved value columns, conjunctions narrow
  the row list term by term, and spatial predicates reject on a packed
  bbox column before evaluating any geometry. That pre-filter, and the
  index-scan window of :meth:`Predicate.spatial_prefilter`, is the
  probe's bbox widened by its boundary band
  (:func:`~repro.spatial.topology.boundary_band`), because ``relate``
  counts a point just outside an edge as on it. Against a rectangle
  probe (``bbox(...)``), :func:`~repro.spatial.topology.rectangle_relater`
  then decides point and line-string rows from their coordinates, and
  only rows within a margin of an edge run ``relate``.
* :meth:`Predicate.matches` judges **one object** — live-query
  membership of a written object, the base ``compile_columns`` fallback
  for predicate subclasses that define no kernel, and the reference
  evaluator the tests judge every route against (the property suite in
  ``tests/test_properties_columns.py`` pins that kernels answer like
  it). Unresolvable paths and uncomparable values are non-matches,
  never errors.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..errors import QueryError
from ..spatial.geometry import BBox, Geometry
from ..spatial.topology import (HOLDS, PREDICATES, boundary_band,
                                 rectangle_relater)
from ..spatial.algorithms import geometry_distance
from .instances import GeoObject
from .schema import GeoClass


class _Missing:
    """Sentinel for "the attribute path does not resolve on this object"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


#: Returned by :func:`compile_path` accessors where
#: :func:`_resolve_path` would have raised :class:`~repro.errors.
#: QueryError` (dotted path into a non-tuple, or a missing tuple field).
MISSING = _Missing()


def compile_path(path: str, geo_class: GeoClass):
    """Compile an attribute path into an ``obj -> value`` accessor.

    The path is parsed and the class-level default lookup is resolved
    **once**; the returned closure does one dict probe per call. Where
    :func:`_resolve_path` raises :class:`~repro.errors.QueryError`
    (dotted path through a non-tuple value, missing tuple field) the
    accessor returns :data:`MISSING` instead — callers translate that to
    "no match" / ``None`` exactly like :meth:`Predicate.matches` does.
    Value columns, order keys, projections and aggregates read paths
    through it.
    """
    head, __, rest = path.partition(".")
    if geo_class.has_attribute(head):
        default = geo_class.attribute(head).type.default
    else:
        default = None
    if not rest:
        if default is None:
            def accessor(obj: GeoObject):
                return obj._values.get(head)
        else:
            def accessor(obj: GeoObject):
                values = obj._values
                if head in values:
                    return values[head]
                return default()
        return accessor

    fields = rest.split(".")

    def dotted(obj: GeoObject):
        values = obj._values
        if head in values:
            value = values[head]
        elif default is not None:
            value = default()
        else:
            value = None
        for field in fields:
            if not isinstance(value, dict) or field not in value:
                return MISSING
            value = value[field]
        return value

    return dotted


class Predicate:
    """Base class for all predicate nodes."""

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        """Whether one object satisfies the predicate."""
        raise NotImplementedError

    def compile_columns(self, geo_class: GeoClass, columns):
        """A fused column kernel: ``rows -> surviving row positions``.

        ``columns`` is a :class:`~repro.geodb.columns.ClassColumns`
        snapshot; the returned kernel takes an iterable of row positions
        and returns the order-preserved subsequence that satisfies the
        predicate. Column lookups happen here, at compile time, so a
        kernel only indexes pre-built columns.

        The base implementation calls :meth:`matches` on the aligned
        object snapshot, so predicate subclasses defined outside this
        module stay correct on the column path too.
        """
        matches = self.matches
        objects = columns.objects

        def fallback(rows):
            return [i for i in rows if matches(objects[i], geo_class)]

        return fallback

    def spatial_prefilter(self) -> "tuple[str, BBox] | None":
        """``(attr_name, bbox)`` usable as an index prefilter, or None.

        A conjunction returns the first prefilter of any branch; other
        combinators return None (they cannot guarantee the filter is
        necessary).
        """
        return None

    def equality_prefilter(self) -> "tuple[str, list] | None":
        """``(attr_name, candidate_values)`` for a hash-index lookup.

        Only exposed by ``=`` / ``in`` comparisons on plain (non-dotted)
        attribute names, and propagated through conjunctions.
        """
        return None

    def describe(self) -> str:
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "And":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Not":
        return Not(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def _resolve_path(obj: GeoObject, geo_class: GeoClass, path: str) -> Any:
    """Value of a possibly dotted attribute path on ``obj``."""
    head, __, rest = path.partition(".")
    value = obj.get(head, geo_class)
    if not rest:
        return value
    if not isinstance(value, dict):
        raise QueryError(
            f"path {path!r}: attribute {head!r} is not a tuple value"
        )
    for field in rest.split("."):
        if not isinstance(value, dict) or field not in value:
            raise QueryError(f"path {path!r}: no field {field!r}")
        value = value[field]
    return value


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and a < b,
    "<=": lambda a, b: a is not None and a <= b,
    ">": lambda a, b: a is not None and a > b,
    ">=": lambda a, b: a is not None and a >= b,
    "in": lambda a, b: a in b,
    "like": lambda a, b: isinstance(a, str) and isinstance(b, str) and b.lower() in a.lower(),
}


def _contact_window(probe: Geometry) -> BBox:
    """The probe's bbox widened by its boundary band: every geometry
    :func:`~repro.spatial.topology.relate` finds in contact with the
    probe has a bbox that meets it."""
    return probe.bbox().expanded(boundary_band(probe))


def _bbox_overlap_kernel(boxes, window: BBox):
    """``rows -> rows`` whose packed bbox interacts with ``window``.

    Conservative pre-reject for contact-requiring spatial kernels: a
    geometry can only satisfy such a relation when its bounds touch the
    window (inclusive edges), so dropping the rest never changes the
    answer. Rows without a geometry (``box is None``) are dropped
    too — ``matches`` returns False for them unconditionally.
    """
    min_x, min_y = window.min_x, window.min_y
    max_x, max_y = window.max_x, window.max_y

    def pre(rows):
        return [
            i for i in rows
            if (box := boxes[i]) is not None
            and box[0] <= max_x and box[2] >= min_x
            and box[1] <= max_y and box[3] >= min_y
        ]

    return pre


class Comparison(Predicate):
    """``<attr path> <op> <literal>`` over conventional attributes."""

    def __init__(self, path: str, op: str, value: Any):
        if op not in _OPS:
            raise QueryError(f"unknown comparison operator {op!r}; known: {sorted(_OPS)}")
        if not path:
            raise QueryError("comparison needs an attribute path")
        self.path = path
        self.op = op
        self.value = value

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        try:
            actual = _resolve_path(obj, geo_class, self.path)
        except QueryError:
            return False
        try:
            return _OPS[self.op](actual, self.value)
        except TypeError:
            return False

    def compile_columns(self, geo_class: GeoClass, columns):
        value = self.value
        column = columns.path_column(self.path, geo_class)
        if self.op == "like":
            if not isinstance(value, str):
                return lambda rows: []
            needle = value.lower()

            def like(rows):
                return [
                    i for i in rows
                    if isinstance((actual := column[i]), str)
                    and needle in actual.lower()
                ]

            return like

        plain = "." not in self.path
        if plain and self.op == "=":
            # Plain columns never hold MISSING (the accessor always
            # resolves) and equality never raises, so ==/!= run as
            # bare comprehensions.
            return lambda rows: [i for i in rows if column[i] == value]
        if plain and self.op == "!=":
            return lambda rows: [i for i in rows if column[i] != value]

        op = _OPS[self.op]
        # Fast path: an unguarded comprehension with the comparison
        # inlined (ordering ops) or one call per row (dotted =/!=, in).
        # A TypeError — None or a mixed-type value meeting an ordering
        # op — aborts the comprehension and re-runs the guarded loop,
        # which skips exactly the rows ``matches`` skips.
        if self.op == "<":
            def fast(rows):
                return [i for i in rows
                        if (a := column[i]) is not MISSING and a < value]
        elif self.op == "<=":
            def fast(rows):
                return [i for i in rows
                        if (a := column[i]) is not MISSING and a <= value]
        elif self.op == ">":
            def fast(rows):
                return [i for i in rows
                        if (a := column[i]) is not MISSING and a > value]
        elif self.op == ">=":
            def fast(rows):
                return [i for i in rows
                        if (a := column[i]) is not MISSING and a >= value]
        else:
            def fast(rows):
                return [i for i in rows
                        if (a := column[i]) is not MISSING and op(a, value)]

        def kernel(rows):
            try:
                return fast(rows)
            except TypeError:
                out = []
                append = out.append
                for i in rows:
                    actual = column[i]
                    if actual is MISSING:
                        continue
                    try:
                        if op(actual, value):
                            append(i)
                    except TypeError:
                        continue
                return out

        return kernel

    def equality_prefilter(self) -> tuple[str, list] | None:
        if "." in self.path:
            return None
        if self.op == "=":
            return (self.path, [self.value])
        if self.op == "in" and isinstance(self.value, (list, tuple, set)):
            return (self.path, list(self.value))
        return None

    def describe(self) -> str:
        return f"{self.path} {self.op} {self.value!r}"


class SpatialPredicate(Predicate):
    """``<relation>(<geometry attr>, <probe geometry>)``.

    ``relation`` is one of the names in
    :data:`repro.spatial.topology.PREDICATES`.
    """

    def __init__(self, attr: str, relation: str, probe: Geometry):
        if relation not in PREDICATES:
            raise QueryError(
                f"unknown spatial relation {relation!r}; known: {sorted(PREDICATES)}"
            )
        if not isinstance(probe, Geometry):
            raise QueryError("spatial predicate needs a probe Geometry")
        self.attr = attr
        self.relation = relation
        self.probe = probe

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        geom = obj.geometry(self.attr)
        if geom is None:
            return False
        return PREDICATES[self.relation](geom, self.probe)

    def compile_columns(self, geo_class: GeoClass, columns):
        probe = self.probe
        relation = PREDICATES[self.relation]
        geoms, boxes = columns.geometry_column(self.attr)
        if self.relation == "disjoint":
            # Disjointness cannot be bbox-prefiltered; evaluate exactly
            # (non-Geometry values never match, like ``matches``).
            return lambda rows: [
                i for i in rows
                if boxes[i] is not None and relation(geoms[i], probe)
            ]
        pre = _bbox_overlap_kernel(boxes, _contact_window(probe))
        decide = rectangle_relater(probe)
        if decide is None:
            return lambda rows: [i for i in pre(rows)
                                 if relation(geoms[i], probe)]
        # A rectangle window: coordinates decide most rows, and only
        # the ones near an edge (decide -> None) run ``relate``.
        holds = HOLDS[self.relation]
        return lambda rows: [
            i for i in pre(rows)
            if (relation(geom, probe)
                if (rel := decide(geom := geoms[i])) is None
                else rel in holds)
        ]

    def spatial_prefilter(self) -> tuple[str, BBox] | None:
        # Everything but 'disjoint' implies contact with the probe's
        # bbox widened by its boundary band.
        if self.relation == "disjoint":
            return None
        return (self.attr, _contact_window(self.probe))

    def describe(self) -> str:
        return f"{self.relation}({self.attr}, {self.probe.wkt()})"


class RelateMask(Predicate):
    """``relate(<geometry attr>, <probe>, '<DE-9IM mask>')``.

    Matches when the boolean DE-9IM pattern between the attribute
    geometry and the probe satisfies the mask (``T``/``F``/``*`` per
    cell) — the escape hatch for relations the named predicates do not
    cover.
    """

    def __init__(self, attr: str, probe: Geometry, mask: str):
        from ..spatial.de9im import matches as _matches  # validates masks

        if not isinstance(probe, Geometry):
            raise QueryError("relate predicate needs a probe Geometry")
        try:
            _matches("F" * 9, mask)
        except Exception as exc:
            raise QueryError(f"invalid DE-9IM mask {mask!r}: {exc}") from exc
        self.attr = attr
        self.probe = probe
        self.mask = mask

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        from ..spatial.de9im import relate_with_mask

        geom = obj.geometry(self.attr)
        if geom is None:
            return False
        return relate_with_mask(geom, self.probe, self.mask)

    def compile_columns(self, geo_class: GeoClass, columns):
        from ..spatial.de9im import relate_with_mask

        probe, mask = self.probe, self.mask
        geoms, boxes = columns.geometry_column(self.attr)

        def exact(rows):
            return [
                i for i in rows
                if boxes[i] is not None
                and relate_with_mask(geoms[i], probe, mask)
            ]

        # Only masks that demand interior/boundary contact may reject on
        # bounds — the same condition spatial_prefilter() uses.
        if self.spatial_prefilter() is None:
            return exact
        pre = _bbox_overlap_kernel(boxes, _contact_window(probe))
        return lambda rows: exact(pre(rows))

    def spatial_prefilter(self) -> tuple[str, BBox] | None:
        # A mask requiring any interior/boundary intersection implies the
        # bboxes interact; masks that *permit* disjointness cannot be
        # prefiltered safely.
        requires_contact = any(c == "T" for c in self.mask[:2] + self.mask[3:5])
        if requires_contact:
            return (self.attr, _contact_window(self.probe))
        return None

    def describe(self) -> str:
        return f"relate({self.attr}, {self.probe.wkt()}, '{self.mask}')"


class WithinDistance(Predicate):
    """``distance(<geometry attr>, <probe>) <= radius``."""

    def __init__(self, attr: str, probe: Geometry, radius: float):
        if radius < 0:
            raise QueryError("distance radius must be non-negative")
        if not isinstance(probe, Geometry):
            raise QueryError("distance predicate needs a probe Geometry")
        self.attr = attr
        self.probe = probe
        self.radius = float(radius)

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        geom = obj.geometry(self.attr)
        if geom is None:
            return False
        return geometry_distance(geom, self.probe) <= self.radius

    def compile_columns(self, geo_class: GeoClass, columns):
        probe, radius = self.probe, self.radius
        geoms, boxes = columns.geometry_column(self.attr)
        # Bounds further than `radius` from the probe bounds (per axis)
        # cannot hold a geometry within `radius` — the same expansion
        # the R-tree prefilter uses.
        pre = _bbox_overlap_kernel(boxes, probe.bbox().expanded(radius))

        def kernel(rows):
            return [
                i for i in pre(rows)
                if geometry_distance(geoms[i], probe) <= radius
            ]

        return kernel

    def spatial_prefilter(self) -> tuple[str, BBox] | None:
        return (self.attr, self.probe.bbox().expanded(self.radius))

    def describe(self) -> str:
        return f"distance({self.attr}, {self.probe.wkt()}) <= {self.radius}"


class And(Predicate):
    def __init__(self, parts: Iterable[Predicate]):
        self.parts = list(parts)
        if len(self.parts) < 2:
            raise QueryError("And needs at least two operands")

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        return all(p.matches(obj, geo_class) for p in self.parts)

    def compile_columns(self, geo_class: GeoClass, columns):
        compiled = [p.compile_columns(geo_class, columns)
                    for p in self.parts]

        def conjunction(rows):
            # Fusion: each term narrows the survivor list of the last,
            # so later (often costlier) terms see only the rows that
            # still matter.
            for kernel in compiled:
                rows = kernel(rows)
                if not rows:
                    return []
            return rows

        return conjunction

    def spatial_prefilter(self) -> tuple[str, BBox] | None:
        for part in self.parts:
            pre = part.spatial_prefilter()
            if pre is not None:
                return pre
        return None

    def equality_prefilter(self) -> tuple[str, list] | None:
        for part in self.parts:
            pre = part.equality_prefilter()
            if pre is not None:
                return pre
        return None

    def describe(self) -> str:
        return "(" + " and ".join(p.describe() for p in self.parts) + ")"


class Or(Predicate):
    def __init__(self, parts: Iterable[Predicate]):
        self.parts = list(parts)
        if len(self.parts) < 2:
            raise QueryError("Or needs at least two operands")

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        return any(p.matches(obj, geo_class) for p in self.parts)

    def compile_columns(self, geo_class: GeoClass, columns):
        compiled = [p.compile_columns(geo_class, columns)
                    for p in self.parts]

        def disjunction(rows):
            rows = list(rows)
            keep: set = set()
            for kernel in compiled:
                keep.update(kernel(rows))
                if len(keep) == len(rows):
                    break
            return [i for i in rows if i in keep]

        return disjunction

    def describe(self) -> str:
        return "(" + " or ".join(p.describe() for p in self.parts) + ")"


class Not(Predicate):
    def __init__(self, inner: Predicate):
        self.inner = inner

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        return not self.inner.matches(obj, geo_class)

    def compile_columns(self, geo_class: GeoClass, columns):
        inner = self.inner.compile_columns(geo_class, columns)

        def negation(rows):
            rows = list(rows)
            matched = set(inner(rows))
            return [i for i in rows if i not in matched]

        return negation

    def describe(self) -> str:
        return f"not {self.inner.describe()}"


class TruePredicate(Predicate):
    """Matches everything — the default ``where`` of a browse query."""

    def matches(self, obj: GeoObject, geo_class: GeoClass) -> bool:
        return True

    def compile_columns(self, geo_class: GeoClass, columns):
        return lambda rows: list(rows)

    def describe(self) -> str:
        return "true"


#: Aggregate operators usable in projections: op -> reducer over values.
AGGREGATE_OPS = ("count", "min", "max", "sum", "avg")


class Query:
    """A declarative query over one class extent.

    Parameters
    ----------
    class_name:
        Target class.
    where:
        Root predicate (defaults to :class:`TruePredicate`).
    projection:
        Attribute paths to keep in result rows; ``None`` keeps whole objects.
    aggregates:
        ``(op, path)`` pairs (op in :data:`AGGREGATE_OPS`; path ``None``
        for ``count(*)``). When given, the result is a single row of
        aggregate values over the matching set; mutually exclusive with
        ``projection``.
    order_by:
        Attribute path to sort by (ascending; prefix with ``-`` for
        descending).
    limit:
        Maximum number of results.
    include_subclasses:
        When True the extents of subclasses are searched too (OO semantics).
    """

    def __init__(
        self,
        class_name: str,
        where: Predicate | None = None,
        projection: list[str] | None = None,
        aggregates: list[tuple[str, str | None]] | None = None,
        order_by: str | None = None,
        limit: int | None = None,
        include_subclasses: bool = False,
    ):
        if not class_name:
            raise QueryError("query needs a class name")
        if limit is not None and limit < 0:
            raise QueryError("limit must be non-negative")
        if aggregates:
            if projection is not None:
                raise QueryError(
                    "a query selects either aggregates or attribute paths, "
                    "not both")
            for op, path in aggregates:
                if op not in AGGREGATE_OPS:
                    raise QueryError(
                        f"unknown aggregate {op!r}; known: {AGGREGATE_OPS}")
                if path is None and op != "count":
                    raise QueryError(f"{op}(*) is not defined; give a path")
        self.class_name = class_name
        self.where = where if where is not None else TruePredicate()
        self.projection = list(projection) if projection is not None else None
        self.aggregates = list(aggregates) if aggregates else None
        self.order_by = order_by
        self.limit = limit
        self.include_subclasses = include_subclasses

    def fingerprint(self) -> tuple:
        """A hashable identity for result caching.

        Two queries with equal fingerprints request the same rows:
        :meth:`describe` covers the predicate tree (operator + literal
        reprs), projection/aggregates, ordering and limit;
        ``include_subclasses`` changes the scanned closure, so it is
        keyed explicitly (``describe`` omits it).
        """
        return (self.class_name, self.include_subclasses, self.describe())

    def describe(self) -> str:
        text = f"from {self.class_name} where {self.where.describe()}"
        if self.aggregates is not None:
            rendered = ", ".join(
                f"{op}({path or '*'})" for op, path in self.aggregates)
            text = f"select {rendered} " + text
        elif self.projection is not None:
            text = f"select {', '.join(self.projection)} " + text
        if self.order_by:
            text += f" order by {self.order_by}"
        if self.limit is not None:
            text += f" limit {self.limit}"
        return text

    def __repr__(self) -> str:
        return f"<Query {self.describe()}>"
