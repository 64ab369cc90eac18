"""Topological predicates between geometries.

The paper's geographic DBMS answers queries "on spatial properties and
relationships" (§2.1) and its companion prototype maintained *binary
topological constraints* through active rules (paper reference [11],
Medeiros & Cilia 1995). This module provides the binary relations those
layers need, following the Egenhofer point-set semantics:

``equals, disjoint, touches, overlaps, crosses, within, contains,
covers, covered_by, intersects``

Predicates are decided by exact case analysis over the point / line /
polygon type lattice: vertex-in-interior tests, segment-intersection tests
and boundary-membership tests. Multi-geometries are handled by reduction
over their members. This is exact for simple (non-self-intersecting)
inputs, which is what the data generators produce and what the constraint
layer checks. Boundary membership has an ``EPSILON`` band, so a point
just off an edge is on it; :func:`boundary_band` bounds how far outside
a geometry's bbox that reaches.

:func:`relate` is the only definition of these semantics.
:func:`rectangle_relater` is a fast path for the probe shape map windows
send, an axis-aligned rectangle: it decides point and line-string rows
from coordinates where they lie beyond a margin of every edge, and
answers "ask :func:`relate`" for the rest. :data:`HOLDS` maps a relation
to the named predicates it satisfies, for the boolean wrappers and the
fast path alike.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from ..errors import GeometryError
from .algorithms import (
    _boundary_segments,
    geometry_distance,
    orientation,
    segment_intersection_point,
    segments_intersect,
)
from .geometry import (
    EPSILON,
    Geometry,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    _point_on_segment,
)


class Relation(Enum):
    """Named binary topological relations (Egenhofer-style)."""

    EQUALS = "equals"
    DISJOINT = "disjoint"
    TOUCHES = "touches"
    OVERLAPS = "overlaps"
    CROSSES = "crosses"
    WITHIN = "within"
    CONTAINS = "contains"

    def inverse(self) -> "Relation":
        if self is Relation.WITHIN:
            return Relation.CONTAINS
        if self is Relation.CONTAINS:
            return Relation.WITHIN
        return self


# ---------------------------------------------------------------------------
# Boundary / interior membership helpers
# ---------------------------------------------------------------------------


def _on_polygon_boundary(poly: Polygon, x: float, y: float) -> bool:
    return any(
        _point_on_segment(x, y, a[0], a[1], b[0], b[1])
        for ring in poly.rings()
        for a, b in ring.segments()
    )


def _in_polygon_interior(poly: Polygon, x: float, y: float) -> bool:
    return poly.contains_point(x, y) and not _on_polygon_boundary(poly, x, y)


def _on_line(line: LineString, x: float, y: float) -> bool:
    return any(
        _point_on_segment(x, y, a[0], a[1], b[0], b[1]) for a, b in line.segments()
    )


def _line_endpoints(line: LineString) -> list[tuple[float, float]]:
    """Topological boundary of a line: its endpoints (empty when closed)."""
    if line.is_closed():
        return []
    return [line.coords[0], line.coords[-1]]


def _in_line_interior(line: LineString, x: float, y: float) -> bool:
    if not _on_line(line, x, y):
        return False
    return not any(
        math.hypot(ex - x, ey - y) <= EPSILON for ex, ey in _line_endpoints(line)
    )


def _segment_midpoints(line: LineString) -> list[tuple[float, float]]:
    return [((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0) for a, b in line.segments()]


def _line_line_crossing_kinds(a: LineString, b: LineString) -> tuple[bool, bool]:
    """Return ``(proper_crossing, collinear_overlap)`` between two lines.

    A *proper crossing* is an interior/interior intersection at a single
    point; a *collinear overlap* is a shared 1-dimensional piece.
    """
    proper = False
    overlap = False
    for sa in a.segments():
        for sb in b.segments():
            if not segments_intersect(sa[0], sa[1], sb[0], sb[1]):
                continue
            pt = segment_intersection_point(sa[0], sa[1], sb[0], sb[1])
            if pt is None:
                # Collinear contact; overlap only if they share more than
                # a single point (test both segment midpoint directions).
                shared_span = _collinear_shared_length(sa, sb)
                if shared_span > EPSILON:
                    overlap = True
                continue
            x, y = pt
            if _in_line_interior(a, x, y) and _in_line_interior(b, x, y):
                # Interior/interior contact; is it a crossing or a graze
                # along a shared segment? If the intersection is a single
                # point of two non-parallel segments, it is a crossing.
                proper = True
    return proper, overlap


def _segments_cross_transversally(p1, p2, q1, q2) -> bool:
    """True only for a strict X-crossing: endpoints on opposite sides.

    A shared edge, a shared vertex, or a T-junction is *not* transversal.
    Used for polygon boundaries, whose closed rings have no topological
    boundary points to anchor the interior test on.
    """
    d1 = orientation(q1, q2, p1)
    d2 = orientation(q1, q2, p2)
    d3 = orientation(p1, p2, q1)
    d4 = orientation(p1, p2, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def _collinear_shared_length(sa, sb) -> float:
    (ax, ay), (bx, by) = sa
    dx, dy = bx - ax, by - ay
    length = math.hypot(dx, dy)
    if length < EPSILON:
        return 0.0
    ux, uy = dx / length, dy / length

    def project(p) -> float:
        return (p[0] - ax) * ux + (p[1] - ay) * uy

    # Both endpoints of sb must lie on sa's supporting line.
    for px, py in sb:
        cross = (px - ax) * dy - (py - ay) * dx
        if abs(cross) > EPSILON * max(1.0, length):
            return 0.0
    t0, t1 = sorted((project(sb[0]), project(sb[1])))
    lo, hi = max(0.0, t0), min(length, t1)
    return max(0.0, hi - lo)


# ---------------------------------------------------------------------------
# Pairwise relation kernels
# ---------------------------------------------------------------------------


def _relate_point_point(a: Point, b: Point) -> Relation:
    if a.distance_to(b) <= EPSILON:
        return Relation.EQUALS
    return Relation.DISJOINT


def _relate_point_line(p: Point, line: LineString) -> Relation:
    if _in_line_interior(line, p.x, p.y):
        return Relation.WITHIN
    if _on_line(line, p.x, p.y):
        return Relation.TOUCHES  # on the line's boundary (an endpoint)
    return Relation.DISJOINT


def _relate_point_polygon(p: Point, poly: Polygon) -> Relation:
    if _on_polygon_boundary(poly, p.x, p.y):
        return Relation.TOUCHES
    if poly.contains_point(p.x, p.y):
        return Relation.WITHIN
    return Relation.DISJOINT


def _relate_line_line(a: LineString, b: LineString) -> Relation:
    if a.coords == b.coords or a.coords == b.coords[::-1]:
        return Relation.EQUALS
    if not a.bbox().intersects(b.bbox()):
        return Relation.DISJOINT

    a_in_b = all(_on_line(b, x, y) for x, y in a.coords) and all(
        _on_line(b, x, y) for x, y in _segment_midpoints(a)
    )
    b_in_a = all(_on_line(a, x, y) for x, y in b.coords) and all(
        _on_line(a, x, y) for x, y in _segment_midpoints(b)
    )
    if a_in_b and b_in_a:
        return Relation.EQUALS
    if a_in_b:
        return Relation.WITHIN
    if b_in_a:
        return Relation.CONTAINS

    proper, overlap = _line_line_crossing_kinds(a, b)
    if overlap:
        return Relation.OVERLAPS
    if proper:
        return Relation.CROSSES

    # Any remaining contact must involve a boundary (endpoint) of one line.
    if geometry_distance(a, b) <= EPSILON:
        return Relation.TOUCHES
    return Relation.DISJOINT


def _line_polygon_contact(line: LineString, poly: Polygon) -> tuple[bool, bool, bool]:
    """Classify contact: (has_interior_pts, has_exterior_pts, has_boundary_pts).

    Samples line vertices, segment midpoints, and intersection points of the
    line with the polygon boundary (midpoints of the resulting sub-segments
    decide interior vs exterior exactly for simple inputs).
    """
    samples = list(line.coords) + _segment_midpoints(line)
    # Split line segments at polygon boundary crossings for exact sampling.
    for seg in line.segments():
        cuts = [0.0, 1.0]
        (ax, ay), (bx, by) = seg
        for ring in poly.rings():
            for rseg in ring.segments():
                pt = segment_intersection_point(seg[0], seg[1], rseg[0], rseg[1])
                if pt is not None:
                    dx, dy = bx - ax, by - ay
                    denom = dx * dx + dy * dy
                    if denom > EPSILON:
                        t = ((pt[0] - ax) * dx + (pt[1] - ay) * dy) / denom
                        cuts.append(min(1.0, max(0.0, t)))
        cuts.sort()
        for t0, t1 in zip(cuts, cuts[1:]):
            tm = (t0 + t1) / 2.0
            samples.append((ax + tm * (bx - ax), ay + tm * (by - ay)))

    interior = exterior = boundary = False
    for x, y in samples:
        if _on_polygon_boundary(poly, x, y):
            boundary = True
        elif poly.contains_point(x, y):
            interior = True
        else:
            exterior = True
    return interior, exterior, boundary


def _relate_line_polygon(line: LineString, poly: Polygon) -> Relation:
    if not line.bbox().intersects(poly.bbox()):
        return Relation.DISJOINT
    interior, exterior, boundary = _line_polygon_contact(line, poly)
    if interior and exterior:
        return Relation.CROSSES
    if interior:
        return Relation.WITHIN
    if boundary:
        return Relation.TOUCHES
    return Relation.DISJOINT


def _interior_overlap_witness(a: Polygon, b: Polygon) -> bool:
    """True when a point strictly interior to both polygons can be found.

    Handles the configurations vertex/crossing tests miss (e.g. two
    axis-aligned rectangles overlapping in a band, with every vertex on
    the other's boundary): candidate witnesses are the pairwise midpoints
    of all boundary/boundary intersection points, the two centroids, and
    the center of the bbox intersection.
    """
    crossings: list[tuple[float, float]] = []
    for ring_a in a.rings():
        for sa in ring_a.segments():
            for ring_b in b.rings():
                for sb in ring_b.segments():
                    pt = segment_intersection_point(sa[0], sa[1],
                                                    sb[0], sb[1])
                    if pt is not None:
                        crossings.append(pt)
    candidates = list(crossings)
    for i in range(len(crossings)):
        for j in range(i + 1, len(crossings)):
            candidates.append((
                (crossings[i][0] + crossings[j][0]) / 2.0,
                (crossings[i][1] + crossings[j][1]) / 2.0,
            ))
    for poly in (a, b):
        c = poly.centroid()
        candidates.append((c.x, c.y))
    inter = a.bbox().intersection(b.bbox())
    if not inter.is_empty():
        candidates.append(inter.center())
    return any(
        _in_polygon_interior(a, x, y) and _in_polygon_interior(b, x, y)
        for x, y in candidates
    )


def _relate_polygon_polygon(a: Polygon, b: Polygon) -> Relation:
    if a == b:
        return Relation.EQUALS
    if not a.bbox().intersects(b.bbox()):
        return Relation.DISJOINT

    boundary_cross = any(
        _segments_cross_transversally(sa[0], sa[1], sb[0], sb[1])
        for ring_a in a.rings()
        for sa in ring_a.segments()
        for ring_b in b.rings()
        for sb in ring_b.segments()
    )

    a_vertices_in_b = [
        ("interior" if _in_polygon_interior(b, x, y) else
         "boundary" if _on_polygon_boundary(b, x, y) else "exterior")
        for x, y in a.exterior.coords
    ]
    b_vertices_in_a = [
        ("interior" if _in_polygon_interior(a, x, y) else
         "boundary" if _on_polygon_boundary(a, x, y) else "exterior")
        for x, y in b.exterior.coords
    ]

    if boundary_cross:
        return Relation.OVERLAPS

    a_all_inside = all(v != "exterior" for v in a_vertices_in_b)
    b_all_inside = all(v != "exterior" for v in b_vertices_in_a)
    a_some_interior = any(v == "interior" for v in a_vertices_in_b)
    b_some_interior = any(v == "interior" for v in b_vertices_in_a)

    if a_all_inside and b_all_inside:
        return Relation.EQUALS
    if a_all_inside and not b_some_interior:
        # b might still poke into a hole of b? For simple data: a within b.
        if _centroid_interior(a, b):
            return Relation.WITHIN
        return Relation.TOUCHES
    if b_all_inside and not a_some_interior:
        if _centroid_interior(b, a):
            return Relation.CONTAINS
        return Relation.TOUCHES

    # Partial containment without boundary crossing can still happen when a
    # vertex sits exactly on the other boundary — decide by interior probes.
    if a_some_interior or b_some_interior:
        return Relation.OVERLAPS
    # Aligned configurations (every vertex on the other's boundary, no
    # transversal crossing) can still share interior area — probe for an
    # interior/interior witness before settling on a boundary-only contact.
    if _interior_overlap_witness(a, b):
        return Relation.OVERLAPS
    if geometry_distance(a, b) <= EPSILON:
        return Relation.TOUCHES
    return Relation.DISJOINT


def _centroid_interior(inner: Polygon, outer: Polygon) -> bool:
    c = inner.centroid()
    return _in_polygon_interior(outer, c.x, c.y)


# ---------------------------------------------------------------------------
# Public dispatch
# ---------------------------------------------------------------------------

_SIMPLE_KERNELS = {
    ("point", "point"): _relate_point_point,
    ("point", "linestring"): _relate_point_line,
    ("point", "polygon"): _relate_point_polygon,
    ("linestring", "linestring"): _relate_line_line,
    ("linestring", "polygon"): _relate_line_polygon,
    ("polygon", "polygon"): _relate_polygon_polygon,
}

_MULTI_MEMBERS = (MultiPoint, MultiLineString, MultiPolygon)


def relate(a: Geometry, b: Geometry) -> Relation:
    """Compute the named topological relation between two geometries."""
    if isinstance(a, _MULTI_MEMBERS) or isinstance(b, _MULTI_MEMBERS):
        return _relate_multi(a, b)
    key = (a.geom_type, b.geom_type)
    if key in _SIMPLE_KERNELS:
        return _SIMPLE_KERNELS[key](a, b)
    flipped = (b.geom_type, a.geom_type)
    if flipped in _SIMPLE_KERNELS:
        return _SIMPLE_KERNELS[flipped](b, a).inverse()
    raise GeometryError(f"cannot relate {a.geom_type} with {b.geom_type}")


def _members(geom: Geometry) -> list[Geometry]:
    if isinstance(geom, _MULTI_MEMBERS):
        return list(geom.members)
    return [geom]


def _relate_multi(a: Geometry, b: Geometry) -> Relation:
    """Aggregate member-wise relations for collection geometries."""
    rels = {relate(ma, mb) for ma in _members(a) for mb in _members(b)}
    if rels == {Relation.DISJOINT}:
        return Relation.DISJOINT
    if rels == {Relation.EQUALS} and len(_members(a)) == len(_members(b)):
        return Relation.EQUALS
    if rels <= {Relation.DISJOINT, Relation.TOUCHES}:
        return Relation.TOUCHES
    if all(
        any(relate(ma, mb) in (Relation.WITHIN, Relation.EQUALS) for mb in _members(b))
        for ma in _members(a)
    ):
        return Relation.WITHIN
    if all(
        any(relate(ma, mb) in (Relation.CONTAINS, Relation.EQUALS) for ma in _members(a))
        for mb in _members(b)
    ):
        return Relation.CONTAINS
    if Relation.CROSSES in rels and not (rels & {Relation.OVERLAPS}):
        return Relation.CROSSES
    return Relation.OVERLAPS


# Rectangle windows ------------------------------------------------------------

#: How far beyond the ``EPSILON`` boundary bands a coordinate must sit,
#: as a multiple of ``EPSILON``, before :func:`rectangle_relater`
#: decides it without :func:`relate`.
MARGIN_FACTOR = 1e3


def _rectangle(probe: Geometry) -> tuple[float, float, float, float] | None:
    """``(min_x, min_y, max_x, max_y)`` of a hole-free polygon whose four
    vertices are the corners of its bbox in ring order (what
    :meth:`Polygon.from_bbox` builds), else None."""
    if type(probe) is not Polygon or probe.holes:
        return None
    coords = probe.exterior.coords
    if len(coords) != 4 or len(set(coords)) != 4:
        return None
    box = probe.bbox()
    corners = {(box.min_x, box.min_y), (box.max_x, box.min_y),
               (box.max_x, box.max_y), (box.min_x, box.max_y)}
    if set(coords) != corners:
        return None
    # Adjacent vertices share one coordinate: a rectangle, not a bow tie.
    for (ax, ay), (bx, by) in zip(coords, coords[1:] + coords[:1]):
        if (ax == bx) == (ay == by):
            return None
    return box.min_x, box.min_y, box.max_x, box.max_y


def _clip(ax: float, ay: float, bx: float, by: float, x0: float, y0: float,
          x1: float, y1: float) -> bool:
    """Whether segment AB meets the closed box (Liang–Barsky)."""
    dx, dy = bx - ax, by - ay
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0),
                 (dy, y1 - ay)):
        if p == 0.0:
            if q < 0.0:
                return False
            continue
        t = q / p
        if p < 0.0:
            if t > t1:
                return False
            if t > t0:
                t0 = t
        else:
            if t < t0:
                return False
            if t < t1:
                t1 = t
    return True


def boundary_band(geom: Geometry) -> float:
    """How far outside ``geom``'s bbox :func:`relate` can still find a
    point on ``geom``'s boundary.

    :func:`~repro.spatial.geometry._point_on_segment` counts a point as
    on an edge of length ``L`` up to ``EPSILON * max(1, 1/L)`` across
    it and ``EPSILON / L`` past its ends, so along either axis the band
    reaches at most twice ``EPSILON * max(1, 1/L)`` for the shortest
    edge; the result doubles that again for rounding. A geometry
    without edges (a point) gets ``4 * EPSILON``, well past the
    ``EPSILON`` at which two points are equal. A zero-length edge has
    every point on it, so its band is infinite.
    """
    shortest = min((math.hypot(bx - ax, by - ay)
                    for (ax, ay), (bx, by) in _boundary_segments(geom)),
                   default=math.inf)
    if shortest == 0.0:
        return math.inf
    return 4.0 * EPSILON * max(1.0, 1.0 / shortest)


def rectangle_relater(probe: Geometry):
    """A decider ``geom -> Relation | None`` for an axis-aligned
    rectangle probe, or None when ``probe`` is no such rectangle.

    The decider answers ``relate(geom, probe)`` for a :class:`Point` or
    :class:`LineString` ``geom`` wherever coordinates alone settle it,
    and returns None ("ask :func:`relate`") everywhere else. It never
    returns ``TOUCHES``: the boundary is :func:`relate`'s to define.

    "Clearly" means beyond a margin ``m`` from every edge. A point
    counts as on an edge of length ``L`` when it is within
    ``EPSILON * max(1, 1/L)`` across it or ``EPSILON / L`` past its
    ends (:func:`~repro.spatial.geometry._point_on_segment`); ``m`` is
    ``MARGIN_FACTOR`` times ``EPSILON * max(1, 1/min side)``, and at
    least that multiple of ``EPSILON`` times the largest rectangle
    coordinate, so the band, the rounding of its cross product and the
    rounding of ``min_x + m`` all stay far inside it.

    * A point more than ``m`` inside every edge is ``WITHIN``; more
      than ``m`` outside one is ``DISJOINT``.
    * A line string with every vertex ``m`` inside is ``WITHIN``. One
      with a vertex or a segment reaching ``m`` inside (the clip of a
      segment against the rectangle shrunk by ``m``) has an interior
      point that :func:`relate`'s samples find; with a vertex ``m``
      outside as well it is ``CROSSES``. One whose every segment misses
      the rectangle grown by ``m`` is ``DISJOINT``. Line strings with a
      coordinate so far out that rounding in the clip could approach
      ``m`` go to :func:`relate`.
    """
    rect = _rectangle(probe)
    if rect is None:
        return None
    x0, y0, x1, y1 = rect
    margin = MARGIN_FACTOR * EPSILON * max(
        1.0, 1.0 / min(x1 - x0, y1 - y0),
        abs(x0), abs(y0), abs(x1), abs(y1))
    ix0, iy0, ix1, iy1 = x0 + margin, y0 + margin, x1 - margin, y1 - margin
    ox0, oy0, ox1, oy1 = x0 - margin, y0 - margin, x1 + margin, y1 + margin
    # The clip's rounding error is a few ulps of the largest coordinate
    # it meets; beyond this reach that could approach the margin.
    reach = margin / (1024 * sys.float_info.epsilon)
    within, crosses, disjoint = (Relation.WITHIN, Relation.CROSSES,
                                 Relation.DISJOINT)

    def decide(geom: Geometry) -> Relation | None:
        kind = type(geom)
        if kind is Point:
            x, y = geom.x, geom.y
            if ix0 < x < ix1 and iy0 < y < iy1:
                return within
            if x < ox0 or x > ox1 or y < oy0 or y > oy1:
                return disjoint
            return None
        if kind is not LineString:
            return None
        inside = outside = False
        every_inside = True
        for x, y in geom.coords:
            if ix0 < x < ix1 and iy0 < y < iy1:
                inside = True
                continue
            every_inside = False
            if abs(x) > reach or abs(y) > reach:
                return None
            if x < ox0 or x > ox1 or y < oy0 or y > oy1:
                outside = True
        if every_inside:
            return within
        if not inside:
            segments = list(geom.segments())
            inside = any(_clip(ax, ay, bx, by, ix0, iy0, ix1, iy1)
                         for (ax, ay), (bx, by) in segments)
            if not inside:
                if any(_clip(ax, ay, bx, by, ox0, oy0, ox1, oy1)
                       for (ax, ay), (bx, by) in segments):
                    return None
                return disjoint
        return crosses if outside else None

    return decide


# Convenience boolean wrappers -------------------------------------------------

#: The relations ``relate(a, b)`` under which each named predicate holds.
#: ``covers`` also holds for some ``TOUCHES`` pairs, decided on the
#: geometry (see :func:`covers`). ``covered_by(a, b)`` is
#: ``covers(b, a)``, which reads ``relate(b, a)``; for a pair of
#: different geometry types that is ``relate(a, b).inverse()``, so its
#: entry lists the inverses of ``covers``'s.
HOLDS = {
    "equals": frozenset({Relation.EQUALS}),
    "disjoint": frozenset({Relation.DISJOINT}),
    "intersects": frozenset(Relation) - {Relation.DISJOINT},
    "touches": frozenset({Relation.TOUCHES}),
    "overlaps": frozenset({Relation.OVERLAPS}),
    "crosses": frozenset({Relation.CROSSES}),
    "within": frozenset({Relation.WITHIN, Relation.EQUALS}),
    "contains": frozenset({Relation.CONTAINS, Relation.EQUALS}),
    "covers": frozenset({Relation.CONTAINS, Relation.EQUALS}),
    "covered_by": frozenset({Relation.WITHIN, Relation.EQUALS}),
}


def equals(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["equals"]


def disjoint(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["disjoint"]


def intersects(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["intersects"]


def touches(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["touches"]


def overlaps(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["overlaps"]


def crosses(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["crosses"]


def within(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["within"]


def contains(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in HOLDS["contains"]


def covers(a: Geometry, b: Geometry) -> bool:
    """a covers b: no point of b is exterior to a (contains or touches-inside)."""
    rel = relate(a, b)
    if rel in HOLDS["covers"]:
        return True
    if rel is Relation.TOUCHES and isinstance(a, Polygon):
        return all(a.contains_point(x, y) for x, y in _sample_points(b))
    return False


def covered_by(a: Geometry, b: Geometry) -> bool:
    return covers(b, a)


def _sample_points(geom: Geometry) -> list[tuple[float, float]]:
    if isinstance(geom, Point):
        return [(geom.x, geom.y)]
    if isinstance(geom, LineString):
        return list(geom.coords) + _segment_midpoints(geom)
    if isinstance(geom, Polygon):
        return list(geom.exterior.coords)
    out: list[tuple[float, float]] = []
    for member in _members(geom):
        out.extend(_sample_points(member))
    return out


#: Predicate registry used by the query language (`where touches(...)`).
PREDICATES = {
    "equals": equals,
    "disjoint": disjoint,
    "intersects": intersects,
    "touches": touches,
    "overlaps": overlaps,
    "crosses": crosses,
    "within": within,
    "contains": contains,
    "covers": covers,
    "covered_by": covered_by,
}
