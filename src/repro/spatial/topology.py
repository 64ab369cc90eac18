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
layer checks.
"""

from __future__ import annotations

import math
from enum import Enum

from ..errors import GeometryError
from .algorithms import (
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


# Convenience boolean wrappers -------------------------------------------------


def equals(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) is Relation.EQUALS


def disjoint(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) is Relation.DISJOINT


def intersects(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) is not Relation.DISJOINT


def touches(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) is Relation.TOUCHES


def overlaps(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) is Relation.OVERLAPS


def crosses(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) is Relation.CROSSES


def within(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in (Relation.WITHIN, Relation.EQUALS)


def contains(a: Geometry, b: Geometry) -> bool:
    return relate(a, b) in (Relation.CONTAINS, Relation.EQUALS)


def covers(a: Geometry, b: Geometry) -> bool:
    """a covers b: no point of b is exterior to a (contains or touches-inside)."""
    rel = relate(a, b)
    if rel in (Relation.CONTAINS, Relation.EQUALS):
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
