"""Geometry model for the geographic substrate.

The paper's geographic DBMS stores georeferenced phenomena (poles, ducts,
road networks, vegetation). This module provides the vector geometry types
those phenomena use:

* :class:`Point`, :class:`LineString`, :class:`Polygon` (with holes),
* homogeneous collections :class:`MultiPoint`, :class:`MultiLineString`,
  :class:`MultiPolygon`,
* the :class:`BBox` axis-aligned rectangle used throughout the index and
  query layers.

Geometries are immutable value objects: hashing and equality are structural,
so they can live inside database objects, rule payloads, and index entries
without defensive copying. Coordinates are plain floats in an arbitrary
planar CRS (the paper never leaves a projected municipal coordinate system).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..errors import GeometryError

#: Tolerance used by coordinate comparisons throughout the spatial package.
EPSILON = 1e-9


def _almost_equal(a: float, b: float, eps: float = EPSILON) -> bool:
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


class BBox:
    """An axis-aligned bounding rectangle ``[min_x, min_y, max_x, max_y]``.

    Degenerate boxes (zero width or height) are legal: a point's bbox is a
    degenerate box. An *empty* box, produced by :meth:`BBox.empty`, is the
    identity for :meth:`union` and intersects nothing.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float):
        if min_x > max_x or min_y > max_y:
            raise GeometryError(
                f"invalid bbox: ({min_x}, {min_y}, {max_x}, {max_y}) has min > max"
            )
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.max_x = float(max_x)
        self.max_y = float(max_y)

    @classmethod
    def empty(cls) -> "BBox":
        """The empty box: union identity, intersects nothing."""
        box = cls.__new__(cls)
        box.min_x = math.inf
        box.min_y = math.inf
        box.max_x = -math.inf
        box.max_y = -math.inf
        return box

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "BBox":
        """The tightest box around a non-empty point set: one min/max
        pass per bound, no intermediate boxes."""
        points = tuple(points)
        if not points:
            raise GeometryError("cannot build bbox from an empty point set")
        xs = [x for x, __ in points]
        ys = [y for __, y in points]
        box = cls.__new__(cls)
        box.min_x = min(xs)
        box.min_y = min(ys)
        box.max_x = max(xs)
        box.max_y = max(ys)
        return box

    @classmethod
    def union_all(cls, boxes: Iterable["BBox"]) -> "BBox":
        """The union of many boxes: one min/max pass per bound — the box
        a left fold of :meth:`union` builds, without a box per step.
        Empty boxes add nothing (their infinite bounds never win)."""
        boxes = list(boxes)
        min_x = min([box.min_x for box in boxes], default=math.inf)
        max_x = max([box.max_x for box in boxes], default=-math.inf)
        if min_x > max_x:
            return cls.empty()
        return cls(min_x, min([box.min_y for box in boxes]),
                   max_x, max([box.max_y for box in boxes]))

    def is_empty(self) -> bool:
        return self.min_x > self.max_x

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty() else self.max_x - self.min_x

    @property
    def height(self) -> float:
        return 0.0 if self.is_empty() else self.max_y - self.min_y

    def area(self) -> float:
        return self.width * self.height

    def perimeter(self) -> float:
        return 0.0 if self.is_empty() else 2.0 * (self.width + self.height)

    def center(self) -> tuple[float, float]:
        if self.is_empty():
            raise GeometryError("empty bbox has no center")
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def stretched(self, x: float, y: float) -> "BBox":
        """Return the smallest box containing ``self`` and point ``(x, y)``."""
        box = BBox.__new__(BBox)
        box.min_x = min(self.min_x, x)
        box.min_y = min(self.min_y, y)
        box.max_x = max(self.max_x, x)
        box.max_y = max(self.max_y, y)
        return box

    def union(self, other: "BBox") -> "BBox":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return BBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersection(self, other: "BBox") -> "BBox":
        if not self.intersects(other):
            return BBox.empty()
        return BBox(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def intersects(self, other: "BBox") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def contains_point(self, x: float, y: float) -> bool:
        if self.is_empty():
            return False
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def contains_bbox(self, other: "BBox") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def expanded(self, margin: float) -> "BBox":
        """Return this box grown by ``margin`` on every side."""
        if self.is_empty():
            return self
        if margin < 0 and (2 * margin > self.width or 2 * margin > self.height):
            raise GeometryError("negative margin collapses the bbox")
        return BBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def enlargement(self, other: "BBox") -> float:
        """Area growth needed to also cover ``other`` (R-tree heuristic)."""
        return self.union(other).area() - self.area()

    def distance_to_point(self, x: float, y: float) -> float:
        """Euclidean distance from the point to the box (0 when inside)."""
        if self.is_empty():
            return math.inf
        dx = max(self.min_x - x, 0.0, x - self.max_x)
        dy = max(self.min_y - y, 0.0, y - self.max_y)
        return math.hypot(dx, dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.min_x, self.min_y, self.max_x, self.max_y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BBox):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        if self.is_empty():
            return hash("BBox.empty")
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        if self.is_empty():
            return "BBox.empty()"
        return f"BBox({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"


class Geometry:
    """Abstract base for all geometry types.

    Subclasses implement :meth:`bbox`, :meth:`is_valid` and the WKT-style
    text form returned by :meth:`wkt`; the base class supplies structural
    equality, hashing, and convenience measures shared by all types.
    """

    #: Short lowercase type tag, e.g. ``"point"`` — also used by the
    #: attribute type system in :mod:`repro.geodb.types`.
    geom_type: str = "geometry"

    def bbox(self) -> BBox:
        raise NotImplementedError

    def is_valid(self) -> bool:
        raise NotImplementedError

    def wkt(self) -> str:
        raise NotImplementedError

    def _signature(self) -> tuple:
        """A hashable structural signature used for equality/hash."""
        raise NotImplementedError

    def translated(self, dx: float, dy: float) -> "Geometry":
        """Return a copy shifted by ``(dx, dy)``."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return self.geom_type == other.geom_type and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash((self.geom_type, self._signature()))

    def __repr__(self) -> str:
        return self.wkt()


def _coerce_coords(coords: Sequence[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    out = []
    for pair in coords:
        seq = tuple(pair)
        if len(seq) != 2:
            raise GeometryError(f"coordinate {pair!r} is not an (x, y) pair")
        x, y = float(seq[0]), float(seq[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"coordinate {pair!r} is not finite")
        out.append((x, y))
    return tuple(out)


class Point(Geometry):
    """A single position."""

    geom_type = "point"
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"point coordinates must be finite, got ({x}, {y})")
        self.x = x
        self.y = y

    def bbox(self) -> BBox:
        return BBox(self.x, self.y, self.x, self.y)

    def is_valid(self) -> bool:
        return True

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    def wkt(self) -> str:
        return f"POINT ({self.x:g} {self.y:g})"

    def _signature(self) -> tuple:
        return (self.x, self.y)


class LineString(Geometry):
    """An open polyline with at least two vertices."""

    geom_type = "linestring"
    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Sequence[float]]):
        self.coords = _coerce_coords(coords)
        if len(self.coords) < 2:
            raise GeometryError("a LineString needs at least 2 vertices")

    def bbox(self) -> BBox:
        return BBox.from_points(self.coords)

    def is_valid(self) -> bool:
        """Valid when no two consecutive vertices coincide."""
        return all(
            not (_almost_equal(ax, bx) and _almost_equal(ay, by))
            for (ax, ay), (bx, by) in zip(self.coords, self.coords[1:])
        )

    def length(self) -> float:
        return sum(
            math.hypot(bx - ax, by - ay)
            for (ax, ay), (bx, by) in zip(self.coords, self.coords[1:])
        )

    def segments(self) -> Iterator[tuple[tuple[float, float], tuple[float, float]]]:
        """Yield consecutive vertex pairs."""
        for a, b in zip(self.coords, self.coords[1:]):
            yield a, b

    def is_closed(self) -> bool:
        (ax, ay), (bx, by) = self.coords[0], self.coords[-1]
        return _almost_equal(ax, bx) and _almost_equal(ay, by)

    def translated(self, dx: float, dy: float) -> "LineString":
        return LineString([(x + dx, y + dy) for x, y in self.coords])

    def interpolate(self, fraction: float) -> Point:
        """Point at ``fraction`` (0..1) of the line's length from its start."""
        if not 0.0 <= fraction <= 1.0:
            raise GeometryError(f"fraction {fraction} outside [0, 1]")
        target = self.length() * fraction
        walked = 0.0
        for (ax, ay), (bx, by) in self.segments():
            seg = math.hypot(bx - ax, by - ay)
            if walked + seg >= target and seg > 0:
                t = (target - walked) / seg
                return Point(ax + t * (bx - ax), ay + t * (by - ay))
            walked += seg
        x, y = self.coords[-1]
        return Point(x, y)

    def wkt(self) -> str:
        body = ", ".join(f"{x:g} {y:g}" for x, y in self.coords)
        return f"LINESTRING ({body})"

    def _signature(self) -> tuple:
        return self.coords


class Ring:
    """A closed ring of vertices, stored without the repeated last vertex.

    Rings are building blocks of :class:`Polygon`; they are not geometries
    on their own. Orientation is normalized lazily via :meth:`signed_area`.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Sequence[float]]):
        pts = list(_coerce_coords(coords))
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise GeometryError("a ring needs at least 3 distinct vertices")
        self.coords = tuple(pts)

    def signed_area(self) -> float:
        """Shoelace area: positive for counter-clockwise rings."""
        total = 0.0
        n = len(self.coords)
        for i in range(n):
            ax, ay = self.coords[i]
            bx, by = self.coords[(i + 1) % n]
            total += ax * by - bx * ay
        return total / 2.0

    def area(self) -> float:
        return abs(self.signed_area())

    def perimeter(self) -> float:
        n = len(self.coords)
        return sum(
            math.hypot(
                self.coords[(i + 1) % n][0] - self.coords[i][0],
                self.coords[(i + 1) % n][1] - self.coords[i][1],
            )
            for i in range(n)
        )

    def closed_coords(self) -> tuple[tuple[float, float], ...]:
        """Vertices with the first repeated at the end (WKT convention)."""
        return self.coords + (self.coords[0],)

    def segments(self) -> Iterator[tuple[tuple[float, float], tuple[float, float]]]:
        closed = self.closed_coords()
        for a, b in zip(closed, closed[1:]):
            yield a, b

    def contains_point(self, x: float, y: float) -> bool:
        """Ray-casting test; boundary points count as inside."""
        n = len(self.coords)
        inside = False
        for i in range(n):
            ax, ay = self.coords[i]
            bx, by = self.coords[(i + 1) % n]
            if _point_on_segment(x, y, ax, ay, bx, by):
                return True
            if (ay > y) != (by > y):
                x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
                if x < x_cross:
                    inside = not inside
        return inside

    def bbox(self) -> BBox:
        return BBox.from_points(self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Ring({list(self.coords)!r})"


def _point_on_segment(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> bool:
    """True when point P lies on segment AB (within :data:`EPSILON`)."""
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    scale = max(1.0, abs(bx - ax), abs(by - ay))
    if abs(cross) > EPSILON * scale:
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    length_sq = (bx - ax) ** 2 + (by - ay) ** 2
    return -EPSILON <= dot <= length_sq + EPSILON


class Polygon(Geometry):
    """A polygon with one exterior ring and zero or more interior holes."""

    geom_type = "polygon"
    __slots__ = ("exterior", "holes")

    def __init__(
        self,
        exterior: Sequence[Sequence[float]] | Ring,
        holes: Sequence[Sequence[Sequence[float]] | Ring] = (),
    ):
        self.exterior = exterior if isinstance(exterior, Ring) else Ring(exterior)
        self.holes = tuple(h if isinstance(h, Ring) else Ring(h) for h in holes)

    def bbox(self) -> BBox:
        return self.exterior.bbox()

    def area(self) -> float:
        return self.exterior.area() - sum(h.area() for h in self.holes)

    def perimeter(self) -> float:
        return self.exterior.perimeter() + sum(h.perimeter() for h in self.holes)

    def centroid(self) -> Point:
        """Area-weighted centroid of the exterior ring minus holes."""
        def ring_moment(ring: Ring) -> tuple[float, float, float]:
            a = cx = cy = 0.0
            n = len(ring.coords)
            for i in range(n):
                x0, y0 = ring.coords[i]
                x1, y1 = ring.coords[(i + 1) % n]
                cross = x0 * y1 - x1 * y0
                a += cross
                cx += (x0 + x1) * cross
                cy += (y0 + y1) * cross
            return a / 2.0, cx / 6.0, cy / 6.0

        area, mx, my = ring_moment(self.exterior)
        for hole in self.holes:
            ha, hx, hy = ring_moment(hole)
            # Subtract using magnitudes so hole orientation does not matter.
            sign = -1.0 if (ha > 0) == (area > 0) else 1.0
            area += sign * ha
            mx += sign * hx
            my += sign * hy
        if abs(area) < EPSILON:
            return Point(*self.exterior.bbox().center())
        return Point(mx / area, my / area)

    def contains_point(self, x: float, y: float) -> bool:
        if not self.exterior.contains_point(x, y):
            return False
        # Points strictly inside a hole are outside the polygon; hole
        # boundaries still belong to the polygon.
        for hole in self.holes:
            if hole.contains_point(x, y) and not any(
                _point_on_segment(x, y, ax, ay, bx, by)
                for (ax, ay), (bx, by) in hole.segments()
            ):
                return False
        return True

    def is_valid(self) -> bool:
        """Cheap validity: non-degenerate rings, holes inside the exterior."""
        if self.exterior.area() < EPSILON:
            return False
        outer_box = self.exterior.bbox()
        for hole in self.holes:
            if hole.area() < EPSILON:
                return False
            if not outer_box.contains_bbox(hole.bbox()):
                return False
            if hole.area() > self.exterior.area():
                return False
        return True

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(
            Ring([(x + dx, y + dy) for x, y in self.exterior.coords]),
            [Ring([(x + dx, y + dy) for x, y in h.coords]) for h in self.holes],
        )

    def rings(self) -> Iterator[Ring]:
        yield self.exterior
        yield from self.holes

    def wkt(self) -> str:
        def ring_text(ring: Ring) -> str:
            return "(" + ", ".join(f"{x:g} {y:g}" for x, y in ring.closed_coords()) + ")"

        body = ", ".join(ring_text(r) for r in self.rings())
        return f"POLYGON ({body})"

    def _signature(self) -> tuple:
        return (self.exterior.coords, tuple(h.coords for h in self.holes))

    @classmethod
    def from_bbox(cls, box: BBox) -> "Polygon":
        if box.is_empty():
            raise GeometryError("cannot build polygon from empty bbox")
        return cls(
            [
                (box.min_x, box.min_y),
                (box.max_x, box.min_y),
                (box.max_x, box.max_y),
                (box.min_x, box.max_y),
            ]
        )

    @classmethod
    def regular(cls, cx: float, cy: float, radius: float, sides: int = 16) -> "Polygon":
        """A regular polygon approximating a disc — used for buffers."""
        if sides < 3:
            raise GeometryError("a polygon needs at least 3 sides")
        if radius <= 0:
            raise GeometryError("radius must be positive")
        coords = [
            (
                cx + radius * math.cos(2.0 * math.pi * i / sides),
                cy + radius * math.sin(2.0 * math.pi * i / sides),
            )
            for i in range(sides)
        ]
        return cls(coords)


class _MultiGeometry(Geometry):
    """Shared machinery for homogeneous geometry collections."""

    member_type: type = Geometry
    __slots__ = ("members",)

    def __init__(self, members: Sequence[Geometry]):
        members = tuple(members)
        if not members:
            raise GeometryError(f"{type(self).__name__} cannot be empty")
        for m in members:
            if not isinstance(m, self.member_type):
                raise GeometryError(
                    f"{type(self).__name__} members must be "
                    f"{self.member_type.__name__}, got {type(m).__name__}"
                )
        self.members = members

    def bbox(self) -> BBox:
        return BBox.union_all([m.bbox() for m in self.members])

    def is_valid(self) -> bool:
        return all(m.is_valid() for m in self.members)

    def translated(self, dx: float, dy: float) -> "_MultiGeometry":
        return type(self)([m.translated(dx, dy) for m in self.members])

    def _signature(self) -> tuple:
        return tuple(m._signature() for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Geometry]:
        return iter(self.members)


class MultiPoint(_MultiGeometry):
    geom_type = "multipoint"
    member_type = Point

    def wkt(self) -> str:
        body = ", ".join(f"({p.x:g} {p.y:g})" for p in self.members)
        return f"MULTIPOINT ({body})"


class MultiLineString(_MultiGeometry):
    geom_type = "multilinestring"
    member_type = LineString

    def length(self) -> float:
        return sum(m.length() for m in self.members)

    def wkt(self) -> str:
        parts = []
        for line in self.members:
            parts.append("(" + ", ".join(f"{x:g} {y:g}" for x, y in line.coords) + ")")
        return f"MULTILINESTRING ({', '.join(parts)})"


class MultiPolygon(_MultiGeometry):
    geom_type = "multipolygon"
    member_type = Polygon

    def area(self) -> float:
        return sum(m.area() for m in self.members)

    def contains_point(self, x: float, y: float) -> bool:
        return any(m.contains_point(x, y) for m in self.members)

    def wkt(self) -> str:
        parts = []
        for poly in self.members:
            rings = ", ".join(
                "(" + ", ".join(f"{x:g} {y:g}" for x, y in r.closed_coords()) + ")"
                for r in poly.rings()
            )
            parts.append(f"({rings})")
        return f"MULTIPOLYGON ({', '.join(parts)})"


#: Map from ``geom_type`` tag to class, used by the type system and storage.
GEOMETRY_TYPES: dict[str, type] = {
    cls.geom_type: cls
    for cls in (Point, LineString, Polygon, MultiPoint, MultiLineString, MultiPolygon)
}
