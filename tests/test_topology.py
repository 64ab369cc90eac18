"""Unit tests for the topological relation kernels."""

import pytest

from repro.errors import GeometryError
from repro.spatial import (
    BBox,
    LineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    Relation,
    contains,
    covered_by,
    covers,
    crosses,
    disjoint,
    equals,
    intersects,
    overlaps,
    relate,
    touches,
    within,
)


def square(x0, y0, x1, y1):
    return Polygon.from_bbox(BBox(x0, y0, x1, y1))


class TestPointPoint:
    def test_equal(self):
        assert relate(Point(1, 1), Point(1, 1)) is Relation.EQUALS

    def test_disjoint(self):
        assert relate(Point(1, 1), Point(2, 2)) is Relation.DISJOINT


class TestPointLine:
    def test_within_interior(self):
        assert relate(Point(5, 0), LineString([(0, 0), (10, 0)])) is Relation.WITHIN

    def test_touches_endpoint(self):
        assert relate(Point(0, 0), LineString([(0, 0), (10, 0)])) is Relation.TOUCHES

    def test_disjoint(self):
        assert relate(Point(5, 5), LineString([(0, 0), (10, 0)])) is Relation.DISJOINT

    def test_inverse_is_contains(self):
        assert relate(LineString([(0, 0), (10, 0)]), Point(5, 0)) is Relation.CONTAINS


class TestZeroLengthEdges:
    """A repeated vertex makes a zero-length edge, which holds only its
    own point, not the whole plane."""

    def test_line_with_repeated_vertex(self):
        line = LineString([(0, 0), (0, 0), (1, 1)])
        assert relate(Point(50, 50), line) is Relation.DISJOINT
        assert relate(Point(0, 0), line) is Relation.TOUCHES
        assert relate(Point(0.5, 0.5), line) is Relation.WITHIN

    def test_polygon_with_repeated_vertex(self):
        polygon = Polygon([(0, 0), (0, 0), (1, 0), (1, 1)])
        assert relate(Point(50, 50), polygon) is Relation.DISJOINT
        assert relate(Point(0, 0), polygon) is Relation.TOUCHES


class TestPointPolygon:
    def test_within(self):
        assert relate(Point(5, 5), square(0, 0, 10, 10)) is Relation.WITHIN

    def test_touches_boundary(self):
        assert relate(Point(0, 5), square(0, 0, 10, 10)) is Relation.TOUCHES
        assert relate(Point(0, 0), square(0, 0, 10, 10)) is Relation.TOUCHES

    def test_disjoint(self):
        assert relate(Point(20, 20), square(0, 0, 10, 10)) is Relation.DISJOINT

    def test_point_in_hole_is_disjoint(self):
        donut = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)],
                        holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
        assert relate(Point(5, 5), donut) is Relation.DISJOINT


class TestLineLine:
    def test_equal(self):
        a = LineString([(0, 0), (10, 0)])
        assert relate(a, LineString([(0, 0), (10, 0)])) is Relation.EQUALS

    def test_equal_reversed(self):
        a = LineString([(0, 0), (10, 0)])
        assert relate(a, LineString([(10, 0), (0, 0)])) is Relation.EQUALS

    def test_crosses(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        assert relate(a, b) is Relation.CROSSES

    def test_touches_at_endpoint(self):
        a = LineString([(0, 0), (5, 0)])
        b = LineString([(5, 0), (10, 5)])
        assert relate(a, b) is Relation.TOUCHES

    def test_collinear_overlap(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        assert relate(a, b) is Relation.OVERLAPS

    def test_within(self):
        inner = LineString([(2, 0), (5, 0)])
        outer = LineString([(0, 0), (10, 0)])
        assert relate(inner, outer) is Relation.WITHIN
        assert relate(outer, inner) is Relation.CONTAINS

    def test_disjoint(self):
        a = LineString([(0, 0), (1, 0)])
        b = LineString([(0, 5), (1, 5)])
        assert relate(a, b) is Relation.DISJOINT

    def test_t_junction_touches(self):
        # endpoint of b meets the interior of a: boundary contact only
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (5, 5)])
        assert relate(a, b) is Relation.TOUCHES


class TestLinePolygon:
    def test_crosses_through(self):
        line = LineString([(-5, 5), (15, 5)])
        assert relate(line, square(0, 0, 10, 10)) is Relation.CROSSES

    def test_within(self):
        line = LineString([(2, 2), (8, 8)])
        assert relate(line, square(0, 0, 10, 10)) is Relation.WITHIN

    def test_touches_edge(self):
        line = LineString([(0, 0), (0, 10)])   # runs along the boundary
        assert relate(line, square(0, 0, 10, 10)) is Relation.TOUCHES

    def test_touches_at_point(self):
        line = LineString([(-5, 0), (0, 0)])
        assert relate(line, square(0, 0, 10, 10)) is Relation.TOUCHES

    def test_disjoint(self):
        line = LineString([(20, 20), (30, 30)])
        assert relate(line, square(0, 0, 10, 10)) is Relation.DISJOINT

    def test_inverse_contains(self):
        line = LineString([(2, 2), (8, 8)])
        assert relate(square(0, 0, 10, 10), line) is Relation.CONTAINS


class TestPolygonPolygon:
    def test_equal(self):
        assert relate(square(0, 0, 10, 10), square(0, 0, 10, 10)) is Relation.EQUALS

    def test_disjoint(self):
        assert relate(square(0, 0, 1, 1), square(5, 5, 6, 6)) is Relation.DISJOINT

    def test_touches_edge(self):
        assert relate(square(0, 0, 10, 10), square(10, 0, 20, 10)) is Relation.TOUCHES

    def test_touches_corner(self):
        assert relate(square(0, 0, 10, 10), square(10, 10, 20, 20)) is Relation.TOUCHES

    def test_overlaps(self):
        assert relate(square(0, 0, 10, 10), square(5, 5, 15, 15)) is Relation.OVERLAPS

    def test_plus_sign_overlap_no_vertices_inside(self):
        tall = square(4, -5, 6, 15)
        wide = square(-5, 4, 15, 6)
        assert relate(tall, wide) is Relation.OVERLAPS

    def test_contains_within(self):
        assert relate(square(0, 0, 10, 10), square(2, 2, 8, 8)) is Relation.CONTAINS
        assert relate(square(2, 2, 8, 8), square(0, 0, 10, 10)) is Relation.WITHIN


class TestMultiGeometries:
    def test_multipoint_within_polygon(self):
        mp = MultiPoint([Point(1, 1), Point(2, 2)])
        assert relate(mp, square(0, 0, 10, 10)) is Relation.WITHIN

    def test_multipolygon_disjoint(self):
        mpoly = MultiPolygon([square(0, 0, 1, 1), square(2, 2, 3, 3)])
        assert relate(mpoly, square(10, 10, 20, 20)) is Relation.DISJOINT

    def test_multipolygon_contains_point(self):
        mpoly = MultiPolygon([square(0, 0, 2, 2), square(5, 5, 7, 7)])
        assert relate(Point(6, 6), mpoly) is Relation.WITHIN


class TestBooleanWrappers:
    def test_wrappers_agree_with_relate(self):
        a, b = square(0, 0, 10, 10), square(5, 5, 15, 15)
        assert overlaps(a, b) and intersects(a, b)
        assert not disjoint(a, b) and not touches(a, b)
        assert not equals(a, b) and not crosses(a, b)

    def test_within_contains_accept_equals(self):
        a = square(0, 0, 1, 1)
        assert within(a, a) and contains(a, a)

    def test_covers_includes_boundary_contact(self):
        outer = square(0, 0, 10, 10)
        edge_line = LineString([(0, 0), (0, 10)])
        assert covers(outer, edge_line)
        assert covered_by(edge_line, outer)
        assert covers(outer, square(2, 2, 8, 8))
        assert not covers(square(2, 2, 8, 8), outer)

    def test_inverse_consistency(self):
        pairs = [
            (Point(5, 5), square(0, 0, 10, 10)),
            (LineString([(0, 0), (10, 0)]), square(0, 0, 10, 10)),
            (square(0, 0, 4, 4), square(2, 2, 8, 8)),
        ]
        for a, b in pairs:
            assert relate(a, b) is relate(b, a).inverse()


class TestErrors:
    def test_relation_inverse_mapping(self):
        assert Relation.WITHIN.inverse() is Relation.CONTAINS
        assert Relation.CONTAINS.inverse() is Relation.WITHIN
        assert Relation.TOUCHES.inverse() is Relation.TOUCHES

    def test_unknown_geometry_rejected(self):
        class Fake:
            geom_type = "fake"

        with pytest.raises((GeometryError, AttributeError)):
            relate(Fake(), Point(0, 0))  # type: ignore[arg-type]
