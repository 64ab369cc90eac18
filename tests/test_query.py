"""Unit tests for the query model and the query engine."""

import pytest

from repro.errors import QueryError
from repro.geodb import (
    And,
    Attribute,
    Comparison,
    FLOAT,
    GeoClass,
    GeographicDatabase,
    GeometryType,
    INTEGER,
    Not,
    Or,
    Query,
    QueryEngine,
    SpatialPredicate,
    TEXT,
    TruePredicate,
    TupleType,
    WithinDistance,
)
from repro.spatial import BBox, LineString, Point, Polygon
from repro.spatial.topology import boundary_band


@pytest.fixture()
def db():
    database = GeographicDatabase("Q")
    schema = database.create_schema("s")
    schema.add_class(GeoClass("Shape", [
        Attribute("kind", TEXT),
        Attribute("size", FLOAT),
        Attribute("meta", TupleType({"source": TEXT, "rank": INTEGER})),
        Attribute("geom", GeometryType()),
    ]))
    schema.add_class(GeoClass("BigShape", superclass="Shape"))
    with database.transaction() as txn:
        for i in range(20):
            txn.insert("s", "Shape", {
                "kind": "point" if i % 2 == 0 else "line",
                "size": float(i),
                "meta": {"source": f"batch{i % 3}", "rank": i % 5},
                "geom": Point(i * 10.0, 0.0),
            })
        txn.insert("s", "BigShape", {"kind": "big", "size": 999.0,
                                     "geom": Point(5.0, 5.0)})
    return database


@pytest.fixture()
def engine(db):
    return QueryEngine(db)


class TestPredicates:
    def test_comparison_operators(self, db):
        geo_class = db.get_schema_object("s").get_class("Shape")
        obj = next(iter(db.extent("s", "Shape")))
        assert Comparison("size", "=", 0.0).matches(obj, geo_class)
        assert Comparison("size", "<", 1.0).matches(obj, geo_class)
        assert Comparison("kind", "like", "POI").matches(obj, geo_class)
        assert Comparison("kind", "in", ["point", "line"]).matches(obj, geo_class)
        assert not Comparison("size", ">", 0.0).matches(obj, geo_class)

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("x", "~~", 1)

    def test_dotted_path_into_tuple(self, db):
        geo_class = db.get_schema_object("s").get_class("Shape")
        obj = next(iter(db.extent("s", "Shape")))
        assert Comparison("meta.source", "=", "batch0").matches(obj, geo_class)
        assert not Comparison("meta.rank", ">", 100).matches(obj, geo_class)

    def test_bad_path_is_nonmatch(self, db):
        geo_class = db.get_schema_object("s").get_class("Shape")
        obj = next(iter(db.extent("s", "Shape")))
        assert not Comparison("meta.missing", "=", 1).matches(obj, geo_class)

    def test_combinators(self, db):
        geo_class = db.get_schema_object("s").get_class("Shape")
        obj = next(iter(db.extent("s", "Shape")))
        a = Comparison("size", "=", 0.0)
        b = Comparison("kind", "=", "line")
        assert (a | b).matches(obj, geo_class)
        assert not (a & b).matches(obj, geo_class)
        assert (~b).matches(obj, geo_class)
        assert isinstance(a & b, And) and isinstance(a | b, Or)
        assert isinstance(~a, Not)

    def test_combinator_arity(self):
        with pytest.raises(QueryError):
            And([TruePredicate()])
        with pytest.raises(QueryError):
            Or([TruePredicate()])

    def test_spatial_predicate_validation(self):
        with pytest.raises(QueryError):
            SpatialPredicate("geom", "hovers_over", Point(0, 0))
        with pytest.raises(QueryError):
            SpatialPredicate("geom", "within", "not a geometry")
        with pytest.raises(QueryError):
            WithinDistance("geom", Point(0, 0), -1)

    def test_spatial_prefilter_exposure(self):
        probe = Polygon.from_bbox(BBox(0, 0, 10, 10))
        pred = SpatialPredicate("geom", "within", probe)
        attr, box = pred.spatial_prefilter()
        # the probe's bbox widened by its boundary band, so rows that
        # relate() finds on an edge from just outside are candidates
        assert attr == "geom" and box == probe.bbox().expanded(
            boundary_band(probe))
        assert box.contains_bbox(probe.bbox()) and box != probe.bbox()
        assert SpatialPredicate("geom", "disjoint", probe).spatial_prefilter() is None
        wd = WithinDistance("geom", Point(5, 5), 3.0)
        assert wd.spatial_prefilter()[1] == BBox(2, 2, 8, 8)
        conj = And([Comparison("size", ">", 0), pred])
        assert conj.spatial_prefilter() == (attr, box)
        assert Or([pred, Comparison("size", ">", 0)]).spatial_prefilter() is None

    def test_describe_strings(self):
        pred = And([Comparison("size", ">", 1),
                    Not(Comparison("kind", "=", "x"))])
        assert "size > 1" in pred.describe()
        assert "not kind" in pred.describe()


class TestQueryValidation:
    def test_needs_class(self):
        with pytest.raises(QueryError):
            Query("")

    def test_negative_limit(self):
        with pytest.raises(QueryError):
            Query("Shape", limit=-1)

    def test_describe(self):
        q = Query("Shape", where=Comparison("size", ">", 3),
                  projection=["size"], order_by="-size", limit=5)
        text = q.describe()
        assert "select size" in text and "limit 5" in text


class TestExecution:
    def test_full_scan_plan(self, engine):
        result = engine.execute("s", Query(
            "Shape", where=Comparison("kind", "=", "point")))
        assert len(result) == 10
        assert result.report["plan"] == "full-scan"

    def test_index_plan_and_correctness(self, engine, db):
        # -1 on the left edge: a point exactly on the boundary is TOUCHES,
        # not WITHIN, so keep x=0 strictly inside the probe.
        probe = Polygon.from_bbox(BBox(-1, -1, 55, 1))
        result = engine.execute("s", Query(
            "Shape", where=SpatialPredicate("geom", "within", probe)))
        assert result.report["plan"] == "index-scan"
        assert result.report["candidates"] < db.count("s", "Shape")
        # shapes sit at x = size * 10, so x in [-1, 55] keeps sizes 0..5
        assert sorted(o.get("size") for o in result.objects) == [
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_within_distance(self, engine):
        result = engine.execute("s", Query(
            "Shape", where=WithinDistance("geom", Point(0, 0), 25.0)))
        assert {o.get("size") for o in result.objects} == {0.0, 1.0, 2.0}

    def test_order_by_and_limit(self, engine):
        result = engine.execute("s", Query("Shape", order_by="-size", limit=3))
        assert [o.get("size") for o in result.objects] == [19.0, 18.0, 17.0]

    def test_order_by_tuple_field(self, engine):
        result = engine.execute("s", Query("Shape", order_by="meta.rank"))
        ranks = [o.get("meta")["rank"] for o in result.objects]
        assert ranks == sorted(ranks)

    def test_projection_rows(self, engine):
        result = engine.execute("s", Query(
            "Shape", projection=["kind", "meta.source"], limit=2))
        assert result.rows is not None
        assert set(result.rows[0]) == {"oid", "kind", "meta.source"}

    def test_include_subclasses(self, engine):
        without = engine.execute("s", Query("Shape"))
        with_subs = engine.execute("s", Query("Shape",
                                              include_subclasses=True))
        assert len(with_subs) == len(without) + 1

    def test_explain_text(self, engine):
        result = engine.execute("s", Query(
            "Shape", where=SpatialPredicate(
                "geom", "within", Polygon.from_bbox(BBox(0, -1, 20, 1)))))
        text = result.explain()
        assert "plan: index-scan" in text
        assert "rtree" in text

    def test_unknown_class_rejected(self, engine):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            engine.execute("s", Query("Ghost"))

    def test_spatial_on_line_geometry(self, engine, db):
        db.insert("s", "Shape", {
            "kind": "road",
            "geom": LineString([(0, -50), (0, 50)]),
        })
        probe = Polygon.from_bbox(BBox(-10, -10, 10, 10))
        result = engine.execute("s", Query(
            "Shape", where=SpatialPredicate("geom", "crosses", probe)))
        assert [o.get("kind") for o in result.objects] == ["road"]


class TestEqualityPrefilter:
    def test_exposed_by_equality_and_in(self):
        assert Comparison("kind", "=", "wood").equality_prefilter() == (
            "kind", ["wood"])
        assert Comparison("kind", "in", ["a", "b"]).equality_prefilter() == (
            "kind", ["a", "b"])

    def test_not_exposed_otherwise(self):
        assert Comparison("kind", ">", 1).equality_prefilter() is None
        assert Comparison("meta.rank", "=", 1).equality_prefilter() is None
        assert TruePredicate().equality_prefilter() is None
        assert Or([Comparison("a", "=", 1),
                   Comparison("b", "=", 2)]).equality_prefilter() is None

    def test_propagates_through_and(self):
        conj = And([Comparison("size", ">", 0),
                    Comparison("kind", "=", "x")])
        assert conj.equality_prefilter() == ("kind", ["x"])
