"""Every query route answers like the reference evaluator.

A predicate has one evaluator per access shape: ``Predicate.matches``
judges objects (live-query membership) and ``compile_columns`` judges
column sets, which every engine plan and scenario query select over. A
predicate subclass that defines only ``matches`` reaches the column
route through the base-class kernel. These tests run such a custom
predicate, alone and inside combinators, over every query route — the
engine's plan, a scenario's transient batch and a mixed closure whose
rows are split over two classes — and through a live watch under
commits, against ``tests/_reference.py``. They also pin the projected
``oid`` (the object's oid on every route) and float aggregates (the
reference's correctly rounded answer on every route).
"""

from __future__ import annotations

import copy

import pytest

from repro.core.kernel import GISKernel
from repro.geodb import GeoClass, GeographicDatabase, QueryEngine
from repro.geodb.query import (And, Comparison, Not, Or, Predicate, Query,
                               SpatialPredicate)
from repro.geodb.query_language import parse_query
from repro.spatial import Point, Polygon
from repro.workloads import PhoneNetParams, build_phone_net_database
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA, build_mix_schema
from tests import _reference
from tests.test_properties_columns import comparable


class EvenSize(Predicate):
    """A predicate defined outside the query module: ``matches`` and
    ``describe`` only."""

    def matches(self, obj, geo_class) -> bool:
        size = obj.get("size", geo_class)
        return isinstance(size, int) and size % 2 == 0

    def describe(self) -> str:
        return "even(size)"


WINDOW = Polygon([(0, 0), (300, 0), (300, 300), (0, 300)])

CUSTOM_WHERES = {
    "alone": EvenSize(),
    "and": And([EvenSize(), Comparison("size", ">", 10)]),
    "or": Or([EvenSize(), Comparison("name", "like", "seed1")]),
    "not": Not(EvenSize()),
    "equality": And([Comparison("name", "in", ["seed04", "seed08",
                                                "seed09"]), EvenSize()]),
    "window": And([SpatialPredicate("location", "within", WINDOW),
                   EvenSize()]),
}

SHAPES = {
    "plain": {},
    "ordered": {"order_by": "-size", "limit": 5},
    "projected": {"projection": ["oid", "name", "size"]},
    "aggregates": {"aggregates": [("count", None), ("sum", "size"),
                                  ("min", "name")]},
}


@pytest.fixture()
def db():
    database = GeographicDatabase("evaluators")
    database.register_schema(build_mix_schema())
    with database.transaction() as txn:
        for i in range(40):
            txn.insert(MIX_SCHEMA, MIX_CLASS, {
                "name": f"seed{i:02d}",
                "size": (i * 7) % 53 if i % 6 else None,
                "location": Point((i * 13) % 1000, (i * 29) % 1000)
                            if i % 5 else None,
            }, oid=f"Feature#seed{i:02d}")
    database.create_attribute_index(MIX_SCHEMA, MIX_CLASS, "name")
    return database


#: a test-local subclass of the mix class
SUBCLASS = "SubFeature"


def mixed_copy(db):
    """The same rows under the same oids, every other one moved to
    :data:`SUBCLASS`; only the mix class keeps the name index."""
    schema = build_mix_schema()
    schema.add_class(GeoClass(SUBCLASS, superclass=MIX_CLASS))
    mixed = GeographicDatabase("evaluators-mixed")
    mixed.register_schema(schema)
    with mixed.transaction() as txn:
        for i, obj in enumerate(db.extent(MIX_SCHEMA, MIX_CLASS)):
            txn.insert(MIX_SCHEMA, SUBCLASS if i % 2 else MIX_CLASS,
                       obj.values(), oid=obj.oid)
    mixed.create_attribute_index(MIX_SCHEMA, MIX_CLASS, "name")
    return mixed


def route_results(db, query):
    """(route name, result) for the engine, scenario and mixed-closure
    routes; the mixed closure shapes two parts into the same answer."""
    yield "engine", QueryEngine(db).execute(MIX_SCHEMA, query)
    yield "scenario", db.scenario(MIX_SCHEMA).execute(query)
    closure_query = copy.copy(query)
    closure_query.include_subclasses = True
    result = QueryEngine(mixed_copy(db)).execute(MIX_SCHEMA, closure_query)
    assert len(result.report["plans"]) == 2
    yield "mixed closure", result


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("where", CUSTOM_WHERES)
def test_custom_predicate_equals_reference_on_every_route(db, where, shape):
    query = Query(MIX_CLASS, where=CUSTOM_WHERES[where], **SHAPES[shape])
    expected = comparable(query, *_reference.evaluate(db, MIX_SCHEMA, query))
    for route, result in route_results(db, query):
        assert comparable(query, result.objects, result.rows) == expected, \
            route


def test_custom_predicate_reaches_the_column_route(db, monkeypatch):
    """The base kernel serves a ``matches``-only predicate on columns."""
    compiled = []
    base_kernel = Predicate.compile_columns

    def spy(self, geo_class, columns):
        compiled.append(columns)
        return base_kernel(self, geo_class, columns)

    monkeypatch.setattr(EvenSize, "compile_columns", spy, raising=False)
    query = Query(MIX_CLASS, where=EvenSize())
    result = QueryEngine(db).execute(MIX_SCHEMA, query)
    assert compiled == [db.column_cache.for_class(MIX_SCHEMA, MIX_CLASS)]
    assert result.oids() == [obj.oid for obj in _reference.evaluate(
        db, MIX_SCHEMA, query)[0]]


@pytest.mark.parametrize("shape", SHAPES)
def test_custom_predicate_live_watch_equals_fresh(db, shape):
    query = Query(MIX_CLASS, where=And([EvenSize(),
                                        Comparison("size", "<", 40)]),
                  **SHAPES[shape])
    with GISKernel(db) as kernel:
        session = kernel.session(user="u")
        watch = session.watch(MIX_SCHEMA, query)
        commits = [
            lambda txn: txn.insert(MIX_SCHEMA, MIX_CLASS,
                                   {"name": "in", "size": 12},
                                   oid="Feature#in"),
            lambda txn: txn.update("Feature#in", {"size": 13}),    # leaves
            lambda txn: txn.update("Feature#seed01", {"size": 2}),  # enters
            lambda txn: txn.update("Feature#in", {"size": 30}),    # re-enters
            lambda txn: txn.delete("Feature#seed02"),
        ]
        for commit in commits:
            with kernel.transaction(session) as txn:
                commit(txn)
            expected = comparable(
                query, *_reference.evaluate(db, MIX_SCHEMA, query))
            got = watch.result()
            assert comparable(query, got.objects, got.rows) == expected


def test_projected_oid_is_the_object_oid_on_every_route(db):
    query = parse_query("select oid, name from Feature where size > 10")
    for route, result in route_results(db, query):
        assert result.rows, route
        assert [row["oid"] for row in result.rows] == result.oids(), route


def test_projected_oid_in_live_rows(db):
    text = "select name, oid from Feature where size > 10 order by size"
    with GISKernel(db) as kernel:
        session = kernel.session(user="u")
        watch = session.watch(MIX_SCHEMA, text)
        with kernel.transaction(session) as txn:
            txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "in", "size": 20},
                       oid="Feature#in")
            txn.update("Feature#seed01", {"size": 45})
        result = watch.result()
        assert "Feature#in" in result.oids()
        assert [row["oid"] for row in result.rows] == result.oids()
        assert result.rows == QueryEngine(db).execute(
            MIX_SCHEMA, parse_query(text)).rows


def test_phone_net_float_aggregates_equal_reference():
    """Float sum/avg over the 168-pole phone net are the reference's
    correctly rounded answer on the engine and scenario routes. Only Pole
    declares them, so the shaper merges one part here; a live watch's
    arrival-order independence is pinned in ``test_live_queries.py``."""
    db = build_phone_net_database(PhoneNetParams(
        blocks_x=6, blocks_y=6, poles_per_street=12))
    query = parse_query("select sum(pole_composition.pole_height), "
                        "avg(pole_composition.pole_diameter) from Pole")
    matches, expected = _reference.evaluate(db, "phone_net", query)
    assert len(matches) == 168
    assert QueryEngine(db).execute("phone_net", query).rows == expected
    assert db.scenario("phone_net").execute(query).rows == expected


@pytest.mark.parametrize("where", [
    "intersects(pole_location, {})", "touches(pole_location, {})",
    "covered_by(pole_location, {})", "relate(pole_location, {}, '*T*******')",
])
def test_window_edge_band_probe_equals_reference(phone_db, where):
    """A window whose left edge sits 5e-10 right of pole #10: relate()
    counts the pole as on that edge, so it touches, intersects and is
    covered by the window, and its interior meets the window's boundary.
    The engine's plan and the scenario route keep it, because their
    pre-filters widen the probe's bounds by its boundary band."""
    pole = list(phone_db.extent("phone_net", "Pole"))[10]
    x, y = pole.get("pole_location").as_tuple()
    box = f"bbox({x + 5e-10!r}, {y - 1!r}, {x + 10!r}, {y + 1!r})"
    query = parse_query(f"select * from Pole where {where.format(box)}")
    expected = sorted(obj.oid for obj in
                      _reference.evaluate(phone_db, "phone_net", query)[0])
    assert pole.oid in expected
    assert sorted(QueryEngine(phone_db).execute("phone_net", query).oids()) \
        == expected
    assert sorted(phone_db.scenario("phone_net").execute(query).oids()) \
        == expected
