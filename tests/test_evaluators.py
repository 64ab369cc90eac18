"""Every query route answers like the reference evaluator.

A predicate has one evaluator per access shape: ``Predicate.matches``
judges objects (index-scan refines, the row fallbacks, live-query
membership) and ``compile_columns`` judges column snapshots. A
predicate subclass that defines only ``matches`` reaches the column
route through the base-class kernel. These tests run such a custom
predicate, alone and inside combinators, over every engine route —
columnar, ``use_columns=False`` and a 2×2 scatter — and through a live
watch under commits, against ``tests/_reference.py``. They also pin the
projected ``oid``: the object's oid on every route.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import GISKernel
from repro.geodb import GeographicDatabase, QueryEngine
from repro.geodb.query import (And, Comparison, Not, Or, Predicate, Query,
                               SpatialPredicate)
from repro.geodb.query_language import parse_query
from repro.spatial import Point, Polygon
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


def route_results(db, query):
    """(route name, result) for the columnar, row and scatter routes."""
    yield "columns", QueryEngine(db).execute(MIX_SCHEMA, query)
    yield "rows", QueryEngine(db, use_columns=False).execute(MIX_SCHEMA,
                                                             query)
    db.shard_extent(MIX_SCHEMA, MIX_CLASS, "location", grid=(2, 2))
    result = QueryEngine(db).execute(MIX_SCHEMA, query)
    assert result.report["plan"] == "scatter"
    yield "scatter", result


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("where", CUSTOM_WHERES)
def test_custom_predicate_equals_reference_on_every_route(db, where, shape):
    query = Query(MIX_CLASS, where=CUSTOM_WHERES[where], **SHAPES[shape])
    expected = comparable(query, *_reference.evaluate(db, MIX_SCHEMA, query))
    for route, result in route_results(db, query):
        assert comparable(query, result.objects, result.rows) == expected, \
            route


def test_custom_predicate_reaches_the_column_route(db):
    """The base kernel serves a ``matches``-only predicate on columns."""
    result = QueryEngine(db).execute(MIX_SCHEMA,
                                     Query(MIX_CLASS, where=EvenSize()))
    assert [plan["columns"] for plan in result.report["plans"]] == [True]


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
