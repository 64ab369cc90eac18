"""Property-based tests for the columnar scan path.

Random databases and random queries prove the invariant the columnar
subsystem rests on: **the column kernels and the row path are the same
function**. For every generated (data, query) pair the two engines must
agree on membership, order, projected rows and aggregates — and a
commit after the columns are warm must never leave a stale answer
behind (the version stamp, not luck, keeps them equal). Since every
route shapes through one shaper, the routes are also checked against
an independent reference evaluator (``tests/_reference.py``) — among
them a mixed closure, where a test-local subclass holds every other
row, so the sort, the top-k and the float ``sum``/``avg`` merge two
parts.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geodb import (FLOAT, Attribute, GeoClass, GeographicDatabase,
                         MemoryPager, QueryEngine)
from repro.geodb.query_language import parse_query
from repro.spatial import Point
from repro.workloads import build_mix_schema
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA
from tests import _reference

#: (name suffix, size, has-location) rows; names collide on purpose so
#: equality and ``like`` predicates select multi-row groups.
rows_strategy = st.lists(
    st.tuples(st.sampled_from(["ash", "beech", "cedar", "ash/2"]),
              st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
              st.booleans()),
    min_size=0, max_size=30)

OPS = ["=", "!=", "<", "<=", ">", ">="]

#: a test-local subclass of the mix class; a mixed database puts every
#: other generated row in it
SUBCLASS = "SubFeature"

AGGREGATES = ("count(*), min(size), max(size), avg(size), "
              "sum(weight), avg(weight)")


def build_schema():
    """The mix schema plus a float ``weight`` and :data:`SUBCLASS`."""
    schema = build_mix_schema()
    schema.get_class(MIX_CLASS).add_attribute(Attribute("weight", FLOAT))
    schema.add_class(GeoClass(SUBCLASS, superclass=MIX_CLASS))
    return schema


def make_db(rows, mixed=False) -> GeographicDatabase:
    db = GeographicDatabase("props", pager=MemoryPager())
    db.register_schema(build_schema())
    if rows:
        with db.transaction() as txn:
            for i, (name, size, located) in enumerate(rows):
                class_name = SUBCLASS if mixed and i % 2 else MIX_CLASS
                txn.insert(MIX_SCHEMA, class_name, {
                    "name": name,
                    "size": size,
                    # tenths: float sums that depend on order
                    "weight": None if size is None else size / 10,
                    "location": Point(float(i % 7), float(i % 5))
                                if located else None,
                })
    return db


@st.composite
def where_clauses(draw):
    terms = []
    for __ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            op = draw(st.sampled_from(OPS))
            value = draw(st.integers(min_value=-50, max_value=50))
            terms.append(f"size {op} {value}")
        else:
            name = draw(st.sampled_from(["ash", "beech", "a%"]))
            op = "like" if "%" in name else draw(st.sampled_from(["=", "!="]))
            terms.append(f"name {op} '{name}'")
    joiner = draw(st.sampled_from([" and ", " or "]))
    clause = joiner.join(terms)
    if draw(st.booleans()):
        clause = f"not ({clause})"
    return clause


@st.composite
def queries(draw):
    select = draw(st.sampled_from(["*", "oid, name, size", AGGREGATES]))
    text = f"select {select} from {MIX_CLASS}"
    if draw(st.booleans()):
        text += f" where {draw(where_clauses())}"
    if select != AGGREGATES:
        if draw(st.booleans()):
            direction = draw(st.sampled_from(["", "desc "]))
            text += f" order by {direction}size"
            if draw(st.booleans()):
                text += f" limit {draw(st.integers(1, 10))}"
    return text


def answers(db, text):
    """(column answer, row answer) for one query, byte-comparable."""
    out = []
    for engine in (QueryEngine(db), QueryEngine(db, use_columns=False)):
        result = engine.execute(MIX_SCHEMA, parse_query(text))
        out.append((result.oids(), result.rows,
                    result.report["candidates"]))
    return out


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, text=queries())
def test_columns_equal_rows(rows, text):
    db = make_db(rows)
    column_answer, row_answer = answers(db, text)
    assert column_answer == row_answer


def comparable(query, result_objects, rows):
    """Oids and rows, exact for ordered answers, as a multiset otherwise."""
    oids = [obj.oid for obj in result_objects]
    if query.order_by and not query.aggregates:
        return oids, rows
    if rows is None or query.aggregates:
        return sorted(oids), rows
    return sorted(zip(oids, map(repr, rows))), None


#: a fixed extent for the always-run examples: ties, nulls, no location
EXAMPLE_ROWS = [("ash", 5, True), ("beech", None, True), ("cedar", 5, False),
                ("ash/2", -3, True), ("beech", 12, True), ("ash", None, False),
                ("cedar", 40, True), ("ash", 0, True)]


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, text=queries())
@example(rows=EXAMPLE_ROWS,
         text="select oid, name, size from Feature order by size limit 3")
@example(rows=EXAMPLE_ROWS,
         text="select * from Feature where name != 'beech' "
              "order by desc size limit 4")
@example(rows=EXAMPLE_ROWS,
         text=f"select {AGGREGATES} from Feature where size >= 0")
def test_every_route_equals_reference(rows, text):
    """Columnar and row routes, on one class and on a mixed closure,
    all answer like the naive reference evaluator — order, membership,
    rows and aggregates."""
    for mixed in (False, True):
        db = make_db(rows, mixed=mixed)
        query = parse_query(text + " including subclasses" if mixed
                            else text)
        expected = comparable(query,
                              *_reference.evaluate(db, MIX_SCHEMA, query))
        for engine in (QueryEngine(db), QueryEngine(db, use_columns=False)):
            result = engine.execute(MIX_SCHEMA, query)
            assert len(result.report["plans"]) == (2 if mixed else 1)
            assert comparable(query, result.objects, result.rows) \
                == expected, (mixed, engine.use_columns)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, text=queries())
def test_unordered_membership_is_extent_order(rows, text):
    """Unordered columnar results keep extent order, like the row path."""
    db = make_db(rows)
    engine = QueryEngine(db)
    result = engine.execute(MIX_SCHEMA, parse_query(text))
    extent_order = {oid: i for i, oid in
                    enumerate(db.extent(MIX_SCHEMA, MIX_CLASS).oids())}
    if "order by" not in text and result.rows is None:
        positions = [extent_order[oid] for oid in result.oids()]
        assert positions == sorted(positions)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy,
       text=queries(),
       new_size=st.integers(min_value=-50, max_value=50),
       deletes=st.booleans())
def test_commit_invalidation_never_stale(rows, text, new_size, deletes):
    """Warm columns + a commit = fresh answers, never the old snapshot."""
    db = make_db(rows)
    engine = QueryEngine(db)
    engine.execute(MIX_SCHEMA, parse_query(text))      # warm the cache
    oids = db.extent(MIX_SCHEMA, MIX_CLASS).oids()
    with db.transaction() as txn:
        if oids and deletes:
            txn.delete(oids[0])
        if len(oids) > 1:
            txn.update(oids[1], {"size": new_size})
        txn.insert(MIX_SCHEMA, MIX_CLASS, {"name": "fresh",
                                           "size": new_size})
    column_answer, row_answer = answers(db, text)
    assert column_answer == row_answer
    # And the fresh insert is actually visible through the columns.
    visible = QueryEngine(db).execute(
        MIX_SCHEMA, parse_query("select * from Feature where name = 'fresh'"))
    assert len(visible.objects) == 1
