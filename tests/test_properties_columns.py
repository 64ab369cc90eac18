"""Property-based tests for the columnar selection path.

Every query route selects rows of a column set: full, hash and R-tree
scans of the engine over the class's cached set, scenario queries over
a transient batch. Random databases and random queries prove that
**every route answers like an independent reference evaluator**
(``tests/_reference.py``, plain ``Predicate.matches`` over the
extents) — on one class and on a mixed closure, where a test-local
subclass holds every other row, so the sort, the top-k and the float
``sum``/``avg`` merge two parts — and that a commit after the columns
are warm never leaves a stale answer behind. Spatial terms in the
generated predicates send conjunctions through R-tree scans, whose
unordered answers must come back in extent order like every other
plan's, and whose hits must come from the column set's commit state
even when a commit lands mid-query.

A second invariant covers what a commit does to warm columns: every
batch patches each cached set instead of discarding it, and the patched
set must equal a fresh build field by field, whichever path applied the
batch (local commit, replicated batch, WAL recovery replay), whether
the commit succeeded, was refused or rolled back, and whether lazy
columns were added while it applied. Live watches ride along on the
leader: after every batch each watch equals a fresh execution exactly,
and it was pushed if and only if its content changed. The indexes are
checked the same way: after every batch, a follower's resync and each
replayed batch of a restart, each R-tree, each hash index and the
reference map hold exactly what a rebuild from the extents would.
"""

from __future__ import annotations

import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import live_queries
from repro.core.kernel import GISKernel
from repro.errors import ObjectNotFoundError, TransactionError, WALError
from repro.geodb import (FLOAT, INTEGER, TEXT, Attribute, ClassColumns,
                         GeoClass, GeographicDatabase, HashIndex,
                         LocalReplicationSource, MemoryPager, QueryEngine,
                         ReferenceType, TupleType, WriteAheadLog)
from repro.geodb import columns as columns_module
from repro.geodb import query as query_module
from repro.geodb.planner import FULL_SCAN, HASH_SCAN, INDEX_SCAN
from repro.geodb.instances import GeoObject
from repro.geodb.query import SpatialPredicate
from repro.geodb.query_language import parse_query
from repro.spatial import BBox, LineString, Point, Polygon
from repro.spatial import topology
from repro.spatial.geometry import EPSILON
from repro.spatial.topology import PREDICATES
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
    for class_name in (MIX_CLASS, SUBCLASS):
        # ``name = ...`` terms may plan hash scans
        db.create_attribute_index(MIX_SCHEMA, class_name, "name")
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


#: how far a window corner may sit off its grid value: on it, or 5e-10
#: inside or outside, within ``relate``'s EPSILON band of a grid point
NUDGES = [0.0, 0.0, 5e-10, -5e-10]


@st.composite
def where_clauses(draw):
    """One to three terms over size, name and the location window.

    Locations sit on the integer grid ``(i % 7, i % 5)``; windows have
    integer or half-integer corners, some nudged by 5e-10, so points
    fall inside, outside, on edges (``touches``, not ``within``) and in
    the EPSILON band just inside or outside an edge, which ``relate``
    counts as on it. A window term in a conjunction lets the planner
    choose an R-tree scan; a ``name =`` term, a hash scan.
    """
    terms = []
    for __ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["size", "name", "window"]))
        if kind == "size":
            op = draw(st.sampled_from(OPS))
            value = draw(st.integers(min_value=-50, max_value=50))
            terms.append(f"size {op} {value}")
        elif kind == "name":
            name = draw(st.sampled_from(["ash", "beech", "a%"]))
            op = "like" if "%" in name else draw(st.sampled_from(["=", "!="]))
            terms.append(f"name {op} '{name}'")
        else:
            relation = draw(st.sampled_from(["within", "intersects",
                                             "touches"]))
            x, y = draw(st.integers(-1, 6)), draw(st.integers(-1, 4))
            width = draw(st.integers(1, 3)) - draw(st.sampled_from([0, 0.5]))
            height = draw(st.integers(1, 2)) - draw(st.sampled_from([0, 0.5]))
            corners = ", ".join(
                f"{value + draw(st.sampled_from(NUDGES)):.10f}"
                for value in (x, y, x + width, y + height))
            terms.append(f"{relation}(location, bbox({corners}))")
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


def routes(db, query):
    """(route name, result): the engine's plan, and a scenario with an
    empty overlay, which selects over a transient batch."""
    yield "engine", QueryEngine(db).execute(MIX_SCHEMA, query)
    yield "scenario", db.scenario(MIX_SCHEMA).execute(query)


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

#: enough located rows that the R-tree splits, so its search order is
#: not extent order
INDEX_ROWS = [(["ash", "beech", "cedar", "ash/2"][i % 4],
               (i * 7) % 23 - 10 if i % 5 else None, i % 9 != 4)
              for i in range(30)]

WINDOW = "within(location, bbox(0, 0, 3.5, 3.5))"

#: fixed examples whose window edges sit 5e-10 off grid points, so the
#: rows there are in ``relate``'s EPSILON band: from outside (the
#: widened prefilter must keep them) and from inside (``touches``, not
#: ``within``); one per plan kind, pinned by
#: ``test_band_examples_reach_every_plan``
BAND_EXAMPLES = {
    INDEX_SCAN: "select * from Feature where intersects(location, "
                "bbox(1.0000000005, 0.9999999995, 3.5, 2.0000000005))",
    HASH_SCAN: "select oid, name from Feature where name = 'beech' and "
               "touches(location, bbox(0.9999999995, 1.0000000005, 3, 3))",
    FULL_SCAN: "select count(*) from Feature where size > 40 or "
               "within(location, bbox(0.9999999995, -1, 4.0000000005, 3))",
}

#: fixed examples the planner answers with R-tree scans on INDEX_ROWS,
#: alone and in the mixed closure
INDEX_EXAMPLES = [
    f"select * from Feature where {WINDOW}",
    "select oid, name, size from Feature where size > -5 and "
    "within(location, bbox(-1, -1, 3, 2)) order by size limit 4",
    f"select {AGGREGATES} from Feature where name != 'beech' and {WINDOW}",
]


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, text=queries())
@example(rows=EXAMPLE_ROWS,
         text="select oid, name, size from Feature order by size limit 3")
@example(rows=EXAMPLE_ROWS,
         text="select * from Feature where name != 'beech' "
              "order by desc size limit 4")
@example(rows=EXAMPLE_ROWS,
         text=f"select {AGGREGATES} from Feature where size >= 0")
@example(rows=INDEX_ROWS, text=INDEX_EXAMPLES[0])
@example(rows=INDEX_ROWS, text=INDEX_EXAMPLES[1])
@example(rows=INDEX_ROWS, text=INDEX_EXAMPLES[2])
@example(rows=INDEX_ROWS, text=BAND_EXAMPLES[INDEX_SCAN])
@example(rows=INDEX_ROWS, text=BAND_EXAMPLES[HASH_SCAN])
@example(rows=INDEX_ROWS, text=BAND_EXAMPLES[FULL_SCAN])
def test_every_route_equals_reference(rows, text):
    """The engine's plans and the scenario route, on one class and on a
    mixed closure, all answer like the naive reference evaluator —
    order, membership, rows and aggregates."""
    for mixed in (False, True):
        db = make_db(rows, mixed=mixed)
        query = parse_query(text + " including subclasses" if mixed
                            else text)
        expected = comparable(query,
                              *_reference.evaluate(db, MIX_SCHEMA, query))
        for route, result in routes(db, query):
            if route == "engine":
                assert len(result.report["plans"]) == (2 if mixed else 1)
            assert comparable(query, result.objects, result.rows) \
                == expected, (mixed, route)


@pytest.mark.parametrize("text", INDEX_EXAMPLES)
def test_fixed_examples_plan_index_scans(text):
    """The fixed R-tree examples above really reach index scans (in the
    mixed closure, for at least one of the two classes)."""
    for mixed in (False, True):
        query = parse_query(text + " including subclasses" if mixed
                            else text)
        result = QueryEngine(make_db(INDEX_ROWS, mixed=mixed)).execute(
            MIX_SCHEMA, query)
        assert INDEX_SCAN in [plan["plan"] for plan in result.report["plans"]]


@pytest.mark.parametrize("kind", sorted(BAND_EXAMPLES))
def test_band_examples_reach_every_plan(kind):
    """Each band example plans its scan kind on the fixed rows, and some
    row it scans lies in the EPSILON band of a window edge: off the
    edge by less than 1e-9."""
    query = parse_query(BAND_EXAMPLES[kind])
    db = make_db(INDEX_ROWS)
    assert QueryEngine(db).execute(MIX_SCHEMA, query).report["plan"] == kind
    window = re.search(r"bbox\(([^)]*)\)", BAND_EXAMPLES[kind])[1]
    x0, y0, x1, y1 = map(float, window.split(","))
    assert any(0 < min(abs(point.x - x0), abs(point.x - x1),
                       abs(point.y - y0), abs(point.y - y1)) < 1e-9
               for obj in db.extent(MIX_SCHEMA, MIX_CLASS)
               if (point := obj.get("location")) is not None)


def check_extent_order(rows, text) -> None:
    db = make_db(rows)
    result = QueryEngine(db).execute(MIX_SCHEMA, parse_query(text))
    extent_order = {oid: i for i, oid in
                    enumerate(db.extent(MIX_SCHEMA, MIX_CLASS).oids())}
    if "order by" not in text and result.rows is None:
        positions = [extent_order[oid] for oid in result.oids()]
        assert positions == sorted(positions)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, text=queries())
@example(rows=INDEX_ROWS, text=INDEX_EXAMPLES[0])
def test_unordered_membership_is_extent_order(rows, text):
    """Unordered results keep extent order whatever the plan: an R-tree
    scan's hits are sorted into row order, not left in search order."""
    check_extent_order(rows, text)


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
    query = parse_query(text)
    result = engine.execute(MIX_SCHEMA, query)
    assert comparable(query, result.objects, result.rows) == comparable(
        query, *_reference.evaluate(db, MIX_SCHEMA, query))
    # And the fresh insert is actually visible through the columns.
    visible = QueryEngine(db).execute(
        MIX_SCHEMA, parse_query("select * from Feature where name = 'fresh'"))
    assert len(visible.objects) == 1


# ---------------------------------------------------------------------------
# delta == fresh: column sets patched past every batch
# ---------------------------------------------------------------------------

ORACLE_CLASSES = (MIX_CLASS, SUBCLASS)

#: (path, query class) columns warmed on every set; ``size`` keyed by
#: the superclass is the key a closure query puts on the subclass set
WARM_PATHS = [("name", MIX_CLASS), ("size", MIX_CLASS),
              ("spec.grade", MIX_CLASS), ("size", SUBCLASS)]

#: (path, query class) columns added lazily while the oracle runs: from
#: inside every commit, while its batch applies, and after every other
#: batch; only the ones added between batches may stay in a set
LAZY_PATHS = [("weight", MIX_CLASS), ("spec.span", MIX_CLASS),
              ("parent", MIX_CLASS)]

#: a ``parent`` pick that names no object: the commit fails integrity
GHOST = 9


def oracle_schema():
    """:func:`build_schema` plus a tuple (dotted paths) and a reference
    (referential integrity) attribute."""
    schema = build_schema()
    feature = schema.get_class(MIX_CLASS)
    feature.add_attribute(Attribute(
        "spec", TupleType({"grade": TEXT, "span": INTEGER})))
    feature.add_attribute(Attribute("parent", ReferenceType(MIX_CLASS)))
    return schema


def warm(db) -> None:
    """Build both classes' sets with every :data:`WARM_PATHS` column and
    the ``oid -> row`` map; the location columns stay lazy."""
    schema = db.get_schema_object(MIX_SCHEMA)
    for class_name in ORACLE_CLASSES:
        columns = db.column_cache.for_class(MIX_SCHEMA, class_name)
        for path, query_class in WARM_PATHS:
            if query_class in (MIX_CLASS, class_name):
                columns.path_column(path, schema.get_class(query_class))
        assert columns.row_of is not None


def add_lazy_columns(db, kept: bool) -> None:
    """Add every :data:`LAZY_PATHS` column and the location geometry and
    bbox columns to the cached sets, as a scan would; ``kept``: assert
    they stay (no commit is applying)."""
    schema = db.get_schema_object(MIX_SCHEMA)
    for class_name in ORACLE_CLASSES:
        columns = db.column_cache._cache.get((MIX_SCHEMA, class_name))
        if columns is None:
            continue
        for path, query_class in LAZY_PATHS:
            columns.path_column(path, schema.get_class(query_class))
        columns.geometry_column("location")
        if kept:
            assert set(LAZY_PATHS) <= set(columns._paths)
            assert set(columns._geometry) == {"location"}


def typed(column) -> list:
    return [(type(value), value) for value in column]


def assert_patched_equals_fresh(db) -> None:
    """Each cached set is the one a fresh build would make, field by
    field, and still holds every warmed column."""
    schema = db.get_schema_object(MIX_SCHEMA)
    for class_name in ORACLE_CLASSES:
        key = (MIX_SCHEMA, class_name)
        cached = db.column_cache._cache.get(key)
        assert cached is not None, f"{class_name}: set dropped"
        fresh = ClassColumns(MIX_SCHEMA, class_name,
                             db.class_version(*key),
                             list(db.extent(*key)))
        assert cached.version == fresh.version
        assert cached.cardinality == fresh.cardinality
        assert cached.oids == fresh.oids
        assert len(cached.objects) == len(fresh.objects)
        assert all(a is b for a, b in zip(cached.objects, fresh.objects))
        assert cached.row_of == fresh.row_of
        assert {(path, query_class) for path, query_class in WARM_PATHS
                if query_class in (MIX_CLASS, class_name)} <= set(
                    cached._paths)
        for (path, query_class), (__, column) in cached._paths.items():
            expected = fresh.path_column(path, schema.get_class(query_class))
            assert typed(column) == typed(expected), (class_name, path)
        assert set(cached._geometry) <= {"location"}
        for attr, (geoms, boxes) in cached._geometry.items():
            fresh_geoms, fresh_boxes = fresh.geometry_column(attr)
            assert len(geoms) == len(fresh_geoms)
            assert all(a is b for a, b in zip(geoms, fresh_geoms))
            assert boxes == fresh_boxes


#: attributes of both oracle classes with a hash index, a reference
#: attribute among them
HASHED = ("name", "size", "parent")


def add_hash_indexes(db) -> None:
    for class_name in ORACLE_CLASSES:
        for attr in HASHED:
            db.create_attribute_index(MIX_SCHEMA, class_name, attr)


def assert_indexes_equal_rebuild(db) -> None:
    """Each R-tree, each hash index and the reference map hold exactly
    the entries a rebuild from the extents would."""
    schema = db.get_schema_object(MIX_SCHEMA)
    refs: dict = {}
    for class_name in ORACLE_CLASSES:
        extent = list(db.extent(MIX_SCHEMA, class_name))
        for attr in schema.effective_attributes(class_name):
            name, key = attr.name, (MIX_SCHEMA, class_name, attr.name)
            values = [(obj.oid, obj.get(name)) for obj in extent
                      if obj.get(name) is not None]
            if attr.is_spatial():
                rtree = db._spatial.get(key)
                entries = [] if rtree is None else sorted(
                    (oid, box.as_tuple()) for box, oid in rtree.items())
                assert entries == sorted(
                    (oid, geom.bbox().as_tuple()) for oid, geom in values), key
                if rtree is not None:
                    rtree.check_invariants()
            elif attr.is_reference():
                for oid, target in values:
                    refs.setdefault(target, set()).add((oid, name))
            if name in HASHED:
                fresh = HashIndex(name)
                for oid, value in values:
                    fresh.insert(value, oid)
                index = db.attribute_index(*key)
                assert index._buckets == fresh._buckets, key
                assert len(index) == len(fresh), key
    assert db._incoming_refs == refs


names = st.sampled_from(["ash", "beech", "cedar"])
oracle_values = st.fixed_dictionaries(
    {"name": names},
    optional={"size": st.one_of(st.none(), st.integers(-5, 5)),
              "location": st.builds(Point, st.integers(0, 9).map(float),
                                    st.integers(0, 9).map(float)),
              "spec": st.fixed_dictionaries(
                  {"grade": names, "span": st.integers(0, 3)}),
              "parent": st.integers(0, GHOST)})
oracle_changes = st.fixed_dictionaries(
    {},
    optional={"name": names,
              "size": st.one_of(st.none(), st.integers(-5, 5)),
              "location": st.one_of(st.none(), st.builds(
                  Point, st.integers(0, 9).map(float),
                  st.integers(0, 9).map(float))),
              "spec": st.one_of(st.none(), st.fixed_dictionaries(
                  {"grade": names, "span": st.integers(0, 3)})),
              "parent": st.one_of(st.none(), st.integers(0, GHOST))}
).filter(bool)
#: one staged step; picks index the live oids modulo their count
oracle_ops = st.one_of(
    st.tuples(st.just("insert"), st.booleans(), oracle_values),
    st.tuples(st.just("update"), st.integers(0, 40), oracle_changes),
    st.tuples(st.just("delete"), st.integers(0, 40)),
    st.tuples(st.just("insert_update"), st.booleans(), oracle_values,
              oracle_changes),
    st.tuples(st.just("update_delete"), st.integers(0, 40),
              oracle_changes),
    st.tuples(st.just("delete_reinsert"), st.integers(0, 40),
              st.booleans(), oracle_values),
)
#: ("commit" | "log_failure", ops): a log failure runs the undo journal
oracle_batches = st.lists(
    st.tuples(st.sampled_from(["commit", "commit", "log_failure"]),
              st.lists(oracle_ops, min_size=1, max_size=4)),
    min_size=1, max_size=6)


def _resolve(values: dict, live: list) -> dict:
    """Turn a drawn ``parent`` pick into an oid (or a missing one)."""
    values = dict(values)
    if values.get("parent") is not None:
        pick = values["parent"]
        values["parent"] = (f"{MIX_CLASS}#ghost" if pick == GHOST or not live
                            else live[pick % len(live)])
    return values


def _stage(txn, op, live: list) -> None:
    kind = op[0]
    if kind in ("insert", "insert_update"):
        class_name = SUBCLASS if op[1] else MIX_CLASS
        values = {k: v for k, v in _resolve(op[2], live).items()
                  if v is not None}
        oid = txn.insert(MIX_SCHEMA, class_name, values)
        if kind == "insert_update":
            txn.update(oid, _resolve(op[3], live))
        return
    if not live:
        return
    oid = live[op[1] % len(live)]
    if kind == "update":
        txn.update(oid, _resolve(op[2], live))
    elif kind == "delete":
        txn.delete(oid)
    elif kind == "update_delete":
        txn.update(oid, _resolve(op[2], live))
        txn.delete(oid)
    else:
        # delete, then insert the same oid again, maybe in the other
        # class: the row moves to the end of the extent it lands in
        txn.delete(oid)
        values = {k: v for k, v in _resolve(op[3], live).items()
                  if v is not None}
        txn.insert(MIX_SCHEMA, SUBCLASS if op[2] else MIX_CLASS, values,
                   oid=oid)


def apply_schedule(leader, follower, schedule, watches=None) -> None:
    """Run ``schedule`` on the leader, then ship each batch to the
    follower; both caches must equal fresh builds and both databases'
    indexes rebuilds after every batch, and the leader's ``watches`` (a
    :class:`WatchOracle`), if any, must equal fresh executions.

    Each leader commit's log barrier — inside the batch, seqlock odd —
    first adds the lazy columns, standing in for a scan that meets the
    applying commit; after every other batch they are added for good.
    """
    for i, (route, ops) in enumerate(schedule):
        live = [oid for class_name in ORACLE_CLASSES
                for oid in leader.extent(MIX_SCHEMA, class_name).oids()]
        txn = leader.transaction()
        for op in ops:
            try:
                _stage(txn, op, live)
            except (ObjectNotFoundError, TransactionError):
                pass        # a pick the batch already deleted
        log_commit = leader.wal.log_commit

        def barrier(*args, route=route, log_commit=log_commit, **kwargs):
            add_lazy_columns(leader, kept=False)
            if route == "log_failure":
                raise WALError("injected log failure")
            return log_commit(*args, **kwargs)

        leader.wal.log_commit = barrier
        try:
            txn.commit()
        except (TransactionError, WALError):
            pass            # refused by integrity, or rolled back
        finally:
            leader.wal.__dict__.pop("log_commit", None)
        assert_patched_equals_fresh(leader)
        assert_indexes_equal_rebuild(leader)
        if watches is not None:
            watches.check()
        follower.poll_replication()
        assert_patched_equals_fresh(follower)
        assert_indexes_equal_rebuild(follower)
        if i % 2:
            add_lazy_columns(leader, kept=True)
            add_lazy_columns(follower, kept=True)


def make_leader(heap, log):
    leader = GeographicDatabase("oracle", pager=heap, buffer_capacity=8)
    leader.register_schema(oracle_schema())
    # inline barriers: the commit record goes through ``log_commit``
    leader.attach_wal(WriteAheadLog(log, sync_mode="none",
                                    group_commit=False))
    return leader


#: one watch per result shape, each over the two-class closure
WATCH_TEXTS = [
    "select * from Feature where size >= 0 limit 3 including subclasses",
    "select name, size from Feature order by desc size limit 3 "
    "including subclasses",
    "select name, size, spec.grade from Feature where name != 'cedar' "
    "including subclasses",
    "select count(*), count(size), min(size), sum(size), max(spec.span) "
    "from Feature where within(location, bbox(0, 0, 5, 5)) "
    "including subclasses",
]


class WatchOracle:
    """Live watches of every shape on a kernel over the leader.

    :meth:`check` runs after every batch, committed, refused or rolled
    back: each watch's result must be a fresh execution's (the same
    objects in the same order, identical rows), and the watch must have
    been pushed exactly when its content changed. Content is the rows
    and, unless the query aggregates, the oids in order; a bare-object
    result also changes when the batch updated one of its objects in
    place.
    """

    def __init__(self, leader):
        self.leader = leader
        self.kernel = GISKernel(leader)
        session = self.kernel.session(user="oracle")
        self.watches = [(session.watch(MIX_SCHEMA, text), parse_query(text))
                        for text in WATCH_TEXTS]
        self.seen: list = []
        leader.add_write_set_listener(self.seen.append)
        self.last = {watch.watch_id: watch.result()
                     for watch, __ in self.watches}

    def check(self) -> None:
        engine = QueryEngine(self.leader)
        written = {op.oid for ws in self.seen for op in ws.ops
                   if op.op == "update"}
        self.seen.clear()
        for watch, query in self.watches:
            got, old = watch.result(), self.last[watch.watch_id]
            expected = engine.execute(MIX_SCHEMA, query)
            text = query.describe()
            assert got.oids() == expected.oids(), text
            assert all(a is b for a, b in zip(got.objects, expected.objects))
            assert got.rows == expected.rows, text
            if query.aggregates:
                changed = got.rows != old.rows
            else:
                changed = (got.oids() != old.oids() or got.rows != old.rows
                           or (got.rows is None
                               and not written.isdisjoint(old.oids())))
            pushed = bool(watch.pop_updates())
            assert pushed == changed, (text, pushed, changed)
            self.last[watch.watch_id] = got

    def close(self) -> None:
        self.leader.remove_write_set_listener(self.seen.append)
        self.kernel.shutdown()


def check_schedule(schedule, watched: bool = True) -> None:
    """The whole delta==fresh check: leader (with live watches unless
    ``watched`` is false), follower, a resync of the follower, then a
    restart that replays the leader's log over warm columns."""
    heap, log = MemoryPager(), MemoryPager()
    leader = make_leader(heap, log)
    add_hash_indexes(leader)
    with leader.transaction() as txn:
        for i in range(6):
            txn.insert(MIX_SCHEMA, ORACLE_CLASSES[i % 2], {
                "name": ["ash", "beech", "cedar"][i % 3], "size": i,
                "location": Point(float(i), 1.0)})
    follower = GeographicDatabase.follow(LocalReplicationSource(leader))
    add_hash_indexes(follower)
    warm(leader)
    warm(follower)
    watches = WatchOracle(leader) if watched else None
    builds = (leader.column_cache.builds, follower.column_cache.builds)
    apply_schedule(leader, follower, schedule, watches)
    if watches is not None:
        watches.close()
    assert (leader.column_cache.builds, follower.column_cache.builds) \
        == builds      # patched every time, never rebuilt

    # A resync rebuilds the follower's indexes; held ones stay live.
    slots = [(MIX_SCHEMA, class_name, attr)
             for class_name in ORACLE_CLASSES for attr in HASHED]
    held = [follower.attribute_index(*slot) for slot in slots]
    follower.resync()
    assert all(index is follower.attribute_index(*slot)
               for index, slot in zip(held, slots))
    assert_indexes_equal_rebuild(follower)

    # Restart over the leader's pages: replay patches the warm sets.
    recovered = GeographicDatabase("oracle", pager=heap, buffer_capacity=8)
    recovered.register_schema(oracle_schema())
    add_hash_indexes(recovered)
    recovered.load_from_storage()
    assert_indexes_equal_rebuild(recovered)
    warm(recovered)
    replay = recovered._replay_batch

    def checked_replay(records, commit_ts):
        out = replay(records, commit_ts)
        assert_patched_equals_fresh(recovered)
        assert_indexes_equal_rebuild(recovered)
        return out

    recovered._replay_batch = checked_replay
    recovered.attach_wal(WriteAheadLog(log, sync_mode="none"))
    recovered.recover()
    for class_name in ORACLE_CLASSES:
        assert {obj.oid: obj.values()
                for obj in recovered.extent(MIX_SCHEMA, class_name)} == \
            {obj.oid: obj.values()
             for obj in leader.extent(MIX_SCHEMA, class_name)}


#: every route once: a rolled-back update of lazily added paths, several
#: inserts, insert+update, update+delete, a cross-class delete+re-insert,
#: a rolled-back delete, a refused commit, a reference to a row that the
#: same batch deletes and re-inserts, and last an update of a member
#: that moves no watch's membership but changes what three of the
#: watches show
FIXED_SCHEDULE = [
    ("log_failure", [("update", 1, {"location": Point(9.0, 9.0),
                                    "spec": {"grade": "cedar", "span": 3},
                                    "parent": 2})]),
    ("commit", [("insert", False, {"name": "ash", "size": 1}),
                ("insert", True, {"name": "beech",
                                  "location": Point(2.0, 2.0)}),
                ("insert_update", False, {"name": "cedar"},
                 {"size": 3, "spec": {"grade": "ash", "span": 1}})]),
    ("commit", [("update", 1, {"location": Point(5.0, 5.0), "size": 4}),
                ("update_delete", 2, {"name": "beech"})]),
    ("commit", [("delete_reinsert", 3, True, {"name": "ash", "size": 2})]),
    ("log_failure", [("delete", 0), ("update", 4, {"size": -1})]),
    ("commit", [("update", 0, {"parent": GHOST})]),
    ("commit", [("delete", 5), ("update", 6, {"location": None})]),
    ("commit", [("update", 2, {"parent": 1}),
                ("delete_reinsert", 1, False, {"name": "ash"})]),
    ("commit", [("update", 0, {"size": 5})]),
]


@settings(max_examples=40, deadline=None)
@given(schedule=oracle_batches)
@example(schedule=FIXED_SCHEDULE)
def test_patched_columns_equal_fresh_build(schedule):
    check_schedule(schedule)


def _skip_bbox_patch(real_advance):
    def advance(self, version, extent, touched):
        successor = real_advance(self, version, extent, touched)
        successor._geometry = {
            attr: (geoms, self._geometry[attr][1])
            for attr, (geoms, __) in successor._geometry.items()}
        return successor
    return advance


def _appending_deletes(real_patched):
    def patched(column, updated, removed, appended, resolve):
        return real_patched(column, updated, [], appended, resolve)
    return patched


def _keeping_in_flight(real_resolve):
    def resolve(self, accessor):
        values, __ = real_resolve(self, accessor)
        return values, True
    return resolve


def _ignoring_member_updates(real_apply):
    def apply(self, ws, engine):
        before = {name: set(members)
                  for name, members in self.members.items()}
        result = real_apply(self, ws, engine)
        return None if self.members == before else result
    return apply


def _skipping_changed_geometry(real_reindex):
    def reindex(self, oid, before, after, undo=None):
        if before and after:        # an update (or its undo)
            before, after = ({name: value for name, value in values.items()
                              if name != "location"}
                             for values in (before, after))
        return real_reindex(self, oid, before, after, undo)
    return reindex


def _skipping_reference_hash(real_reindex):
    def reindex(self, oid, before, after, undo=None):
        key = (*self._locations[oid], "parent")
        index = self._attr_indexes.pop(key, None)
        try:
            return real_reindex(self, oid, before, after, undo)
        finally:
            if index is not None:
                self._attr_indexes[key] = index
    return reindex


def _popping_incoming_refs(real_delete):
    def apply_delete(self, intent, undo):
        real_delete(self, intent, undo)
        incoming = self._incoming_refs.pop(intent.oid, None)
        if incoming is not None:
            undo.append(lambda: self._incoming_refs.__setitem__(
                intent.oid, incoming))
    return apply_delete


@pytest.mark.parametrize("bug", ["skip bbox columns", "append deletes",
                                 "keep in-flight lazy columns",
                                 "reshape on membership changes only",
                                 "skip a changed geometry",
                                 "skip a reference's hash index",
                                 "pop incoming references on delete"])
def test_oracle_catches_a_seeded_patch_bug(bug, monkeypatch):
    """The oracle is falsifiable: each deliberately broken patch, a
    watch that ignores in-place member updates, or broken index upkeep
    makes the fixed schedule fail it. A broken patch is left to the
    column check alone: watches select over the patched sets, and may
    crash on a broken one before the check runs."""
    watched = bug == "reshape on membership changes only"
    if bug == "skip a changed geometry":
        monkeypatch.setattr(GeographicDatabase, "_reindex",
                            _skipping_changed_geometry(
                                GeographicDatabase._reindex))
    elif bug == "skip a reference's hash index":
        monkeypatch.setattr(GeographicDatabase, "_reindex",
                            _skipping_reference_hash(
                                GeographicDatabase._reindex))
    elif bug == "pop incoming references on delete":
        monkeypatch.setattr(GeographicDatabase, "_apply_delete",
                            _popping_incoming_refs(
                                GeographicDatabase._apply_delete))
    elif watched:
        monkeypatch.setattr(
            live_queries._LiveState, "apply",
            _ignoring_member_updates(live_queries._LiveState.apply))
    elif bug == "skip bbox columns":
        monkeypatch.setattr(ClassColumns, "advance",
                            _skip_bbox_patch(ClassColumns.advance))
    elif bug == "append deletes":
        monkeypatch.setattr(columns_module, "_patched",
                            _appending_deletes(columns_module._patched))
    else:
        monkeypatch.setattr(ClassColumns, "_resolve",
                            _keeping_in_flight(ClassColumns._resolve))
    with pytest.raises(AssertionError):
        check_schedule(FIXED_SCHEDULE, watched)


def test_lazy_column_of_a_rolled_back_commit_does_not_stay():
    """The rollback probe: a scan adds a lazy column while a commit
    whose log barrier fails is applying; afterwards the columns answer
    like the reference, not with the rolled-back value."""
    leader = make_leader(MemoryPager(), MemoryPager())
    oid = leader.insert(MIX_SCHEMA, MIX_CLASS, {"name": "ash", "size": 1})
    feature = leader.get_schema_object(MIX_SCHEMA).get_class(MIX_CLASS)
    columns = leader.column_cache.for_class(MIX_SCHEMA, MIX_CLASS)

    def failing_barrier(*args, **kwargs):
        columns.path_column("size", feature)
        raise WALError("injected log failure")

    leader.wal.log_commit = failing_barrier
    with pytest.raises((TransactionError, WALError)):
        with leader.transaction() as txn:
            txn.update(oid, {"size": 99})
    del leader.wal.log_commit
    query = parse_query("select * from Feature where size = 99")
    expected, __ = _reference.evaluate(leader, MIX_SCHEMA, query)
    assert expected == []
    assert QueryEngine(leader).execute(MIX_SCHEMA, query).oids() == []


# ---------------------------------------------------------------------------
# index scans: hits and column set from one commit state
# ---------------------------------------------------------------------------


def check_index_scan_meets_paused_commit(monkeypatch) -> None:
    """An R-tree scan that meets an applying commit answers at one
    commit state.

    The commit moves a row out of the window and another into it, and
    pauses after the first move: the R-tree already changed, the class
    version has not. The scan takes the cached set, waits for the
    commit on its probe, and must then fetch the set again, because its
    hits are from the newer state.
    """
    db = make_db(INDEX_ROWS)
    engine = QueryEngine(db)
    query = parse_query(INDEX_EXAMPLES[0])
    before = engine.execute(MIX_SCHEMA, query)   # warm set + geometry
    assert before.report["plan"] == INDEX_SCAN
    leaving = before.oids()[0]
    entering = next(obj.oid for obj in db.extent(MIX_SCHEMA, MIX_CLASS)
                    if obj.get("location") is not None
                    and obj.oid not in before.oids())
    applying, release = threading.Event(), threading.Event()
    real_update = GeographicDatabase._apply_update

    def paused_update(database, *args, **kwargs):
        out = real_update(database, *args, **kwargs)
        if not applying.is_set():
            applying.set()
            release.wait(10)
        return out

    monkeypatch.setattr(GeographicDatabase, "_apply_update", paused_update)

    def commit():
        with db.transaction() as txn:
            txn.update(leaving, {"location": Point(6.0, 4.0)})
            txn.update(entering, {"location": Point(1.5, 1.5)})

    results = []
    writer = threading.Thread(target=commit)
    reader = threading.Thread(target=lambda: results.append(
        engine.execute(MIX_SCHEMA, query)))
    writer.start()
    try:
        assert applying.wait(10)
        reader.start()
        reader.join(0.2)
        assert reader.is_alive()        # waiting for the commit
    finally:
        release.set()
        writer.join(10)
        if reader.ident is not None:
            reader.join(10)
    (result,) = results
    expected, __ = _reference.evaluate(db, MIX_SCHEMA, query)
    assert result.oids() == [obj.oid for obj in expected]
    assert entering in result.oids() and leaving not in result.oids()
    assert db.column_cache.builds == 1


def test_index_scan_meets_a_paused_commit(monkeypatch):
    check_index_scan_meets_paused_commit(monkeypatch)


def _probe_without_version_check(self, schema_name, class_plan, prefilter,
                                 equality):
    db, class_name = self.database, class_plan.class_name
    columns = db.column_cache.for_class(schema_name, class_name)
    attr, box = prefilter
    hits = db._read_stable(lambda: db.spatial_index(
        schema_name, class_name, attr).search(box))
    return columns, sorted(columns.row_of[oid] for oid in hits
                           if oid in columns.row_of)


def _probe_in_rtree_order(self, schema_name, class_plan, prefilter,
                          equality):
    db, class_name = self.database, class_plan.class_name
    columns = db.column_cache.for_class(schema_name, class_name)
    attr, box = prefilter
    return columns, [columns.row_of[oid] for oid in db.spatial_index(
        schema_name, class_name, attr).search(box)]


@pytest.mark.parametrize("bug", ["no version check", "rtree order"])
def test_index_scan_oracles_catch_a_seeded_bug(bug, monkeypatch):
    """Each deliberately broken index-scan selection fails its oracle:
    hits taken without the version check mix two commit states, and
    hits left in R-tree order are not extent order."""
    if bug == "no version check":
        monkeypatch.setattr(QueryEngine, "_probe_rows",
                            _probe_without_version_check)
        with pytest.raises(AssertionError):
            check_index_scan_meets_paused_commit(monkeypatch)
    else:
        monkeypatch.setattr(QueryEngine, "_probe_rows", _probe_in_rtree_order)
        with pytest.raises(AssertionError):
            check_extent_order(INDEX_ROWS, INDEX_EXAMPLES[0])


# ---------------------------------------------------------------------------
# rectangle windows: the coordinate fast path answers like relate()
# ---------------------------------------------------------------------------

#: offsets from an edge coordinate: on it, in relate()'s EPSILON band
#: on either side, and just past the band
EDGE_OFFSETS = [0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]


@st.composite
def rectangle_probes(draw):
    """A ``bbox`` rectangle: random, or near-degenerate (sides down to
    1e-3, where relate()'s band is widest)."""
    side = st.one_of(st.sampled_from([1e-3, 1.5e-3, 2e-3, 0.01]),
                     st.floats(min_value=1e-3, max_value=500))
    x0 = draw(st.floats(min_value=-500, max_value=500))
    y0 = draw(st.floats(min_value=-500, max_value=500))
    return Polygon.from_bbox(BBox(x0, y0, x0 + draw(side), y0 + draw(side)))


def _coordinate(draw, low: float, high: float) -> float:
    """A coordinate on, near, inside or outside ``[low, high]``."""
    where = draw(st.sampled_from(["edge", "band", "inside", "outside"]))
    edge = draw(st.sampled_from([low, high]))
    if where == "edge":
        return edge + draw(st.sampled_from(EDGE_OFFSETS))
    if where == "band":
        return edge + draw(st.floats(min_value=-2 * EPSILON,
                                     max_value=2 * EPSILON))
    span = high - low
    if where == "inside":
        return low + span * draw(st.floats(min_value=0, max_value=1))
    return edge + draw(st.sampled_from([-1, 1])) * span * draw(
        st.floats(min_value=0, max_value=2))


@st.composite
def window_geometries(draw, probe):
    """Points and two- to four-vertex line strings around ``probe``;
    corners come from an edge coordinate on both axes."""
    box = probe.bbox()

    def vertex():
        return (_coordinate(draw, box.min_x, box.max_x),
                _coordinate(draw, box.min_y, box.max_y))

    geoms = []
    for __ in range(draw(st.integers(min_value=1, max_value=12))):
        if draw(st.booleans()):
            geoms.append(Point(*vertex()))
        else:
            geoms.append(LineString([vertex() for __ in range(
                draw(st.integers(min_value=2, max_value=4)))]))
    return geoms


def shape_columns(geoms) -> ClassColumns:
    """A transient column set whose ``shape`` column holds ``geoms``."""
    return ClassColumns.transient(
        [GeoObject(f"Shape#{i}", "Shape", {"shape": geom})
         for i, geom in enumerate(geoms)])


def check_rectangle_kernel(probe, geoms) -> None:
    """For every relation, the column kernel keeps exactly the rows the
    relation's wrapper (that is, relate()) accepts."""
    columns = shape_columns(geoms)
    rows = list(range(len(geoms)))
    for relation, holds in PREDICATES.items():
        kernel = SpatialPredicate("shape", relation, probe).compile_columns(
            None, columns)
        assert kernel(rows) == [i for i in rows
                                if holds(geoms[i], probe)], relation


#: a fixed window with rows on its edges and corners, in the band just
#: inside and outside them, and clear of them, as points and lines
FIXED_PROBE = Polygon.from_bbox(BBox(10.0, 20.0, 10.001, 20.5))
FIXED_GEOMS = [
    Point(10.0, 20.25), Point(10.0005, 20.5), Point(10.001, 20.0),
    Point(10.0 + 5e-10, 20.25), Point(10.0 - 5e-10, 20.25),
    Point(10.0005, 20.5 - 5e-10), Point(10.0005, 20.25),
    Point(12.0, 20.25), Point(10.0005, 19.0),
    LineString([(9.0, 20.25), (11.0, 20.3)]),
    LineString([(10.0002, 20.1), (10.0008, 20.4)]),
    LineString([(9.0, 19.0), (9.5, 19.5), (9.9, 21.0)]),
    LineString([(10.0 - 5e-10, 19.0), (10.0 - 5e-10, 21.0)]),
    LineString([(10.0005, 20.25), (10.0005, 20.5 + 5e-10)]),
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_rectangle_kernel_equals_relate(data):
    """The rectangle fast path decides rows from coordinates and sends
    the EPSILON band to relate(); every relation's kernel answers like
    relate() on random and near-degenerate windows."""
    if data is None:
        probe, geoms = FIXED_PROBE, FIXED_GEOMS
    else:
        probe = data.draw(rectangle_probes())
        geoms = data.draw(window_geometries(probe))
    check_rectangle_kernel(probe, geoms)


@pytest.mark.parametrize("past_end, hit", [(5e-8, False), (5e-10, True)])
def test_short_row_edge_reaches_epsilon_past_its_end(past_end, hit):
    """A row edge shorter than 1 holds points up to EPSILON past its end,
    no further, and the point probe's kernel agrees with relate()."""
    row = LineString([(0.0, 0.0), (0.01, 0.0)])
    probe = Point(0.01 + past_end, 0.0)
    assert topology.intersects(row, probe) is hit
    kernel = SpatialPredicate("shape", "intersects", probe).compile_columns(
        None, shape_columns([row]))
    assert kernel([0]) == ([0] if hit else [])


def test_rectangle_kernel_skips_relate_off_the_band(monkeypatch):
    """Rows clear of the band never reach relate(); rows in it do."""
    probe = Polygon.from_bbox(BBox(0, 0, 10, 10))
    clear = [Point(5, 5), Point(20, 5), LineString([(-5, 5), (15, 5)]),
             LineString([(-5, -5), (-5, 15)]), LineString([(1, 1), (9, 2)])]
    banded = [Point(10 + 5e-10, 5), LineString([(10, 5), (12, 5)])]
    columns = shape_columns(clear + banded)
    kernels = [SpatialPredicate("shape", relation, probe).compile_columns(
        None, columns) for relation in PREDICATES if relation != "disjoint"]
    calls = []
    real_relate = topology.relate
    monkeypatch.setattr(topology, "relate", lambda a, b: (
        calls.append(b if a is probe else a), real_relate(a, b))[1])
    for kernel in kernels:
        kernel(range(len(clear) + len(banded)))
    assert {id(geom) for geom in calls} == {id(geom) for geom in banded}


def _closed_inside_test(real_relater):
    """The clear-inside test with ``<=`` on the rectangle's own edges
    instead of ``<`` inside the margin: a point on an edge is WITHIN."""
    def relater(probe):
        decide = real_relater(probe)
        if decide is None:
            return None
        box = probe.bbox()

        def seeded(geom):
            if isinstance(geom, Point) and box.min_x <= geom.x <= box.max_x \
                    and box.min_y <= geom.y <= box.max_y:
                return topology.Relation.WITHIN
            return decide(geom)
        return seeded
    return relater


@pytest.mark.parametrize("bug", ["<= in the inside test", "zero margin"])
def test_rectangle_oracle_catches_a_seeded_bug(bug, monkeypatch):
    """The kernel oracle is falsifiable: each broken fast path fails it
    on the fixed window."""
    if bug == "zero margin":
        monkeypatch.setattr(topology, "MARGIN_FACTOR", 0.0)
    else:
        monkeypatch.setattr(query_module, "rectangle_relater",
                            _closed_inside_test(topology.rectangle_relater))
    with pytest.raises(AssertionError):
        check_rectangle_kernel(FIXED_PROBE, FIXED_GEOMS)
