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

A second invariant covers what a commit does to warm columns: every
batch patches each cached set instead of discarding it, and the patched
set must equal a fresh build field by field, whichever path applied the
batch (local commit, replicated batch, WAL recovery replay) and whether
the commit succeeded, was refused or rolled back.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ObjectNotFoundError, TransactionError, WALError
from repro.geodb import (FLOAT, INTEGER, TEXT, Attribute, ClassColumns,
                         GeoClass, GeographicDatabase,
                         LocalReplicationSource, MemoryPager, QueryEngine,
                         ReferenceType, TupleType, WriteAheadLog)
from repro.geodb import columns as columns_module
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


# ---------------------------------------------------------------------------
# delta == fresh: column sets patched past every batch
# ---------------------------------------------------------------------------

ORACLE_CLASSES = (MIX_CLASS, SUBCLASS)

#: (path, query class) columns warmed on every set; ``size`` keyed by
#: the superclass is the key a closure query puts on the subclass set
WARM_PATHS = [("name", MIX_CLASS), ("size", MIX_CLASS),
              ("spec.grade", MIX_CLASS), ("size", SUBCLASS)]

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
    """Build both classes' sets with every :data:`WARM_PATHS` column, the
    location geometry/bbox columns and the ``oid -> row`` map."""
    schema = db.get_schema_object(MIX_SCHEMA)
    for class_name in ORACLE_CLASSES:
        columns = db.column_cache.for_class(MIX_SCHEMA, class_name)
        for path, query_class in WARM_PATHS:
            if query_class in (MIX_CLASS, class_name):
                columns.path_column(path, schema.get_class(query_class))
        columns.geometry_column("location")
        assert columns.row_of is not None


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
        assert set(cached._geometry) == {"location"}
        geoms, boxes = cached._geometry["location"]
        fresh_geoms, fresh_boxes = fresh.geometry_column("location")
        assert len(geoms) == len(fresh_geoms)
        assert all(a is b for a, b in zip(geoms, fresh_geoms))
        assert boxes == fresh_boxes


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


def apply_schedule(leader, follower, schedule) -> None:
    """Run ``schedule`` on the leader, then ship each batch to the
    follower; both caches must equal fresh builds after every batch."""
    for route, ops in schedule:
        live = [oid for class_name in ORACLE_CLASSES
                for oid in leader.extent(MIX_SCHEMA, class_name).oids()]
        txn = leader.transaction()
        for op in ops:
            try:
                _stage(txn, op, live)
            except (ObjectNotFoundError, TransactionError):
                pass        # a pick the batch already deleted
        if route == "log_failure":
            def failing_barrier(*args, **kwargs):
                raise WALError("injected log failure")
            leader.wal.log_commit = failing_barrier
        try:
            txn.commit()
        except (TransactionError, WALError):
            pass            # refused by integrity, or rolled back
        finally:
            leader.wal.__dict__.pop("log_commit", None)
        assert_patched_equals_fresh(leader)
        follower.poll_replication()
        assert_patched_equals_fresh(follower)


def make_leader(heap, log):
    leader = GeographicDatabase("oracle", pager=heap, buffer_capacity=8)
    leader.register_schema(oracle_schema())
    # inline barriers: the commit record goes through ``log_commit``
    leader.attach_wal(WriteAheadLog(log, sync_mode="none",
                                    group_commit=False))
    return leader


def check_schedule(schedule) -> None:
    """The whole delta==fresh check: leader, follower, then a restart
    that replays the leader's log over warm columns."""
    heap, log = MemoryPager(), MemoryPager()
    leader = make_leader(heap, log)
    with leader.transaction() as txn:
        for i in range(6):
            txn.insert(MIX_SCHEMA, ORACLE_CLASSES[i % 2], {
                "name": ["ash", "beech", "cedar"][i % 3], "size": i,
                "location": Point(float(i), 1.0)})
    follower = GeographicDatabase.follow(LocalReplicationSource(leader))
    warm(leader)
    warm(follower)
    builds = (leader.column_cache.builds, follower.column_cache.builds)
    apply_schedule(leader, follower, schedule)
    assert (leader.column_cache.builds, follower.column_cache.builds) \
        == builds      # patched every time, never rebuilt

    # Restart over the leader's pages: replay patches the warm sets.
    recovered = GeographicDatabase("oracle", pager=heap, buffer_capacity=8)
    recovered.register_schema(oracle_schema())
    recovered.load_from_storage()
    warm(recovered)
    replay = recovered._replay_batch

    def checked_replay(records, commit_ts):
        out = replay(records, commit_ts)
        assert_patched_equals_fresh(recovered)
        return out

    recovered._replay_batch = checked_replay
    recovered.attach_wal(WriteAheadLog(log, sync_mode="none"))
    recovered.recover()
    for class_name in ORACLE_CLASSES:
        assert {obj.oid: obj.values()
                for obj in recovered.extent(MIX_SCHEMA, class_name)} == \
            {obj.oid: obj.values()
             for obj in leader.extent(MIX_SCHEMA, class_name)}


#: every route once: several inserts, insert+update, update+delete, a
#: cross-class delete+re-insert, a rolled-back delete, a refused commit
FIXED_SCHEDULE = [
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


@pytest.mark.parametrize("bug", ["skip bbox columns", "append deletes"])
def test_oracle_catches_a_seeded_patch_bug(bug, monkeypatch):
    """The oracle is falsifiable: each deliberately broken patch makes
    the fixed schedule fail it."""
    if bug == "skip bbox columns":
        monkeypatch.setattr(ClassColumns, "advance",
                            _skip_bbox_patch(ClassColumns.advance))
    else:
        monkeypatch.setattr(columns_module, "_patched",
                            _appending_deletes(columns_module._patched))
    with pytest.raises(AssertionError):
        check_schedule(FIXED_SCHEDULE)
