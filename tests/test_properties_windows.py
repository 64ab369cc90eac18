"""Window oracle: a Class-set window shows exactly the committed extent.

``get_class`` hands the builder the class's patched column set, and
the builder lists and draws its oid and geometry columns in bulk. After
random insert, update and delete batches — some rolled back by a log
failure after they applied, so the undo journal runs — a Pole window
opened through the dispatcher, and an auto-refresh window the commits
reopened, must equal a window built from the live extent: the same
instance-list keys in extent order, the same ``(oid, geometry, symbol)``
features and a byte-identical text render. A builder fed a column set
one version stale fails the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import GISKernel
from repro.errors import ObjectNotFoundError, TransactionError, WALError
from repro.geodb import ClassColumns, GeographicDatabase, MemoryPager
from repro.geodb.wal import WriteAheadLog
from repro.lang import FIGURE_6_PROGRAM
from repro.spatial import Point
from repro.workloads import PhoneNetParams, build_phone_net_database

SCHEMA = "phone_net"
WINDOW = "classset_Pole"
GEOMETRY = "pole_location"

coordinates = st.integers(0, 400).map(float)
#: one staged step; picks index the live Pole oids modulo their count
window_ops = st.one_of(
    st.tuples(st.just("insert"), coordinates, coordinates),
    st.tuples(st.just("move"), st.integers(0, 60), coordinates,
              coordinates),
    st.tuples(st.just("historic"), st.integers(0, 60), st.text(max_size=6)),
    st.tuples(st.just("delete"), st.integers(0, 60)),
)
#: ("commit" | "log_failure", ops): a log failure rolls the batch back
window_batches = st.lists(
    st.tuples(st.sampled_from(["commit", "commit", "log_failure"]),
              st.lists(window_ops, min_size=1, max_size=4)),
    min_size=1, max_size=5)

#: an insert, a move, a rolled-back delete, then a delete and an edit
FIXED_BATCHES = [
    ("commit", [("insert", 10.0, 20.0)]),
    ("commit", [("move", 3, 50.0, 60.0)]),
    ("log_failure", [("delete", 0), ("insert", 5.0, 5.0)]),
    ("commit", [("delete", 4), ("historic", 2, "edited")]),
]


def make_kernel() -> GISKernel:
    db = build_phone_net_database(PhoneNetParams(
        blocks_x=2, blocks_y=2, poles_per_street=3, duct_count=3, seed=11))
    db.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none",
                                group_commit=False))
    kernel = GISKernel(db)
    kernel.install_program(FIGURE_6_PROGRAM, persist=False)
    return kernel


def stage(txn, op, live: list[str]) -> None:
    if op[0] == "insert":
        txn.insert(SCHEMA, "Pole", {GEOMETRY: Point(op[1], op[2])})
        return
    if not live:
        return
    oid = live[op[1] % len(live)]
    if op[0] == "move":
        txn.update(oid, {GEOMETRY: Point(op[2], op[3])})
    elif op[0] == "historic":
        txn.update(oid, {"pole_historic": op[2]})
    else:
        txn.delete(oid)


def run_batch(db: GeographicDatabase, route: str, ops) -> None:
    """Stage ``ops`` in one transaction and commit it; ``log_failure``
    makes its log barrier fail once the batch has applied, so the
    commit rolls back."""
    live = db.extent(SCHEMA, "Pole").oids()
    txn = db.transaction()
    for op in ops:
        try:
            stage(txn, op, live)
        except ObjectNotFoundError:
            pass            # a pick the batch already deleted
    log_commit = db.wal.log_commit

    def barrier(*args, **kwargs):
        if route == "log_failure":
            raise WALError("injected log failure")
        return log_commit(*args, **kwargs)

    db.wal.log_commit = barrier
    try:
        txn.commit()
    except (TransactionError, WALError):
        pass            # refused by integrity (a cable's pole), or rolled back
    finally:
        db.wal.__dict__.pop("log_commit", None)


def assert_window_is_live_extent(kernel: GISKernel, session, window) -> None:
    """``window`` lists, draws and renders the live Pole extent."""
    db = kernel.database
    extent = list(db.extent(SCHEMA, "Pole"))
    fmt = kernel.presentations.class_format(
        window.get_property("presentation_format"))
    assert [key for key, __ in window.find("instances").items] == \
        [obj.oid for obj in extent]
    assert window.find("map").features == [
        (obj.oid, obj.geometry(GEOMETRY), fmt.symbol) for obj in extent]
    schema = db.get_schema_object(SCHEMA)
    decision = kernel.engine.class_decision(
        window.get_property("event_id"), session_id=session.session_id)
    reference = kernel.builder.build_class_window(
        schema.get_class("Pole"), schema.effective_attributes("Pole"),
        ClassColumns.transient(extent), decision)
    assert session.renderer.render(window) == \
        session.renderer.render(reference)


def check_batches(batches) -> None:
    kernel = make_kernel()
    db = kernel.database
    viewer = kernel.session(user="juliano", application="pole_manager")
    viewer.connect(SCHEMA)
    watcher = kernel.session(user="ana", application="browser",
                             auto_refresh=True)
    watcher.connect(SCHEMA)
    watcher.select_class("Pole")
    for route, ops in batches:
        run_batch(db, route, ops)
        assert_window_is_live_extent(kernel, watcher,
                                     watcher.screen.window(WINDOW))
        assert_window_is_live_extent(kernel, viewer,
                                     viewer.select_class("Pole"))


@settings(max_examples=30, deadline=None)
@given(batches=window_batches)
@example(batches=FIXED_BATCHES)
def test_class_window_equals_live_extent(batches):
    check_batches(batches)


def _one_version_stale(real_get_class):
    """``get_class`` answering with the column set of the version before
    the current one, once the class has moved past it."""
    seen: dict[tuple[str, str], list[ClassColumns]] = {}

    def get_class(self, schema_name, class_name, **kwargs):
        geo_class, columns = real_get_class(self, schema_name, class_name,
                                            **kwargs)
        history = seen.setdefault((schema_name, class_name), [columns])
        if history[-1].version != columns.version:
            history.append(columns)
        return geo_class, history[-2] if len(history) > 1 else columns

    return get_class


def test_window_oracle_catches_a_stale_column_set(monkeypatch):
    monkeypatch.setattr(GeographicDatabase, "get_class",
                        _one_version_stale(GeographicDatabase.get_class))
    with pytest.raises(AssertionError):
        check_batches(FIXED_BATCHES)
