"""Unit tests for transactions: atomicity, staging, integrity, protocol."""

import pytest

from repro.errors import (
    ObjectNotFoundError,
    SchemaError,
    TransactionError,
    TypeMismatchError,
)
from repro.geodb import (
    Attribute,
    GeoClass,
    GeographicDatabase,
    GeometryType,
    ReferenceType,
    TEXT,
    TxnState,
)
from repro.spatial import Point


@pytest.fixture()
def db():
    database = GeographicDatabase("T")
    schema = database.create_schema("s")
    schema.add_class(GeoClass("Supplier", [
        Attribute("name", TEXT, required=True),
    ]))
    schema.add_class(GeoClass("Pole", [
        Attribute("label", TEXT),
        Attribute("supplier", ReferenceType("Supplier")),
        Attribute("location", GeometryType("point")),
    ]))
    return database


class TestCommitAbort:
    def test_commit_applies_all(self, db):
        with db.transaction() as txn:
            sup = txn.insert("s", "Supplier", {"name": "acme"})
            txn.insert("s", "Pole", {"label": "p1", "supplier": sup})
        assert db.count("s", "Supplier") == 1
        assert db.count("s", "Pole") == 1

    def test_abort_applies_nothing(self, db):
        txn = db.transaction()
        txn.insert("s", "Supplier", {"name": "acme"})
        txn.abort()
        assert db.count("s", "Supplier") == 0
        assert txn.state is TxnState.ABORTED

    def test_exception_in_context_aborts(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.insert("s", "Supplier", {"name": "acme"})
                raise RuntimeError("boom")
        assert db.count("s", "Supplier") == 0

    def test_failed_commit_leaves_database_unchanged(self, db):
        txn = db.transaction()
        txn.insert("s", "Pole", {"label": "orphan",
                                 "supplier": "Supplier#999"})
        with pytest.raises(TransactionError):
            txn.commit()
        assert txn.state is TxnState.ABORTED
        assert db.count("s", "Pole") == 0

    def test_operations_after_commit_rejected(self, db):
        txn = db.transaction()
        txn.insert("s", "Supplier", {"name": "a"})
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("s", "Supplier", {"name": "b"})
        with pytest.raises(TransactionError):
            txn.commit()


class TestStagedView:
    def test_read_own_insert(self, db):
        txn = db.transaction()
        oid = txn.insert("s", "Supplier", {"name": "a"})
        assert txn.staged_value(oid) == {"name": "a"}
        assert txn.staged_exists(oid)
        txn.abort()

    def test_update_over_committed(self, db):
        oid = db.insert("s", "Supplier", {"name": "a"})
        txn = db.transaction()
        txn.update(oid, {"name": "b"})
        assert txn.staged_value(oid) == {"name": "b"}
        assert db.get_object(oid).get("name") == "a"  # not applied yet
        txn.commit()
        assert db.get_object(oid).get("name") == "b"

    def test_delete_then_staged_missing(self, db):
        oid = db.insert("s", "Supplier", {"name": "a"})
        txn = db.transaction()
        # No pole references it; delete is legal.
        txn.delete(oid)
        assert not txn.staged_exists(oid)
        txn.commit()
        assert db.find_object(oid) is None

    def test_insert_update_in_same_txn(self, db):
        with db.transaction() as txn:
            oid = txn.insert("s", "Pole", {"label": "x"})
            txn.update(oid, {"label": "y"})
        assert db.get_object(oid).get("label") == "y"


class TestValidationAtStaging:
    def test_insert_type_error_immediate(self, db):
        txn = db.transaction()
        with pytest.raises(TypeMismatchError):
            txn.insert("s", "Supplier", {"name": 42})
        txn.abort()

    def test_insert_unknown_class(self, db):
        txn = db.transaction()
        with pytest.raises(SchemaError):
            txn.insert("s", "Ghost", {})
        txn.abort()

    def test_update_missing_object(self, db):
        txn = db.transaction()
        with pytest.raises(ObjectNotFoundError):
            txn.update("Supplier#404", {"name": "x"})
        txn.abort()

    def test_delete_twice_rejected(self, db):
        oid = db.insert("s", "Supplier", {"name": "a"})
        txn = db.transaction()
        txn.delete(oid)
        with pytest.raises(ObjectNotFoundError):
            txn.delete(oid)
        txn.abort()

    def test_empty_update_rejected(self, db):
        oid = db.insert("s", "Supplier", {"name": "a"})
        txn = db.transaction()
        with pytest.raises(TransactionError):
            txn.update(oid, {})
        txn.abort()


class TestReferentialIntegrity:
    def test_dangling_reference_rejected(self, db):
        with pytest.raises(TransactionError):
            db.insert("s", "Pole", {"supplier": "Supplier#404"})

    def test_reference_to_same_txn_insert_ok(self, db):
        with db.transaction() as txn:
            sup = txn.insert("s", "Supplier", {"name": "a"})
            txn.insert("s", "Pole", {"supplier": sup})
        assert db.count("s", "Pole") == 1

    def test_wrong_class_reference_rejected(self, db):
        pole = db.insert("s", "Pole", {"label": "p"})
        with pytest.raises(TransactionError):
            db.insert("s", "Pole", {"supplier": pole})

    def test_delete_referenced_object_rejected(self, db):
        sup = db.insert("s", "Supplier", {"name": "a"})
        db.insert("s", "Pole", {"supplier": sup})
        with pytest.raises(TransactionError):
            db.delete(sup)

    def test_delete_ok_when_referrer_deleted_in_same_txn(self, db):
        sup = db.insert("s", "Supplier", {"name": "a"})
        pole = db.insert("s", "Pole", {"supplier": sup})
        with db.transaction() as txn:
            txn.delete(pole)
            txn.delete(sup)
        assert db.count("s", "Supplier") == 0

    def test_unsetting_reference_allows_delete(self, db):
        sup = db.insert("s", "Supplier", {"name": "a"})
        pole = db.insert("s", "Pole", {"supplier": sup})
        db.update(pole, {"supplier": None})
        db.delete(sup)
        assert db.count("s", "Supplier") == 0

    def test_reference_survives_a_delete_and_reinsert_of_its_target(
            self, db):
        """A batch that points a reference at an object, then deletes
        and re-inserts that object under its oid, keeps the reference:
        the target cannot then be deleted while it is referenced."""
        sup = db.insert("s", "Supplier", {"name": "a"})
        pole = db.insert("s", "Pole", {"label": "p"})
        with db.transaction() as txn:
            txn.update(pole, {"supplier": sup})
            txn.delete(sup)
            txn.insert("s", "Supplier", {"name": "b"}, oid=sup)
        assert db._incoming_refs == {sup: {(pole, "supplier")}}
        with pytest.raises(TransactionError):
            db.delete(sup)
        assert db.get_object(pole).get("supplier") == sup


class TestWriteSetListeners:
    def test_a_raising_listener_is_counted_and_the_commit_stands(
            self, db):
        """A listener that raises does not fail the durable commit: it
        is counted, and later listeners and commit-phase events run."""
        seen, phases = [], []

        def failing(write_set):
            raise RuntimeError("listener bug")

        db.add_write_set_listener(failing)
        db.add_write_set_listener(seen.append)
        db.bus.subscribe(lambda e: phases.append(e.payload.get("phase")))
        oid = db.insert("s", "Supplier", {"name": "a"})
        assert db.get_object(oid).get("name") == "a"
        assert [[op.oid for op in ws.ops] for ws in seen] == [[oid]]
        assert phases == ["validate", "commit"]
        assert db.stats()["listener_failures"] == 1


class TestEvents:
    def test_validate_then_commit_phases(self, db):
        phases = []
        db.bus.subscribe(
            lambda e: phases.append((e.kind.value, e.payload.get("phase")))
        )
        db.insert("s", "Supplier", {"name": "a"})
        assert phases == [("insert", "validate"), ("insert", "commit")]

    def test_aborted_txn_publishes_nothing(self, db):
        events = []
        db.bus.subscribe(lambda e: events.append(e))
        txn = db.transaction()
        txn.insert("s", "Supplier", {"name": "a"})
        txn.abort()
        assert events == []

    def test_multi_intent_event_order(self, db):
        log = []
        db.bus.subscribe(
            lambda e: log.append((e.payload.get("phase"), e.subject))
        )
        with db.transaction() as txn:
            a = txn.insert("s", "Supplier", {"name": "a"})
            b = txn.insert("s", "Supplier", {"name": "b"})
        assert log == [
            ("validate", a), ("validate", b),
            ("commit", a), ("commit", b),
        ]

    def test_geometry_update_keeps_index_current(self, db):
        oid = db.insert("s", "Pole", {"location": Point(1, 1)})
        from repro.spatial import BBox

        assert db.window_query("s", "Pole", "location",
                               BBox(0, 0, 2, 2))[0].oid == oid
        db.update(oid, {"location": Point(50, 50)})
        assert db.window_query("s", "Pole", "location",
                               BBox(0, 0, 2, 2)) == []
        assert db.window_query("s", "Pole", "location",
                               BBox(49, 49, 51, 51))[0].oid == oid
