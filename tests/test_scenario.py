"""Unit tests for simulation-mode scenarios (§2.2)."""

import pytest

from repro.active import ConstraintGuard, RelationConstraint
from repro.errors import (
    ConstraintViolationError,
    ObjectNotFoundError,
    SessionError,
    TypeMismatchError,
)
from repro.spatial import BBox, Point, Polygon


@pytest.fixture()
def scenario(phone_db):
    return phone_db.scenario("phone_net")


class TestHypotheticalMutations:
    def test_insert_visible_in_scenario_only(self, phone_db, scenario):
        before = phone_db.count("phone_net", "Pole")
        oid = scenario.insert("Pole", {"pole_location": Point(1, 1)})
        assert scenario.exists(oid)
        assert scenario.get_object(oid).geometry() == Point(1, 1)
        assert phone_db.find_object(oid) is None
        assert phone_db.count("phone_net", "Pole") == before

    def test_update_overlays_base(self, phone_db, scenario, pole_oid):
        scenario.update(pole_oid, {"pole_historic": "hypothetical"})
        assert scenario.values_of(pole_oid)["pole_historic"] == "hypothetical"
        assert phone_db.get_object(pole_oid).get("pole_historic") != \
            "hypothetical"

    def test_delete_hides_from_scenario(self, phone_db, scenario, pole_oid):
        scenario.delete(pole_oid)
        assert not scenario.exists(pole_oid)
        assert scenario.values_of(pole_oid) is None
        assert phone_db.find_object(pole_oid) is not None
        with pytest.raises(ObjectNotFoundError):
            scenario.update(pole_oid, {"pole_historic": "x"})

    def test_validation_still_applies(self, scenario):
        with pytest.raises(TypeMismatchError):
            scenario.insert("Pole", {"pole_type": 1})  # missing required
        with pytest.raises(TypeMismatchError):
            scenario.insert("Pole", {"pole_location": "not a point"})

    def test_sequences_of_ops(self, scenario):
        oid = scenario.insert("Pole", {"pole_location": Point(1, 1)})
        scenario.update(oid, {"pole_type": 5})
        assert scenario.values_of(oid)["pole_type"] == 5
        scenario.delete(oid)
        assert not scenario.exists(oid)


class TestHypotheticalReads:
    def test_extent_merges_overlay(self, phone_db, scenario, pole_oid):
        base_count = phone_db.count("phone_net", "Pole")
        scenario.insert("Pole", {"pole_location": Point(1, 1)})
        scenario.delete(pole_oid)
        oids = [o.oid for o in scenario.extent("Pole")]
        assert len(oids) == base_count  # +1 insert, -1 delete
        assert pole_oid not in oids

    def test_query_sees_hypothesis(self, scenario):
        scenario.insert("Pole", {"pole_location": Point(1, 1),
                                 "pole_type": 42})
        result = scenario.run_query(
            "select * from Pole where pole_type = 42")
        assert len(result) == 1
        assert result.report["plan"] == "scenario-scan"

    def test_query_respects_updates(self, scenario, pole_oid):
        scenario.update(pole_oid, {"pole_type": 77})
        result = scenario.run_query(
            "select * from Pole where pole_type = 77")
        assert result.oids() == [pole_oid]

    @pytest.mark.parametrize("text", [
        "select count(*) from Pole",
        "select count(*), max(pole_type) from Pole where pole_type >= 1",
    ])
    def test_aggregates_match_the_engine_on_an_empty_overlay(
            self, phone_db, scenario, text):
        from repro.geodb import QueryEngine
        from repro.geodb.query_language import parse_query

        expected = QueryEngine(phone_db).execute("phone_net",
                                                 parse_query(text))
        got = scenario.run_query(text)
        assert expected.rows[0]["count(*)"] > 0
        assert got.rows == expected.rows
        assert sorted(got.oids()) == sorted(expected.oids())


class TestResolution:
    def test_discard_never_touches_base(self, phone_db, scenario):
        before = phone_db.count("phone_net", "Pole")
        scenario.insert("Pole", {"pole_location": Point(1, 1)})
        scenario.discard()
        assert phone_db.count("phone_net", "Pole") == before
        with pytest.raises(SessionError):
            scenario.insert("Pole", {"pole_location": Point(2, 2)})

    def test_commit_replays_as_transaction(self, phone_db, pole_oid):
        scenario = phone_db.scenario("phone_net")
        new_oid = scenario.insert("Pole", {"pole_location": Point(1, 1)})
        scenario.update(pole_oid, {"pole_historic": "committed"})
        applied = scenario.commit()
        assert applied == 2
        assert phone_db.get_object(new_oid).geometry() == Point(1, 1)
        assert phone_db.get_object(pole_oid).get("pole_historic") == \
            "committed"

    def test_commit_respects_integrity_rules(self, phone_db):
        guard = ConstraintGuard(phone_db, "phone_net")
        guard.add(RelationConstraint("Pole", "pole_location", "within",
                                     "District", "boundary"))
        scenario = phone_db.scenario("phone_net")
        scenario.insert("Pole", {"pole_location": Point(99_999, 99_999)})
        before = phone_db.count("phone_net", "Pole")
        with pytest.raises(ConstraintViolationError):
            scenario.commit()
        assert phone_db.count("phone_net", "Pole") == before
        guard.manager.detach()

    def test_context_manager_auto_discards(self, phone_db):
        before = phone_db.count("phone_net", "Pole")
        with phone_db.scenario("phone_net") as what_if:
            what_if.insert("Pole", {"pole_location": Point(1, 1)})
            assert what_if.pending_operations == 1
        assert phone_db.count("phone_net", "Pole") == before

    def test_double_close_rejected(self, scenario):
        scenario.discard()
        with pytest.raises(SessionError):
            scenario.discard()

    def test_commit_events_fire_normally(self, phone_db):
        events = []
        phone_db.bus.subscribe(
            lambda e: events.append(e.payload.get("phase")))
        scenario = phone_db.scenario("phone_net")
        scenario.insert("Pole", {"pole_location": Point(1, 1)})
        assert events == []     # hypothesis: silent
        scenario.commit()
        assert events == ["validate", "commit"]
