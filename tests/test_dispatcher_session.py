"""Unit tests for the dispatcher, screen and session façade."""

import pytest

from repro.core import (
    AttributeCustomization,
    ClassCustomization,
    ContextPattern,
    CustomizationDirective,
    GISSession,
    Screen,
)
from repro.errors import DispatchError, SessionError
from repro.spatial import Point
from repro.uilib import Window


def pole_directive():
    return CustomizationDirective(
        name="pm",
        pattern=ContextPattern(user="juliano", application="pole_manager"),
        schema_name="phone_net",
        schema_display="null",
        classes=(ClassCustomization(
            class_name="Pole",
            control_widget="poleWidget",
            presentation_format="pointFormat",
            attributes=(AttributeCustomization("pole_location", "null"),),
        ),),
    )


class TestScreen:
    def test_show_window_close(self):
        screen = Screen()
        window = Window("w")
        screen.show(window)
        assert screen.window("w") is window
        assert "w" in screen and len(screen) == 1
        closed = []
        window.on("close", lambda e: closed.append(1))
        screen.close("w")
        assert closed == [1]
        assert "w" not in screen
        with pytest.raises(DispatchError):
            screen.window("w")
        with pytest.raises(DispatchError):
            screen.close("w")

    def test_show_replaces_same_name(self):
        screen = Screen()
        first, second = Window("w"), Window("w")
        screen.show(first)
        screen.show(second)
        assert screen.window("w") is second
        assert len(screen) == 1

    def test_find_by_kind(self):
        screen = Screen()
        window = Window("w")
        window.set_property("window_kind", "schema")
        screen.show(window)
        assert screen.find_by_kind("schema") == [window]
        assert screen.find_by_kind("instance") == []


class TestDispatcherFlow:
    def test_schema_to_class_to_instance_via_callbacks(self, generic_session,
                                                       pole_oid):
        session = generic_session
        session.connect("phone_net")
        assert session.screen.names() == ["schema_phone_net"]
        session.select_class("Pole")
        assert "classset_Pole" in session.screen.names()
        session.select_instance(pole_oid)
        assert f"instance_{pole_oid}" in session.screen.names()
        assert session.dispatcher.interactions == 3

    def test_map_pick_opens_instance(self, generic_session):
        session = generic_session
        session.connect("phone_net")
        session.select_class("Pole")
        window = session.screen.window("classset_Pole")
        area = window.find("map")
        raster = area.rasterize()
        (col, row), (__, oid) = next(iter(raster.items()))
        picked = session.pick_on_map("Pole", col, row)
        assert picked == oid
        assert f"instance_{oid}" in session.screen.names()

    def test_close_via_menu(self, generic_session):
        session = generic_session
        session.connect("phone_net")
        session.select_class("Pole")
        window = session.screen.window("classset_Pole")
        window.find("operations").activate("close")
        assert "classset_Pole" not in session.screen.names()

    def test_events_carry_context(self, generic_session, phone_db):
        generic_session.connect("phone_net")
        assert phone_db.bus.last_event.context is generic_session.context


class TestCustomizedFlow:
    def test_r1_cascade_hides_schema_opens_class(self, juliano_session):
        session = juliano_session
        session.install_directive(pole_directive(), persist=False)
        session.connect("phone_net")
        assert set(session.screen.names()) == {"schema_phone_net",
                                               "classset_Pole"}
        assert not session.screen.window("schema_phone_net").visible
        assert session.screen.window("classset_Pole").visible

    def test_customization_transparent_to_other_context(self, phone_db):
        other = GISSession(phone_db, user="maria", application="other_app")
        other.install_directive(pole_directive(), persist=False)
        other.connect("phone_net")
        assert other.screen.window("schema_phone_net").visible
        assert "classset_Pole" not in other.screen.names()

    def test_instance_attribute_hidden(self, juliano_session, pole_oid):
        session = juliano_session
        session.install_directive(pole_directive(), persist=False)
        session.connect("phone_net")
        session.select_instance(pole_oid)
        from repro.ui import displayed_attribute_names

        window = session.screen.window(f"instance_{pole_oid}")
        assert "pole_location" not in displayed_attribute_names(window)


class TestSessionProtocol:
    def test_select_class_before_connect(self, generic_session):
        with pytest.raises(SessionError):
            generic_session.select_class("Pole")

    def test_connect_unknown_schema(self, generic_session):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            generic_session.connect("ghost_schema")

    def test_render_whole_screen(self, generic_session):
        generic_session.connect("phone_net")
        generic_session.select_class("Pole")
        out = generic_session.render()
        assert "Schema: phone_net" in out
        assert "Class set: Pole" in out

    def test_scene(self, generic_session):
        generic_session.connect("phone_net")
        scene = generic_session.scene()
        assert scene[0]["type"] == "window"

    def test_explain_window(self, juliano_session, generic_session):
        juliano_session.install_directive(pole_directive(), persist=False)
        juliano_session.connect("phone_net")
        text = juliano_session.explain_window("classset_Pole")
        assert "pm::class::Pole" in text
        generic_session.connect("phone_net")
        assert "generic (default)" in generic_session.explain_window(
            "schema_phone_net")

    def test_stats(self, generic_session):
        generic_session.connect("phone_net")
        stats = generic_session.stats()
        assert stats["dispatcher"]["interactions"] == 1
        assert "user=ana" in stats["context"]


class TestAutoRefresh:
    def test_class_window_refreshes_on_commit(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b",
                             auto_refresh=True)
        session.connect("phone_net")
        session.select_class("Pole")
        before = session.screen.window("classset_Pole")
        count_before = len(before.find("instances").items)
        phone_db.insert("phone_net", "Pole",
                        {"pole_location": Point(1.0, 1.0)})
        after = session.screen.window("classset_Pole")
        assert after is not before
        assert len(after.find("instances").items) == count_before + 1

    def test_instance_window_closes_on_delete(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b",
                             auto_refresh=True)
        oid = phone_db.insert("phone_net", "Pole",
                              {"pole_location": Point(2.0, 2.0)})
        session.connect("phone_net")
        session.select_class("Pole")
        session.select_instance(oid)
        assert f"instance_{oid}" in session.screen.names()
        phone_db.delete(oid)
        assert f"instance_{oid}" not in session.screen.names()

    def test_instance_window_refreshes_on_update(self, phone_db, pole_oid):
        session = GISSession(phone_db, user="ana", application="b",
                             auto_refresh=True)
        session.connect("phone_net")
        session.select_class("Pole")
        session.select_instance(pole_oid)
        phone_db.update(pole_oid, {"pole_historic": "rebuilt 1997"})
        window = session.screen.window(f"instance_{pole_oid}")
        from repro.ui import instance_attribute_panels

        panel = instance_attribute_panels(window)["pole_historic"]
        assert panel.children[0].value == "rebuilt 1997"

    def test_no_refresh_by_default(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b")
        session.connect("phone_net")
        session.select_class("Pole")
        before = session.screen.window("classset_Pole")
        phone_db.insert("phone_net", "Pole",
                        {"pole_location": Point(3.0, 3.0)})
        assert session.screen.window("classset_Pole") is before


class TestSessionLifecycle:
    def test_shutdown_detaches_everything(self, phone_db):
        subscribers_before = (
            len(phone_db.bus._all)
            + sum(len(v) for v in phone_db.bus._by_kind.values()))
        feed_before = list(phone_db._write_set_listeners)
        session = GISSession(phone_db, user="u", application="a",
                             auto_refresh=True)
        session.connect("phone_net")
        session.shutdown()
        subscribers_after = (
            len(phone_db.bus._all)
            + sum(len(v) for v in phone_db.bus._by_kind.values()))
        assert subscribers_after == subscribers_before
        assert phone_db._write_set_listeners == feed_before
        assert len(session.screen) == 0
        session.shutdown()   # idempotent

    def test_context_manager(self, phone_db):
        with GISSession(phone_db, user="u", application="a") as session:
            session.connect("phone_net")
            assert len(session.screen) == 1
        assert len(session.screen) == 0

    def test_shared_engine_left_attached(self, phone_db):
        owner = GISSession(phone_db, user="u", application="a")
        borrower = GISSession(phone_db, user="v", application="a",
                              engine=owner.engine)
        borrower.shutdown()
        # the shared engine still reacts to events
        phone_db.get_schema("phone_net")
        assert owner.engine.manager.bus is phone_db.bus
        owner.shutdown()
