"""The shared kernel: multi-session server core (§3 Figure 1 at scale).

One :class:`~repro.core.kernel.GISKernel` owns the read-mostly stack
(library, engine, builder); sessions hold only per-user state. Events
carry a ``session_id``, decisions are recorded per session, and window
refresh reaches only the sessions displaying the touched class.
"""

import pytest

from repro.active.event_bus import Event, EventKind
from repro.core import Context, GISKernel, GISSession
from repro.errors import SessionError
from repro.geodb.database import WriteOp
from repro.lang import FIGURE_6_PROGRAM
from repro.spatial import Point
from repro.workloads import build_phone_net_database


@pytest.fixture()
def kernel(phone_db):
    with GISKernel(phone_db) as k:
        yield k


class TestKernelLifecycle:
    def test_sessions_share_the_stack(self, kernel):
        a = kernel.session(user="ana", application="browser")
        b = kernel.session(user="bob", application="viewer")
        assert a.engine is kernel.engine
        assert a.library is kernel.library
        assert a.builder is kernel.builder
        assert a.engine is b.engine
        assert a.screen is not b.screen
        assert a.session_id != b.session_id
        assert kernel.session_count == 2
        assert kernel.sessions() == [a, b]

    def test_session_shutdown_detaches_only_itself(self, kernel):
        a = kernel.session(user="ana")
        b = kernel.session(user="bob")
        a.shutdown()
        assert kernel.session_count == 1
        assert kernel.sessions() == [b]
        # the shared engine is still live for the sibling
        kernel.database.get_schema("phone_net",
                                   session_id=b.session_id)

    def test_kernel_shutdown_closes_sessions_and_bus(self, phone_db):
        before_all = len(phone_db.bus._all)
        before_kinds = sum(len(v) for v in phone_db.bus._by_kind.values())
        before_feed = list(phone_db._write_set_listeners)
        kernel = GISKernel(phone_db)
        a = kernel.session(user="ana", auto_refresh=True)
        a.connect("phone_net")
        kernel.shutdown()
        assert a._closed
        assert kernel.session_count == 0
        assert len(phone_db.bus._all) == before_all
        assert sum(len(v) for v in phone_db.bus._by_kind.values()) == \
            before_kinds
        assert phone_db._write_set_listeners == before_feed
        kernel.shutdown()  # idempotent

    def test_attach_after_shutdown_rejected(self, phone_db):
        kernel = GISKernel(phone_db)
        kernel.shutdown()
        with pytest.raises(SessionError):
            kernel.session(user="late")

    def test_joining_session_cannot_carry_its_own_stack(self, kernel,
                                                        phone_db):
        from repro.core import CustomizationEngine

        with pytest.raises(SessionError):
            GISSession(phone_db, user="x", kernel=kernel,
                       engine=CustomizationEngine(phone_db.bus))

    def test_joining_session_database_must_match(self, kernel):
        other = build_phone_net_database()
        with pytest.raises(SessionError):
            GISSession(other, user="x", kernel=kernel)

    def test_legacy_constructor_owns_a_private_kernel(self, phone_db):
        session = GISSession(phone_db, user="solo", application="browser")
        assert session._owns_kernel
        assert session.kernel.session_count == 1
        session.shutdown()
        assert session.kernel._closed

    def test_kernel_stats(self, kernel):
        kernel.session(user="ana")
        stats = kernel.stats()
        assert stats["sessions"] == 1
        assert "engine" in stats and "rules" in stats["engine"]


class TestSessionScopedDecisions:
    def test_decisions_are_recorded_per_session(self, kernel):
        kernel.install_program(FIGURE_6_PROGRAM, persist=False)
        juliano = kernel.session(user="juliano",
                                 application="pole_manager")
        ana = kernel.session(user="ana", application="browser")
        juliano.connect("phone_net")
        event_id = juliano.screen.window("schema_phone_net") \
            .get_property("event_id")
        # juliano's decision is his alone
        assert kernel.engine.schema_decision(
            event_id, session_id=juliano.session_id) is not None
        assert kernel.engine.schema_decision(
            event_id, session_id=ana.session_id) is None
        assert kernel.engine.session_decisions(ana.session_id) == []

    def test_windows_stay_per_session(self, kernel):
        kernel.install_program(FIGURE_6_PROGRAM, persist=False)
        juliano = kernel.session(user="juliano",
                                 application="pole_manager")
        ana = kernel.session(user="ana", application="browser")
        juliano.connect("phone_net")
        ana.connect("phone_net")
        # R1: juliano's schema window is hidden, ana's is visible
        assert not juliano.screen.window("schema_phone_net").visible
        assert ana.screen.window("schema_phone_net").visible

    def test_events_carry_the_session_id(self, kernel):
        ana = kernel.session(user="ana")
        ana.connect("phone_net")
        assert kernel.database.bus.last_event.session_id == ana.session_id


class TestClosedSessionRegression:
    def test_closed_session_engine_records_nothing_for_siblings(
            self, phone_db):
        """A closed session must stop reacting to its siblings' events.

        Before sessions detached their engine's rule manager on
        ``close()``, a "closed" session's engine kept subscribing to the
        shared bus and silently recorded a decision for every sibling
        ``Get_Class`` — unbounded work and memory on behalf of a dead
        session.
        """
        closed = GISSession(phone_db, user="juliano",
                            application="pole_manager")
        closed.install_program(FIGURE_6_PROGRAM, persist=False)
        closed.close()  # no argument: ends the session

        sibling = GISSession(phone_db, user="juliano",
                             application="pole_manager")
        sibling.connect("phone_net")
        sibling.select_class("Pole")
        event_id = phone_db.bus.last_event.event_id
        assert closed.engine.decisions_for(event_id) == []
        assert closed.engine.session_decisions(sibling.session_id) == []
        assert len(closed.engine.manager.trace) == 0
        sibling.close()

    def test_close_with_a_name_still_closes_one_window(self, phone_db):
        session = GISSession(phone_db, user="ana")
        session.connect("phone_net")
        session.close("schema_phone_net")
        assert "schema_phone_net" not in session.screen
        assert not session._closed
        session.close()
        assert session._closed


class TestMutationFanOut:
    def test_refresh_reaches_only_interested_sessions(self, kernel):
        pole_watcher = kernel.session(user="ana", auto_refresh=True)
        duct_watcher = kernel.session(user="bob", auto_refresh=True)
        pole_watcher.connect("phone_net")
        pole_watcher.select_class("Pole")
        duct_watcher.connect("phone_net")
        duct_watcher.select_class("Duct")
        before_pole = pole_watcher.dispatcher.interactions
        before_duct = duct_watcher.dispatcher.interactions

        kernel.database.insert("phone_net", "Pole", {
            "pole_location": Point(1.0, 2.0),
        })
        assert pole_watcher.dispatcher.interactions == before_pole + 1
        assert duct_watcher.dispatcher.interactions == before_duct

    def test_interested_in(self, kernel):
        session = kernel.session(user="ana", auto_refresh=True)
        session.connect("phone_net")
        session.select_class("Pole")
        pole_op = WriteOp("insert", "phone_net", "Pole", "Pole#new")
        duct_op = WriteOp("insert", "phone_net", "Duct", "Duct#new")
        assert session.dispatcher.interested_in(pole_op)
        assert not session.dispatcher.interested_in(duct_op)


class TestKernelObservability:
    def test_sessions_gauge_tracks_attach_and_detach(self, phone_db,
                                                     obs_recorder):
        kernel = GISKernel(phone_db)
        a = kernel.session(user="ana")
        kernel.session(user="bob")

        def gauge():
            return obs_recorder.registry.gauge_value(
                "kernel.sessions", database=phone_db.name)

        assert gauge() == 2
        a.shutdown()
        assert gauge() == 1
        kernel.shutdown()
        assert gauge() == 0

    def test_dispatch_spans_carry_the_session_tag(self, phone_db,
                                                  obs_recorder):
        with GISKernel(phone_db) as kernel:
            session = kernel.session(user="ana")
            session.connect("phone_net")
            span = obs_recorder.tracer.last_trace("dispatch.open_schema")
            assert span is not None
            assert span.attrs["session"] == session.session_id


class TestScopedBusDelivery:
    def test_scoped_subscriber_sees_only_its_session(self, phone_db):
        seen: list[Event] = []
        phone_db.bus.subscribe(seen.append, session_id="s-target")
        phone_db.get_schema("phone_net", session_id="s-target")
        phone_db.get_schema("phone_net", session_id="s-other")
        phone_db.get_schema("phone_net")
        assert [e.session_id for e in seen] == ["s-target"]
        phone_db.bus.unsubscribe(seen.append)
        phone_db.get_schema("phone_net", session_id="s-target")
        assert len(seen) == 1

    def test_derived_events_inherit_the_session(self):
        event = Event(kind=EventKind.GET_SCHEMA, subject="s",
                      session_id="s9")
        child = event.derived(EventKind.GET_CLASS, "c")
        assert child.session_id == "s9"
