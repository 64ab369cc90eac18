"""Unit tests for the UI layer: the interaction driver and inspection."""

import pytest

from repro.core import GISSession
from repro.errors import SessionError
from repro.ui import (
    InteractionScript,
    paper_walkthrough_script,
    random_browse_script,
    summarize_window,
)


class TestInteractionScript:
    def test_builder_chaining_and_describe(self):
        script = (InteractionScript()
                  .connect("s").select_class("C").select_instance("C#1")
                  .render())
        assert len(script.steps) == 4
        text = script.describe()
        assert text.startswith("1. connect('s')")
        assert "4. render(None)" in text

    def test_paper_walkthrough_runs(self, phone_db, pole_oid):
        session = GISSession(phone_db, user="ana", application="b")
        script = paper_walkthrough_script("phone_net", "Pole", pole_oid)
        results = script.run(session)
        assert all(r.ok for r in results)
        assert f"instance_{pole_oid}" in session.screen.names()

    def test_stop_on_error(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b")
        script = (InteractionScript()
                  .select_class("Pole")      # error: not connected
                  .connect("phone_net"))
        results = script.run(session)
        assert len(results) == 1
        assert not results[0].ok
        assert "SessionError" in results[0].detail

    def test_continue_on_error(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b")
        script = (InteractionScript()
                  .select_class("Pole")
                  .connect("phone_net"))
        results = script.run(session, stop_on_error=False)
        assert [r.ok for r in results] == [False, True]

    def test_close_and_render_steps(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b")
        script = (InteractionScript()
                  .connect("phone_net")
                  .render("schema_phone_net")
                  .close("schema_phone_net"))
        results = script.run(session)
        assert all(r.ok for r in results)
        assert "Schema: phone_net" in results[1].output
        assert len(session.screen) == 0

    def test_unknown_step_rejected(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b")
        from repro.ui.interaction import Step

        script = InteractionScript(steps=[Step("fly", ())])
        results = script.run(session)
        assert not results[0].ok


class TestRandomScripts:
    def test_random_script_runs_clean(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b")
        script = random_browse_script(phone_db, "phone_net", 15, seed=2)
        results = script.run(session)
        assert all(r.ok for r in results)
        assert len(results) == 16  # connect + 15 interactions

    def test_deterministic_per_seed(self, phone_db):
        a = random_browse_script(phone_db, "phone_net", 10, seed=3)
        b = random_browse_script(phone_db, "phone_net", 10, seed=3)
        assert a.describe() == b.describe()

    def test_skip_classes(self, phone_db):
        script = random_browse_script(phone_db, "phone_net", 20, seed=4,
                                      skip_classes=("Pole",))
        assert "('Pole')" not in script.describe()

    def test_empty_schema_rejected(self, phone_db):
        phone_db.create_schema("empty")
        with pytest.raises(SessionError):
            random_browse_script(phone_db, "empty", 5)


class TestWindowSummary:
    def test_summary_fields(self, phone_db):
        session = GISSession(phone_db, user="ana", application="b")
        session.connect("phone_net")
        summary = summarize_window(session.screen.window("schema_phone_net"))
        assert summary.kind == "schema"
        assert summary.visible
        assert summary.widget_types["list"] == 1
        assert "Pole" in summary.listed_items
