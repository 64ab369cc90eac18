"""Unit tests for the interactive command loop."""

import pytest

from repro.cli import CommandLoop, build_demo_session
from repro.core import GISSession
from repro.lang import FIGURE_6_PROGRAM


@pytest.fixture()
def loop_io(phone_db):
    session = GISSession(phone_db, user="demo", application="browser")
    output: list[str] = []
    loop = CommandLoop(session, write=output.append)
    return loop, output


def text_of(output):
    return "".join(output)


class TestCommands:
    def test_connect_and_classes(self, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "classes"])
        text = text_of(output)
        assert "Schema: phone_net" in text
        assert "Pole (" in text

    def test_full_browse(self, loop_io, pole_oid):
        loop, output = loop_io
        loop.run(["connect phone_net", "class Pole",
                  f"instance {pole_oid}", "windows"])
        text = text_of(output)
        assert "Class set: Pole" in text
        assert f"Instance: {pole_oid}" in text
        assert f"instance_{pole_oid}" in text

    def test_query(self, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net",
                  "query select * from Pole where pole_type = 1 limit 2"])
        text = text_of(output)
        assert "plan:" in text
        assert "matches:" in text

    def test_zoom_pan(self, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "class Pole", "zoom Pole",
                  "pan Pole"])
        assert "extent:" in text_of(output)

    def test_explain_and_stats(self, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "explain schema_phone_net", "status"])
        text = text_of(output)
        assert "generic (default)" in text
        assert "interactions" in text

    def test_close_and_quit(self, loop_io):
        loop, output = loop_io
        executed = loop.run(["connect phone_net", "close schema_phone_net",
                             "quit", "windows"])
        assert executed == 3          # the loop stops at quit
        assert "bye" in text_of(output)

    def test_help(self, loop_io):
        loop, output = loop_io
        loop.run(["help"])
        assert "connect <schema>" in text_of(output)
        assert "status [path] [json]" in text_of(output)

    def test_wal_status_without_log(self, loop_io):
        loop, output = loop_io
        loop.run(["status wal"])
        assert text_of(output) == "  wal: None\n"

    def test_wal_status_with_log(self, loop_io):
        import json

        from repro.geodb import MemoryPager, WriteAheadLog

        loop, output = loop_io
        loop.session.database.attach_wal(
            WriteAheadLog(MemoryPager(), sync_mode="none"))
        loop.session.database.insert(
            "phone_net", "Supplier", {"name": "LogProbe"})
        loop.run(["status wal"])
        text = text_of(output)
        assert "  wal.sync_mode: none\n" in text
        assert "  wal.appends: " in text
        output.clear()
        loop.run(["status wal json"])
        status = json.loads(text_of(output))
        assert status["flushes"] == 1
        assert status["damaged"] is False


class TestErrorHandling:
    def test_unknown_command(self, loop_io):
        loop, output = loop_io
        loop.run(["teleport home"])
        assert "unknown command" in text_of(output)

    def test_library_errors_reported_not_raised(self, loop_io):
        loop, output = loop_io
        loop.run(["connect ghost_schema"])
        assert "error:" in text_of(output)

    def test_commands_requiring_schema(self, loop_io):
        loop, output = loop_io
        loop.run(["classes", "class Pole",
                  "query select * from Pole"])
        assert text_of(output).count("connect to a schema first") == 3

    def test_usage_messages(self, loop_io):
        loop, output = loop_io
        loop.run(["connect", "class", "instance", "pick Pole 1",
                  "explain", "close", "zoom", "pan"])
        # `class` without a schema reports the connect requirement instead
        assert text_of(output).count("usage:") == 7
        assert "connect to a schema first" in text_of(output)

    def test_blank_and_comment_lines_skipped(self, loop_io):
        loop, output = loop_io
        executed = loop.run(["", "   ", "# a comment", "help"])
        assert executed == 1

    def test_bad_query_reported(self, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "query select banana"])
        assert "error:" in text_of(output)


class TestInstallAndDemo:
    def test_install_program_from_file(self, loop_io, tmp_path):
        loop, output = loop_io
        path = tmp_path / "custom.gisl"
        path.write_text(FIGURE_6_PROGRAM)
        loop.run([f"install {path}"])
        assert "installed 1 directive(s)" in text_of(output)

    def test_demo_session_with_figure6(self, capsys):
        session = build_demo_session("juliano", None, "pole_manager",
                                     figure6=True)
        output: list[str] = []
        loop = CommandLoop(session, write=output.append)
        loop.run(["connect phone_net", "windows"])
        text = text_of(output)
        assert "hidden" in text            # the NULL schema window
        assert "classset_Pole" in text
        session.engine.manager.detach()

    def test_pick_on_map(self, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "class Pole"])
        session = loop.session
        area = session.screen.window("classset_Pole").find("map")
        (col, row), __ = next(iter(area.rasterize().items()))
        loop.run([f"pick Pole {col} {row}"])
        assert "picked Pole#" in text_of(output)


class TestHtmlExport:
    def test_html_command_writes_page(self, loop_io, tmp_path):
        loop, output = loop_io
        path = tmp_path / "screen.html"
        loop.run(["connect phone_net", "class Pole", f"html {path}"])
        assert "wrote" in text_of(output)
        content = path.read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "Class set: Pole" in content

    def test_html_usage(self, loop_io):
        loop, output = loop_io
        loop.run(["html"])
        assert "usage: html" in text_of(output)


class TestObservabilityCommands:
    def test_stats_prints_live_counters(self, obs_recorder, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "class Pole", "status"])
        text = text_of(output)
        assert "metrics.counters." in text
        assert "event_bus.events_published" in text
        assert "builder.windows_built" in text
        assert "rules.evaluated" in text
        assert "dispatcher.interactions" in text
        assert "  database.buffer.hit_ratio: " in text

    def test_stats_json_exports_registry(self, obs_recorder, loop_io):
        import json as _json

        loop, output = loop_io
        loop.run(["connect phone_net"])
        output.clear()
        loop.run(["status metrics json"])
        payload = _json.loads(text_of(output))
        assert set(payload) >= {"counters", "gauges", "histograms"}

    def test_stats_reports_disabled_mode(self, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net"])
        output.clear()
        loop.run(["status metrics"])
        assert text_of(output) == "  metrics: None\n"

    def test_trace_prints_dispatch_span_tree(self, obs_recorder, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "class Pole", "trace"])
        text = text_of(output)
        assert "dispatch.open_class" in text
        assert "event_bus.publish" in text
        assert "builder.build" in text

    def test_trace_json(self, obs_recorder, loop_io):
        import json as _json

        loop, output = loop_io
        loop.run(["connect phone_net"])
        output.clear()
        loop.run(["trace json"])
        payload = _json.loads(text_of(output))
        assert payload["name"] == "dispatch.open_schema"
        assert payload["children"]

    def test_trace_all_lists_recent_traces(self, obs_recorder, loop_io):
        loop, output = loop_io
        loop.run(["connect phone_net", "class Pole", "trace all"])
        text = text_of(output)
        assert "dispatch.open_schema" in text
        assert "dispatch.open_class" in text

    def test_trace_without_recorder_explains(self, loop_io):
        loop, output = loop_io
        loop.run(["trace"])
        assert "observability is disabled" in text_of(output)


class TestRasterStatusCommand:
    def test_without_rasters(self, loop_io):
        loop, output = loop_io
        loop.run(["status database.rasters"])
        assert text_of(output) == "  database.rasters: {}\n"

    def test_with_rasters_and_json(self):
        import json

        from repro.workloads import build_image_log_database

        db = build_image_log_database()
        session = GISSession(db, user="demo", application="atlas")
        output: list[str] = []
        loop = CommandLoop(session, write=output.append)
        loop.run(["status database.rasters"])
        text = text_of(output)
        assert "  database.rasters.rasters: 6\n" in text
        assert "  database.rasters.tile_size: 64\n" in text
        assert "  database.rasters.tiles_per_level.0: " in text
        output.clear()
        loop.run(["status database.rasters json"])
        status = json.loads(text_of(output))
        assert status["rasters"] == 6
        assert status["tiles"] == status["tile_writes"] > 0


class TestColumnStatusCommand:
    def test_without_caches(self, loop_io):
        loop, output = loop_io
        loop.run(["status columns"])
        assert text_of(output) == "  columns: None\n"

    def test_after_queries_and_json(self, loop_io):
        import json

        loop, output = loop_io
        loop.run(["connect phone_net",
                  "query select * from Pole where pole_type = 1",
                  "query select * from Pole where install_year > 1950",
                  "status columns"])
        text = text_of(output)
        assert "  columns.summary.classes: 1\n" in text
        assert "  columns.summary.builds: 1\n" in text
        assert "  columns.summary.hits: 1\n" in text
        assert "  columns.classes.0.class: Pole\n" in text
        output.clear()
        loop.run(["status columns json"])
        status = json.loads(text_of(output))
        assert status["summary"]["classes"] == 1
        assert status["summary"]["hit_ratio"] == 0.5
        assert status["classes"][0]["class"] == "Pole"


class TestHelpStaysInSyncWithDispatch:
    """Satellite regression: every dash command the loop dispatches must
    appear in the ``help``/argparse listing, and vice versa. A new
    ``cmd_*`` method without a help line (or a documented command with
    no implementation) fails this row instead of shipping silently."""

    def test_command_names_match_documented_names(self):
        assert CommandLoop.command_names() == \
            CommandLoop.documented_command_names()

    def test_help_lists_every_command(self, loop_io):
        loop, output = loop_io
        loop.run(["help"])
        text = text_of(output)
        for name in CommandLoop.command_names():
            assert name in text, f"help omits {name!r}"

    def test_argparse_epilog_carries_the_listing(self):
        import argparse

        from repro.cli import main  # noqa: F401  (import builds the parser)

        assert "status [path] [json]" in CommandLoop.help_text()
        # the epilog main() installs is exactly the help listing
        parser = argparse.ArgumentParser(
            epilog="commands:\n" + CommandLoop.help_text(),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        assert "status [path] [json]" in parser.format_help()


class TestStatusCommand:
    """One ``status`` command reads the kernel status tree."""

    OLD_COMMANDS = ("stats", "wal-status", "repl-status", "watch-status",
                    "raster-status", "column-status")

    def test_replaces_the_six_status_printers(self):
        names = CommandLoop.command_names()
        assert "status" in names
        assert not set(self.OLD_COMMANDS) & set(names)

    def test_live_watches(self, loop_io):
        loop, output = loop_io
        watch = loop.session.watch("phone_net",
                                   "select * from Pole where pole_type = 1")
        loop.run(["status live.watches"])
        text = text_of(output)
        assert f"  live.watches.0.watch: {watch.watch_id}\n" in text
        assert f"  live.watches.0.session: {loop.session.session_id}\n" \
            in text
        output.clear()
        loop.run(["status live.summary.watches"])
        assert text_of(output) == "  live.summary.watches: 1\n"

    def test_unknown_path_lists_top_level_keys(self, loop_io):
        loop, output = loop_io
        loop.run(["status wal.nowhere", "status live.watches.3"])
        lines = text_of(output).splitlines()
        assert len(lines) == 2
        for line, path in zip(lines, ("wal.nowhere", "live.watches.3")):
            assert line.startswith(f"unknown status path {path!r}")
            assert "database, wal, columns, replication, engine" in line
            assert line.endswith("sessions, metrics")

    def test_json_prints_the_kernel_tree(self, loop_io):
        import json

        loop, output = loop_io
        loop.run(["connect phone_net", "class Pole"])
        output.clear()
        loop.run(["status json"])
        tree = json.loads(text_of(output))
        assert tree == json.loads(json.dumps(loop.session.kernel.stats()))
        assert tree["sessions"][loop.session.session_id][
            "dispatcher"]["interactions"] == 2
