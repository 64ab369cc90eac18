"""An interactive terminal browser over a GIS session.

The smallest real *application* of the library: a command loop that
drives a :class:`~repro.core.session.GISSession` through the same public
API any embedding would use. Run it with::

    python -m repro                     # demo phone-net database
    python -m repro --user juliano --application pole_manager --figure6

Commands (also printed by ``help``)::

    connect <schema>          browse a schema (Get_Schema)
    classes                   list the classes of the connected schema
    class <name>              open a Class-set window (Get_Class)
    instance <oid>            open an Instance window (Get_Value)
    pick <class> <col> <row>  select an instance on the map
    zoom <class> | pan <class>  map operations
    query <text>              analysis-mode query (select ... from ...)
    install <path>            compile + install a customization program
    windows                   list open windows
    render [window]           render one window (or the whole screen)
    explain <window>          why a window looks the way it does
    close <window>            close a window
    html <path>               export the screen as a HTML page
    status [path] [json]      status tree, or its subtree at a dotted path
    trace [json|all]          span tree of the last interaction
    help                      this command list
    quit | exit               leave

The loop is IO-parameterized (any line iterator in, any writer out), so
the test suite drives it deterministically.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable

from . import obs
from .core.session import GISSession
from .errors import ReproError

PROMPT = "gis> "


class CommandLoop:
    """Parses and executes browser commands against one session."""

    def __init__(self, session: GISSession,
                 write: Callable[[str], None] | None = None):
        self.session = session
        self._write = write or (lambda text: print(text, end=""))
        self._schema: str | None = None
        self._running = True

    # -- plumbing -----------------------------------------------------------

    def emit(self, text: str = "") -> None:
        self._write(text + "\n")

    def run(self, lines: Iterable[str]) -> int:
        """Feed command lines; returns the number executed."""
        executed = 0
        for line in lines:
            if not self._running:
                break
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            executed += 1
            try:
                self.dispatch(line)
            except ReproError as exc:
                self.emit(f"error: {exc}")
            except Exception as exc:  # defensive: keep the loop alive
                self.emit(f"unexpected error: {exc!r}")
        return executed

    # -- command dispatch -------------------------------------------------------

    def dispatch(self, line: str) -> None:
        command, __, rest = line.partition(" ")
        rest = rest.strip()
        handler = getattr(self, f"cmd_{command.lower()}", None)
        if handler is None:
            self.emit(f"unknown command {command!r}; try 'help'")
            return
        handler(rest)

    # -- commands ----------------------------------------------------------------

    def cmd_help(self, rest: str) -> None:
        self.emit(__doc__.split("Commands (also printed by ``help``)::", 1)
                  [1].split("The loop is", 1)[0].strip("\n"))

    def cmd_connect(self, rest: str) -> None:
        if not rest:
            self.emit("usage: connect <schema>")
            return
        self.session.connect(rest)
        self._schema = rest
        window = self.session.screen.window(f"schema_{rest}")
        if window.visible:
            self.emit(self.session.render(window.name))
        else:
            self.emit(f"(schema window hidden by customization; "
                      f"open windows: {', '.join(self.session.screen.names())})")

    def _require_schema(self) -> str | None:
        if self._schema is None:
            self.emit("connect to a schema first")
            return None
        return self._schema

    def cmd_classes(self, rest: str) -> None:
        schema_name = self._require_schema()
        if schema_name is None:
            return
        schema = self.session.database.get_schema_object(schema_name)
        for name in schema.class_names():
            count = self.session.database.count(schema_name, name)
            self.emit(f"  {name} ({count})")

    def cmd_class(self, rest: str) -> None:
        if self._require_schema() is None:
            return
        if not rest:
            self.emit("usage: class <name>")
            return
        window = self.session.select_class(rest)
        self.emit(self.session.render(window.name))

    def cmd_instance(self, rest: str) -> None:
        if not rest:
            self.emit("usage: instance <oid>")
            return
        window = self.session.select_instance(rest)
        self.emit(self.session.render(window.name))

    def cmd_pick(self, rest: str) -> None:
        parts = rest.split()
        if len(parts) != 3:
            self.emit("usage: pick <class> <col> <row>")
            return
        class_name, col, row = parts[0], int(parts[1]), int(parts[2])
        oid = self.session.pick_on_map(class_name, col, row)
        if oid is None:
            self.emit("nothing there")
        else:
            self.emit(f"picked {oid}")
            self.emit(self.session.render(f"instance_{oid}"))

    def _map_operation(self, class_name: str, item: str) -> None:
        window = self.session.screen.window(f"classset_{class_name}")
        window.find("operations").activate(item)
        self.emit(self.session.render(window.name))

    def cmd_zoom(self, rest: str) -> None:
        if not rest:
            self.emit("usage: zoom <class>")
            return
        self._map_operation(rest, "zoom")

    def cmd_pan(self, rest: str) -> None:
        if not rest:
            self.emit("usage: pan <class>")
            return
        self._map_operation(rest, "pan")

    def cmd_query(self, rest: str) -> None:
        schema_name = self._require_schema()
        if schema_name is None:
            return
        if not rest:
            self.emit("usage: query select ... from ...")
            return
        result = self.session.query(schema_name, rest)
        self.emit(result.explain())
        shown = (result.rows if result.rows is not None
                 else [{"oid": o.oid} for o in result.objects])
        for row in shown[:20]:
            self.emit(f"  {row}")
        if len(shown) > 20:
            self.emit(f"  ... {len(shown) - 20} more")

    def cmd_install(self, rest: str) -> None:
        if not rest:
            self.emit("usage: install <path-to-program>")
            return
        with open(rest) as f:
            source = f.read()
        directives = self.session.install_program(source, persist=False)
        self.emit(f"installed {len(directives)} directive(s)")

    def cmd_windows(self, rest: str) -> None:
        for name in self.session.screen.names():
            window = self.session.screen.window(name)
            marker = "" if window.visible else " (hidden)"
            self.emit(f"  {name}{marker}")
        if not self.session.screen.names():
            self.emit("  (no open windows)")

    def cmd_render(self, rest: str) -> None:
        self.emit(self.session.render(rest or None))

    def cmd_explain(self, rest: str) -> None:
        if not rest:
            self.emit("usage: explain <window>")
            return
        self.emit(self.session.explain_window(rest))

    def cmd_close(self, rest: str) -> None:
        if not rest:
            self.emit("usage: close <window>")
            return
        self.session.close(rest)
        self.emit(f"closed {rest}")

    def cmd_html(self, rest: str) -> None:
        """Export the whole screen as a self-contained HTML page."""
        if not rest:
            self.emit("usage: html <output-path>")
            return
        from .uilib.html_render import render_screen_html

        page = render_screen_html(self.session.screen.windows())
        with open(rest, "w") as f:
            f.write(page)
        self.emit(f"wrote {len(page)} bytes to {rest}")

    def cmd_status(self, rest: str) -> None:
        """Print the kernel status tree, or the subtree at a dotted path."""
        words = rest.split()
        as_json = words[-1:] == ["json"]
        if as_json:
            words.pop()
        path = words[0] if words else ""
        tree = self.session.kernel.stats()
        node = tree
        for key in path.split(".") if path else ():
            if isinstance(node, dict) and key in node:
                node = node[key]
            elif isinstance(node, list) and key.isdigit() \
                    and int(key) < len(node):
                node = node[int(key)]
            else:
                self.emit(f"unknown status path {path!r}; top-level keys: "
                          f"{', '.join(tree)}")
                return
        if as_json:
            self.emit(json.dumps(node, indent=2))
            return
        for key, value in _flatten(node, path):
            self.emit(f"  {key}: {value}")

    def cmd_trace(self, rest: str) -> None:
        """Dump pipeline traces recorded by the observability layer."""
        if not obs.is_enabled():
            self.emit("observability is disabled; no traces recorded")
            return
        tracer = obs.RECORDER.tracer
        mode = rest.strip()
        if mode == "all":
            traces = tracer.traces()
            if not traces:
                self.emit("(no traces recorded yet)")
                return
            for span in traces:
                self.emit(f"  {span.name}  spans={sum(1 for _ in span.walk())}"
                          f"  {span.duration * 1000:.3f}ms")
            return
        # Prefer the last *interaction* trace; fall back to the last trace.
        span = tracer.last_trace("dispatch.") or tracer.last_trace()
        if span is None:
            self.emit("(no traces recorded yet)")
            return
        if mode == "json":
            self.emit(json.dumps(span.to_dict(), indent=2))
        else:
            self.emit(span.render())

    def cmd_quit(self, rest: str) -> None:
        self._running = False
        self.emit("bye")

    cmd_exit = cmd_quit

    # -- introspection (help/--help stay in sync with the dispatch table) -----

    @classmethod
    def command_names(cls) -> list[str]:
        """Every dispatchable command, sorted.

        Derived from the ``cmd_*`` attributes :meth:`dispatch` resolves
        against, so it cannot drift from the actual dispatch table.
        """
        return sorted(
            name[len("cmd_"):] for name in dir(cls) if name.startswith("cmd_")
        )

    @classmethod
    def help_text(cls) -> str:
        """The command listing ``help`` prints (one command per line)."""
        return (__doc__
                .split("Commands (also printed by ``help``)::", 1)[1]
                .split("The loop is", 1)[0].strip("\n"))

    @classmethod
    def documented_command_names(cls) -> list[str]:
        """Commands named in the help listing, sorted."""
        names: set[str] = set()
        for line in cls.help_text().splitlines():
            words = line.split()
            if not words:
                continue
            # first token is a command; "a | b" lines document both
            names.add(words[0])
            for i, word in enumerate(words[:-1]):
                if word == "|" and words[i + 1].isalpha():
                    names.add(words[i + 1])
        return sorted(names)


def _flatten(node, prefix: str):
    """``(dotted path, leaf)`` pairs of a status subtree, in tree order."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _flatten(value, f"{prefix}.{key}" if prefix else
                                str(key))
    else:
        yield prefix, node


def build_demo_session(user: str, category: str | None, application: str,
                       figure6: bool) -> GISSession:
    """The out-of-the-box demo: the §4 phone-net database.

    Observability is enabled *before* the database is built so
    ``status metrics`` shows the full cost of populating it, too.
    """
    from .core import GISKernel
    from .lang import FIGURE_6_PROGRAM
    from .workloads import build_phone_net_database

    obs.enable()
    db = build_phone_net_database()
    kernel = GISKernel(db)
    session = kernel.session(user=user, category=category,
                             application=application, auto_refresh=True)
    if figure6:
        kernel.install_program(FIGURE_6_PROGRAM, persist=False)
    return session


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-browse",
        description="interactive GIS interface browser (paper demo)",
        # Every command is visible from --help, not only from the
        # in-loop ``help`` command (kept in sync by tests/test_cli.py).
        epilog="commands:\n" + CommandLoop.help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--user", default="demo")
    parser.add_argument("--category", default=None)
    parser.add_argument("--application", default="browser")
    parser.add_argument("--figure6", action="store_true",
                        help="install the paper's Figure 6 customization")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the observability layer (status "
                             "metrics and trace will have nothing to report)")
    args = parser.parse_args(argv)

    session = build_demo_session(args.user, args.category, args.application,
                                 args.figure6)
    if args.no_obs:
        obs.disable()
    loop = CommandLoop(session)
    loop.emit(f"connected as {session.context.describe()}; "
              f"try: connect phone_net")

    def stdin_lines():
        while True:
            try:
                yield input(PROMPT)
            except EOFError:
                return

    loop.run(stdin_lines())
    return 0


if __name__ == "__main__":
    sys.exit(main())
