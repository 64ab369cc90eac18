"""The user-facing session façade.

A :class:`GISSession` ties one interaction context (user, category,
application — §3.3) to a database and the full customization stack
(library, rule engine, builder, dispatcher, screen). It is the public
entry point a downstream application uses::

    session = GISSession(db, user="juliano", application="pole_manager")
    session.connect("phone_net")      # Get_Schema (rule R1 may hide it)
    session.select_class("Pole")      # Get_Class  (rule R2 customizes it)
    session.select_instance(oid)      # Get_Value  (attribute rules fire)
    print(session.render())

The §4 browsing loop ("iterates through browsing (Schema, {Class,
{Instance}}) windows, in this order") maps exactly onto those calls, and
``select_class`` / ``select_instance`` go through the *widget callbacks*
of the open windows, exercising the paper's full
``interaction → interface event → callback → database event → rules``
pipeline rather than shortcutting to the dispatcher.
"""

from __future__ import annotations

from typing import Any

from ..errors import SessionError
from ..geodb.catalog import MetadataCatalog
from ..geodb.database import GeographicDatabase
from ..uilib.library import InterfaceObjectLibrary
from ..uilib.presentation import PresentationRegistry
from ..uilib.rendering import TextRenderer
from ..uilib.widgets import ListWidget, Window
from .context import Context
from .customization import CustomizationDirective
from .dispatcher import Dispatcher, Screen
from .kernel import GISKernel
from .rule_engine import CustomizationEngine


class GISSession:
    """One user's exploratory session against a geographic database.

    Sessions are lightweight: per-user state only (a :class:`Context`, a
    :class:`Screen`, a :class:`Dispatcher`). The heavyweight customization
    stack — interface object library, rule engine, builder — lives in a
    :class:`~repro.core.kernel.GISKernel` shared by every session of a
    server. ``GISSession(db, ...)`` without an explicit ``kernel`` creates
    a private single-session kernel, preserving the historical behavior;
    multi-user embeddings create one kernel and call
    :meth:`GISKernel.session` (or pass ``kernel=``) instead.
    """

    def __init__(
        self,
        database: GeographicDatabase,
        user: str | None = None,
        category: str | None = None,
        application: str | None = None,
        scale_denominator: float | None = None,
        time_tag: str | None = None,
        library: InterfaceObjectLibrary | None = None,
        engine: CustomizationEngine | None = None,
        presentations: PresentationRegistry | None = None,
        catalog: MetadataCatalog | None = None,
        auto_refresh: bool = False,
        kernel: GISKernel | None = None,
        selection_cache: bool = True,
    ):
        self.database = database
        self.context = Context(
            user=user,
            category=category,
            application=application,
            scale_denominator=scale_denominator,
            time_tag=time_tag,
        )
        if kernel is None:
            kernel = GISKernel(
                database, library=library, engine=engine,
                presentations=presentations, catalog=catalog,
                selection_cache=selection_cache,
            )
            self._owns_kernel = True
        else:
            if (library is not None or engine is not None
                    or presentations is not None or catalog is not None):
                raise SessionError(
                    "pass library/engine/presentations/catalog to the "
                    "kernel, not to a session joining one"
                )
            if kernel.database is not database:
                raise SessionError(
                    "session database does not match the kernel's"
                )
            self._owns_kernel = False
        self.kernel = kernel
        self.catalog = kernel.catalog
        self.library = kernel.library
        self.engine = kernel.engine
        self.presentations = kernel.presentations
        self.builder = kernel.builder
        self.screen = Screen()
        self.dispatcher = Dispatcher(
            database, self.builder, self.engine, self.screen,
            auto_refresh=auto_refresh,
        )
        self._schema_name: str | None = None
        self.renderer = TextRenderer()
        #: LSN of this session's newest commit (0 = never committed);
        #: replica-routed queries wait for it (read-your-writes).
        self.last_commit_lsn = 0
        self._closed = False
        # Attach last: from here on, commits on other threads reach this
        # session through the kernel's change feed.
        self.session_id = kernel._attach(self)
        self.dispatcher.session_id = self.session_id

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self):
        """A snapshot-isolated transaction whose commit events carry this
        session's id (see :meth:`GISKernel.transaction`)."""
        if self._closed:
            raise SessionError("session is shut down")
        return self.kernel.transaction(self)

    def _note_commit(self, lsn: int) -> None:
        """Commit hook installed by :meth:`GISKernel.transaction`."""
        self.last_commit_lsn = max(self.last_commit_lsn, lsn)

    # ------------------------------------------------------------------
    # Analysis-mode queries (kernel-cached)
    # ------------------------------------------------------------------

    def query(self, schema_name: str, query, *, use_cache: bool = True,
              read_preference: str = "leader", min_lsn: int | None = None):
        """Run an analysis-mode query through the kernel's result cache.

        ``query`` is query-language text or a
        :class:`~repro.geodb.query.Query`; see :meth:`GISKernel.query`.
        With ``read_preference="replica"`` the session's last commit LSN
        is the default read-your-writes bound, so a session always sees
        its own writes no matter which follower serves the read.
        """
        if self._closed:
            raise SessionError("session is shut down")
        if read_preference == "replica" and min_lsn is None:
            min_lsn = self.last_commit_lsn or None
        return self.kernel.query(schema_name, query, use_cache=use_cache,
                                 read_preference=read_preference,
                                 min_lsn=min_lsn)

    # ------------------------------------------------------------------
    # Live queries (delta-maintained standing results)
    # ------------------------------------------------------------------

    def watch(self, schema_name: str, query, callback=None):
        """Register a standing query kept incrementally correct.

        ``query`` is query-language text or a
        :class:`~repro.geodb.query.Query`. Returns a
        :class:`~repro.core.live_queries.Watch`: ``watch.result()`` is
        the current maintained result, and every commit that actually
        changes the result content appends a
        :class:`~repro.core.live_queries.LiveUpdate` to
        ``watch.updates`` (and invokes ``callback``, when given).
        Commits that leave the content unchanged are silent. The watch
        is released by :meth:`unwatch` or when the session shuts down.
        """
        if self._closed:
            raise SessionError("session is shut down")
        return self.kernel.live.watch(self, schema_name, query,
                                      callback=callback)

    def unwatch(self, watch) -> None:
        """Release a standing query registered with :meth:`watch`."""
        self.kernel.live.unregister(watch)

    # ------------------------------------------------------------------
    # Customization installation
    # ------------------------------------------------------------------

    def install_directive(self, directive: CustomizationDirective,
                          persist: bool | None = None) -> None:
        """Register a compiled customization directive for this database."""
        if persist is None:
            persist = self.catalog is not None
        self.engine.register_directive(directive, persist=persist)

    def install_program(self, source: str, persist: bool | None = None
                        ) -> list[CustomizationDirective]:
        """Compile customization-language source and register the result."""
        from ..lang.compiler import compile_program

        directives = compile_program(
            source, self.database, self.library, self.presentations
        )
        for directive in directives:
            self.install_directive(directive, persist=persist)
        return directives

    # ------------------------------------------------------------------
    # The §4 browsing protocol
    # ------------------------------------------------------------------

    def connect(self, schema_name: str) -> Window:
        """Step 1: "The user first activates the generic interface, giving
        a db schema name as a parameter." Generates ``Get_Schema``."""
        self.database.get_schema_object(schema_name)  # fail fast
        self._schema_name = schema_name
        return self.dispatcher.open_schema(schema_name, self.context)

    def select_class(self, class_name: str) -> Window:
        """Step 2: select a class in the Schema window's class list.

        Goes through the list widget's ``select`` callback, so the full
        interface-event path runs. Requires :meth:`connect` first; when
        the Schema window was hidden by a ``Null`` customization the class
        may already be open — it is then brought forward directly.
        """
        if self._schema_name is None:
            raise SessionError("connect(schema) before selecting a class")
        window_name = f"schema_{self._schema_name}"
        schema_window = self.screen.window(window_name)
        class_list = schema_window.find("classes")
        if not isinstance(class_list, ListWidget):
            raise SessionError("schema window has no class list")
        class_list.select(class_name)
        return self.screen.window(f"classset_{class_name}")

    def select_instance(self, oid: str, class_name: str | None = None
                        ) -> Window:
        """Step 3: select an instance in a Class-set window (control list).

        ``class_name`` defaults to the class encoded in the oid prefix.
        """
        if class_name is None:
            class_name = oid.split("#", 1)[0]
        class_window = self.screen.window(f"classset_{class_name}")
        instance_list = class_window.find("instances")
        if not isinstance(instance_list, ListWidget):
            raise SessionError("class window has no instance list")
        instance_list.select(oid)
        return self.screen.window(f"instance_{oid}")

    def pick_on_map(self, class_name: str, col: int, row: int) -> str | None:
        """Select an instance by clicking the map (graphical area, §4)."""
        class_window = self.screen.window(f"classset_{class_name}")
        area = class_window.find("map")
        if area is None:
            raise SessionError("class window has no map area")
        return area.pick_at(col, row)

    def close(self, window_name: str | None = None) -> None:
        """Close one window — or, with no argument, the whole session.

        ``close()`` is an alias for :meth:`shutdown`: it detaches the
        session (and, for a privately owned kernel, its engine's rule
        manager) from the database bus. Before this alias existed a
        "closed" session's engine kept reacting to *every* sibling
        session's events, silently recording decisions on their behalf.
        """
        if window_name is None:
            self.shutdown()
            return
        self.screen.close(window_name)

    # ------------------------------------------------------------------
    # Output & explanation
    # ------------------------------------------------------------------

    def render(self, window_name: str | None = None) -> str:
        """Render one window (or the whole screen) as text."""
        if window_name is not None:
            return self.renderer.render(self.screen.window(window_name))
        visible = [w for w in self.screen.windows() if w.visible]
        return "\n\n".join(self.renderer.render(w) for w in visible)

    def scene(self) -> list[dict[str, Any]]:
        """Structured description of every open window (tests use this)."""
        return [w.describe() for w in self.screen.windows()]

    def explain_window(self, window_name: str) -> str:
        """Explanation mode (§2.2): why a window looks the way it does."""
        window = self.screen.window(window_name)
        event_id = window.get_property("event_id")
        if event_id is None:
            return "window was built outside an event context"
        return self.engine.explain(event_id)

    def stats(self) -> dict[str, Any]:
        return {
            "context": self.context.describe(),
            "session_id": self.session_id,
            "dispatcher": self.dispatcher.stats(),
            "engine": self.engine.stats(),
            "database": self.database.name,
            "events_published": self.database.bus.published_count,
            "buffer": self.database.stats_buffer(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """End the session: close windows, detach from the kernel.

        A session created without an explicit kernel owns a private one
        and shuts it down too — detaching its rule manager from the
        database bus, so the engine stops recording decisions for events
        raised by *other* sessions on the same database. A session that
        *joined* a kernel only detaches itself; the kernel (and shared
        engine) stay up for its siblings. Idempotent; also runs via the
        context manager protocol::

            with GISSession(db, user="u", application="a") as session:
                ...
        """
        if self._closed:
            return
        # Flip the flag first: the kernel's refresh and the server's
        # pushes check it, so no refresh can reopen a window — and
        # thereby re-register interest — while we are tearing down.
        self._closed = True
        for name in list(self.screen.names()):
            self.screen.close(name)
        self.dispatcher._origins.clear()
        self.kernel._detach(self)
        if self._owns_kernel:
            self.kernel.shutdown()

    def __enter__(self) -> "GISSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
