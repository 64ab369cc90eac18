"""The shared multi-session server core.

The paper's architecture (§3, Figure 1) has *one* active DBMS serving
*many* interactive users: "the control of the application is made by the
active mechanism of the DBMS" while each user carries only their own
interaction context. A :class:`GISKernel` is that server side — it owns
the read-mostly state every session shares:

* the database handle and its event bus,
* the :class:`~repro.uilib.library.InterfaceObjectLibrary` of interface
  objects (§3.4),
* the :class:`~repro.uilib.presentation.PresentationRegistry`,
* one :class:`~repro.core.rule_engine.CustomizationEngine` holding the
  customization rule set,
* one :class:`~repro.core.builder.GenericInterfaceBuilder`.

Sessions created through :meth:`GISKernel.session` are lightweight: a
:class:`~repro.core.context.Context`, a private
:class:`~repro.core.dispatcher.Screen`, and a
:class:`~repro.core.dispatcher.Dispatcher` stamped with a ``session_id``.
Every primitive event a session raises carries that id, so the shared
engine records customization decisions *per session*.

Committed changes reach the sessions through one feed: the kernel's
database write-set listener. Per commit (or replicated batch on a
follower) it maintains the live watches, refreshes the auto-refresh
windows that display a touched class or instance, and hands the
write-set to change listeners such as a server's push fan-out. The
listener is held while any session or change listener is attached, so
a kernel nobody uses costs the commit path nothing.

``GISSession(db, ...)`` without a kernel still works — it creates a
private single-session kernel, preserving the historical one-stack-per-
session behavior (and its engine isolation) for existing callers.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from .. import obs
from ..errors import ReplicationError, SessionError
from ..geodb.catalog import MetadataCatalog
from ..geodb.database import CommitWriteSet, GeographicDatabase
from ..uilib.composite import install_standard_composites
from ..uilib.library import InterfaceObjectLibrary
from ..uilib.presentation import PresentationRegistry
from .builder import GenericInterfaceBuilder
from .customization import CustomizationDirective
from .live_queries import LiveQueryManager
from .query_cache import QueryResultCache
from .rule_engine import CustomizationEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle with session.py
    from .session import GISSession

_session_ids = itertools.count(1)


class GISKernel:
    """Shared customization stack for many concurrent sessions.

    One kernel per database (or per isolated tenant); any number of
    sessions. The kernel is *read-mostly*: sessions only read the library,
    builder and rule set, while installs of new directives go through
    :meth:`install_directive` / :meth:`install_program` and invalidate the
    engine's decision cache via the rule manager's generation counter.
    """

    def __init__(
        self,
        database: GeographicDatabase,
        *,
        library: InterfaceObjectLibrary | None = None,
        engine: CustomizationEngine | None = None,
        presentations: PresentationRegistry | None = None,
        catalog: MetadataCatalog | None = None,
        selection_cache: bool = True,
    ):
        self.database = database
        self.catalog = catalog
        if library is None:
            library = InterfaceObjectLibrary(catalog)
            install_standard_composites(library, persist=catalog is not None)
        self.library = library
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else CustomizationEngine(
            database.bus, catalog=catalog, selection_cache=selection_cache
        )
        self.presentations = presentations or PresentationRegistry()
        self.builder = GenericInterfaceBuilder(library, self.presentations)
        self.query_cache = QueryResultCache(database)
        self.live = LiveQueryManager(self)
        self._sessions: dict[str, "GISSession"] = {}
        #: post-commit consumers besides the sessions (a server's pushes)
        self._change_listeners: list[Callable[[CommitWriteSet], None]] = []
        #: guards the session registry and the feed attach/detach
        self._lock = threading.Lock()
        #: read replicas: name -> (follower db, its private result cache)
        self._replicas: dict[str, tuple[GeographicDatabase,
                                        QueryResultCache]] = {}
        self._replica_rr = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------

    def session(
        self,
        user: str | None = None,
        category: str | None = None,
        application: str | None = None,
        scale_denominator: float | None = None,
        time_tag: str | None = None,
        auto_refresh: bool = False,
    ) -> "GISSession":
        """Open a lightweight session sharing this kernel's stack."""
        from .session import GISSession

        return GISSession(
            self.database,
            user=user,
            category=category,
            application=application,
            scale_denominator=scale_denominator,
            time_tag=time_tag,
            auto_refresh=auto_refresh,
            kernel=self,
        )

    def _attach(self, session: "GISSession") -> str:
        """Register a session and hand out its identity (called by
        ``GISSession.__init__``)."""
        if self._closed:
            raise SessionError("kernel is shut down")
        session_id = f"s{next(_session_ids)}"
        with self._lock:
            self._sessions[session_id] = session
            self._sync_feed()
        return session_id

    def _detach(self, session: "GISSession") -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)
            self._sync_feed()
        self.live.drop_session(session.session_id)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    def sessions(self) -> list["GISSession"]:
        """The currently attached sessions, in attach order."""
        return list(self._sessions.values())

    # ------------------------------------------------------------------
    # Transactions: isolated snapshots per session
    # ------------------------------------------------------------------

    def transaction(self, session: "GISSession | None" = None):
        """Open a snapshot-isolated transaction, optionally for a session.

        Each call takes an independent snapshot, so concurrent sessions
        read consistent (and mutually invisible) states until commit.
        When ``session`` is given, the commit's mutation events and its
        write-set carry the ``session_id`` (wire ``mutation`` pushes
        report it as ``session``).
        """
        if self._closed:
            raise SessionError("kernel is shut down")
        session_id = None
        if session is not None:
            if self._sessions.get(session.session_id) is not session:
                raise SessionError(
                    f"session {session.session_id!r} is not attached to "
                    "this kernel"
                )
            session_id = session.session_id
        txn = self.database.transaction(session_id=session_id)
        if session is not None:
            # Read-your-writes: the session remembers its newest commit
            # LSN, and replica-routed queries wait for it (see `query`).
            txn._on_commit = session._note_commit
        return txn

    # ------------------------------------------------------------------
    # Read replicas: attach followers, route reads
    # ------------------------------------------------------------------

    def attach_replica(self, replica: GeographicDatabase,
                       name: str | None = None) -> str:
        """Register a follower database as a read target.

        ``replica`` must be in follower mode (created by
        :meth:`GeographicDatabase.follow` against this kernel's leader).
        Replica-routed queries get their own snapshot-consistent result
        cache, validated against the *follower's* class versions — the
        replay path bumps them exactly like leader commits do.
        """
        if self._closed:
            raise SessionError("kernel is shut down")
        status = replica.replication_status()
        if status.get("role") != "follower":
            raise ReplicationError(
                f"database {replica.name!r} is not a follower — only "
                "follower-mode databases can serve as read replicas"
            )
        name = name or replica.name
        if name in self._replicas:
            raise ReplicationError(f"replica {name!r} is already attached")
        self._replicas[name] = (replica, QueryResultCache(replica))
        return name

    def detach_replica(self, name: str) -> None:
        self._replicas.pop(name, None)

    def replicas(self) -> list[str]:
        return list(self._replicas)

    def replication_status(self) -> dict[str, Any]:
        """Leader status plus per-replica LSN/lag (``replication`` in
        :meth:`stats`)."""
        return {
            "leader": self.database.replication_status(),
            "replicas": [db.replication_status()
                         for db, _cache in self._replicas.values()],
        }

    def _pick_replica(self) -> tuple[GeographicDatabase, QueryResultCache]:
        names = list(self._replicas)
        name = names[self._replica_rr % len(names)]
        self._replica_rr += 1
        return self._replicas[name]

    @staticmethod
    def _await_lsn(replica: GeographicDatabase, min_lsn: int | None,
                   timeout: float) -> None:
        """Catch the follower up to ``min_lsn`` (read-your-writes wait).

        Always polls at least once, so even an unconstrained replica
        read reflects everything the leader had shipped when the query
        arrived.
        """
        deadline = time.monotonic() + timeout
        while True:
            replica.poll_replication()
            if min_lsn is None or replica.replication_lsn >= min_lsn:
                return
            if time.monotonic() >= deadline:
                raise ReplicationError(
                    f"replica {replica.name!r} did not reach LSN "
                    f"{min_lsn} within {timeout:.1f}s "
                    f"(at {replica.replication_lsn})"
                )
            time.sleep(0.002)

    # ------------------------------------------------------------------
    # Queries: shared, snapshot-consistent result cache
    # ------------------------------------------------------------------

    def query(self, schema_name: str, query, *, use_cache: bool = True,
              read_preference: str = "leader", min_lsn: int | None = None,
              replica_wait_timeout: float = 5.0):
        """Execute an analysis-mode query against the latest commit.

        ``query`` is a :class:`~repro.geodb.query.Query` or query-language
        text. Results come from the kernel-wide
        :class:`~repro.core.query_cache.QueryResultCache`, so repeated
        queries from any session are served without re-scanning until a
        commit touches one of the classes they read
        (``report["cache"]`` says which happened). ``use_cache=False``
        bypasses the cache without populating it.

        ``read_preference="replica"`` routes the read to an attached
        follower (round-robin), falling back to the leader when none is
        attached. ``min_lsn`` is the read-your-writes bound: the chosen
        follower first catches up to that LSN (sessions pass their last
        commit LSN automatically), raising
        :class:`~repro.errors.ReplicationError` if it cannot within
        ``replica_wait_timeout`` seconds.
        """
        if self._closed:
            raise SessionError("kernel is shut down")
        if read_preference not in ("leader", "replica"):
            raise SessionError(
                f"unknown read preference {read_preference!r} "
                "(expected 'leader' or 'replica')"
            )
        if isinstance(query, str):
            from ..geodb.query_language import parse_query

            query = parse_query(query)
        cache = self.query_cache
        if read_preference == "replica" and self._replicas:
            replica, cache = self._pick_replica()
            self._await_lsn(replica, min_lsn, replica_wait_timeout)
            rec = obs.RECORDER
            if rec.enabled:
                rec.inc("query.routed", target="replica")
        if not use_cache:
            return cache.engine.execute(schema_name, query)
        return cache.execute(schema_name, query)

    # ------------------------------------------------------------------
    # Customization installation (shared rule set)
    # ------------------------------------------------------------------

    def install_directive(self, directive: CustomizationDirective,
                          persist: bool | None = None) -> None:
        """Register a compiled directive with the shared engine."""
        if persist is None:
            persist = self.catalog is not None
        self.engine.register_directive(directive, persist=persist)

    def install_program(self, source: str, persist: bool | None = None
                        ) -> list[CustomizationDirective]:
        """Compile customization-language source into the shared engine."""
        from ..lang.compiler import compile_program

        directives = compile_program(
            source, self.database, self.library, self.presentations
        )
        for directive in directives:
            self.install_directive(directive, persist=persist)
        return directives

    # ------------------------------------------------------------------
    # The change feed: one write-set listener for every consumer
    # ------------------------------------------------------------------

    def add_change_listener(
            self, listener: Callable[[CommitWriteSet], None]) -> None:
        """Receive each committed write-set after the kernel's own
        consumers (live watches, window refresh) have seen it."""
        with self._lock:
            if listener not in self._change_listeners:
                self._change_listeners.append(listener)
            self._sync_feed()

    def remove_change_listener(
            self, listener: Callable[[CommitWriteSet], None]) -> None:
        with self._lock:
            if listener in self._change_listeners:
                self._change_listeners.remove(listener)
            self._sync_feed()

    def _sync_feed(self) -> None:
        """Hold the database listener exactly while it has a consumer
        (caller holds ``_lock``)."""
        if not self._closed and (self._sessions or self._change_listeners):
            self.database.add_write_set_listener(self._on_write_set)
        else:
            self.database.remove_write_set_listener(self._on_write_set)

    def _on_write_set(self, ws: CommitWriteSet) -> None:
        """Runs on the committing (or replica-applying) thread."""
        self.live._on_write_set(ws)
        for session in list(self._sessions.values()):
            # A session mid-shutdown (another thread flipped _closed but
            # has not finished detaching) must not have windows reopened
            # under it — refreshing would re-register interest the close
            # path just released.
            if not session._closed:
                session.dispatcher.refresh(ws)
        for listener in list(self._change_listeners):
            listener(ws)

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The status tree: every always-on counter of the stack, once.

        JSON-safe, assembled from the components' own ``stats()`` /
        ``status()`` dicts. The CLI ``status`` command and the wire
        ``stats`` request both report exactly this tree. ``metrics`` is
        the obs registry export (histograms and the labelled counters no
        component keeps), or ``None`` while observability is off.
        """
        db = self.database
        columns = db._column_cache
        return {
            "database": {"name": db.name, **db.stats(),
                         "events_published": db.bus.published_count},
            "wal": db.wal.stats() if db.wal is not None else None,
            "columns": columns.status() if columns is not None else None,
            "replication": self.replication_status(),
            "engine": self.engine.stats(),
            "query_cache": self.query_cache.stats(),
            "live": {"summary": self.live.stats(),
                     "watches": self.live.watch_status()},
            "sessions": {sid: session.stats()
                         for sid, session in list(self._sessions.items())},
            "metrics": (obs.RECORDER.registry.export()
                        if obs.is_enabled() else None),
        }

    def shutdown(self) -> None:
        """End every attached session and release the database feed and
        bus.

        Idempotent; also runs via the context manager protocol::

            with GISKernel(db) as kernel:
                session = kernel.session(user="ana")
        """
        if self._closed:
            return
        for session in list(self._sessions.values()):
            session.shutdown()
        self.live.shutdown()
        with self._lock:
            self._closed = True
            self._sync_feed()
        if self._owns_engine:
            self.engine.manager.detach()

    def __enter__(self) -> "GISKernel":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
