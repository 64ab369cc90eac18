"""The request router: frames in, kernel operations out.

One :class:`Router` serves every connection of a
:class:`~repro.net.server.GISServer`. It owns no sockets and no event
loop — it is a plain synchronous object mapping one validated request
document to one response document, so the whole dispatch surface is
testable without networking.

Per-connection state lives in :class:`ClientState`: the sessions the
connection opened (a remote client may hold several, mirroring a user
with several windowsets) and its mutation-push subscriptions. The
server guarantees one connection's requests are handled serially, so
``ClientState`` needs no locking; the kernel and database underneath
are shared across connections and rely on their own synchronization.

Error policy: every :class:`~repro.errors.ReproError` raised while
handling a request becomes an ``ok: false`` response whose ``code`` is
the error class name — the connection survives, because a rejected
request leaves the kernel untouched (contract validation runs first,
and database mutations are transactional). Only stream-level framing
errors cost the client its connection (see ``server.py``).
"""

from __future__ import annotations

from typing import Any, Callable

from .. import obs
from ..errors import ProtocolError, ReproError, SessionError
from ..core.kernel import GISKernel
from ..core.session import GISSession
from ..geodb.database import CommitWriteSet
from . import contracts
from .contracts import make_response

#: subscription wildcard: push every committed mutation
ALL_CLASSES = "*"

#: kinds whose handlers touch no lock and no I/O, so the server answers
#: them on its event loop. ``stats`` is not one: a follower's status asks
#: its replication source for the head LSN, which for a remote source is
#: a blocking round trip (possibly to this very server).
LOOP_SAFE_KINDS = frozenset({"ping", "hello"})


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of a result structure to JSON-safe types.

    Stats and scene dictionaries are mostly scalars already; anything
    exotic (geometries in projected rows, enum members) degrades to its
    ``str()`` form rather than failing the whole response.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


class ClientState:
    """Everything the server remembers about one connection."""

    __slots__ = ("conn_id", "sessions", "subscriptions", "watches", "peer",
                 "repl_snapshot")

    def __init__(self, conn_id: int, peer: str = "?"):
        self.conn_id = conn_id
        self.peer = peer
        #: session_id -> the GISSession this connection opened
        self.sessions: dict[str, GISSession] = {}
        #: class names whose committed mutations this connection wants
        #: pushed (may contain :data:`ALL_CLASSES`)
        self.subscriptions: set[str] = set()
        #: watch_id -> the live-query Watch this connection registered;
        #: ``live_update`` pushes route by watch id, so a connection
        #: only ever hears about its own watches
        self.watches: dict[str, Any] = {}
        #: in-flight chunked replication snapshot: (header doc, object
        #: chunks); built on chunk 0, dropped after the last chunk so a
        #: follower always assembles one consistent cut
        self.repl_snapshot: tuple[dict[str, Any], list[list]] | None = None

    def close_sessions(self) -> int:
        """Shut down every session this connection still holds.

        Idempotent (``GISSession.shutdown`` is); used both by the
        ``close_session`` request and by the disconnect path, in either
        order. Returns the number of sessions that were still open.
        """
        closed = 0
        for session in list(self.sessions.values()):
            if not session._closed:
                closed += 1
            session.shutdown()
        self.sessions.clear()
        # session.shutdown() already released the watches kernel-side
        # (kernel._detach drops them); this just clears the routing map
        self.watches.clear()
        return closed


class Router:
    """Maps validated request documents onto kernel/session operations."""

    def __init__(self, kernel: GISKernel, server_name: str = "repro"):
        self.kernel = kernel
        self.server_name = server_name
        self._handlers: dict[str, Callable] = {
            "hello": self._handle_hello,
            "open_session": self._handle_open_session,
            "close_session": self._handle_close_session,
            "event": self._handle_event,
            "query": self._handle_query,
            "render": self._handle_render,
            "scene": self._handle_scene,
            "txn": self._handle_txn,
            "subscribe": self._handle_subscribe,
            "unsubscribe": self._handle_unsubscribe,
            "watch": self._handle_watch,
            "unwatch": self._handle_unwatch,
            "stats": self._handle_stats,
            "ping": self._handle_ping,
            "repl_snapshot": self._handle_repl_snapshot,
            "repl_poll": self._handle_repl_poll,
            "repl_status": self._handle_repl_status,
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, state: ClientState, doc: dict[str, Any]
               ) -> dict[str, Any]:
        """Validate and execute one request; always returns a response.

        Never raises for request-level problems — those become error
        responses. (A bug in a handler itself would propagate, which the
        server turns into a disconnect rather than masking it.)
        """
        request_id = doc.get("id") if isinstance(doc.get("id"), int) else None
        try:
            contracts.validate_request(doc)
        except ProtocolError as exc:
            return contracts.make_error(request_id, str(exc),
                                        type(exc).__name__)
        kind = doc["kind"]
        rec = obs.RECORDER
        if rec.enabled:
            rec.inc("net.requests", kind=kind)
        try:
            return self._handlers[kind](state, doc)
        except ReproError as exc:
            return contracts.make_error(doc["id"], str(exc),
                                        type(exc).__name__)

    def loop_safe(self, doc: dict[str, Any]) -> bool:
        """Whether ``handle(doc)`` may run on the server's event loop.

        True for :data:`LOOP_SAFE_KINDS` and for a leader, cached
        ``query`` whose text the result cache holds fresh right now.
        Never true for a replica read: ``_await_lsn`` sleeps while it
        polls a follower, which this same loop may be feeding. Never
        true for ``stats`` either (see :data:`LOOP_SAFE_KINDS`).
        """
        kind = doc.get("kind")
        if kind in LOOP_SAFE_KINDS:
            return True
        if kind != "query" or doc.get("use_cache", True) is not True \
                or doc.get("read_preference", "leader") != "leader":
            return False
        schema, text = doc.get("schema"), doc.get("text")
        return isinstance(schema, str) and isinstance(text, str) \
            and self.kernel.query_cache.fresh(schema, text)

    def _session(self, state: ClientState, doc: dict[str, Any]) -> GISSession:
        session = state.sessions.get(doc["session"])
        if session is None:
            raise SessionError(
                f"this connection has no open session {doc['session']!r}"
            )
        return session

    # ------------------------------------------------------------------
    # Handlers (one per request kind)
    # ------------------------------------------------------------------

    def _handle_hello(self, state: ClientState, doc: dict) -> dict:
        return make_response(
            doc["id"],
            server=self.server_name,
            database=self.kernel.database.name,
            protocol=contracts.PROTOCOL_VERSION,
            schemas=self.kernel.database.schema_names(),
        )

    def _handle_open_session(self, state: ClientState, doc: dict) -> dict:
        session = self.kernel.session(
            user=doc.get("user"),
            category=doc.get("category"),
            application=doc.get("application"),
            scale_denominator=doc.get("scale_denominator"),
            time_tag=doc.get("time_tag"),
            auto_refresh=bool(doc.get("auto_refresh", False)),
        )
        state.sessions[session.session_id] = session
        return make_response(doc["id"], session=session.session_id)

    def _handle_close_session(self, state: ClientState, doc: dict) -> dict:
        session = state.sessions.pop(doc["session"], None)
        if session is None:
            # closing twice is legal: the disconnect path may have won
            return make_response(doc["id"], closed=False)
        was_open = not session._closed
        session.shutdown()
        return make_response(doc["id"], closed=was_open)

    def _handle_event(self, state: ClientState, doc: dict) -> dict:
        session = self._session(state, doc)
        op = doc["op"]
        if op == "open_schema":
            window = session.connect(doc["schema"])
            return make_response(doc["id"], window=window.name,
                                 visible=window.visible)
        if op == "select_class":
            window = session.select_class(doc["name"])
            return make_response(doc["id"], window=window.name,
                                 visible=window.visible)
        if op == "select_instance":
            window = session.select_instance(doc["oid"], doc.get("class"))
            return make_response(doc["id"], window=window.name,
                                 visible=window.visible)
        if op == "pick":
            oid = session.pick_on_map(doc["class"], doc["col"], doc["row"])
            return make_response(doc["id"], oid=oid)
        # op == "close_window" (the contract already rejected anything else)
        session.close(doc["window"])
        return make_response(doc["id"], window=doc["window"])

    def _handle_query(self, state: ClientState, doc: dict) -> dict:
        result = self.kernel.query(
            doc["schema"], doc["text"],
            use_cache=bool(doc.get("use_cache", True)),
            read_preference=doc.get("read_preference", "leader"),
            min_lsn=doc.get("min_lsn"),
        )
        report = result.report
        return make_response(
            doc["id"],
            oids=result.oids(),
            count=len(result),
            rows=_jsonable(result.rows) if result.rows is not None else None,
            plan=report.get("plan"),
            cache=report.get("cache"),
        )

    def _handle_render(self, state: ClientState, doc: dict) -> dict:
        session = self._session(state, doc)
        return make_response(doc["id"],
                             text=session.render(doc.get("window")))

    def _handle_scene(self, state: ClientState, doc: dict) -> dict:
        session = self._session(state, doc)
        return make_response(doc["id"], windows=_jsonable(session.scene()))

    def _handle_txn(self, state: ClientState, doc: dict) -> dict:
        """Apply one mutation batch as a single transaction.

        Wire values arrive in each attribute type's JSON encoding (the
        same one the WAL uses) and are decoded against the schema before
        staging. The commit itself is staged-only
        (``wait_durable=False``); the caller — normally the server's
        executor — is responsible for :func:`wait` before answering, so
        concurrent connections' fsyncs collapse into one group barrier.
        """
        session = None
        if doc.get("session") is not None:
            session = self._session(state, doc)
        wait = bool(doc.get("wait_durable", True))
        txn = self.kernel.transaction(session)
        oids: list[str] = []
        try:
            for entry in doc["ops"]:
                op = entry["op"]
                if op == "insert":
                    values = self._decode_values(
                        entry["schema"], entry["class"], entry["values"]
                    )
                    oids.append(txn.insert(
                        entry["schema"], entry["class"], values,
                        oid=entry.get("oid"),
                    ))
                elif op == "update":
                    location = self.kernel.database.locate_object(
                        entry["oid"]
                    )
                    if location is None:
                        # let txn.update raise its canonical error
                        txn.update(entry["oid"], entry["changes"])
                    changes = self._decode_values(
                        location[0], location[1], entry["changes"]
                    )
                    txn.update(entry["oid"], changes)
                else:
                    txn.delete(entry["oid"])
            txn.commit(wait_durable=False)
        except Exception:
            if txn.state.name == "ACTIVE":
                txn.abort()
            raise
        response = make_response(doc["id"], committed=True, oids=oids)
        if wait:
            # hand the barrier wait back to the caller so it can happen
            # off the event loop; see GISServer._process
            response["_wait_durable"] = txn.wait_durable
        return response

    def _decode_values(self, schema_name: str, class_name: str,
                       raw: dict[str, Any]) -> dict[str, Any]:
        schema = self.kernel.database.get_schema_object(schema_name)
        attrs = {
            a.name: a for a in schema.effective_attributes(class_name)
        }
        decoded = {}
        for name, value in raw.items():
            attr = attrs.get(name)
            if value is None or attr is None:
                # unknown attribute: pass through so the transaction
                # layer raises its canonical SchemaError
                decoded[name] = value
            else:
                decoded[name] = attr.type.decode(value)
        return decoded

    def _handle_subscribe(self, state: ClientState, doc: dict) -> dict:
        classes = doc["classes"]
        for name in classes:
            if not isinstance(name, str):
                raise ProtocolError("'subscribe' classes must be strings")
        state.subscriptions.update(classes)
        return make_response(doc["id"],
                             subscribed=sorted(state.subscriptions))

    def _handle_unsubscribe(self, state: ClientState, doc: dict) -> dict:
        classes = doc.get("classes")
        if classes is None:
            state.subscriptions.clear()
        else:
            state.subscriptions.difference_update(classes)
        return make_response(doc["id"],
                             subscribed=sorted(state.subscriptions))

    def _handle_watch(self, state: ClientState, doc: dict) -> dict:
        """Register a live query on one of this connection's sessions.

        The response carries the initial result snapshot; every commit
        that changes the result afterwards arrives as a ``live_update``
        push on this connection only.
        """
        session = self._session(state, doc)
        watch = session.watch(doc["schema"], doc["text"])
        state.watches[watch.watch_id] = watch
        result = watch.result()
        return make_response(
            doc["id"],
            watch=watch.watch_id,
            session=session.session_id,
            oids=result.oids(),
            count=len(result),
            rows=_jsonable(result.rows) if result.rows is not None else None,
        )

    def _handle_unwatch(self, state: ClientState, doc: dict) -> dict:
        watch = state.watches.pop(doc["watch"], None)
        if watch is None:
            # unwatching twice (or after close_session) is legal
            return make_response(doc["id"], released=False)
        was_active = watch.active
        watch.unwatch()
        return make_response(doc["id"], released=was_active)

    def _handle_stats(self, state: ClientState, doc: dict) -> dict:
        return make_response(doc["id"], kernel=self.kernel.stats())

    def _handle_ping(self, state: ClientState, doc: dict) -> dict:
        return make_response(doc["id"], pong=True)

    # ------------------------------------------------------------------
    # Replication: serve followers over the wire
    # ------------------------------------------------------------------

    #: objects per replication snapshot chunk — keeps every frame well
    #: under the protocol's frame cap even for fat geometries
    SNAPSHOT_CHUNK = 512

    def _handle_repl_snapshot(self, state: ClientState, doc: dict) -> dict:
        """One chunk of a bootstrap snapshot.

        Chunk 0 enables shipping (so the snapshot's LSN is always inside
        the shipper's retention window), takes one consistent cut, and
        caches it on the connection; later chunks page through the cut's
        objects. The cache is dropped after the last chunk — or replaced
        whenever chunk 0 is requested again.
        """
        db = self.kernel.database
        chunk = doc.get("chunk", 0)
        if chunk == 0 or state.repl_snapshot is None:
            db.enable_shipping()
            full = db.replication_snapshot()
            objects = full.pop("objects")
            parts = [
                objects[i:i + self.SNAPSHOT_CHUNK]
                for i in range(0, len(objects), self.SNAPSHOT_CHUNK)
            ] or [[]]
            full["total_objects"] = len(objects)
            state.repl_snapshot = (full, parts)
        header, parts = state.repl_snapshot
        if not 0 <= chunk < len(parts):
            raise ProtocolError(
                f"replication snapshot chunk {chunk} out of range "
                f"(snapshot has {len(parts)} chunk(s))"
            )
        snapshot = dict(header) if chunk == 0 else {}
        snapshot["objects"] = parts[chunk]
        if chunk == len(parts) - 1:
            state.repl_snapshot = None
        return make_response(
            doc["id"],
            snapshot=snapshot,
            chunk=chunk,
            chunks=len(parts),
            total_objects=header["total_objects"],
            lsn=header["lsn"],
        )

    def _handle_repl_poll(self, state: ClientState, doc: dict) -> dict:
        shipper = self.kernel.database.enable_shipping()
        result = shipper.poll(doc["cursor"],
                              max_batches=doc.get("max_batches", 64))
        return make_response(doc["id"], **result)

    def _handle_repl_status(self, state: ClientState, doc: dict) -> dict:
        return make_response(
            doc["id"],
            lsn=self.kernel.database.replication_lsn,
            status=_jsonable(self.kernel.replication_status()),
        )

    # ------------------------------------------------------------------
    # Push fan-out
    # ------------------------------------------------------------------

    def pushes_for(self, state: ClientState,
                   ws: CommitWriteSet) -> list[dict[str, Any]]:
        """The ``mutation`` push frames a committed write-set owes this
        connection: one per row operation the connection hears about.

        A connection hears about an operation through either channel:

        * an explicit class subscription (``subscribe``), or
        * a session it holds whose dispatcher is *interested* — the same
          ``auto_refresh`` + open-window test the kernel's window refresh
          uses, so remote clients see exactly the refreshes a local
          screen would.
        """
        sessions = [
            (sid, session.dispatcher)
            for sid, session in state.sessions.items()
            if not session._closed and session.dispatcher.auto_refresh
        ]
        if not state.subscriptions and not sessions:
            return []
        everything = ALL_CLASSES in state.subscriptions
        pushes = []
        for op in ws.ops:
            reason = ("subscription" if everything
                      or op.class_name in state.subscriptions else None)
            interested = [sid for sid, dispatcher in sessions
                          if dispatcher.interested_in(op)]
            if interested and reason is None:
                reason = "interest"
            if reason is None:
                continue
            pushes.append(contracts.make_push(
                "mutation",
                kind=op.op,
                **{"class": op.class_name},
                oid=op.oid,
                session=ws.session_id,
                sessions=interested,
                reason=reason,
            ))
        return pushes

    def live_pushes_for(self, state: ClientState,
                        update) -> list[dict[str, Any]]:
        """The ``live_update`` push frames one result change owes this
        connection.

        Routing is by watch id: only the connection that registered the
        watch hears about it, and (because the manager only notifies
        when content changed) only when its result actually changed.
        """
        watch = state.watches.get(update.watch_id)
        if watch is None or not watch.active:
            return []
        result = update.result
        return [contracts.make_push(
            "live_update",
            watch=update.watch_id,
            session=update.session_id,
            schema=update.schema_name,
            reason=update.reason,
            oids=result.oids(),
            count=len(result),
            rows=_jsonable(result.rows) if result.rows is not None else None,
            ts=update.commit_ts,
        )]
