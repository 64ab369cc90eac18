"""The kernel daemon: one asyncio TCP server, one shared ``GISKernel``.

Architecture (one box per layer, matching the module split)::

    socket bytes ──► protocol.read_frame ──► contracts.validate_request
                                                      │
    socket bytes ◄── outbound queue ◄── Router.handle ┴─► GISKernel
                        ▲
                        └── push fan-out (kernel change feed)

Concurrency model:

* The event loop owns all sockets. Each connection runs a **reader
  task** (frames in → responses enqueued) and a single **writer task**
  draining a bounded per-connection queue — so pushes and responses
  interleave safely and a slow peer never blocks the loop.
* Request *handling* runs in the loop's default thread-pool executor:
  the kernel and database are thread-safe (MVCC + commit lock), one
  connection's requests stay serial (its reader awaits each response),
  and — crucially — concurrent connections' commit fsyncs land in the
  WAL's **group commit** barrier together instead of serializing.
* **Loop-safe** requests skip that hop: ``ping``, ``hello`` and a
  leader ``query`` whose result-cache entry is fresh
  (:meth:`Router.loop_safe`) run ``Router.handle`` on the loop itself,
  since the hop would cost more than the handler. A replica read never
  does: it may sleep waiting for a follower that this loop feeds. Nor
  does ``stats``: a remote-sourced follower's status asks its leader
  for the head LSN over a blocking socket. A
  commit that lands between the check and the handler turns the hit
  into a miss executed on the loop — the answer is still exact. Inline
  responses take the same outbound queue, so none overtakes a push.
* Push fan-out: the server is *one* listener on the kernel's change
  feed (the commit write-set). Each committed write-set arrives on the
  thread that committed it, after the kernel refreshed its windows, and
  hops onto the loop with one ``call_soon_threadsafe``; the loop then
  enqueues the per-connection pushes.

Backpressure: responses use a blocking ``queue.put`` (the connection's
own reader waits — that is the backpressure). Pushes use ``put_nowait``;
a full queue means a slow reader, and the push is **dropped** (counted
in ``stats()["pushes_dropped"]``) or the connection is dropped, per
``overflow`` policy — it is never allowed to wedge the loop.

A dropped connection — clean close, mid-frame cut, or protocol
violation — always runs the same teardown: its sessions are shut down
(idempotently; each leaves the kernel status tree's ``sessions``
exactly once) and its interest registrations die with them, so the
mutation fan-out stops addressing it.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import Any

from .. import obs
from ..core.kernel import GISKernel
from ..geodb.database import CommitWriteSet
from ..errors import NetError, ProtocolError
from . import protocol
from .contracts import make_error
from .router import ClientState, Router

_conn_ids = itertools.count(1)

#: seconds :meth:`GISServer.stop` waits for serve tasks to finish their
#: own teardown before it cancels the rest
STOP_GRACE_S = 5.0


class _Connection:
    """Loop-side bookkeeping for one client connection."""

    __slots__ = ("state", "reader", "writer", "outbound", "writer_task",
                 "reader_task", "closing")

    def __init__(self, state: ClientState, reader, writer, queue_size: int):
        self.state = state
        self.reader = reader
        self.writer = writer
        self.outbound: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.writer_task: asyncio.Task | None = None
        self.reader_task: asyncio.Task | None = None
        self.closing = False


class GISServer:
    """Serves one :class:`GISKernel` to many framed-protocol clients."""

    def __init__(self, kernel: GISKernel, host: str = "127.0.0.1",
                 port: int = 0, *, queue_size: int = 64,
                 overflow: str = "drop", name: str = "repro",
                 sndbuf: int | None = None):
        if overflow not in ("drop", "disconnect"):
            raise NetError(
                f"overflow policy must be 'drop' or 'disconnect', "
                f"got {overflow!r}"
            )
        self.kernel = kernel
        self.router = Router(kernel, server_name=name)
        self.host = host
        self.port = port          # 0 = ephemeral; real port set by start()
        self.queue_size = queue_size
        self.overflow = overflow
        #: shrink per-connection send buffering (OS + transport) so a
        #: slow reader back-pressures after ~this many bytes instead of
        #: after megabytes of kernel buffering; tests use this to make
        #: queue-overflow behavior observable quickly
        self.sndbuf = sndbuf
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_Connection] = set()
        #: every live _serve_connection task; unlike _connections (which
        #: a task leaves at the *start* of its own teardown) an entry
        #: stays until the task is truly done, so stop() can await the
        #: tail of an in-flight disconnect instead of destroying it
        self._serve_tasks: set[asyncio.Task] = set()
        self._subscribed = False
        #: connection, request and push counters, reported by stats()
        self.counters = {
            "connections_total": 0,
            "protocol_errors": 0,
            "requests_inline": 0,
            "requests_executor": 0,
            "pushes_sent": 0,
            "pushes_dropped": 0,
            "overflow_disconnects": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket, join the kernel's change feed and
        report :meth:`stats` in the kernel's status tree."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if not self._subscribed:
            self.kernel.add_change_listener(self._on_write_set)
            self.kernel.live.add_listener(self._on_live_update)
            self.kernel.attach_server(self.stats)
            self._subscribed = True

    async def stop(self) -> None:
        """Stop accepting, drop every connection, leave the change feed."""
        if self._subscribed:
            self.kernel.remove_change_listener(self._on_write_set)
            self.kernel.live.remove_listener(self._on_live_update)
            self.kernel.detach_server(self.stats)
            self._subscribed = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._connections):
            await self._close_connection(conn)
        # Every socket is closed now, so each serve task's read loop ends
        # at its next read, and a task already tearing its connection
        # down (a client that left as the server stopped) finishes that
        # teardown, session release included. Await them rather than
        # cancel them: a cancel would cut a teardown short mid-await and
        # end its task cancelled. Only a task still running after the
        # grace period (a read loop stuck on a full outbound queue) is
        # cancelled.
        tasks = [t for t in self._serve_tasks if not t.done()]
        if tasks:
            __, pending = await asyncio.wait(tasks, timeout=STOP_GRACE_S)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def stats(self) -> dict[str, Any]:
        return {
            "address": f"{self.host}:{self.port}",
            "connections": len(self._connections),
            **self.counters,
        }

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        state = ClientState(next(_conn_ids), peer=peer)
        if self.sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                import socket as _socket

                sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_SNDBUF,
                                self.sndbuf)
            writer.transport.set_write_buffer_limits(high=self.sndbuf)
        conn = _Connection(state, reader, writer, self.queue_size)
        self._connections.add(conn)
        self.counters["connections_total"] += 1
        conn.reader_task = asyncio.current_task()
        assert conn.reader_task is not None
        self._serve_tasks.add(conn.reader_task)
        conn.reader_task.add_done_callback(self._serve_tasks.discard)
        conn.writer_task = asyncio.ensure_future(self._write_loop(conn))
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass
        finally:
            await self._close_connection(conn)

    async def _read_loop(self, conn: _Connection) -> None:
        while not conn.closing:
            try:
                doc = await protocol.read_frame(conn.reader)
            except ProtocolError as exc:
                # The stream is unreadable past this point: tell the
                # client why (best effort) and hang up.
                self.counters["protocol_errors"] += 1
                await self._try_send(conn, make_error(
                    None, str(exc), type(exc).__name__
                ))
                return
            except (ConnectionError, OSError):
                return
            if doc is None:     # clean EOF
                return
            response = await self._process(conn.state, doc)
            await self._enqueue_response(conn, response)

    async def _process(self, state: ClientState,
                       doc: dict[str, Any]) -> dict[str, Any]:
        """Handle one request: on the loop when the router says it is
        loop-safe, off the loop otherwise.

        The durability wait for a ``txn`` response (if any) also runs in
        the executor: while this connection waits on the group-commit
        barrier, the loop keeps reading *other* connections, whose
        commits then join the same barrier.
        """
        if self.router.loop_safe(doc):
            self.counters["requests_inline"] += 1
            return self.router.handle(state, doc)
        self.counters["requests_executor"] += 1
        loop = self._loop
        assert loop is not None
        response = await loop.run_in_executor(
            None, self.router.handle, state, doc
        )
        wait = response.pop("_wait_durable", None)
        if wait is not None:
            await loop.run_in_executor(None, wait)
        return response

    async def _enqueue_response(self, conn: _Connection,
                                doc: dict[str, Any]) -> None:
        """Responses block (bounded) rather than drop: the peer asked."""
        if conn.closing:
            return
        await conn.outbound.put(protocol.encode_frame(doc))

    async def _try_send(self, conn: _Connection, doc: dict[str, Any]) -> None:
        """One best-effort frame on a dying connection."""
        try:
            conn.writer.write(protocol.encode_frame(doc))
            await asyncio.wait_for(conn.writer.drain(), timeout=1.0)
        except Exception:
            pass

    async def _write_loop(self, conn: _Connection) -> None:
        try:
            while True:
                frame = await conn.outbound.get()
                if frame is None:
                    return
                conn.writer.write(frame)
                await conn.writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            return

    async def _close_connection(self, conn: _Connection) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        conn.closing = True
        try:
            # Stop the writer first so no frame is half-written, then
            # close the socket, then release kernel resources.
            if conn.writer_task is not None:
                try:
                    conn.outbound.put_nowait(None)
                except asyncio.QueueFull:
                    conn.writer_task.cancel()
                try:
                    await conn.writer_task
                except asyncio.CancelledError:
                    pass
            try:
                conn.writer.close()
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        finally:
            # Session teardown touches the kernel → run off-loop like
            # any other kernel operation. Idempotent against
            # close_session races. stop() awaits a teardown in flight,
            # so the sessions are released before the server stops.
            loop = self._loop
            if loop is not None:
                await loop.run_in_executor(None, conn.state.close_sessions)
            else:                                   # pragma: no cover
                conn.state.close_sessions()

    # ------------------------------------------------------------------
    # Push fan-out
    # ------------------------------------------------------------------

    def _on_write_set(self, ws: CommitWriteSet) -> None:
        """Change-feed listener; runs on the committing thread."""
        self._to_loop(self.router.pushes_for, ws, "net.push.events")

    def _on_live_update(self, update) -> None:
        """Live-query manager listener; runs on the committing thread."""
        self._to_loop(self.router.live_pushes_for, update, "net.push.live")

    def _to_loop(self, route, change, metric: str) -> None:
        """Hop one committed change onto the loop for :meth:`_fan_out`."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._fan_out, route, change, metric)
        except RuntimeError:    # loop shut down between check and call
            return

    def _fan_out(self, route, change, metric: str) -> None:
        """Loop-side: enqueue the push frames ``route`` says each open
        connection is owed for ``change``."""
        for conn in list(self._connections):
            if not conn.closing:
                self._enqueue_pushes(conn, route(conn.state, change), metric)

    def _enqueue_pushes(self, conn: _Connection,
                        pushes: list[dict[str, Any]], metric: str) -> None:
        rec = obs.RECORDER
        for push in pushes:
            frame = protocol.encode_frame(push)
            try:
                conn.outbound.put_nowait(frame)
            except asyncio.QueueFull:
                self.counters["pushes_dropped"] += 1
                if self.overflow == "disconnect":
                    self.counters["overflow_disconnects"] += 1
                    asyncio.ensure_future(self._close_connection(conn))
                break
            else:
                self.counters["pushes_sent"] += 1
                if rec.enabled:
                    rec.inc(metric)


class ServerThread:
    """Host a :class:`GISServer` on a private event loop in a thread.

    The synchronous embedding used by tests, the benchmark and the CI
    smoke script::

        with ServerThread(kernel) as (host, port):
            client = GISClient(host, port)
            ...

    ``stop()`` (or leaving the ``with`` block) shuts the server down,
    which also closes the sessions of every still-connected client.
    """

    def __init__(self, kernel: GISKernel, host: str = "127.0.0.1",
                 port: int = 0, **server_kwargs: Any):
        self.server = GISServer(kernel, host, port, **server_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="gis-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):   # pragma: no cover
            raise NetError("server thread failed to start in time")
        if self._startup_error is not None:
            raise NetError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self.server.stop())
        finally:
            loop.close()

    def stop(self) -> None:
        loop, self._loop = self._loop, None
        if loop is None or not loop.is_running():
            return
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
