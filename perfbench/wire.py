"""Single-threaded closed-loop client over one or two connections.

One thread owns every socket and reads them all with ``select``, so a
push that arrives on the watcher's socket while the editor waits for
its commit response is timestamped on arrival. Each request is sent
only after the previous one completed (closed loop, one request in
flight). Times are ``time.perf_counter`` values, the same monotonic
clock the traced server stamps its spans with.
"""

from __future__ import annotations

import itertools
import select
import socket
import time

from repro.net.protocol import FrameDecoder, encode_frame

#: a request with no answer after this long counts as failed
TIMEOUT_S = 30.0


class WireError(Exception):
    """The server broke the connection or answered out of protocol."""


class Connection:
    """One socket; request ids start at ``id_base`` so that ids are
    unique across the run's connections (the traced server keys spans
    by them)."""

    def __init__(self, host: str, port: int, id_base: int):
        self.sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.ids = itertools.count(id_base)
        #: (arrival time, frame) for every push, drained by the caller
        self.pushes: list[tuple[float, dict]] = []
        self.responses: dict[int, tuple[float, dict]] = {}

    def close(self) -> None:
        self.sock.close()


class Wire:
    """Every connection of one load generator."""

    def __init__(self, host: str, port: int, roles: int):
        self.conns = [Connection(host, port, 1 + role * 1_000_000_000)
                      for role in range(roles)]
        self._by_fd = {c.sock.fileno(): c for c in self.conns}

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def _pump(self, timeout: float) -> bool:
        """Read whatever is ready on any socket; False on timeout."""
        ready, __, __ = select.select(list(self._by_fd), [], [], timeout)
        for fd in ready:
            conn = self._by_fd[fd]
            data = conn.sock.recv(1 << 20)
            # stamped after the read: a frame that arrived while this
            # thread was preempted is never dated before it was sent
            now = time.perf_counter()
            if not data:
                raise WireError("server closed the connection")
            for frame in conn.decoder.feed(data):
                if "push" in frame:
                    conn.pushes.append((now, frame))
                elif isinstance(frame.get("id"), int):
                    conn.responses[frame["id"]] = (now, frame)
                else:
                    raise WireError(f"connection-level error: {frame}")
        return bool(ready)

    def call(self, role: int, kind: str, **fields) -> tuple[dict, float,
                                                            float]:
        """Send one request; returns (response, send time, receive time)."""
        conn = self.conns[role]
        request_id = next(conn.ids)
        doc = {"id": request_id, "kind": kind}
        doc.update({k: v for k, v in fields.items() if v is not None})
        frame = encode_frame(doc)
        sent = time.perf_counter()
        conn.sock.sendall(frame)
        deadline = sent + TIMEOUT_S
        while request_id not in conn.responses:
            left = deadline - time.perf_counter()
            if left <= 0 or not self._pump(left):
                raise WireError(f"no response to {kind} #{request_id}")
        received, response = conn.responses.pop(request_id)
        return response, sent, received

    def wait_pushes(self, role: int, count: int, timeout: float
                    ) -> bool:
        """Read until ``role`` holds at least ``count`` pushes."""
        conn = self.conns[role]
        deadline = time.perf_counter() + timeout
        while len(conn.pushes) < count:
            left = deadline - time.perf_counter()
            if left <= 0 or not self._pump(left):
                return False
        return True

    def drain(self, quiet: float) -> None:
        """Read until no frame arrives for ``quiet`` seconds."""
        while self._pump(quiet):
            pass
