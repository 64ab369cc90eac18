"""Replication sources: how a follower reaches its leader.

:meth:`GeographicDatabase.follow` is deliberately transport-agnostic —
it talks to a *source* object with three methods:

``snapshot()``
    A full bootstrap document (see
    :meth:`GeographicDatabase.replication_snapshot`), also used for the
    snapshot handoff when the follower falls behind the shipper's
    retention window.
``poll(cursor, max_batches=...)``
    Shipped batch envelopes with LSN > cursor, in commit order, plus the
    shipped head LSN and the ``snapshot_required`` signal (the
    :meth:`LogShipper.poll` contract).
``head_lsn()``
    The newest shipped LSN, for lag reporting. It must not consult the
    serving kernel's replicas, one of which may be the asking follower.

Two implementations cover the deployment shapes:

* :class:`LocalReplicationSource` — leader and follower share a process
  (in-process read replicas, tests, benchmarks). Wraps the
  leader's :class:`~repro.geodb.wal.LogShipper` directly.
* :class:`RemoteReplicationSource` — the follower lives in another
  process and pulls over the wire through a
  :class:`~repro.net.client.GISClient` using the ``repl_snapshot`` and
  ``repl_poll`` contracts. Snapshots travel in chunks
  so large databases fit under the protocol's frame cap.
"""

from __future__ import annotations

from typing import Any

from ..errors import ReplicationError


class LocalReplicationSource:
    """In-process source: ship straight from the leader's WAL."""

    def __init__(self, leader, retain: int = 256):
        self.leader = leader
        self.shipper = leader.enable_shipping(retain=retain)

    def snapshot(self) -> dict[str, Any]:
        return self.leader.replication_snapshot()

    def poll(self, cursor: int, max_batches: int = 64) -> dict[str, Any]:
        return self.shipper.poll(cursor, max_batches=max_batches)

    def head_lsn(self) -> int:
        return self.shipper.head_lsn

    def __repr__(self) -> str:
        return f"LocalReplicationSource({self.leader.name!r})"


class RemoteReplicationSource:
    """Wire source: pull snapshots and batches from a serving daemon."""

    def __init__(self, client):
        self.client = client

    def snapshot(self) -> dict[str, Any]:
        """Fetch and assemble a chunked snapshot."""
        first = self.client.repl_snapshot(chunk=0)
        doc = first["snapshot"]
        chunks = first["chunks"]
        for index in range(1, chunks):
            part = self.client.repl_snapshot(chunk=index)
            doc["objects"].extend(part["snapshot"]["objects"])
        if len(doc["objects"]) != first["total_objects"]:
            raise ReplicationError(
                f"chunked snapshot reassembly mismatch: got "
                f"{len(doc['objects'])} objects, leader announced "
                f"{first['total_objects']}"
            )
        return doc

    def poll(self, cursor: int, max_batches: int = 64) -> dict[str, Any]:
        return self.client.repl_poll(cursor, max_batches=max_batches)

    def head_lsn(self) -> int:
        # A poll past every LSN ships only the head. (``repl_status``
        # asks the server's replicas, which may include this follower.)
        return self.client.repl_poll(2 ** 62, max_batches=1)["lsn"]

    def __repr__(self) -> str:
        return f"RemoteReplicationSource({self.client!r})"
