"""Replication and read scale-out over the wire.

Real sockets end to end: a follower bootstraps from a serving leader
through :class:`RemoteReplicationSource` (chunked snapshots, incremental
polls), the kernel routes ``read_preference="replica"`` queries to
attached followers with a read-your-writes LSN wait, and
:class:`GISClient` survives a server restart by redialing — but only
ever resends idempotent request kinds (a ``txn`` is never retried).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.kernel import GISKernel
from repro.errors import NetClientError, NetError, ProtocolError
from repro.geodb import (
    GeographicDatabase,
    LocalReplicationSource,
    MemoryPager,
    RemoteReplicationSource,
    WriteAheadLog,
)
from repro.net import GISClient, ServerThread
from repro.net.router import Router
from repro.workloads import build_mix_schema
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA, snapshot_state


def make_leader_kernel(n=20) -> GISKernel:
    db = GeographicDatabase("leader", pager=MemoryPager())
    db.register_schema(build_mix_schema())
    db.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none"))
    for i in range(n):
        db.insert(MIX_SCHEMA, MIX_CLASS, {"name": f"w{i:02d}", "size": i})
    return GISKernel(db)


@pytest.fixture()
def kernel():
    kernel = make_leader_kernel()
    yield kernel
    kernel.shutdown()


@pytest.fixture()
def server(kernel):
    with ServerThread(kernel) as (host, port):
        yield (host, port, kernel)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestWireReplication:
    def test_chunked_bootstrap_and_poll(self, server, monkeypatch):
        monkeypatch.setattr(Router, "SNAPSHOT_CHUNK", 8)
        host, port, kernel = server
        with GISClient(host, port) as client:
            assert client.repl_snapshot(0)["chunks"] == 3  # 20 objects / 8
            follower = GeographicDatabase.follow(
                RemoteReplicationSource(client), name="wire-f")
            assert snapshot_state(follower) \
                == snapshot_state(kernel.database)
            # incremental: new leader commits arrive via repl_poll
            kernel.database.insert(MIX_SCHEMA, MIX_CLASS,
                                   {"name": "late", "size": 99})
            assert follower.poll_replication() == 1
            assert snapshot_state(follower) \
                == snapshot_state(kernel.database)

    def test_repl_status_over_wire(self, server):
        host, port, kernel = server
        with GISClient(host, port) as client:
            client.repl_snapshot(0)  # enables shipping on the leader
            status = client.repl_status()
            assert status["lsn"] == kernel.database.replication_lsn
            assert status["status"]["leader"]["role"] == "leader"

    def test_stats_on_a_remote_follower_never_blocks_the_loop(
            self, server, monkeypatch):
        """A kernel over a remote-sourced follower asks the leader for its
        head LSN inside ``stats``: a blocking round trip. While one such
        ``stats`` waits on a slow leader, the follower's server still
        answers another connection's ``ping`` at once."""
        host, port, kernel = server
        entered = threading.Event()
        with GISClient(host, port) as feed:
            follower = GeographicDatabase.follow(
                RemoteReplicationSource(feed), name="wire-f")
            shipper = kernel.database.wal.shipper
            real = shipper.poll

            def slow_leader_poll(*args, **kwargs):
                entered.set()
                time.sleep(1.0)
                return real(*args, **kwargs)

            monkeypatch.setattr(shipper, "poll", slow_leader_poll)
            served = GISKernel(follower)
            try:
                with ServerThread(served) as (fhost, fport), \
                        GISClient(fhost, fport) as a, \
                        GISClient(fhost, fport) as b:
                    trees = []
                    entered.clear()
                    waiter = threading.Thread(
                        target=lambda: trees.append(a.stats()))
                    waiter.start()
                    assert entered.wait(5.0)
                    started = time.monotonic()
                    assert b.ping() is True
                    ping_s = time.monotonic() - started
                    waiter.join(10.0)
            finally:
                served.shutdown()
        assert ping_s < 0.5
        [tree] = trees
        status = tree["replication"]["leader"]
        assert (status["role"], status["lag"]) == ("follower", 0)

    def test_stats_with_a_remote_replica_of_this_server_answers(
            self, server):
        """A kernel whose attached follower pulls from this same server
        answers ``stats``. The follower reads its head LSN from a
        ``repl_poll``, which consults no replica; a ``repl_status``
        would ask that follower again, through the feed connection the
        first request is still waiting on."""
        host, port, kernel = server
        with GISClient(host, port, timeout=5.0) as feed, \
                GISClient(host, port, timeout=5.0) as client:
            follower = GeographicDatabase.follow(
                RemoteReplicationSource(feed), name="wire-f")
            kernel.attach_replica(follower)
            try:
                kernel.database.insert(MIX_SCHEMA, MIX_CLASS,
                                       {"name": "late", "size": 99})
                replicas = [client.stats()["replication"]["replicas"],
                            client.repl_status()["status"]["replicas"]]
            finally:
                kernel.detach_replica("wire-f")
        for [replica] in replicas:
            assert (replica["role"], replica["lag"]) == ("follower", 1)

    def test_replica_routed_wire_query(self, server):
        host, port, kernel = server
        with GISClient(host, port) as client:
            # the serving kernel feeds its replica in-process (a remote
            # source pulling through this same connection would re-enter
            # the handler thread); the *routing* is what crosses the wire
            follower = GeographicDatabase.follow(
                LocalReplicationSource(kernel.database), name="wire-f")
            kernel.attach_replica(follower)
            try:
                response = client.query(
                    MIX_SCHEMA, "select count(*) from Feature",
                    read_preference="replica")
                assert response["rows"][0]["count(*)"] == 20
                # read-your-writes: the wait is satisfiable because the
                # local poller can be driven from this thread, so assert
                # the already-applied LSN path
                response = client.query(
                    MIX_SCHEMA, "select name from Feature order by name "
                    "limit 1",
                    read_preference="replica",
                    min_lsn=follower.replication_lsn)
                [row] = response["rows"]
                assert row["name"] == "w00"
            finally:
                kernel.detach_replica("wire-f")

    def test_bad_read_preference_is_a_request_error(self, server):
        host, port, _ = server
        with GISClient(host, port) as client:
            with pytest.raises(NetClientError):
                client.query(MIX_SCHEMA, "select * from Feature",
                             read_preference="nearest")

    def test_repl_poll_requires_cursor(self, server):
        host, port, _ = server
        with GISClient(host, port) as client:
            with pytest.raises((NetClientError, ProtocolError)):
                client.request("repl_poll")

    def test_snapshot_chunk_out_of_range(self, server):
        host, port, _ = server
        with GISClient(host, port) as client:
            with pytest.raises((NetClientError, ProtocolError)):
                client.repl_snapshot(chunk=7)


class TestClientReconnect:
    def test_idempotent_requests_survive_server_restart(self, kernel):
        port = free_port()
        first = ServerThread(kernel, port=port)
        first.start()
        client = GISClient("127.0.0.1", port, timeout=15,
                           reconnect=3, reconnect_backoff=0.01)
        try:
            assert client.ping()
            first.stop()
            second = ServerThread(kernel, port=port)
            second.start()
            try:
                # the dead socket surfaces on the next request; ping is
                # idempotent, so the client redials and resends
                assert client.ping()
                assert client.reconnects == 1
                assert client.query(
                    MIX_SCHEMA,
                    "select count(*) from Feature")["rows"] \
                    [0]["count(*)"] == 20
                assert client.reconnects == 1  # healthy link, no redial
            finally:
                second.stop()
        finally:
            client.close()

    def test_reconnect_clears_connection_scoped_session(self, kernel):
        port = free_port()
        first = ServerThread(kernel, port=port)
        first.start()
        client = GISClient("127.0.0.1", port, timeout=15,
                           reconnect=2, reconnect_backoff=0.01)
        try:
            client.open_session(user="demo")
            assert client.session is not None
            first.stop()
            second = ServerThread(kernel, port=port)
            second.start()
            try:
                assert client.ping()
                # the server-side session died with the old connection
                assert client.session is None
            finally:
                second.stop()
        finally:
            client.close()

    def test_txn_is_never_resent(self, kernel):
        port = free_port()
        first = ServerThread(kernel, port=port)
        first.start()
        client = GISClient("127.0.0.1", port, timeout=15,
                           reconnect=3, reconnect_backoff=0.01)
        count_before = kernel.database.count(MIX_SCHEMA, MIX_CLASS)
        try:
            assert client.ping()
            first.stop()
            second = ServerThread(kernel, port=port)
            second.start()
            try:
                # a mutation on a dead socket fails fast — a blind
                # resend could double-apply a commit
                with pytest.raises((NetError, OSError)):
                    client.insert(MIX_SCHEMA, MIX_CLASS,
                                  {"name": "dup", "size": 1})
                assert client.reconnects == 0
                assert kernel.database.count(MIX_SCHEMA, MIX_CLASS) \
                    == count_before
            finally:
                second.stop()
        finally:
            client.close()

    def test_fail_fast_without_reconnect_budget(self, kernel):
        port = free_port()
        thread = ServerThread(kernel, port=port)
        thread.start()
        client = GISClient("127.0.0.1", port, timeout=15)  # reconnect=0
        try:
            assert client.ping()
            thread.stop()
            with pytest.raises((NetError, OSError)):
                client.ping()
            assert client.reconnects == 0
        finally:
            client.close()
