"""End-to-end serving tests: real sockets, one kernel, many clients.

Each test spins a :class:`ServerThread` over a phone-net kernel and
drives it with :class:`GISClient` connections. The suite covers the
request surface, the mutation push fan-out, and the session lifecycle
guarantees (idempotent close; a dropped connection releases its kernel
sessions exactly once and stops receiving fan-out).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.core.kernel import GISKernel
from repro.errors import NetClientError, NetError
from repro.net import GISClient, ServerThread
from repro.workloads import PhoneNetParams, build_phone_net_database


def small_db():
    return build_phone_net_database(
        PhoneNetParams(blocks_x=2, blocks_y=2, poles_per_street=3,
                       duct_count=3, seed=11)
    )


@pytest.fixture()
def kernel():
    kernel = GISKernel(small_db())
    yield kernel
    kernel.shutdown()


@pytest.fixture()
def server(kernel):
    with ServerThread(kernel) as (host, port):
        yield (host, port, kernel)


def connect(server, **kwargs):
    host, port, _ = server
    return GISClient(host, port, timeout=15, **kwargs)


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


class TestRequestSurface:
    def test_hello_identifies_server_and_schemas(self, server):
        with connect(server) as client:
            hello = client.hello()
            assert hello["protocol"] == 1
            assert hello["schemas"] == ["phone_net"]

    def test_ping(self, server):
        with connect(server) as client:
            assert client.ping() is True

    def test_browsing_loop_over_the_wire(self, server):
        with connect(server) as client:
            client.open_session(user="ana", application="browser")
            assert client.open_schema("phone_net")["window"] == \
                "schema_phone_net"
            assert client.select_class("Pole")["window"] == "classset_Pole"
            oid = client.query("phone_net", "select * from Pole")["oids"][0]
            instance = client.select_instance(oid)
            assert instance["window"] == f"instance_{oid}"
            text = client.render(f"instance_{oid}")
            assert oid in text
            windows = client.scene()
            assert len(windows) == 3
            client.close_window(f"instance_{oid}")
            assert len(client.scene()) == 2

    def test_two_sessions_on_one_connection(self, server):
        with connect(server) as client:
            first = client.open_session(user="ana")
            second = client.request("open_session", user="bea")["session"]
            assert first != second
            assert server[2].session_count == 2
            client.open_schema("phone_net", session=second)
            assert client.scene(session=second)
            assert client.scene(session=first) == []

    def test_query_hits_the_shared_cache(self, server):
        with connect(server) as client:
            first = client.query("phone_net", "select * from Pole")
            assert first["cache"] == "miss"
        with connect(server) as other:
            second = other.query("phone_net", "select * from Pole")
            assert second["cache"] == "hit"
            assert second["oids"] == first["oids"]

    def test_query_rows_projection(self, server):
        with connect(server) as client:
            result = client.query(
                "phone_net", "select status from Pole"
            )
            assert result["count"] == len(result["rows"])
            assert all("status" in row for row in result["rows"])

    def test_txn_insert_update_delete(self, server):
        with connect(server) as client:
            q = "select * from Pole"
            before = client.query("phone_net", q)["count"]
            oid = client.insert(
                "phone_net", "Pole",
                {"install_year": 2026, "status": "new",
                 "pole_location": {"t": "point", "c": [1.0, 2.0]}},
            )
            assert client.query("phone_net", q)["count"] == before + 1
            client.update(oid, {"status": "audited"})
            client.delete(oid)
            assert client.query("phone_net", q)["count"] == before

    def test_txn_batch_is_atomic(self, server):
        with connect(server) as client:
            q = "select * from Pole"
            before = client.query("phone_net", q)["count"]
            with pytest.raises(NetClientError) as info:
                client.txn([
                    {"op": "insert", "schema": "phone_net", "class": "Pole",
                     "values": {"install_year": 2000, "status": "a",
                                "pole_location": {"t": "point",
                                                  "c": [1.0, 1.0]}}},
                    {"op": "delete", "oid": "Pole#no-such-object"},
                ])
            assert info.value.code == "ObjectNotFoundError"
            assert client.query("phone_net", q)["count"] == before

    def test_error_response_keeps_the_connection(self, server):
        with connect(server) as client:
            with pytest.raises(NetClientError) as info:
                client.query("no_such_schema", "select * from Pole")
            assert info.value.code == "SchemaError"
            with pytest.raises(NetClientError) as info:
                client.query("phone_net", "selekt weird !!")
            assert info.value.code == "QueryError"
            assert client.ping() is True

    def test_unknown_session_is_a_session_error(self, server):
        with connect(server) as client:
            with pytest.raises(NetClientError) as info:
                client.request("render", session="s999")
            assert info.value.code == "SessionError"

    def test_stats_exposes_kernel_state(self, server):
        with connect(server) as client:
            client.open_session(user="ana")
            stats = client.stats()
            assert len(stats["sessions"]) == 1
            assert stats["database"]["name"] == "GEO"

    def test_wire_stats_and_cli_status_report_one_tree(self, server):
        """At a quiescent point the wire ``stats`` answer, the kernel's
        status tree and the CLI's ``status json`` are the same tree."""
        import json

        from repro.cli import CommandLoop

        kernel = server[2]
        output: list[str] = []
        loop = CommandLoop(kernel.session(user="operator"),
                           write=output.append)
        with connect(server) as client:
            client.open_session(user="ana")
            client.open_schema("phone_net")
            client.query("phone_net", "select * from Pole")
            wire = client.stats()
            tree = json.loads(json.dumps(kernel.stats()))
            loop.run(["status json"])
        assert wire == tree
        assert json.loads("".join(output)) == tree
        assert len(tree["sessions"]) == 2
        assert tree["query_cache"]["misses"] == 1


class TestPushFanOut:
    def test_subscription_receives_commit_pushes(self, server):
        with connect(server) as watcher, connect(server) as writer:
            watcher.subscribe(["Pole"])
            oid = writer.query("phone_net", "select * from Pole")["oids"][0]
            writer.update(oid, {"status": "repainted"})
            pushes = watcher.poll_pushes(1.0)
            assert any(
                p["kind"] == "update" and p["oid"] == oid
                and p["class"] == "Pole" for p in pushes
            )

    def test_unsubscribed_class_is_silent(self, server):
        with connect(server) as watcher, connect(server) as writer:
            watcher.subscribe(["Duct"])
            oid = writer.query("phone_net", "select * from Pole")["oids"][0]
            writer.update(oid, {"status": "x"})
            assert watcher.poll_pushes(0.3) == []

    def test_wildcard_subscription(self, server):
        with connect(server) as watcher, connect(server) as writer:
            watcher.subscribe(["*"])
            oid = writer.query("phone_net", "select * from Pole")["oids"][0]
            writer.update(oid, {"status": "y"})
            assert watcher.poll_pushes(1.0)

    def test_unsubscribe_stops_pushes(self, server):
        with connect(server) as watcher, connect(server) as writer:
            watcher.subscribe(["Pole"])
            watcher.unsubscribe()
            oid = writer.query("phone_net", "select * from Pole")["oids"][0]
            writer.update(oid, {"status": "z"})
            assert watcher.poll_pushes(0.3) == []

    def test_interest_based_push_mirrors_kernel_fanout(self, server):
        """A session displaying a class hears about its mutations — the
        same auto_refresh + open-window test the in-process kernel
        fan-out uses (PR 2), now delivered over the wire."""
        with connect(server) as viewer, connect(server) as writer:
            sid = viewer.open_session(user="ana", auto_refresh=True)
            viewer.open_schema("phone_net")
            viewer.select_class("Pole")
            oid = writer.query("phone_net", "select * from Pole")["oids"][0]
            writer.update(oid, {"status": "watched"})
            pushes = viewer.poll_pushes(1.0)
            assert any(
                p["reason"] == "interest" and sid in p["sessions"]
                for p in pushes
            )

    def test_no_interest_push_without_matching_window(self, server):
        with connect(server) as viewer, connect(server) as writer:
            viewer.open_session(user="ana", auto_refresh=True)
            viewer.open_schema("phone_net")
            viewer.select_class("Duct")   # watching Duct, mutating Pole
            oid = writer.query("phone_net", "select * from Pole")["oids"][0]
            writer.update(oid, {"status": "q"})
            assert viewer.poll_pushes(0.3) == []


class TestSessionLifecycle:
    def test_close_session_is_idempotent(self, server):
        with connect(server) as client:
            sid = client.open_session(user="ana")
            assert client.close_session(sid) is True
            # second close reports closed=False instead of erroring
            assert client.request("close_session",
                                  session=sid)["closed"] is False
            assert server[2].session_count == 0

    def test_gauge_decrements_exactly_once_across_both_close_paths(
            self, server):
        """close_session followed by a disconnect (or vice versa) must
        leave the status tree's ``sessions`` at its true value — the
        teardown runs once, not twice."""
        kernel = server[2]
        client = connect(server)
        client.open_session(user="ana")
        wait_until(lambda: kernel.session_count == 1, message="attach")
        client.close_session()          # explicit close...
        client.close()                  # ...then connection drop
        wait_until(lambda: kernel.session_count == 0, message="detach")
        assert kernel.stats()["sessions"] == {}

    def test_dropped_connection_releases_its_sessions(self, server):
        kernel = server[2]
        client = connect(server)
        client.open_session(user="ana")
        client.open_schema("phone_net")
        assert kernel.session_count == 1
        client.close()  # vanish without close_session
        wait_until(lambda: kernel.session_count == 0,
                   message="server-side session teardown")

    def test_dropped_client_stops_receiving_fanout(self, server):
        """Regression: after a client with an interested session drops,
        commits touching its class must neither push to it nor refresh
        its (closed) windows — and other clients are unaffected."""
        kernel = server[2]
        dropped = connect(server)
        dropped.open_session(user="gone", auto_refresh=True)
        dropped.open_schema("phone_net")
        dropped.select_class("Pole")
        with connect(server) as survivor, connect(server) as writer:
            survivor.subscribe(["Pole"])
            dropped.close()
            wait_until(lambda: kernel.session_count == 0,
                       message="dropped session teardown")
            pushed_before = server_counter(server, "pushes_sent")
            oid = writer.query("phone_net", "select * from Pole")["oids"][0]
            writer.update(oid, {"status": "after-drop"})
            pushes = survivor.poll_pushes(1.0)
            assert pushes, "survivor must still receive fan-out"
            # exactly one connection (the survivor) was pushed to
            assert server_counter(server, "pushes_sent") == \
                pushed_before + len(pushes)

    def test_server_stop_closes_remaining_sessions(self, kernel):
        thread = ServerThread(kernel)
        host, port = thread.start()
        client = GISClient(host, port, timeout=15)
        client.open_session(user="ana")
        assert kernel.session_count == 1
        thread.stop()
        assert kernel.session_count == 0
        client.close()


def server_counter(server, name):
    # reach through the fixture tuple into the live server's counters
    host, port, kernel = server
    return _thread_servers[(host, port)].counters[name]


# ServerThread instances register here so tests can inspect counters.
_thread_servers = {}


@pytest.fixture(autouse=True)
def _track_servers(request, monkeypatch):
    original = ServerThread.start

    def tracking_start(self):
        address = original(self)
        _thread_servers[address] = self.server
        return address

    monkeypatch.setattr(ServerThread, "start", tracking_start)
    yield
    _thread_servers.clear()


class TestConcurrentClients:
    def test_sixteen_clients_mixed_workload(self, server):
        errors = []
        barrier = threading.Barrier(16)

        def worker(i):
            try:
                with connect(server) as client:
                    client.open_session(user=f"u{i}")
                    barrier.wait(timeout=15)
                    client.open_schema("phone_net")
                    client.select_class("Pole")
                    q = client.query("phone_net", "select * from Pole")
                    oid = q["oids"][i % q["count"]]
                    client.select_instance(oid)
                    new = client.insert(
                        "phone_net", "Pole",
                        {"install_year": 2000 + i, "status": f"w{i}",
                         "pole_location": {"t": "point",
                                           "c": [float(i), 0.5]}},
                    )
                    client.update(new, {"status": f"w{i}b"})
                    client.delete(new)
                    assert client.ping() is True
                    client.close_session()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((i, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        kernel = server[2]
        wait_until(lambda: kernel.session_count == 0,
                   message="all sessions released")
        # the mixed workload left the database exactly as it found it
        with connect(server) as client:
            assert client.query("phone_net",
                                "select * from Pole")["count"] == 18
