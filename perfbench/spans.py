"""Timing spans around the public entry points of each layer.

Used only by the traced server run (``server.py --trace 1``). Wrappers
are installed on the classes and modules *before* the database is
opened, so bound methods captured at construction time (the rule
manager's bus handler, the live manager's write-set listener) are the
wrapped ones.

A span is ``(span_id, parent_id, request_id, name, start, end, extra)``
with times from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so the
load generator in another process can compare them with its own send
and receive times). Parents come from a thread-local stack, so spans on
the event loop thread and on executor threads never mis-parent. The
request id is the client's wire request id, set by the ``Router.handle``
wrapper for the thread that handles the request. Spans stay in memory
and are written out when the server exits.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from functools import wraps

#: live-maintenance span name; engine executions under it are counted
#: separately (live.engine_executions_per_commit)
LIVE_MAINTAIN = "live.maintain"


class SpanRecorder:
    """In-memory span store plus the exact counters derived from spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._count_lock = threading.Lock()

    # -- thread-local state ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_request(self):
        return getattr(self._tls, "request", None)

    def set_request(self, request_id) -> None:
        self._tls.request = request_id

    def inside(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack())

    def count(self, key: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[key] += n

    # -- spans -------------------------------------------------------------

    def run(self, name: str, fn, args, kwargs, extra_fn=None,
            request=None):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        if request is None:
            request = self.current_request()
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = extra_fn(args, kwargs, result) if extra_fn else None
        self.spans.append((span_id, parent, request, name, start, end,
                           extra))
        return result

    def wrap_function(self, name: str, fn, extra_fn=None):
        recorder = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.run(name, fn, args, kwargs, extra_fn)

        return wrapper

    def wrap_method(self, owner, attr: str, name: str, extra_fn=None
                    ) -> None:
        """Replace ``owner.attr`` (function, classmethod or module
        function) with a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            inner = self.wrap_function(name, raw.__func__, extra_fn)
            setattr(owner, attr, classmethod(inner))
        else:
            setattr(owner, attr, self.wrap_function(name, raw, extra_fn))


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points (see perfbench/README.md)."""
    from repro.active.event_bus import EventBus, MUTATION_KINDS
    from repro.active.rule_manager import RuleManager
    from repro.core.builder import GenericInterfaceBuilder
    from repro.core.dispatcher import Dispatcher
    from repro.core.kernel import GISKernel
    from repro.core.live_queries import LiveQueryManager
    from repro.core.query_cache import QueryResultCache
    from repro.geodb import query_language
    from repro.geodb.database import GeographicDatabase
    from repro.geodb.query_engine import QueryEngine
    from repro.geodb.transactions import Transaction
    from repro.geodb.wal import WriteAheadLog
    from repro.net import protocol
    from repro.net.router import Router
    from repro.spatial.rtree import RTree
    from repro.uilib.rendering import TextRenderer

    wrap = recorder.wrap_method

    # net: the handler root span carries the client's request id; the
    # durability wait of a txn runs in a second executor hop, so it gets
    # its own root span under the same request id.
    original_handle = Router.handle

    def handle(router, state, doc):
        request = doc.get("id") if isinstance(doc, dict) else None
        recorder.set_request(request)
        try:
            response = recorder.run("net.handle", original_handle,
                                    (router, state, doc), {})
        finally:
            recorder.set_request(None)
        wait = response.get("_wait_durable")
        if wait is not None:
            def traced_wait(wait=wait, request=request):
                recorder.set_request(request)
                try:
                    return recorder.run("net.durable_wait", wait, (), {},
                                        request=request)
                finally:
                    recorder.set_request(None)
            response["_wait_durable"] = traced_wait
        return response

    Router.handle = handle

    def frame_extra(args, kwargs, frame):
        doc = args[0]
        return {"bytes": len(frame), "push": "push" in doc,
                "id": doc.get("id")}

    original_encode = protocol.encode_frame

    def encode_frame(doc):
        request = doc.get("id") if "push" not in doc else None
        return recorder.run("net.encode", original_encode, (doc,), {},
                            frame_extra, request=request)

    protocol.encode_frame = encode_frame

    # core.dispatcher
    wrap(Dispatcher, "open_schema", "dispatcher.open_schema")
    wrap(Dispatcher, "open_class", "dispatcher.open_class")
    wrap(Dispatcher, "open_instance", "dispatcher.open_instance")

    # active: bus publish, tagged with the event kind's family
    def publish_extra(args, kwargs, result):
        kind = args[1].kind
        return {"family": "mutation" if kind in MUTATION_KINDS
                else "interaction"}

    wrap(EventBus, "publish", "event_bus.publish", publish_extra)
    # core.rule_engine: the rule manager's bus handler is the decision
    # (selection, cached or not, plus the customization action)
    wrap(RuleManager, "_on_event", "rule_engine.decision")

    # core.builder
    def class_window_extra(args, kwargs, window):
        objects = args[3] if len(args) > 3 else kwargs["objects"]
        recorder.count("builder.class_windows")
        recorder.count("builder.class_window_items", len(objects))
        return None

    wrap(GenericInterfaceBuilder, "build_class_window",
         "builder.class_window", class_window_extra)
    wrap(GenericInterfaceBuilder, "build_instance_window",
         "builder.instance_window")

    # uilib
    wrap(TextRenderer, "render", "uilib.render")

    # geodb fetch primitives
    wrap(GeographicDatabase, "get_class", "geodb.get_class")
    wrap(GeographicDatabase, "get_value", "geodb.get_value")

    # geodb.query_language (kernel.query imports it at call time)
    wrap(query_language, "parse_query", "query_language.parse")

    # core.query_cache and geodb.query_engine / planner / columns
    wrap(QueryResultCache, "execute", "query_cache.execute")

    def engine_extra(args, kwargs, result):
        report = result.report
        recorder.count("query_engine.executions")
        recorder.count("query_engine.candidates", report["candidates"])
        recorder.count("query_engine.matches", report["matches"])
        if recorder.inside(LIVE_MAINTAIN):
            recorder.count("live.engine_executions")
        return None

    wrap(QueryEngine, "execute", "query_engine.execute", engine_extra)

    # spatial
    wrap(RTree, "search", "spatial.rtree_search")
    wrap(RTree, "bulk_load", "spatial.bulk_load")

    # geodb.transactions / wal
    def commit_extra(args, kwargs, result):
        recorder.count("transactions.commits")
        return None

    wrap(Transaction, "commit", "transactions.commit", commit_extra)
    wrap(WriteAheadLog, "wait_durable", "wal.wait_durable")

    # core.live_queries: the write-set listener is the maintenance pass
    wrap(LiveQueryManager, "_on_write_set", LIVE_MAINTAIN)

    # set-up phases
    wrap(GeographicDatabase, "load_from_storage", "setup.load_from_storage")
    wrap(GeographicDatabase, "recover", "setup.recover")
    wrap(GISKernel, "install_program", "setup.install_program")
