"""Overhead regression: instrumented-but-disabled hot paths must stay
within a generous factor of hand-written un-instrumented equivalents.

The observability layer promises that when disabled (the default) its
call sites cost ~nothing. These tests pin that promise down so later PRs
cannot silently make the instrumentation eat the hot path: each test
times the real (instrumented) code with observability off against a
local, hand-written copy of the same logic with the instrumentation
stripped out, and asserts the ratio stays under ``FACTOR``.

The baselines are deliberate near-verbatim copies of the pre-PR hot-path
bodies — if a hot path is later optimized, update the baseline copy too,
or the comparison stops measuring instrumentation overhead.

Timing tests are inherently noisy; each comparison takes the best of
several repetitions and is allowed a few attempts before failing.
"""

import time

import pytest

from repro import obs
from repro.active.event_bus import Event, EventBus, EventKind
from repro.geodb.buffer import BufferManager
from repro.geodb.storage import MemoryPager

#: The regression bound: instrumented-but-disabled ≤ FACTOR × baseline.
FACTOR = 1.5
ITERATIONS = 20_000
REPEATS = 5
ATTEMPTS = 4


def best_time(fn, repeats=REPEATS):
    """Best-of-N wall time of ``fn()`` — robust against scheduler noise."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def assert_within_factor(baseline_fn, instrumented_fn, label):
    assert not obs.is_enabled(), "overhead tests measure disabled mode"
    baseline = instrumented = None
    for attempt in range(ATTEMPTS):
        baseline = best_time(baseline_fn)
        instrumented = best_time(instrumented_fn)
        if instrumented <= baseline * FACTOR:
            return
    pytest.fail(
        f"{label}: instrumented-but-disabled path took {instrumented:.6f}s, "
        f"more than {FACTOR}x the un-instrumented baseline {baseline:.6f}s"
    )


# ---------------------------------------------------------------------------
# Baseline 1: the event bus publish loop (the paper's event pipeline inlet)
# ---------------------------------------------------------------------------


class PlainBus:
    """Hand-written copy of EventBus.publish without instrumentation."""

    def __init__(self):
        self._by_kind = {}
        self._all = []
        self._published = 0
        self._log = []
        self.keep_log = False
        self.last_event = None

    def subscribe(self, subscriber, kinds=None):
        if kinds is None:
            self._all.append(subscriber)
            return
        for kind in kinds:
            self._by_kind.setdefault(kind, []).append(subscriber)

    def publish(self, event):
        self._published += 1
        self.last_event = event
        if self.keep_log:
            self._log.append(event)
        for subscriber in list(self._by_kind.get(event.kind, ())):
            subscriber(event)
        for subscriber in list(self._all):
            subscriber(event)


def _sink(event):
    pass


class TestEventBusOverhead:
    def test_disabled_publish_within_budget(self):
        real = EventBus()
        real.subscribe(_sink, kinds=[EventKind.GET_VALUE])
        plain = PlainBus()
        plain.subscribe(_sink, kinds=[EventKind.GET_VALUE])
        event = Event(EventKind.GET_VALUE, "Pole#1")

        def run_real():
            publish = real.publish
            for __ in range(ITERATIONS):
                publish(event)

        def run_plain():
            publish = plain.publish
            for __ in range(ITERATIONS):
                publish(event)

        assert_within_factor(run_plain, run_real, "event_bus.publish")


# ---------------------------------------------------------------------------
# Sanity: the comparison measures something — enabled mode does record
# ---------------------------------------------------------------------------


def make_pager(pages=8):
    pager = MemoryPager(page_size=128)
    for i in range(pages):
        no = pager.allocate_page()
        pager.write_page(no, bytes([i]) * 16)
    return pager


class TestComparisonIsMeaningful:
    def test_same_code_records_when_enabled(self, obs_recorder):
        bus = EventBus()
        bus.publish(Event(EventKind.GET_VALUE, "Pole#1"))
        registry = obs_recorder.registry
        assert registry.counter_value(
            "event_bus.events_published", kind="get_value") == 1

        # The buffer keeps no obs instrument; its always-on counters are
        # the one source, enabled or not.
        manager = BufferManager(make_pager(), capacity=2)
        manager.read_page(0)
        manager.read_page(0)
        assert manager.stats.hits == 1
        assert manager.stats.misses == 1
