"""Experiment C8 — concurrent sessions: shared kernel vs per-session stacks.

The paper's architecture (§3, Figure 1) puts *one* active DBMS behind many
interactive users. This experiment measures what that sharing is worth:

* **per-session stacks** (the historical shape): every session builds a
  private library/engine/builder and installs the customization rule set
  into its own engine — so every primitive event published on the shared
  bus wakes K rule managers;
* **shared kernel**: one :class:`repro.core.GISKernel` owns a single
  engine; events carry a ``session_id`` and decisions are recorded per
  session. Measured with the context-keyed decision cache on and off.

Reported as end-to-end interactions/second of the §4 browsing loop at
1, 8 and 64 sessions, plus a selection-path microbenchmark isolating the
decision cache (window construction excluded).

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke step) shrinks
the configuration and skips the throughput-ratio assertions — tiny runs
on shared CI boxes are too noisy to gate on.
"""

import gc
import os
import time

from repro.core import (
    ClassCustomization,
    Context,
    ContextPattern,
    CustomizationDirective,
    CustomizationEngine,
)
from repro.workloads import (
    SessionPool,
    browsing_contexts,
    build_phone_net_database,
)

from _support import capture_metrics, print_header, print_metrics, print_table

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SESSION_COUNTS = (1, 4) if QUICK else (1, 8, 64)
INTERACTIONS = 4 if QUICK else 12
MICRO_RULES = 50 if QUICK else 400
MICRO_EVENTS = 50 if QUICK else 400


def server_rule_set(user_count: int) -> list[CustomizationDirective]:
    """A realistic server-wide rule set: one directive per known user plus
    category- and application-level fallbacks, mirroring the contexts
    :func:`browsing_contexts` hands out."""
    directives = [
        CustomizationDirective(
            name=f"app_{app}",
            pattern=ContextPattern(application=app),
            schema_name="phone_net",
            classes=(ClassCustomization("Pole"),),
        )
        for app in ("pole_manager", "viewer", "planner")
    ]
    for category in ("engineer", "manager", "browser"):
        for app in ("pole_manager", "viewer", "planner"):
            directives.append(CustomizationDirective(
                name=f"cat_{category}_{app}",
                pattern=ContextPattern(category=category, application=app),
                schema_name="phone_net",
                classes=(ClassCustomization("Pole"),),
            ))
    for i in range(user_count):
        directives.append(CustomizationDirective(
            name=f"user_{i}",
            pattern=ContextPattern(
                user=f"user{i}",
                application=("pole_manager", "viewer", "planner")[i % 3],
            ),
            schema_name="phone_net",
            classes=(ClassCustomization("Pole"),),
        ))
    return directives


def throughput(db, directives, session_count: int, *, shared: bool,
               cache: bool) -> float:
    """End-to-end interactions/second for one pool configuration."""
    pool = SessionPool(
        db, browsing_contexts(session_count), schema_name="phone_net",
        shared_kernel=shared, selection_cache=cache, directives=directives,
    )
    # level the playing field: earlier configurations leave cyclic garbage
    # (windows reference their callbacks reference their windows) whose
    # collection would otherwise land inside a later configuration's
    # timed region
    gc.collect()
    try:
        start = time.perf_counter()
        steps = pool.run(interactions_per_session=INTERACTIONS, seed=97)
        elapsed = time.perf_counter() - start
    finally:
        pool.shutdown()
    return steps / elapsed


def run_throughput_grid() -> dict[tuple[int, str], float]:
    db = build_phone_net_database()
    directives = server_rule_set(max(SESSION_COUNTS))
    # untimed warmup so the first measured configuration doesn't pay
    # one-time import and code-cache costs
    throughput(db, directives, 1, shared=False, cache=False)
    throughput(db, directives, 1, shared=True, cache=True)
    results: dict[tuple[int, str], float] = {}
    for count in SESSION_COUNTS:
        results[(count, "per-session")] = throughput(
            db, directives, count, shared=False, cache=False)
        results[(count, "kernel cache=off")] = throughput(
            db, directives, count, shared=True, cache=False)
        results[(count, "kernel cache=on")] = throughput(
            db, directives, count, shared=True, cache=True)
    return results


def run_cache_microbench() -> tuple[float, float]:
    """Selection-path events/second, cache off vs on (no windows built)."""
    rates = []
    for cache in (False, True):
        db = build_phone_net_database()
        engine = CustomizationEngine(db.bus, selection_cache=cache)
        for directive in server_rule_set(MICRO_RULES):
            engine.register_directive(directive, persist=False)
        context = Context(user="user1", category="manager",
                          application="viewer")
        db.get_schema("phone_net", context=context)  # warm the cache
        start = time.perf_counter()
        for __ in range(MICRO_EVENTS):
            db.get_schema("phone_net", context=context)
        rates.append(MICRO_EVENTS / (time.perf_counter() - start))
        engine.manager.detach()
    return rates[0], rates[1]


def run_metrics_sample() -> None:
    """One instrumented shared-kernel run, for the observability report."""
    db = build_phone_net_database()
    directives = server_rule_set(8)
    with capture_metrics():
        pool = SessionPool(
            db, browsing_contexts(8), schema_name="phone_net",
            shared_kernel=True, selection_cache=True, directives=directives,
        )
        try:
            pool.run(interactions_per_session=INTERACTIONS, seed=97)
        finally:
            pool.shutdown()
        print_metrics(["engine.decision_cache", "dispatcher.interactions",
                       "rules.evaluated"])


def test_c8_concurrent_sessions(capsys):
    grid = run_throughput_grid()
    cache_off, cache_on = run_cache_microbench()

    rows = []
    for count in SESSION_COUNTS:
        base = grid[(count, "per-session")]
        rows.append([
            count,
            f"{base:.0f}/s",
            f"{grid[(count, 'kernel cache=off')]:.0f}/s",
            f"{grid[(count, 'kernel cache=on')]:.0f}/s",
            f"{grid[(count, 'kernel cache=on')] / base:.1f}x",
        ])
    with capsys.disabled():
        print_header("C8", "concurrent sessions: shared kernel vs "
                           "per-session stacks (interactions/sec)")
        print_table(
            ["sessions", "per-session", "kernel cache=off",
             "kernel cache=on", "speedup"],
            rows,
        )
        print(f"\nselection path ({MICRO_RULES + 12} directives): "
              f"cache off {cache_off:.0f} ev/s, "
              f"cache on {cache_on:.0f} ev/s "
              f"({cache_on / cache_off:.1f}x)")
        run_metrics_sample()

    if not QUICK:
        top = max(SESSION_COUNTS)
        assert grid[(top, "kernel cache=on")] >= \
            3.0 * grid[(top, "per-session")]
        assert cache_on >= 2.0 * cache_off


if __name__ == "__main__":
    class _Capsys:
        class _Ctx:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def disabled(self):
            return self._Ctx()

    test_c8_concurrent_sessions(_Capsys())
    print("\nC8 ok")
