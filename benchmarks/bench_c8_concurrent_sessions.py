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

Full mode repeats the whole measurement five times: the throughput-ratio
gates judge the median ratio, and ``BENCH_C8.json`` at the repo root
records every metric's median, IQR and runs. Quick mode
(``REPRO_BENCH_QUICK=1``, used by the CI smoke step) runs once, shrinks
the configuration, skips the throughput-ratio assertions — tiny runs on
shared CI boxes are too noisy to gate on — and writes no record.
"""

import gc
import os
import statistics
import time
from typing import Any

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

from _support import (capture_metrics, median_iqr, print_header,
                      print_metrics, print_table, record_results)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SESSION_COUNTS = (1, 4) if QUICK else (1, 8, 64)
INTERACTIONS = 4 if QUICK else 12
MICRO_RULES = 50 if QUICK else 400
MICRO_EVENTS = 50 if QUICK else 400
#: whole-measurement repeats; the gates judge the median
REPEATS = 1 if QUICK else 5
CONFIGS = ("per-session", "kernel cache=off", "kernel cache=on")
#: full-mode gates: shared cached kernel over per-session stacks at the
#: largest session count, and the decision cache on the selection path
KERNEL_SPEEDUP_MIN = 3.0
CACHE_SPEEDUP_MIN = 2.0


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


def measure() -> dict[str, float]:
    """One whole measurement: every grid cell's interactions/s, each
    session count's kernel speedup, and the selection-path rates."""
    grid = run_throughput_grid()
    cache_off, cache_on = run_cache_microbench()
    run = {f"{config} @{count}": grid[(count, config)]
           for count in SESSION_COUNTS for config in CONFIGS}
    for count in SESSION_COUNTS:
        run[f"speedup @{count}"] = (grid[(count, "kernel cache=on")]
                                    / grid[(count, "per-session")])
    run.update({"cache off ev/s": cache_off, "cache on ev/s": cache_on,
                "cache speedup": cache_on / cache_off})
    return run


def test_c8_concurrent_sessions(capsys):
    runs = [measure() for __ in range(REPEATS)]
    spread = {key: median_iqr([run[key] for run in runs])
              for key in runs[0]}
    med = {key: statistics.median(run[key] for run in runs)
           for key in runs[0]}
    top = max(SESSION_COUNTS)

    rows = [[count,
             *(f"{med[f'{config} @{count}']:.0f}/s" for config in CONFIGS),
             f"{med[f'speedup @{count}']:.1f}x"]
            for count in SESSION_COUNTS]
    payload: dict[str, Any] = {
        "experiment": "C8",
        "quick": QUICK,
        "repeats": REPEATS,
        "interactions_per_session": INTERACTIONS,
        "throughput_per_s": {
            str(count): {config: spread[f"{config} @{count}"]
                         for config in CONFIGS}
            for count in SESSION_COUNTS},
        "kernel_speedup": {str(count): spread[f"speedup @{count}"]
                           for count in SESSION_COUNTS},
        "selection_path": {"directives": MICRO_RULES + 12,
                           "events": MICRO_EVENTS,
                           "cache_off_ev_s": spread["cache off ev/s"],
                           "cache_on_ev_s": spread["cache on ev/s"],
                           "speedup": spread["cache speedup"]},
        "gates": {"judged_on": "median",
                  "sessions": top,
                  "kernel_speedup_min": KERNEL_SPEEDUP_MIN,
                  "cache_speedup_min": CACHE_SPEEDUP_MIN},
    }
    recorded = record_results("BENCH_C8.json", payload, QUICK)

    with capsys.disabled():
        print_header("C8", "concurrent sessions: shared kernel vs "
                           "per-session stacks (interactions/sec)")
        print(f"{'quick' if QUICK else 'full'} mode, median of {REPEATS} "
              f"run{'s' if REPEATS > 1 else ''}\n")
        print_table(["sessions", *CONFIGS, "speedup"], rows)
        print(f"\nselection path ({MICRO_RULES + 12} directives): "
              f"cache off {med['cache off ev/s']:.0f} ev/s, "
              f"cache on {med['cache on ev/s']:.0f} ev/s "
              f"({med['cache speedup']:.1f}x)")
        if REPEATS > 1:
            print()
            print_table(["metric", "median", "IQR", "runs"],
                        [[key, value["median"], value["iqr"],
                          " ".join(map(str, value["runs"]))]
                         for key, value in spread.items()])
        print(f"\n{recorded}")
        run_metrics_sample()

    if not QUICK:
        assert med[f"speedup @{top}"] >= KERNEL_SPEEDUP_MIN, (
            f"shared cached kernel median {med[f'speedup @{top}']:.2f}x "
            f"per-session stacks at {top} sessions "
            f"(gate: {KERNEL_SPEEDUP_MIN}x)")
        assert med["cache speedup"] >= CACHE_SPEEDUP_MIN, (
            f"decision cache median {med['cache speedup']:.2f}x on the "
            f"selection path (gate: {CACHE_SPEEDUP_MIN}x)")


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
