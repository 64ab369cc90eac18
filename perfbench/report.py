"""Turn one run's samples, spans and snapshots into named metrics.

Every timing is scaled to the nominal machine speed (see speed.py) with
the factor of the iteration it was taken in. Timings are medians; the
one tail is the aggregate ``latency_p90_ms``. Per-layer times come from
the traced run's spans of timed requests: ``*_self_ms_p50`` is a span's
duration minus its children's, every other ``*_ms_p50`` the whole
span. Per-layer counts are deltas of the status snapshots taken around
the fixed count window, so they repeat exactly for one seed.
"""

from __future__ import annotations

import statistics

from speed import NOMINAL_MS, factors

#: spans that start a request's server-side work (one or more per
#: request: handler, txn durability wait, response encode)
ROOTS = ("net.handle", "net.durable_wait", "net.encode")

#: per-layer span medians: metric -> (span name, self time?)
SPAN_P50 = {
    "net.handle_ms_p50": ("net.handle", False),
    "net.encode_ms_p50": ("net.encode", False),
    "dispatcher.open_class_self_ms_p50": ("dispatcher.open_class", True),
    "dispatcher.open_instance_self_ms_p50": ("dispatcher.open_instance",
                                             True),
    "rule_engine.decision_ms_p50": ("rule_engine.decision", False),
    "builder.class_window_ms_p50": ("builder.class_window", False),
    "builder.instance_window_ms_p50": ("builder.instance_window", False),
    "uilib.render_ms_p50": ("uilib.render", False),
    "geodb.get_class_ms_p50": ("geodb.get_class", False),
    "geodb.get_value_ms_p50": ("geodb.get_value", False),
    "query_language.parse_ms_p50": ("query_language.parse", False),
    "query_cache.execute_ms_p50": ("query_cache.execute", False),
    "query_engine.execute_ms_p50": ("query_engine.execute", False),
    "spatial.rtree_search_ms_p50": ("spatial.rtree_search", False),
    "transactions.commit_ms_p50": ("transactions.commit", False),
    "wal.wait_durable_ms_p50": ("wal.wait_durable", False),
    "live.maintain_ms_p50": ("live.maintain", False),
}

#: per-layer count ratios over the count window: metric -> (num, den)
COUNT_RATIOS = {
    "builder.items_per_class_window": ("builder.class_window_items",
                                       "builder.class_windows"),
    "query_cache.hit_ratio": ("query_cache.hits", "query_cache.lookups"),
    "query_engine.rows_examined_per_result": ("query_engine.candidates",
                                              "query_engine.matches"),
    "columns.builds_per_query": ("columns.builds",
                                 "query_engine.executions"),
    "wal.fsyncs_per_commit": ("wal.fsyncs", "transactions.commits"),
    "wal.bytes_per_commit": ("wal.bytes", "transactions.commits"),
    "storage.page_writes_per_commit": ("storage.page_writes",
                                       "transactions.commits"),
    "live.engine_executions_per_commit": ("live.engine_executions",
                                          "transactions.commits"),
    "live.updates_per_commit": ("live.updates", "transactions.commits"),
}

#: set-up phases (median over the run's opens): metric -> span name
SETUP_PARTS = {
    "spatial.bulk_load_s": "spatial.bulk_load",
    "setup.load_from_storage_s": "setup.load_from_storage",
    "setup.recover_s": "setup.recover",
    "setup.install_program_s": "setup.install_program",
}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1000.0 if values else 0.0


class Scaled:
    """One run's timings at the nominal machine speed."""

    def __init__(self, workload, report: dict):
        iterations = report["iterations"]
        scale = factors([it[3] for it in iterations])
        #: (kind, scaled latency, request id, session tag) per request
        self.samples, self.lags = [], []
        #: request id -> scale factor of its iteration
        self.factor = {}
        samples_done = lags_done = 0
        for (samples_end, lags_end, __, __), f in zip(iterations, scale):
            for s in workload.samples[samples_done:samples_end]:
                self.samples.append((s[0], s[1] * f, s[2], s[5]))
                self.factor[s[2]] = f
            self.lags += [lag * f for lag in
                          workload.push_lags[lags_done:lags_end]]
            samples_done, lags_done = samples_end, lags_end
        self.seconds = sum(it[2] * f for it, f in zip(iterations, scale))
        self.loop_ms = [it[3] for it in iterations]

    def kind(self, kind: str, tag: str | None = None) -> list[float]:
        return [s[1] for s in self.samples
                if s[0] == kind and (tag is None or s[3] == tag)]

    def latency_p50(self) -> float:
        return statistics.median(s[1] for s in self.samples)


def _setup(report: dict, seconds: list[float]) -> float:
    """Median over the opens of a set-up time at the nominal speed."""
    return statistics.median(
        t * NOMINAL_MS / speed
        for t, speed in zip(seconds, report["setup_speed"]))


def end_to_end(workload, report: dict) -> dict:
    """Every end-to-end metric, from the untraced run."""
    run = Scaled(workload, report)
    latencies = [s[1] for s in run.samples]
    out = {
        "setup_s": _metric(_setup(report, report["setup_s"]), "s"),
        "interactions_per_s": _metric(len(latencies) / run.seconds, "1/s"),
        "latency_p50_ms": _metric(_median_ms(latencies), "ms"),
        # at least ten samples lie beyond p90 once a run has 100
        "latency_p90_ms": _metric(statistics.quantiles(
            latencies, n=10, method="inclusive")[8] * 1000.0, "ms"),
    }
    for kind in ("select_class", "select_instance", "render", "query",
                 "query_cached", "commit"):
        samples = run.kind(kind)
        if not samples:
            raise RuntimeError(f"no {kind} requests were timed")
        out[f"{kind}_p50_ms"] = _metric(_median_ms(samples), "ms")
    if not run.lags:
        raise RuntimeError("no live_update push was timed")
    out["push_lag_p50_ms"] = _metric(_median_ms(run.lags), "ms")
    out["peak_rss_mb"] = _metric(report["peak_rss_mb"], "MB")
    return out


def _request_spans(report: dict, requests: set) -> dict:
    """request id -> its spans, for the timed requests only."""
    by_request: dict = {}
    for span in report["spans"]:
        if span[2] in requests:
            by_request.setdefault(span[2], []).append(span)
    return by_request


def _self_times(spans: list) -> dict:
    """span id -> duration minus the durations of its children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def account(workload, by_request: dict) -> list[float]:
    """Per-request floor (client latency minus server root spans).

    Checks, for every timed request, that the server's spans nest
    inside each other and inside the client's send/receive window, so
    that layer self times plus the floor add up to the latency the
    client observed. A violation fails the request.
    """
    floors = []
    for kind, latency, request, sent, received, __ in workload.samples:
        spans = by_request.get(request, [])
        by_id = {s[0]: s for s in spans}
        roots = [s for s in spans if s[3] in ROOTS]
        floor = latency - sum(s[5] - s[4] for s in roots)
        floors.append(floor)
        selfs = _self_times(spans)
        problems = [s[3] for s in roots
                    if not sent <= s[4] <= s[5] <= received]
        problems += [s[3] for s in spans if s[3] not in ROOTS and (
            s[1] not in by_id
            or not by_id[s[1]][4] <= s[4] <= s[5] <= by_id[s[1]][5])]
        total = sum(selfs.values()) + floor
        if not roots or problems or floor < 0 \
                or abs(total - latency) > 1e-6:
            workload.fail(f"trace accounting of {kind} #{request}: "
                          f"roots={[s[3] for s in roots]} "
                          f"misplaced={problems} floor={floor:.6f}")
    return floors


def per_layer(plain, untraced: dict, traced_wl, traced: dict) -> dict:
    """Every per-layer metric, from the traced run (ratios that compare
    sessions use the untraced run of the same invocation)."""
    run = Scaled(traced_wl, traced)
    requests = {s[2] for s in traced_wl.samples}
    by_request = _request_spans(traced, requests)
    floors = account(traced_wl, by_request)
    floors = [floor * run.factor[s[2]]
              for floor, s in zip(floors, traced_wl.samples)]
    spans = [s for group in by_request.values() for s in group]
    selfs = _self_times(spans)

    def durations(name: str, own: bool = False):
        return [(selfs[s[0]] if own else s[5] - s[4]) * run.factor[s[2]]
                for s in spans if s[3] == name]

    out = {"net.floor_ms_p50": _metric(_median_ms(floors), "ms")}
    for metric, (name, own) in SPAN_P50.items():
        out[metric] = _metric(_median_ms(durations(name, own)), "ms")
    responses = [s[6]["bytes"] for s in spans
                 if s[3] == "net.encode" and not s[6]["push"]]
    out["net.response_bytes_p50"] = _metric(
        statistics.median(responses), "bytes")
    for family in ("interaction", "mutation"):
        out[f"event_bus.publish_ms_p50.{family}"] = _metric(_median_ms(
            (s[5] - s[4]) * run.factor[s[2]] for s in spans
            if s[3] == "event_bus.publish" and s[6]["family"] == family),
            "ms")

    snaps = {snap["id"]: snap["counts"] for snap in traced["snapshots"]}
    start, end = (snaps[m] for m in traced["marks"])
    delta = {k: end.get(k, 0) - start.get(k, 0) for k in end}
    for metric in ("net.pushes_sent", "net.pushes_dropped"):
        out[metric] = _metric(delta[metric], "count")
    for metric, (num, den) in COUNT_RATIOS.items():
        unit = "ratio" if metric.endswith("_ratio") else (
            "bytes" if "bytes" in metric else "count")
        value = delta.get(num, 0) / delta[den] if delta.get(den) else 0.0
        out[metric] = _metric(value, unit)
    hits, builds = delta["columns.hits"], delta["columns.builds"]
    out["columns.hit_ratio"] = _metric(
        hits / (hits + builds) if hits + builds else 0.0, "ratio")

    for metric, name in SETUP_PARTS.items():
        out[metric] = _metric(_setup(traced, [
            part[name] for part in traced["setup_parts"]]), "s")

    base = Scaled(plain, untraced)
    out["rule_engine.customized_over_generic"] = _metric(
        statistics.median(base.kind("select_class", "J"))
        / statistics.median(base.kind("select_class", "M")), "ratio")
    out["machine.ref_loop_ms"] = _metric(
        statistics.median(base.loop_ms + run.loop_ms), "ms")
    out["trace.overhead_ratio"] = _metric(
        run.latency_p50() / base.latency_p50(), "ratio")
    return out
