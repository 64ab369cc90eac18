"""Metric instruments and the registry that owns them.

The observability layer (see ``docs/OBSERVABILITY.md``) gives the
reproduction the measurement substrate its north star needs: the paper's
argument is that customization happens *inside* the DBMS event pipeline,
so the pipeline must be observable to be tuned. Three instrument kinds,
modelled on the Prometheus data model but dependency-free:

* :class:`Counter` — a monotonically increasing count (events published,
  rules fired, buffer hits);
* :class:`Gauge` — a value that goes up and down (resident buffer
  frames, open windows);
* :class:`Histogram` — observations bucketed into **fixed** upper-bound
  buckets plus a ``+Inf`` overflow bucket, with running sum and count
  (latencies, candidate-set sizes).

Instruments are identified by ``(name, labels)``: asking the registry for
the same name with the same labels returns the same instrument, so call
sites never hold module-level instrument globals. Labels are plain
keyword arguments with string-convertible values.

The registry snapshots to a JSON-safe dict (:meth:`MetricsRegistry.export`)
that round-trips through :meth:`MetricsRegistry.from_export` (the
``metrics`` entry of the kernel status tree), and renders a human-readable
table (:meth:`MetricsRegistry.render_table`) for the benchmark reports.
"""

from __future__ import annotations

from typing import Any, Iterator

#: Default histogram upper bounds, in seconds — tuned for the latencies of
#: this codebase (sub-millisecond bus publishes up to multi-second scans).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Power-of-4 bounds for size-type observations (candidate sets, rows).
COUNT_BUCKETS: tuple[float, ...] = (1, 4, 16, 64, 256, 1024, 4096, 16384)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    """Canonical, hashable identity of a label set."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Observations over fixed cumulative-style buckets.

    ``bucket_counts[i]`` counts observations ``<= uppers[i]`` that were
    not captured by an earlier bucket (i.e. per-bucket, not cumulative);
    the final slot counts the ``+Inf`` overflow. ``sum``/``count`` track
    the running total for mean computation.
    """

    __slots__ = ("name", "labels", "uppers", "bucket_counts", "sum", "count")

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty "
                             "sequence of upper bounds")
        self.name = name
        self.labels = labels
        self.uppers = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.uppers) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, upper in enumerate(self.uppers):
            if value <= upper:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank and n:
                return (self.uppers[i] if i < len(self.uppers)
                        else float("inf"))
        return float("inf")


class MetricsRegistry:
    """Owns every instrument; the single source of truth for metrics."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        #: name -> bucket bounds, enforced across a histogram family
        self._hist_buckets: dict[str, tuple[float, ...]] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **labels: Any) -> Histogram:
        bounds = tuple(buckets) if buckets else None
        known = self._hist_buckets.get(name)
        if known is not None and bounds is not None and bounds != known:
            raise ValueError(
                f"histogram family {name!r} already uses buckets {known}; "
                f"cannot re-declare with {bounds}"
            )
        effective = known or bounds or DEFAULT_BUCKETS
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, key[1], effective
            )
            self._hist_buckets[name] = effective
        return instrument

    # -- convenience write paths (what the Recorder calls) --------------------

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name, **labels).observe(value)

    # -- reads ---------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        instrument = self._counters.get((name, _label_key(labels)))
        return instrument.value if instrument else 0.0

    def counter_total(self, name: str) -> float:
        """Sum of one counter family across every label set."""
        return sum(c.value for (n, __), c in self._counters.items()
                   if n == name)

    def gauge_value(self, name: str, **labels: Any) -> float:
        instrument = self._gauges.get((name, _label_key(labels)))
        return instrument.value if instrument else 0.0

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument (tests isolate themselves with this)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._hist_buckets.clear()

    # -- export / import -----------------------------------------------------

    def export(self) -> dict[str, Any]:
        """JSON-safe snapshot of every instrument."""
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in sorted(self._counters.values(),
                                key=lambda c: (c.name, c.labels))
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in sorted(self._gauges.values(),
                                key=lambda g: (g.name, g.labels))
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "buckets": list(h.uppers),
                    "counts": list(h.bucket_counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for h in sorted(self._histograms.values(),
                                key=lambda h: (h.name, h.labels))
            ],
        }

    @classmethod
    def from_export(cls, data: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`export` output."""
        registry = cls()
        for item in data.get("counters", ()):
            registry.counter(item["name"], **item["labels"]).inc(item["value"])
        for item in data.get("gauges", ()):
            registry.gauge(item["name"], **item["labels"]).set(item["value"])
        for item in data.get("histograms", ()):
            hist = registry.histogram(
                item["name"], buckets=tuple(item["buckets"]), **item["labels"]
            )
            hist.bucket_counts = list(item["counts"])
            hist.sum = item["sum"]
            hist.count = item["count"]
        return registry

    # -- presentation ----------------------------------------------------------

    def render_table(self) -> str:
        """Human-readable dump, one instrument per line, grouped by kind."""
        lines: list[str] = []
        counters = sorted(self._counters.values(),
                          key=lambda c: (c.name, c.labels))
        gauges = sorted(self._gauges.values(),
                        key=lambda g: (g.name, g.labels))
        histograms = sorted(self._histograms.values(),
                            key=lambda h: (h.name, h.labels))
        if counters:
            lines.append("counters:")
            for c in counters:
                value = int(c.value) if c.value == int(c.value) else c.value
                lines.append(
                    f"  {c.name}{_format_labels(c.labels)} = {value}"
                )
        if gauges:
            lines.append("gauges:")
            for g in gauges:
                lines.append(
                    f"  {g.name}{_format_labels(g.labels)} = {g.value:g}"
                )
        if histograms:
            lines.append("histograms:")
            for h in histograms:
                lines.append(
                    f"  {h.name}{_format_labels(h.labels)}: "
                    f"count={h.count} mean={h.mean:.6g} "
                    f"p50={h.quantile(0.5):.6g} p95={h.quantile(0.95):.6g}"
                )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)
