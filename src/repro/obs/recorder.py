"""The recorder facade instrumented code talks to.

Hot paths never import the registry or tracer directly; they go through
the module-level recorder in :mod:`repro.obs`::

    from .. import obs
    ...
    rec = obs.RECORDER
    if rec.enabled:
        rec.inc("net.requests", kind=kind)

Two implementations share the interface:

* :class:`NullRecorder` — the default. Every method is a no-op and
  ``span`` returns a shared, reusable no-op context manager, so
  instrumentation left in a hot path costs one attribute lookup and
  (optionally) one empty call when observability is off. The hottest
  call sites additionally guard on ``rec.enabled`` to skip even the
  argument construction.
* :class:`Recorder` — the live implementation, delegating to a
  :class:`~repro.obs.metrics.MetricsRegistry` and a
  :class:`~repro.obs.tracing.Tracer`.
"""

from __future__ import annotations

import time
from typing import Any

from .metrics import MetricsRegistry
from .tracing import Span, Tracer


class _NoOpSpan:
    """Shared do-nothing stand-in for :class:`~repro.obs.tracing.Span`."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoOpSpan()


class NullRecorder:
    """Disabled-mode recorder: records nothing, costs ~nothing."""

    __slots__ = ()

    enabled = False

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> _NoOpSpan:
        return NOOP_SPAN

    def timed(self, name: str, **labels: Any) -> _NoOpSpan:
        return NOOP_SPAN


class _TimedObservation:
    """Context manager feeding a duration into one histogram."""

    __slots__ = ("_registry", "_name", "_labels", "_start")

    def __init__(self, registry: MetricsRegistry, name: str,
                 labels: dict[str, Any]):
        self._registry = registry
        self._name = name
        self._labels = labels

    def __enter__(self) -> "_TimedObservation":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.observe(
            self._name, time.perf_counter() - self._start, **self._labels
        )
        return False

    def annotate(self, **attrs: Any) -> None:
        pass  # interface parity with Span


class Recorder:
    """Enabled-mode recorder over one registry and one tracer."""

    __slots__ = ("registry", "tracer")

    enabled = True

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        self.registry.inc(name, amount, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.registry.set_gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.registry.observe(name, value, **labels)

    def span(self, name: str, **attrs: Any) -> Span:
        return self.tracer.span(name, **attrs)

    def timed(self, name: str, **labels: Any) -> _TimedObservation:
        """Time a block into the ``name`` histogram (no span recorded)."""
        return _TimedObservation(self.registry, name, labels)

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()
