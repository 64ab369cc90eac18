"""Zero-dependency observability: metrics registry + pipeline tracing.

This package is the measurement substrate for the whole reproduction
(see ``docs/OBSERVABILITY.md`` for the metric and span name catalog).
It is **off by default**: the module-level :data:`RECORDER` starts as a
:class:`~repro.obs.recorder.NullRecorder` whose methods do nothing, so
the instrumentation threaded through the event pipeline and the geodb
layers costs approximately nothing until someone opts in::

    from repro import obs

    recorder = obs.enable()
    ... run a session ...
    print(recorder.registry.render_table())
    print(recorder.tracer.last_trace().render())
    obs.disable()

Instrumented modules must access the recorder as ``obs.RECORDER``
(attribute lookup on the module) — never ``from repro.obs import
RECORDER`` — so that :func:`enable`/:func:`disable` swaps take effect
everywhere immediately.
"""

from __future__ import annotations

from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import NOOP_SPAN, NullRecorder, Recorder
from .tracing import Span, Tracer

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NullRecorder",
    "Recorder",
    "Span",
    "Tracer",
    "RECORDER",
    "enable",
    "disable",
    "is_enabled",
    "reset",
]

_NULL = NullRecorder()

#: The process-wide recorder every instrumented call site goes through.
RECORDER: NullRecorder | Recorder = _NULL


def enable(registry: MetricsRegistry | None = None,
           tracer: Tracer | None = None,
           trace_capacity: int = 64) -> Recorder:
    """Install (or return) the live recorder.

    Idempotent: enabling while already enabled returns the existing
    recorder unchanged, unless an explicit ``registry``/``tracer`` is
    passed, in which case a fresh recorder replaces it.
    """
    global RECORDER
    if isinstance(RECORDER, Recorder) and registry is None and tracer is None:
        return RECORDER
    RECORDER = Recorder(
        registry=registry,
        tracer=tracer if tracer is not None else Tracer(capacity=trace_capacity),
    )
    return RECORDER


def disable() -> None:
    """Swap the no-op recorder back in; recorded data is discarded."""
    global RECORDER
    RECORDER = _NULL


def is_enabled() -> bool:
    return RECORDER.enabled


def reset() -> None:
    """Clear metrics and traces without toggling enablement."""
    if isinstance(RECORDER, Recorder):
        RECORDER.reset()
