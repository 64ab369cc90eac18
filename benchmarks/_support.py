"""Reporting helpers shared by the benchmark files."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


@contextmanager
def capture_metrics() -> Iterator[Any]:
    """Enable a fresh observability recorder for one benchmark block.

    Yields the live :class:`repro.obs.Recorder`; snapshot it with
    ``recorder.registry.export()`` (or :func:`metrics_snapshot`) before
    the block ends — the recorder is disabled (and its data dropped from
    the global hook) on exit, so benchmarks never leak instrumentation
    cost into each other::

        with capture_metrics() as recorder:
            run_workload()
            snap = recorder.registry.export()
    """
    from repro import obs

    recorder = obs.enable(registry=obs.MetricsRegistry(),
                          tracer=obs.Tracer())
    try:
        yield recorder
    finally:
        obs.disable()


def metrics_snapshot() -> dict[str, Any] | None:
    """The current registry export, or None when observability is off."""
    from repro import obs

    if not obs.is_enabled():
        return None
    return obs.RECORDER.registry.export()


def print_metrics(prefixes: list[str] | None = None) -> None:
    """Print the live metrics table, optionally filtered by name prefix."""
    from repro import obs

    if not obs.is_enabled():
        print("(observability disabled)")
        return
    table = obs.RECORDER.registry.render_table()
    if prefixes:
        lines = [
            line for line in table.splitlines()
            if not line.startswith("  ")
            or any(line.lstrip().startswith(p) for p in prefixes)
        ]
        table = "\n".join(lines)
    print(table)


def print_header(exp_id: str, title: str) -> None:
    print()
    print("=" * 74)
    print(f"[{exp_id}] {title}")
    print("=" * 74)


def print_table(headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def record_results(filename: str, payload: dict[str, Any],
                   quick: bool) -> str:
    """Write a full-mode run's results to ``filename`` at the repo root.

    Quick runs (the CI smokes) leave the committed record as it is:
    their sizes are smaller and their gates relaxed, so they are no
    record of the experiment. Returns the line to print.
    """
    if quick:
        return f"quick mode: {filename} not written (full-mode record)"
    path = Path(__file__).resolve().parent.parent / filename
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return f"results written to {filename}"
