"""The machine-speed reference: a fixed pure-Python loop.

On a shared 2-vCPU virtual machine the CPU speed drifts by ±15%
within seconds and by more between runs, which moves every timing
with it. The load generator times this loop on its (pinned) CPU after
every iteration, while the server, on the same CPU, is idle; every
timing is then reported at the nominal speed: ``raw * NOMINAL_MS / loop time near the moment it was
taken``. A change to the program cannot change this loop, so the
scaling removes drift and nothing else. The raw loop time is reported
as ``machine.ref_loop_ms``.
"""

from __future__ import annotations

import statistics
import time

#: the loop time (ms) timings are scaled to: about the typical speed
#: of the 2-vCPU machine the benchmark was tuned on, so scaled values
#: read close to raw ones
NOMINAL_MS = 1.5
#: iterations of one loop sample (~1.5 ms)
LOOP_N = 20_000
#: neighbouring samples whose median is an iteration's speed, so one
#: interrupted sample does not mis-scale an iteration
WINDOW = 5


def loop_ms() -> float:
    """One timed run of the reference loop, in ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def smoothed(samples: list[float]) -> list[float]:
    """Each sample replaced by the median of its ``WINDOW`` neighbours."""
    half = WINDOW // 2
    return [statistics.median(samples[max(0, k - half):k + half + 1])
            for k in range(len(samples))]


def factors(samples: list[float]) -> list[float]:
    """Per-sample scale factors to the nominal speed."""
    return [NOMINAL_MS / s for s in smoothed(samples)]
