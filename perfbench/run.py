"""Served §4 interaction benchmark: one command, every metric.

    python3 perfbench/run.py --workload browse|analyze|edit_watch \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load generator builds the seeded
database file (untimed), starts ``server.py`` in its own process, and
drives it closed-loop, one request in flight, from a single thread over
one connection (two for ``edit_watch``). End-to-end metrics come from
an untraced run. With ``--trace 1`` a second, traced server on a fresh
copy of the file replays the same request stream; its spans give the
per-layer metrics and its status snapshots around a fixed window of
iterations give exact per-layer counts. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: set-up opens per run; setup_s is their median
OPENS = 7
#: seconds to wait for a server to announce its port or to exit
SERVER_WAIT_S = 120


class Server:
    """One ``server.py`` process; stopped and waited for on exit."""

    def __init__(self, root: str, db: str, out: str, *, pristine=None,
                 opens: int = 1, trace: int = 0):
        cmd = [sys.executable, os.path.join(HERE, "server.py"), "--db", db,
               "--opens", str(opens), "--trace", str(trace), "--out", out]
        if pristine:
            cmd += ["--pristine", pristine]
        # a fixed hash seed keeps set iteration, and so the exact
        # per-layer counts, identical between runs of one seed
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.out = out
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(SERVER_WAIT_S)
            raise RuntimeError("server exited during set-up")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        code = self.proc.wait(SERVER_WAIT_S)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        with open(self.out) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(SERVER_WAIT_S)


def run_segment(root: str, work: str, workload, pristine: str,
                seconds: float, trace: int) -> dict:
    """Serve a fresh copy of the database and drive one timed run."""
    from speed import loop_ms
    from wire import Wire

    db = os.path.join(work, f"served-{trace}.db")
    server = Server(root, db, os.path.join(work, f"report-{trace}.json"),
                    pristine=pristine, opens=OPENS, trace=trace)
    marks = []
    try:
        wire = Wire("127.0.0.1", server.port, workload.roles)
        try:
            workload.open(wire)
            for i in range(workload.warmup):
                workload.step(i)
            i = workload.warmup
            # a collection in this process would land inside a measured
            # latency; cyclic garbage waits until the loop ends
            gc.collect()
            gc.freeze()
            gc.disable()
            workload.recording = True
            #: per timed iteration: (samples so far, push lags so far,
            #: seconds spent in the iteration, reference loop ms)
            iterations = []

            def timed_step(i: int) -> None:
                begin = time.perf_counter()
                workload.step(i)
                busy = time.perf_counter() - begin
                # the server is idle now (closed loop): sample the speed
                iterations.append((len(workload.samples),
                                   len(workload.push_lags), busy, loop_ms()))

            start = time.perf_counter()
            if trace:
                marks.append(workload.setup_call(0, "stats")["id"])
                for __ in range(workload.count_window):
                    timed_step(i)
                    i += 1
                marks.append(workload.setup_call(0, "stats")["id"])
            while time.perf_counter() - start < seconds:
                timed_step(i)
                i += 1
            workload.recording = False
            gc.enable()
            gc.unfreeze()
            workload.finish()
        finally:
            wire.close()
        report = server.stop()
    finally:
        server.kill()
    report["iterations"] = iterations
    report["marks"] = marks
    report["db"] = db
    return report


def restart_check(root: str, work: str, workload, db: str) -> None:
    """Reopen the served file (WAL recovery) and check every write."""
    from wire import Wire

    server = Server(root, db, os.path.join(work, "report-restart.json"))
    try:
        wire = Wire("127.0.0.1", server.port, 1)
        try:
            workload.restart_check(wire)
        finally:
            wire.close()
        server.stop()
    finally:
        server.kill()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("browse", "analyze", "edit_watch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    # The load generator and the server (which inherits this) share one
    # CPU. With one request in flight nothing runs in parallel, and each
    # hand-off (client -> event loop -> executor thread -> client) is a
    # context switch on that core instead of a cross-core wake-up whose
    # latency depends on the other core's idle state and neighbours
    # (measured effect: perfbench/README.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from report import end_to_end, per_layer
    from workloads import WORKLOADS, make_dataset

    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        pristine = os.path.join(work, "pristine.db")
        data = make_dataset(args.workload, args.seed, pristine)
        cls = WORKLOADS[args.workload]
        plain = cls(args.seed, data)
        # a traced invocation splits its time between the untraced run
        # (overhead baseline) and the traced one
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_segment(root, work, plain, pristine, seconds, 0)
        if hasattr(plain, "restart_check"):
            restart_check(root, work, plain, untraced["db"])
        runs = [plain]
        if args.trace:
            traced_wl = cls(args.seed, data)
            traced = run_segment(root, work, traced_wl, pristine,
                                 seconds, 1)
            runs.append(traced_wl)
        data.close()
        print("perfbench: machine.ref_loop_ms=" + str(statistics.median(
            it[3] for it in untraced["iterations"])), file=sys.stderr)
        if args.trace:
            metrics = per_layer(plain, untraced, traced_wl, traced)
        else:
            metrics = end_to_end(plain, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(w.attempted for w in runs)
    failures = [f for w in runs for f in w.failures]
    for message in failures[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
