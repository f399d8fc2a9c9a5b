"""One workload in one fresh process: set up, warm up, time, verify, tear down.

``run.py`` starts this file once per measurement so that every workload gets
its own ``peak_rss_mb`` and no cache carries over. The child

1. scrubs every ``LAKEGUARD_*`` variable (default configuration only);
2. with ``--traced 1``, installs the probes *before* the workspace exists;
3. builds the fixture and runs the untimed warm-up pass — all of which is
   ``setup_s``, counted from the moment the parent spawned the process;
4. runs the fixed, seeded op sequence closed-loop, checking every result
   outside its timed interval;
5. calls ``Workspace.shutdown()`` and asserts that no shared-memory segment
   and no child process is left;
6. prints one JSON object on a line starting with ``E2E_RESULT``.

Host speed. On a shared host the same code runs 10-20 % faster or slower
from one minute to the next, which would drown a 10 % regression bound. The
client threads therefore run a tiny fixed computation (``calibration_sample``,
nothing of the program in it) between ops, off the clock, about fifty times
a second. The run's ``host_slowdown`` is the median sample over a pinned
reference, and every time-valued metric is reported at reference speed
(divided by it; ``ops_per_s`` multiplied). The raw values are kept beside
them in the record. See README.md, "Host-speed normalisation".

A harness error (anything other than an op failing) exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any

RESULT_MARKER = "E2E_RESULT "
#: Ops whose raw spans are kept in the traced output (aggregates cover all ops).
SPAN_SAMPLE_OPS = 2
#: A run that takes this many times its nominal duration stops issuing ops, so
#: a badly regressed build still reports (as truncated) inside the time cap.
OVERRUN_FACTOR = 4.0


#: Thread-CPU seconds one ``calibration_sample`` takes on the host this
#: benchmark was defined on (median of 50 runs). Only a scale: it makes
#: ``host_slowdown`` read about 1 there.
REFERENCE_CALIBRATION_S = 0.00049
#: Least time between two calibration samples on one client thread.
CALIBRATION_INTERVAL_S = 0.02
#: Samples taken when set-up ends, to express ``setup_s`` at reference speed.
SETUP_CALIBRATION_SAMPLES = 25
_CALIBRATION_ROWS = [float(i) for i in range(3000)]


def calibration_sample() -> float:
    """Thread-CPU seconds of a fixed mix of dict, float and pickle work.

    Thread CPU time, not wall time: with two client threads a sample must
    not count the time it waited for the interpreter lock.
    """
    start = time.thread_time()
    totals: dict[int, float] = {}
    for i in range(4000):
        key = i % 97
        totals[key] = totals.get(key, 0.0) + i * 1.1
    pickle.loads(pickle.dumps(_CALIBRATION_ROWS))
    return time.thread_time() - start


def slowdown_of(samples: list[float]) -> float:
    """How much slower than the reference host these samples ran (1.0 = same)."""
    return statistics.median(samples) / REFERENCE_CALIBRATION_S


def percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class ClientThread:
    """One closed-loop client: issues its ops in order, waits for each reply."""

    def __init__(self, indexed_ops: list[tuple[int, Any]]):
        self.indexed_ops = indexed_ops
        self.latencies: list[tuple[int, float]] = []
        self.failures: list[tuple[int, str]] = []
        #: Wall and CPU time this thread spent checking results (not timed work).
        self.check_wall = 0.0
        self.check_cpu = 0.0
        self.calibration: list[float] = []
        self.ident = 0
        self.harness_error: BaseException | None = None

    def run(self, workload: Any, run: Any, oracle: Any, full: frozenset[int],
            tracer: Any, deadline: float, start: threading.Barrier) -> None:
        """Issue every op; record its latency, then verify it off the clock."""
        self.ident = threading.get_ident()
        try:
            start.wait()
            clock = time.perf_counter
            calibrated_at = 0.0
            for index, op in self.indexed_ops:
                began = clock()
                if began > deadline:
                    break
                problem = rows = None
                try:
                    if tracer is None:
                        rows = workload.build(run, op).collect()
                    else:
                        rows = tracer.run_op(index, lambda: workload.build(run, op))
                except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                    problem = f"raised {type(exc).__name__}: {exc}"
                ended = clock()
                self.latencies.append((index, ended - began))
                cpu_before = time.thread_time()
                if problem is None:
                    problem = oracle.check(op, rows, index in full)
                if problem is not None:
                    self.failures.append((index, problem))
                if ended - calibrated_at >= CALIBRATION_INTERVAL_S:
                    calibrated_at = ended
                    self.calibration.append(calibration_sample())
                self.check_cpu += time.thread_time() - cpu_before
                self.check_wall += clock() - ended
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            self.harness_error = exc


def run_untimed(workload: Any, run: Any, oracle: Any, ops: list[Any], label: str) -> list[str]:
    """Run and fully check ops outside the timed region (warm-up, final reads)."""
    problems = []
    for position, op in enumerate(ops):
        try:
            rows = workload.build(run, op).collect()
            problem = oracle.check(op, rows, True)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            problems.append(f"{label} op {position}: {problem}")
    return problems


def live_child_pids() -> list[int]:
    """Direct children of this process that still exist (Linux ``/proc``)."""
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def teardown(run: Any) -> None:
    """Shut the workspace down and insist nothing outlives it."""
    from multiprocessing import resource_tracker

    from repro.common import shmbuf

    run.fixture.workspace.shutdown()
    leaked = shmbuf.live_segment_names()
    if leaked:
        raise RuntimeError(f"shared-memory segments left after shutdown: {leaked}")
    # The interpreter's own shared-memory tracker is a child process too; it
    # normally lingers until exit, so stop it and wait for it here.
    resource_tracker._resource_tracker._stop()
    children = live_child_pids()
    if children:
        raise RuntimeError(f"child processes left after shutdown: {children}")


def main(argv: list[str]) -> int:
    """Entry point; see the module docstring for the sequence."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--fraction", type=float, default=1.0,
                        help="run only this leading share of the op sequence")
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--baseline", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    for name in [n for n in os.environ if n.startswith("LAKEGUARD_")]:
        del os.environ[name]

    from oracle import Oracle
    from workloads import WORKLOADS

    recorder = None
    if args.traced:
        import layers
        import probes

        recorder = probes.Recorder()
        recorder.install()

    workload = WORKLOADS[args.workload]
    run = workload.start(args.seed, bool(args.baseline))
    data = run.fixture.data
    oracle = Oracle(data, run.principals)
    total_ops = workload.op_count(args.seconds)
    count = max(workload.threads, round(total_ops * args.fraction))
    ops = workload.ops(args.seed, total_ops, data)[:count]
    full = workload.full_checks(args.seed, total_ops)
    problems = run_untimed(workload, run, oracle, workload.warmup_ops(args.seed, data), "warm-up")
    setup_raw_s = time.time() - args.spawned_at
    setup_slowdown = slowdown_of([calibration_sample() for _ in range(SETUP_CALIBRATION_SAMPLES)])

    result: dict[str, Any] = {
        "workload": workload.name,
        "setup_s": setup_raw_s / setup_slowdown,
        "setup_raw_s": setup_raw_s,
        "setup_host_slowdown": setup_slowdown,
    }
    if args.setup_only:
        teardown(run)
        print(RESULT_MARKER + json.dumps(result), flush=True)
        return 0

    before = layers.snapshot_counters(run) if recorder is not None else None
    clients = [
        ClientThread([(i, op) for i, op in enumerate(ops) if i % workload.threads == t])
        for t in range(workload.threads)
    ]
    barrier = threading.Barrier(workload.threads + 1)
    deadline = time.perf_counter() + OVERRUN_FACTOR * max(args.seconds, 1.0)
    threads = [
        threading.Thread(
            target=client.run, name=f"e2e-client-{t}",
            args=(workload, run, oracle, full, recorder, deadline, barrier),
        )
        for t, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    for client in clients:
        if client.harness_error is not None:
            raise client.harness_error
    after = layers.snapshot_counters(run) if recorder is not None else None

    problems += run_untimed(workload, run, oracle, workload.final_ops(), "final")
    footprint = (
        layers.storage_footprint(run, [spec.name for spec in workload.specs])
        if recorder is not None else {}
    )
    teardown(run)

    latencies = sorted(pair for client in clients for pair in client.latencies)
    attempted = len(latencies)
    if attempted == 0:
        raise RuntimeError("no op was attempted")
    failures = sorted(pair for client in clients for pair in client.failures)
    # Warm-up and final checks are not timed ops, but a wrong answer there is
    # still a wrong answer: it counts as a failure too.
    problems += [f"op {index} (seed {args.seed}): {text}" for index, text in failures]
    # Everything below is expressed at reference host speed.
    slowdown = slowdown_of([sample for client in clients for sample in client.calibration])
    latencies = [(index, seconds / slowdown) for index, seconds in latencies]
    wall_raw, cpu_raw = wall, cpu
    wall, cpu = wall / slowdown, cpu / slowdown
    ordered = sorted(seconds for _, seconds in latencies)
    # Result checks run on the client threads between ops; they are not work
    # the system did, so their wall and CPU time are taken out.
    check_wall = sum(client.check_wall for client in clients) / len(clients) / slowdown
    check_cpu = sum(client.check_cpu for client in clients) / slowdown
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        attempted=attempted,
        failed=len(problems),
        planned_ops=count,
        truncated=attempted < count,
        problems=problems[:20],
        ops_per_s=attempted / (wall - check_wall),
        latency_p50_ms=1e3 * percentile(ordered, 50.0),
        latency_tail_ms=1e3 * percentile(ordered, workload.tail_percentile),
        latency_mean_ms=1e3 * sum(ordered) / attempted,
        cpu_ms_per_op=1e3 * (cpu - check_cpu) / attempted,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        failed_share=min(1.0, len(problems) / attempted),
        host_slowdown=slowdown,
        calibration_samples=sum(len(client.calibration) for client in clients),
        timed_wall_raw_s=wall_raw,
        timed_cpu_raw_s=cpu_raw,
        tail_percentile=workload.tail_percentile,
        samples_beyond_tail=int(attempted * (100.0 - workload.tail_percentile) / 100.0),
        latencies_ms=[round(1e3 * seconds, 4) for _, seconds in latencies],
    )
    if recorder is not None:
        client_threads = {client.ident for client in clients}
        totals = probes.aggregate(recorder, client_threads)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        extra = dict(footprint)
        extra["rows_changed"] = float(oracle.rows_changed)
        extra["user_bytes_written"] = float(oracle.user_bytes_written)
        extra["sandbox.worker_cpu_ms_per_op"] = (
            1e3 * (children.ru_utime + children.ru_stime) / attempted / slowdown
        )
        inputs = layers.LayerInputs(
            ops=attempted,
            totals=totals,
            delta={k: after[k] - before.get(k, 0.0) for k in after},
            end=after,
            op_seconds=sum(ordered),
            time_scale=1.0 / slowdown,
            extra=extra,
        )
        result["layers"] = layers.evaluate(inputs)
        result.update(probes.record_of(recorder, totals, SPAN_SAMPLE_OPS))
    print(RESULT_MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
