"""E3 — §5 cold start: sandbox provisioning latency and its amortization.

The paper: "a maximum duration of cold start in all experiments of ≈2s...
this latency occurs only for the very first Python UDF across the whole
user session. Subsequent query executions reuse the already existing
sandbox."

Three measurements:
1. the modelled production cold start (provisioning + interpreter) ≈ 2 s;
2. the *real* cold start of the subprocess sandbox backend on the host;
3. amortization: N queries in one session pay exactly one cold start.

``test_record_cold_start`` writes the modelled figure and the median real
cold start / warm invoke to ``BENCH_cold_start.json``.
"""

import statistics
import time

import pytest

from harness import print_table, write_bench_json

from repro.common.clock import VirtualClock
from repro.engine.udf import udf
from repro.sandbox.cluster_manager import ClusterManager
from repro.sandbox.dispatcher import Dispatcher, SandboxedUDFRuntime
from repro.sandbox.cluster_manager import (
    DEFAULT_INTERPRETER_START_SECONDS,
    DEFAULT_PROVISION_SECONDS,
)
from repro.sandbox.subprocess_sandbox import SubprocessSandbox


@udf("int")
def plus(a, b):
    return a + b


ALICE_PLUS = plus.with_owner("alice")


def test_modelled_cold_start_matches_paper():
    """Provisioning (1.8 s) + interpreter start (0.2 s) ≈ the paper's 2 s."""
    clock = VirtualClock()
    manager = ClusterManager(
        clock=clock,
        provision_seconds=DEFAULT_PROVISION_SECONDS,
        interpreter_start_seconds=DEFAULT_INTERPRETER_START_SECONDS,
    )
    dispatcher = Dispatcher(manager, clock=clock)
    dispatcher.acquire("session", "alice")
    manager.shutdown()
    cold = dispatcher.stats.cold_start_seconds_max
    print_table(
        "Cold start (modelled, virtual clock)",
        ["phase", "seconds"],
        [
            ["sandbox provisioning", DEFAULT_PROVISION_SECONDS],
            ["python interpreter start", DEFAULT_INTERPRETER_START_SECONDS],
            ["total (paper: ~2s)", cold],
        ],
    )
    assert cold == pytest.approx(2.0)


def test_amortization_one_cold_start_per_session():
    clock = VirtualClock()
    manager = ClusterManager(clock=clock, provision_seconds=2.0)
    dispatcher = Dispatcher(manager, clock=clock)
    runtime = SandboxedUDFRuntime(dispatcher, "session-1")
    num_queries = 20
    for _ in range(num_queries):
        runtime.run_udf(ALICE_PLUS, [[1, 2], [3, 4]])
    manager.shutdown()
    print_table(
        "Amortization across a session",
        ["queries", "cold starts", "warm reuses", "total cold seconds"],
        [[num_queries, dispatcher.stats.cold_starts,
          dispatcher.stats.warm_acquisitions,
          f"{dispatcher.stats.cold_start_seconds_total:.1f}"]],
    )
    assert dispatcher.stats.cold_starts == 1
    assert dispatcher.stats.warm_acquisitions == num_queries - 1


def test_new_session_pays_again_new_domain_pays_again():
    clock = VirtualClock()
    manager = ClusterManager(clock=clock, provision_seconds=2.0)
    dispatcher = Dispatcher(manager, clock=clock)
    dispatcher.acquire("s1", "alice")
    dispatcher.acquire("s1", "bob")    # new trust domain: cold
    dispatcher.acquire("s2", "alice")  # new session: cold
    manager.shutdown()
    assert dispatcher.stats.cold_starts == 3


_REPS = 5


def _cold_start() -> None:
    sandbox = SubprocessSandbox("alice")
    sandbox.ping()
    sandbox.close()


def _median_ms(run) -> float:
    samples = []
    for _ in range(_REPS):
        start = time.perf_counter()
        run()
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def test_record_cold_start():
    """The real subprocess sandbox's cold start and warm invoke, beside the
    modelled figure, into ``BENCH_cold_start.json``."""
    cold_ms = _median_ms(_cold_start)
    sandbox = SubprocessSandbox("alice")
    try:
        sandbox.invoke(ALICE_PLUS, [[1], [2]])  # install + warm
        warm_ms = _median_ms(
            lambda: sandbox.invoke(ALICE_PLUS, [[1, 2, 3], [4, 5, 6]])
        )
    finally:
        sandbox.close()
    modelled_s = DEFAULT_PROVISION_SECONDS + DEFAULT_INTERPRETER_START_SECONDS
    print_table(
        "Cold start: modelled vs real (subprocess sandbox)",
        ["phase", "value"],
        [
            ["modelled cold start (s)", modelled_s],
            ["real cold start, median (ms)", f"{cold_ms:.1f}"],
            ["real warm invoke, median (ms)", f"{warm_ms:.2f}"],
        ],
    )
    assert warm_ms < cold_ms
    write_bench_json(
        "cold_start",
        params={"reps": _REPS},
        phases=[
            {"phase": "modelled cold start (provision + interpreter)",
             "seconds": modelled_s},
            {"phase": "real subprocess cold start, median", "ms": cold_ms},
            {"phase": "real warm invoke, median", "ms": warm_ms},
        ],
    )


def test_benchmark_real_subprocess_cold_start(benchmark):
    """The genuine fork/exec/import cost of the subprocess backend."""
    benchmark(_cold_start)


def test_benchmark_warm_invocation(benchmark):
    sandbox = SubprocessSandbox("alice")
    sandbox.invoke(ALICE_PLUS, [[1], [2]])  # install + warm
    try:
        benchmark(lambda: sandbox.invoke(ALICE_PLUS, [[1, 2, 3], [4, 5, 6]]))
    finally:
        sandbox.close()
