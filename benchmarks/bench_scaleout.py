"""Scale-out execution backends: 1 -> 4 workers, process vs thread.

One CPU-dense fused scan→filter→project query (a compiled kernel over a
multi-file governed table) runs on the process backend with a 1-worker and a
4-worker pool, and on the thread backend with 1 and 4 executors. Worker
processes sidestep the GIL, so on a ≥4-core host the process backend is
*asserted* to scale ≥2.5× while threads stay <1.3×; on smaller hosts the
numbers are recorded, not asserted (``cpu_count`` lands in the JSON either
way). No committed record comes from a host where the assertion ran.

(Until PR 21 this file also compared the subprocess sandbox's two batch
transports; the boundary has one now, measured by the ``sandbox_udf``
workload of ``benchmarks/e2e``.)

Emits ``BENCH_scaleout.json``.
"""

from __future__ import annotations

import os

import pytest

from harness import best_time, print_table, write_bench_json

from repro.platform import Workspace

NUM_FILES = 8
ROWS_PER_FILE = 4_000
POOL_SIZES = (1, 4)

#: One arithmetic-heavy projection battery: enough per-row compute that the
#: worker-side kernel dominates the shm handoff and pipe control traffic.
PROJECTIONS = ", ".join(
    f"amount * {i}.5 + id * {i + 1}.0 AS x{i}" for i in range(8)
)
QUERY = (
    f"SELECT id, {PROJECTIONS} FROM main.s.sales "
    "WHERE amount > 1.0 ORDER BY id"
)

RESULTS: dict = {}


def _build_workspace() -> Workspace:
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    ctx = ws.catalog.principals.context_for("admin")
    from repro.engine.types import FLOAT, INT, STRING, Field, Schema

    ws.catalog.create_table(
        "main.s.sales",
        Schema(
            (
                Field("id", INT),
                Field("region", STRING),
                Field("amount", FLOAT),
            )
        ),
        owner="admin",
    )
    regions = ("US", "EU", "APAC")
    for commit in range(NUM_FILES):
        base = commit * ROWS_PER_FILE
        ws.catalog.write_table(
            "main.s.sales",
            {
                "id": list(range(base, base + ROWS_PER_FILE)),
                "region": [regions[i % 3] for i in range(ROWS_PER_FILE)],
                "amount": [float(i % 500) for i in range(ROWS_PER_FILE)],
            },
            ctx,
        )
    admin = ws.create_standard_cluster(name="setup").connect("admin")
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.s TO analysts")
    admin.sql("GRANT SELECT ON main.s.sales TO analysts")
    return ws


def test_worker_scaling():
    """(a) 1 → 4 workers, process vs thread backend, identical results."""
    ws = _build_workspace()
    timings: dict[tuple[str, int], float] = {}
    reference_rows = None
    rows_out: list[list] = []

    configs = [("process", n) for n in POOL_SIZES] + [
        ("thread", n) for n in POOL_SIZES
    ]
    for backend, n in configs:
        cluster = ws.create_standard_cluster(
            name=f"{backend}-{n}",
            worker_backend=backend,
            num_executors=4 if backend == "process" else n,
            worker_pool_size=n,
        )
        alice = cluster.connect("alice")
        rows = alice.sql(QUERY).collect()  # warm caches + correctness probe
        if reference_rows is None:
            reference_rows = rows
        assert rows == reference_rows, f"{backend}/{n} diverged"

        timings[(backend, n)] = best_time(
            lambda: alice.sql(QUERY).collect(), repeats=3
        )
        cluster.shutdown()

    process_scaling = timings[("process", 1)] / timings[("process", 4)]
    thread_scaling = timings[("thread", 1)] / timings[("thread", 4)]
    for backend, n in configs:
        base = timings[(backend, 1)]
        rows_out.append(
            [backend, n, f"{timings[(backend, n)] * 1000:.1f}",
             f"{base / timings[(backend, n)]:.2f}x"]
        )
    print_table(
        f"Fused-kernel scan, {NUM_FILES}x{ROWS_PER_FILE} rows "
        f"(cpu_count={os.cpu_count()})",
        ["backend", "workers", "query ms", "scaling"],
        rows_out,
    )
    RESULTS["scaling"] = {
        "num_files": NUM_FILES,
        "rows_per_file": ROWS_PER_FILE,
        "query_ms": {
            f"{backend}[{n}]": timings[(backend, n)] * 1000
            for backend, n in configs
        },
        "process_scaling_1_to_4": process_scaling,
        "thread_scaling_1_to_4": thread_scaling,
    }
    # The GIL-sidestep claim is only observable with real cores to scale
    # onto; smaller hosts record the numbers without asserting them.
    if (os.cpu_count() or 1) >= 4:
        assert process_scaling >= 2.5, (
            f"process backend scaled only {process_scaling:.2f}x on a "
            f"{os.cpu_count()}-core host"
        )
        assert thread_scaling < 1.3, (
            f"thread backend unexpectedly scaled {thread_scaling:.2f}x"
        )


def test_write_json():
    """Persist the measurement (runs after the benchmark above)."""
    if "scaling" not in RESULTS:
        pytest.skip("benchmarks did not run")
    path = write_bench_json(
        "scaleout",
        params={
            "num_files": NUM_FILES,
            "rows_per_file": ROWS_PER_FILE,
            "pool_sizes": list(POOL_SIZES),
        },
        extra={"results": RESULTS},
    )
    print(f"\nwrote {path}")
