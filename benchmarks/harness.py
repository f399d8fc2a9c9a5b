"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` regenerates one table or figure of the paper (see
DESIGN.md §4 and EXPERIMENTS.md). Benchmarks print their reproduction table
to stdout; run with ``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.platform import Workspace


def build_sales_workspace(
    num_rows: int = 10_000,
    regions: tuple[str, ...] = ("US", "EU", "APAC"),
) -> tuple[Workspace, object, object]:
    """A workspace with a populated, granted ``main.s.sales`` table.

    Returns (workspace, standard_cluster, admin_client).
    """
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    cluster = ws.create_standard_cluster()
    admin = cluster.connect("admin")
    admin.sql(
        "CREATE TABLE main.s.sales (id int, region string, amount float, a int, b int)"
    )
    ctx = ws.catalog.principals.context_for("admin")
    ws.catalog.write_table(
        "main.s.sales",
        {
            "id": list(range(num_rows)),
            "region": [regions[i % len(regions)] for i in range(num_rows)],
            "amount": [float(i % 500) for i in range(num_rows)],
            "a": [i % 97 for i in range(num_rows)],
            "b": [i % 31 for i in range(num_rows)],
        },
        ctx,
    )
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.s TO analysts")
    admin.sql("GRANT SELECT ON main.s.sales TO analysts")
    return ws, cluster, admin


def simple_udf_fn(a, b):
    """Table 2's 'Simple UDF': sum(a+b) — negligible compute per row."""
    return a + b


def hash_udf_fn(a, b):
    """Table 2's 'Hash UDF': 100 iterations of SHA-256 — CPU-dense."""
    data = f"{a}:{b}".encode()
    for _ in range(100):
        data = hashlib.sha256(data).digest()
    return data.hex()


def median_time(fn, repeats: int = 5) -> float:
    """Median wall time of ``fn()`` over ``repeats`` runs (seconds)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def best_time(fn, repeats: int = 7) -> float:
    """Minimum wall time of ``fn()`` — the standard noise-robust estimator."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def write_bench_json(
    name: str,
    params: dict,
    phases: list[dict] | None = None,
    extra: dict | None = None,
) -> Path:
    """Persist one benchmark's machine-readable result next to the suite.

    Writes ``BENCH_<name>.json`` with the run parameters and per-phase
    timings (typically derived from telemetry spans), so the performance
    trajectory is diffable across PRs.
    """
    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    record = {
        "name": name,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # Timings are meaningless without the host's core count.
        "cpu_count": os.cpu_count(),
        "params": params,
        "phases": phases or [],
    }
    if extra:
        record.update(extra)
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return path


_RESULTS_HEADER = """\
Machine-readable benchmark records, rendered from benchmarks/BENCH_*.json.
This file is GENERATED — do not edit; regenerate after any benchmark run:

    PYTHONPATH=src python benchmarks/harness.py

(tests/test_documentation.py fails if it drifts from the JSON records.)
The paper-style reproduction tables print live via `pytest benchmarks/ -s`;
EXPERIMENTS.md discusses paper-vs-measured numbers.
"""


def _render_value(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_value(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val if val != [] and val != {} else '(none)'}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_value(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def render_bench_records(directory: Path | None = None) -> str:
    """Deterministic text rendering of every ``BENCH_*.json`` record.

    The single source of truth for ``RESULTS.txt``: same JSON set in, same
    text out, so the checked-in file provably matches the checked-in records.
    """
    directory = directory or Path(__file__).resolve().parent
    lines = [_RESULTS_HEADER]
    for path in sorted(directory.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        lines.append(f"=== {path.name} ===")
        lines.extend(_render_value(record))
        lines.append("")
    return "\n".join(lines)


def regenerate_results(directory: Path | None = None) -> Path:
    """Rewrite ``benchmarks/RESULTS.txt`` from the current JSON set."""
    directory = directory or Path(__file__).resolve().parent
    path = directory / "RESULTS.txt"
    path.write_text(render_bench_records(directory))
    return path


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """ASCII table matching the style of the paper's tables."""
    str_rows = [[str(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in str_rows:
        print(" | ".join(v.ljust(w) for v, w in zip(row, widths)))


if __name__ == "__main__":
    print(regenerate_results())
