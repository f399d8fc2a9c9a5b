"""E4 — Fig. 5: the Spark Connect execution flow, phase by phase.

The figure's pipeline: client DataFrame ops → wire plan → transport →
analyze/optimize/execute → result stream → client. Since the QueryContext
refactor the server records every phase as a span, so this benchmark runs a
real governed query through the Connect service and reads the breakdown out
of the trace tree — the exact same numbers ``system.access.query_profile``
serves — instead of wrapping the phases in its own stopwatches.

Emits ``BENCH_fig5_connect_flow.json`` with the per-phase span timings.
"""

import time

import pytest

from harness import build_sales_workspace, print_table, write_bench_json

from repro.connect import proto
from repro.connect.client import col, udf

NUM_ROWS = 20_000


@pytest.fixture(scope="module")
def stack():
    ws, cluster, admin = build_sales_workspace(num_rows=NUM_ROWS)
    admin.sql("ALTER TABLE main.s.sales SET ROW FILTER (amount >= 0.0)")
    alice = cluster.connect("alice")
    return ws, cluster, alice


def build_client_plan(alice):
    return (
        alice.table("main.s.sales")
        .filter(col("amount") > 100.0)
        .select(col("id"), (col("amount") * 1.1).alias("gross"))
        .relation
    )


def test_phase_breakdown_from_spans(stack):
    ws, cluster, alice = stack

    client_start = time.perf_counter()
    relation = build_client_plan(alice)
    client_build = time.perf_counter() - client_start

    df_rows = alice.execute_relation(relation)
    trace_id = alice.last_trace_id

    telemetry = cluster.backend.telemetry
    spans = telemetry.spans(trace_id=trace_id)
    assert spans, "the governed query must have produced a trace"

    (service,) = [s for s in spans if s.kind == "service.operation"]
    stage_spans = sorted(
        (s for s in spans if s.kind == "pipeline.stage"), key=lambda s: s.start
    )
    total = service.duration

    phases = [
        {"phase": "client plan build", "seconds": client_build},
    ]
    for span in stage_spans:
        phases.append(
            {"phase": f"server {span.attributes['stage']}", "seconds": span.duration}
        )
    in_stages = sum(s.duration for s in stage_spans)
    phases.append(
        {"phase": "service overhead", "seconds": max(0.0, total - in_stages)}
    )

    print_table(
        "Fig. 5 — Spark Connect flow phase breakdown (from spans)",
        ["phase", "ms", "% of service op"],
        [
            [
                p["phase"],
                f"{p['seconds'] * 1000:.3f}",
                f"{p['seconds'] / total * 100:.1f}%" if total else "-",
            ]
            for p in phases
        ],
    )
    print(telemetry.trace_tree(trace_id))

    out = write_bench_json(
        "fig5_connect_flow",
        params={"num_rows": NUM_ROWS, "trace_id": trace_id},
        phases=phases,
        extra={
            "span_kinds": sorted(telemetry.span_kinds(trace_id)),
            "result_rows": len(df_rows[1][0]) if df_rows[1] else 0,
        },
    )
    print(f"wrote {out}")

    # Shape assertions: every enforcement stage appears, execution dominates
    # the wire-protocol bookkeeping, and the trace is internally consistent.
    stages = [s.attributes["stage"] for s in stage_spans]
    assert stages == [
        "parse", "resolve-secure", "efgac-rewrite", "optimize",
        "encode-plan", "execute", "stream",
    ]
    execute = next(s for s in stage_spans if s.attributes["stage"] == "execute")
    parse = next(s for s in stage_spans if s.attributes["stage"] == "parse")
    assert execute.duration > parse.duration, "execution must dominate parsing"
    assert all(s.start >= service.start for s in stage_spans)


def test_sandboxed_udf_phases_visible(stack):
    ws, cluster, alice = stack

    @udf("float")
    def boost(x):
        return x * 2.0

    # The phase-breakdown test shares this stack and leaves alice a live
    # cached credential (in the cluster's credential cache); revoke
    # it so this query vends one of its own.
    ws.catalog.vendor.revoke_identity("alice")
    alice.table("main.s.sales").select(boost(col("amount")).alias("b")).collect()
    kinds = cluster.backend.telemetry.span_kinds(alice.last_trace_id)
    assert {"sandbox.exec", "executor.task", "credential.vend"} <= kinds


def test_benchmark_end_to_end_query(benchmark, stack):
    ws, cluster, alice = stack
    df = alice.table("main.s.sales").filter(col("amount") > 450.0)
    benchmark(df.collect)


def test_benchmark_plan_serialization(benchmark, stack):
    ws, cluster, alice = stack
    relation = build_client_plan(alice)
    benchmark(lambda: proto.decode_message(proto.encode_message(relation)))


def test_benchmark_analysis_only(benchmark, stack):
    ws, cluster, alice = stack
    relation = build_client_plan(alice)
    session = cluster.backend._ephemeral_session("alice")
    decoder = cluster.backend._decoder(session)
    engine = cluster.backend.engine_for(session)
    plan = decoder.relation(relation)
    benchmark(lambda: engine.analyze(plan))
