"""Compiled expression kernels vs the interpreter, quantified.

Three measurements over one expression-heavy workload (the shape a
governed scan actually pays for: row-filter predicates, masking CASEs,
derived numeric columns with repeated subexpressions):

(a) **Kernel speedup** — the same projection list evaluated by the tree
    interpreter and by one compiled kernel, per batch. This isolates the
    interpretation tax the compiler removes (tree dispatch per node,
    ``zip`` loops per element, no CSE).

(b) **Fusion ablation** — filter→project as one ``collect`` loop vs a
    mask loop and a projection loop (which materializes the filtered
    intermediate batch).

(c) **End-to-end** — the same governed query (row filter + column mask)
    on two otherwise-identical clusters, ``engine_compile`` on vs off,
    confirming identical rows and end-to-end gain.

Emits ``BENCH_kernel_compile.json`` with all three tables plus the live
kernel-cache counters.
"""

from __future__ import annotations

import pytest

from harness import best_time, print_table, write_bench_json

from repro.engine.batch import ColumnBatch
from repro.engine.compile import KernelCompiler, PipelineSpec
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    BoundRef,
    CaseWhen,
    Comparison,
    EvalContext,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Not,
)
from repro.engine.types import FLOAT, INT, STRING, Field, Schema
from repro.platform import Workspace

NUM_ROWS = 40_000
END_TO_END_ROWS = 12_000
REPEATS = 5

RESULTS: dict = {}

SCHEMA = Schema(
    (
        Field("id", INT),
        Field("region", STRING),
        Field("amount", FLOAT),
        Field("a", INT),
        Field("b", INT),
    )
)

ID = BoundRef(0, "id", INT)
REGION = BoundRef(1, "region", STRING)
AMOUNT = BoundRef(2, "amount", FLOAT)
A = BoundRef(3, "a", INT)
B = BoundRef(4, "b", INT)


def _make_batch(num_rows: int) -> ColumnBatch:
    regions = ("US", "EU", "APAC", None)
    return ColumnBatch(
        SCHEMA,
        [
            list(range(num_rows)),
            [regions[i % 4] for i in range(num_rows)],
            [None if i % 11 == 0 else float(i % 500) for i in range(num_rows)],
            [i % 97 for i in range(num_rows)],
            [i % 31 for i in range(num_rows)],
        ],
    )


def _mask_guard() -> BooleanOp:
    """One eligibility predicate, built fresh per call.

    Column-mask injection clones the same guard into every masked column's
    ``CASE`` — each clone is a distinct tree, so the interpreter re-evaluates
    it per column while the kernel's structural CSE computes it once per row.
    """
    return BooleanOp(
        "AND",
        InList(REGION, ("US", "EU")),
        Comparison("<", Arithmetic("*", AMOUNT, Literal(1.15)), Literal(460.0)),
    )


def _heavy_projection() -> tuple:
    """A wide governed SELECT: eight masked columns plus derived outputs —
    the shape a PII-heavy table takes after policy injection."""

    def masked(value, redacted):
        return CaseWhen([(_mask_guard(), value)], redacted)

    return (
        masked(ID, Literal(-1)),
        masked(AMOUNT, Literal(0.0)),
        masked(Arithmetic("+", Arithmetic("*", AMOUNT, Literal(1.15)), A), Literal(0.0)),
        masked(A, Literal(-1)),
        masked(B, Literal(-1)),
        masked(Arithmetic("*", A, B), Literal(-1)),
        masked(Arithmetic("/", AMOUNT, Arithmetic("+", B, Literal(1))), Literal(0.0)),
        masked(Arithmetic("%", Arithmetic("+", A, ID), Literal(13)), Literal(-1)),
        Arithmetic("%", Arithmetic("+", Arithmetic("*", A, B), ID), Literal(97)),
        FunctionCall("coalesce", (AMOUNT, Literal(0.0))),
        IsNull(AMOUNT, negated=True),
        Not(Comparison(">", Arithmetic("*", AMOUNT, Literal(1.15)), Literal(57.5))),
    )


def _heavy_predicate():
    return BooleanOp(
        "AND",
        BooleanOp(
            "OR",
            InList(REGION, ("US", "EU")),
            Comparison(">", Arithmetic("*", AMOUNT, Literal(1.15)), Literal(200.0)),
        ),
        Comparison("<", Arithmetic("%", A, Literal(7)), Literal(5)),
    )


def _collect(compiler, exprs, condition=None):
    """The compiled ``collect`` loop of ``exprs`` over the rows
    ``condition`` admits, and a call of it."""
    kernel = compiler.compile_pipeline_spec(
        PipelineSpec(condition, sink="collect", outputs=tuple(exprs))
    )
    assert kernel is not None
    return lambda batch, ctx: kernel.accumulate(batch, ctx, None)


def test_kernel_vs_interpreter():
    """(a) One expression-heavy projection: interpreter vs compiled kernel."""
    batch = _make_batch(NUM_ROWS)
    ctx = EvalContext()
    exprs = _heavy_projection()
    kernel = _collect(KernelCompiler(), exprs)

    # Same answers before any timing.
    assert kernel(batch, ctx) == [e.eval(batch, ctx) for e in exprs]

    t_interp = best_time(
        lambda: [e.eval(batch, ctx) for e in exprs], repeats=REPEATS
    )
    t_kernel = best_time(lambda: kernel(batch, ctx), repeats=REPEATS)
    speedup = t_interp / t_kernel

    print_table(
        f"Projection kernel vs interpreter ({NUM_ROWS} rows, "
        f"{len(exprs)} outputs)",
        ["evaluator", "batch ms", "speedup"],
        [
            ["interpreted", f"{t_interp * 1000:.1f}", "1.00x"],
            ["compiled", f"{t_kernel * 1000:.1f}", f"{speedup:.2f}x"],
        ],
    )
    RESULTS["kernel"] = {
        "num_rows": NUM_ROWS,
        "outputs": len(exprs),
        "interpreted_ms": t_interp * 1000,
        "compiled_ms": t_kernel * 1000,
        "speedup": speedup,
    }
    assert speedup >= 2.5, (
        f"compiled-over-interpreted speedup was only {speedup:.2f}x"
    )


def test_fused_filter_project_vs_unfused():
    """(b) filter→project fused into one loop vs two kernels + materialize."""
    batch = _make_batch(NUM_ROWS)
    ctx = EvalContext()
    cond = _heavy_predicate()
    exprs = _heavy_projection()
    compiler = KernelCompiler()
    fused = _collect(compiler, exprs, cond)
    predicate = _collect(compiler, (cond,))
    projection = _collect(compiler, exprs)

    def unfused():
        [mask] = predicate(batch, ctx)
        filtered = batch.filter(mask)
        return projection(filtered, ctx)

    assert fused(batch, ctx) == unfused()

    t_unfused = best_time(unfused, repeats=REPEATS)
    t_fused = best_time(lambda: fused(batch, ctx), repeats=REPEATS)
    speedup = t_unfused / t_fused

    print_table(
        f"Fused filter-project ({NUM_ROWS} rows)",
        ["plan", "batch ms", "speedup"],
        [
            ["two loops + intermediate batch", f"{t_unfused * 1000:.1f}", "1.00x"],
            ["fused single loop", f"{t_fused * 1000:.1f}", f"{speedup:.2f}x"],
        ],
    )
    RESULTS["fusion"] = {
        "num_rows": NUM_ROWS,
        "unfused_ms": t_unfused * 1000,
        "fused_ms": t_fused * 1000,
        "speedup": speedup,
    }
    assert speedup >= 1.0, f"fusion made things slower: {speedup:.2f}x"


def _build_governed_workspace() -> Workspace:
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    ctx = ws.catalog.principals.context_for("admin")
    ws.catalog.create_table("main.s.sales", SCHEMA, owner="admin")
    regions = ("US", "EU", "APAC")
    ws.catalog.write_table(
        "main.s.sales",
        {
            "id": list(range(END_TO_END_ROWS)),
            "region": [regions[i % 3] for i in range(END_TO_END_ROWS)],
            "amount": [float(i % 500) for i in range(END_TO_END_ROWS)],
            "a": [i % 97 for i in range(END_TO_END_ROWS)],
            "b": [i % 31 for i in range(END_TO_END_ROWS)],
        },
        ctx,
    )
    admin = ws.create_standard_cluster(name="setup").connect("admin")
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.s TO analysts")
    admin.sql("GRANT SELECT ON main.s.sales TO analysts")
    admin.sql(
        "ALTER TABLE main.s.sales SET ROW FILTER "
        "(amount > 10.0 AND (region = 'US' OR region = 'EU'))"
    )
    admin.sql(
        "ALTER TABLE main.s.sales ALTER COLUMN id SET MASK "
        "(CASE WHEN is_account_group_member('analysts') THEN id ELSE 0 - 1 END)"
    )
    return ws


def test_end_to_end_engine_compile():
    """(c) The same governed query, ``engine_compile`` on vs off."""
    ws = _build_governed_workspace()
    query = (
        "SELECT id, upper(region) AS r, "
        "amount * 1.15 + a AS gross, "
        "(a * b + id) % 97 AS shard, "
        "amount / (b + 1.0) AS unit "
        "FROM main.s.sales "
        "WHERE amount * 1.15 < 500.0 AND a % 7 < 5"
    )

    timings: dict[str, float] = {}
    reference: dict[str, list] = {}
    for label, enabled in (("interpreted", False), ("compiled", True)):
        cluster = ws.create_standard_cluster(
            name=label, engine_compile=enabled, num_executors=1
        )
        alice = cluster.connect("alice")
        reference[label] = alice.sql(query).collect()  # warm plan/kernel caches
        timings[label] = best_time(
            lambda: alice.sql(query).collect(), repeats=REPEATS
        )
        if enabled:
            RESULTS["kernel_cache"] = cluster.backend.kernel_cache.stats_snapshot()

    assert reference["compiled"] == reference["interpreted"]
    assert len(reference["compiled"]) > 0
    speedup = timings["interpreted"] / timings["compiled"]

    print_table(
        f"End-to-end governed query ({END_TO_END_ROWS} rows, FGAC on)",
        ["engine_compile", "query ms", "speedup"],
        [
            ["off", f"{timings['interpreted'] * 1000:.1f}", "1.00x"],
            ["on", f"{timings['compiled'] * 1000:.1f}", f"{speedup:.2f}x"],
        ],
    )
    RESULTS["end_to_end"] = {
        "num_rows": END_TO_END_ROWS,
        "interpreted_ms": timings["interpreted"] * 1000,
        "compiled_ms": timings["compiled"] * 1000,
        "speedup": speedup,
    }
    assert RESULTS["kernel_cache"]["insertions"] > 0
    assert speedup >= 1.0, f"compilation made the query slower: {speedup:.2f}x"


def test_write_json():
    """Persist all three measurements (runs after the benchmarks above)."""
    if "kernel" not in RESULTS or "end_to_end" not in RESULTS:
        pytest.skip("benchmarks did not run")
    path = write_bench_json(
        "kernel_compile",
        params={
            "num_rows": NUM_ROWS,
            "end_to_end_rows": END_TO_END_ROWS,
            "repeats": REPEATS,
        },
        extra={"results": RESULTS},
    )
    print(f"\nwrote {path}")
