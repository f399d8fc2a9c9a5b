"""Whole-operator pipeline codegen vs per-operator kernels, quantified.

The PR-4 compiler removed the expression-interpretation tax but kept the
operator boundaries: a governed aggregation still ran filter→project as
one kernel, materialized the intermediate batch, then fed a per-row
aggregate loop dispatching through ``AggregateFunction`` closures. The
pipeline compiler collapses that whole chain into one generated loop.
Two measurements:

(a) **Pipeline vs per-operator kernels** — the same governed
    scan-shaped chain (row-filter predicate, mask ``CASE`` in the
    grouping key, derived aggregate inputs) executed by the fused
    pipeline loop and by the best per-operator plan the PR-4 kernels
    allow (fused filter→project kernel + closure-dispatch aggregate
    update). Same data, same policy expressions. The acceptance floor
    is 1.5x.

(b) **End-to-end ablation** — the same governed GROUP BY query on two
    otherwise-identical clusters, ``engine_fuse_operators`` on vs off
    (both compiling), confirming identical rows and the fused gain in
    a full query.

Emits ``BENCH_operator_codegen.json`` with both tables plus the live
kernel-cache counters (fusion hits/misses, generated source lines).
"""

from __future__ import annotations

import pytest

from harness import best_time, print_table, write_bench_json

from repro.engine.aggregates import AGGREGATE_FUNCTIONS
from repro.engine.batch import ColumnBatch
from repro.engine.compile import KernelCompiler, PipelineSpec, interpret_pipeline
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    BoundRef,
    CaseWhen,
    Comparison,
    EvalContext,
    InList,
    Literal,
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


def _governed_chain() -> PipelineSpec:
    """The chain a governed aggregation actually runs: the injected row
    filter, a masked grouping key, and derived aggregate inputs."""
    row_filter = BooleanOp(
        "AND",
        InList(REGION, ("US", "EU")),
        Comparison("<", Arithmetic("*", AMOUNT, Literal(1.15)), Literal(460.0)),
    )
    masked_key = CaseWhen(
        [(InList(REGION, ("US", "EU")), REGION)], Literal("***")
    )
    return PipelineSpec(
        condition=row_filter,
        groupings=(masked_key, Arithmetic("%", A, Literal(7))),
        agg_specs=(
            ("count", False),
            ("sum", True),
            ("min", True),
            ("max", True),
            ("avg", True),
        ),
        agg_inputs=(
            Literal(True),
            Arithmetic("+", Arithmetic("*", AMOUNT, Literal(1.15)), A),
            AMOUNT,
            Arithmetic("/", AMOUNT, Arithmetic("+", B, Literal(1))),
            Arithmetic("%", Arithmetic("+", A, ID), Literal(13)),
        ),
    )


def test_pipeline_vs_per_operator_kernels():
    """(a) One fused loop vs filter→project kernel + closure aggregation."""
    batch = _make_batch(NUM_ROWS)
    ctx = EvalContext(user="alice", groups=frozenset({"analysts"}))
    spec = _governed_chain()
    compiler = KernelCompiler()
    pipeline = compiler.compile_pipeline_spec(spec)
    # The strongest plan PR-4 kernels allow: filter and every grouping /
    # aggregate-input expression in one fused kernel, then the hash
    # aggregate's per-row update loop dispatching through the algebra.
    columns_kernel = compiler.compile_filter_projection(
        spec.condition, spec.groupings + spec.agg_inputs
    )
    assert pipeline is not None and columns_kernel is not None
    funcs = [AGGREGATE_FUNCTIONS[name] for name, _ in spec.agg_specs]
    num_keys = len(spec.groupings)

    def per_operator() -> dict:
        cols = columns_kernel.eval_all(batch, ctx)
        key_cols, value_cols = cols[:num_keys], cols[num_keys:]
        groups: dict[tuple, list] = {}
        for i in range(len(key_cols[0])):
            key = tuple(col[i] for col in key_cols)
            states = groups.get(key)
            if states is None:
                states = [func.create() for func in funcs]
                groups[key] = states
            for j, (func, (_, has_child)) in enumerate(
                zip(funcs, spec.agg_specs)
            ):
                value = value_cols[j][i]
                if value is None and func.ignores_nulls and has_child:
                    continue
                states[j] = func.update(states[j], value)
        return groups

    def fused() -> dict:
        groups: dict = {}
        pipeline.accumulate(batch, ctx, groups)
        return pipeline.algebra_groups(groups)

    # Same groups and states before any timing — against both the
    # per-operator plan and the reference interpreter.
    reference: dict[tuple, list] = {}
    interpret_pipeline(spec, batch, ctx, reference)
    assert fused() == per_operator() == reference

    t_ops = best_time(per_operator, repeats=REPEATS)
    t_fused = best_time(fused, repeats=REPEATS)
    speedup = t_ops / t_fused

    print_table(
        f"Fused pipeline vs per-operator kernels ({NUM_ROWS} rows, "
        f"{num_keys} keys, {len(funcs)} aggregates)",
        ["plan", "batch ms", "speedup"],
        [
            ["per-operator kernels", f"{t_ops * 1000:.1f}", "1.00x"],
            ["fused pipeline loop", f"{t_fused * 1000:.1f}", f"{speedup:.2f}x"],
        ],
    )
    RESULTS["pipeline"] = {
        "num_rows": NUM_ROWS,
        "groupings": num_keys,
        "aggregates": len(funcs),
        "per_operator_ms": t_ops * 1000,
        "fused_ms": t_fused * 1000,
        "speedup": speedup,
    }
    assert speedup >= 1.5, (
        f"pipeline-over-per-operator speedup was only {speedup:.2f}x"
    )


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
        "ALTER TABLE main.s.sales ALTER COLUMN region SET MASK "
        "(CASE WHEN is_account_group_member('analysts') THEN region "
        "ELSE '***' END)"
    )
    return ws


def test_end_to_end_fusion_ablation():
    """(b) The same governed GROUP BY, ``engine_fuse_operators`` on vs off."""
    ws = _build_governed_workspace()
    query = (
        "SELECT region, a % 7 AS bucket, count(*) AS n, "
        "sum(amount * 1.15 + a) AS gross, "
        "min(amount) AS lo, max(amount / (b + 1.0)) AS unit, "
        "avg((a + id) % 13) AS spread "
        "FROM main.s.sales "
        "WHERE amount * 1.15 < 460.0 "
        "GROUP BY region, a % 7 ORDER BY region, bucket"
    )

    timings: dict[str, float] = {}
    reference: dict[str, list] = {}
    for label, fuse in (("unfused", False), ("fused", True)):
        cluster = ws.create_standard_cluster(
            name=label,
            engine_fuse_operators=fuse,
            num_executors=1,
        )
        alice = cluster.connect("alice")
        reference[label] = alice.sql(query).collect()  # warm plan/kernel caches
        timings[label] = best_time(
            lambda: alice.sql(query).collect(), repeats=REPEATS
        )
        if fuse:
            RESULTS["kernel_cache"] = cluster.backend.kernel_cache.stats_snapshot()

    assert reference["fused"] == reference["unfused"]
    assert len(reference["fused"]) > 0
    speedup = timings["unfused"] / timings["fused"]

    print_table(
        f"End-to-end governed aggregation ({END_TO_END_ROWS} rows, FGAC on)",
        ["engine_fuse_operators", "query ms", "speedup"],
        [
            ["off", f"{timings['unfused'] * 1000:.1f}", "1.00x"],
            ["on", f"{timings['fused'] * 1000:.1f}", f"{speedup:.2f}x"],
        ],
    )
    RESULTS["end_to_end"] = {
        "num_rows": END_TO_END_ROWS,
        "unfused_ms": timings["unfused"] * 1000,
        "fused_ms": timings["fused"] * 1000,
        "speedup": speedup,
    }
    assert RESULTS["kernel_cache"]["fusion_hits"] > 0
    assert speedup >= 1.0, f"fusion made the query slower: {speedup:.2f}x"


def test_write_json():
    """Persist both measurements (runs after the benchmarks above)."""
    if "pipeline" not in RESULTS or "end_to_end" not in RESULTS:
        pytest.skip("benchmarks did not run")
    path = write_bench_json(
        "operator_codegen",
        params={
            "num_rows": NUM_ROWS,
            "end_to_end_rows": END_TO_END_ROWS,
            "repeats": REPEATS,
        },
        extra={"results": RESULTS},
    )
    print(f"\nwrote {path}")
