"""Whole-operator pipeline codegen vs a loop that stops at the aggregate.

A governed aggregation's chain — row filter, masked grouping key, derived
aggregate inputs — and its aggregate run as one generated loop. This
measures what that buys over a generated ``collect`` loop that computes
the keys and inputs (materializing them) and a per-row aggregate loop
dispatching through ``AggregateFunction`` closures: the same governed
scan-shaped chain, same data, same policy expressions. The acceptance
floor is 1.5x.

The end-to-end effect of compilation is ``bench_kernel_compile.py``'s
``engine_compile`` on/off leg: with compilation off, the same plan runs
every loop through the interpreter.

Emits ``BENCH_operator_codegen.json`` with the table plus the compiler's
kernel-cache counters (generated source lines).
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

NUM_ROWS = 40_000
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
    """One fused loop vs a filter→project loop + closure aggregation."""
    batch = _make_batch(NUM_ROWS)
    ctx = EvalContext(user="alice", groups=frozenset({"analysts"}))
    spec = _governed_chain()
    compiler = KernelCompiler()
    pipeline = compiler.compile_pipeline_spec(spec)
    # The loop stopped at the aggregate: filter and every grouping /
    # aggregate-input expression in one generated ``collect`` loop, then
    # the hash aggregate's per-row update loop dispatching through the
    # algebra.
    columns_kernel = compiler.compile_pipeline_spec(
        PipelineSpec(
            spec.condition, sink="collect", outputs=spec.groupings + spec.agg_inputs
        )
    )
    assert pipeline is not None and columns_kernel is not None
    funcs = [AGGREGATE_FUNCTIONS[name] for name, _ in spec.agg_specs]
    num_keys = len(spec.groupings)

    def per_operator() -> dict:
        cols = columns_kernel.accumulate(batch, ctx, None)
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
            ["collect loop + closure aggregate", f"{t_ops * 1000:.1f}", "1.00x"],
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
    RESULTS["kernel_cache"] = compiler.cache.stats_snapshot()
    assert speedup >= 1.5, (
        f"pipeline-over-per-operator speedup was only {speedup:.2f}x"
    )


def test_write_json():
    """Persist the measurement (runs after the benchmark above)."""
    if "pipeline" not in RESULTS:
        pytest.skip("benchmark did not run")
    path = write_bench_json(
        "operator_codegen",
        params={"num_rows": NUM_ROWS, "repeats": REPEATS},
        extra={"results": RESULTS},
    )
    print(f"\nwrote {path}")
