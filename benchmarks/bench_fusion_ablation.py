"""E7 — ablation: UDF fusion and trust-domain pipeline breaking (§3.3).

The paper claims "our approach to fusing multiple UDF executions for a
single row works, and increasing the number of UDFs does not have an
outsized impact on the overall latency". We measure sandbox round-trips and
latency as the UDF count grows, with fusion on vs off, and show trust
domains breaking fusion groups.
"""

import pytest

from harness import best_time, print_table

from repro.engine.analyzer import DictResolver
from repro.engine.executor import ExecutionConfig, QueryEngine
from repro.engine.expressions import Alias, col
from repro.engine.logical import LocalRelation, Project, UnresolvedRelation
from repro.engine.optimizer import OptimizerConfig
from repro.engine.types import INT, Field, Schema
from repro.engine.udf import udf
from repro.sandbox.cluster_manager import ClusterManager
from repro.sandbox.dispatcher import Dispatcher, SandboxedUDFRuntime

NUM_ROWS = 20_000
BATCH = 8192

#: One pool of sandbox workers for the module: a run reuses the warm
#: sandbox of each trust domain, so timings hold no cold start.
MANAGER = ClusterManager()
DISPATCHER = Dispatcher(MANAGER)


@pytest.fixture(scope="module", autouse=True)
def _stop_sandboxes():
    yield
    MANAGER.shutdown()


def make_engine(fusion: bool) -> QueryEngine:
    schema = Schema((Field("a", INT), Field("b", INT)))
    data = LocalRelation(
        schema,
        [[i % 11 for i in range(NUM_ROWS)], [i % 7 for i in range(NUM_ROWS)]],
    )
    return QueryEngine(
        DictResolver({"t": data}),
        config=ExecutionConfig(batch_size=BATCH),
        optimizer_config=OptimizerConfig(udf_fusion=fusion),
    )


def plan_with_udfs(num_udfs: int, owners: list[str] | None = None):
    owners = owners or ["alice"] * num_udfs

    def add(a, b):
        return a + b

    exprs = []
    for i in range(num_udfs):
        udf_obj = udf("int", name=f"u{i}")(add).with_owner(owners[i])
        exprs.append(Alias(udf_obj(col("a"), col("b")), f"c{i}"))
    return Project(UnresolvedRelation("t"), exprs)


def run(engine, plan):
    runtime = SandboxedUDFRuntime(DISPATCHER, "s")
    engine.execute(plan, user="alice", udf_runtime=runtime)
    return runtime


@pytest.fixture(scope="module")
def ablation():
    batches = -(-NUM_ROWS // BATCH)  # ceil
    rows = []
    for num_udfs in (1, 2, 5, 10):
        fused_runtime = run(make_engine(True), plan_with_udfs(num_udfs))
        unfused_runtime = run(make_engine(False), plan_with_udfs(num_udfs))
        fused_time = best_time(
            lambda n=num_udfs: run(make_engine(True), plan_with_udfs(n)), repeats=3
        )
        unfused_time = best_time(
            lambda n=num_udfs: run(make_engine(False), plan_with_udfs(n)), repeats=3
        )
        rows.append(
            [
                num_udfs,
                fused_runtime.round_trips,
                unfused_runtime.round_trips,
                f"{fused_time * 1000:.1f}",
                f"{unfused_time * 1000:.1f}",
            ]
        )
    print_table(
        f"UDF fusion ablation ({NUM_ROWS} rows, {batches} batches)",
        ["num UDFs", "round-trips fused", "round-trips unfused",
         "fused ms", "unfused ms"],
        rows,
    )
    return rows, batches


def test_fused_roundtrips_constant_in_udf_count(ablation):
    rows, batches = ablation
    for num_udfs, fused_rt, _, _, _ in rows:
        assert fused_rt == batches, (
            f"{num_udfs} fused UDFs should cost one round-trip per batch"
        )


def test_unfused_roundtrips_scale_linearly(ablation):
    rows, batches = ablation
    for num_udfs, _, unfused_rt, _, _ in rows:
        assert unfused_rt == batches * num_udfs


def test_trust_domains_break_fusion_groups():
    engine = make_engine(True)
    plan = plan_with_udfs(4, owners=["alice", "bob", "alice", "bob"])
    runtime = run(engine, plan)
    batches = -(-NUM_ROWS // BATCH)
    # Two trust domains → two round-trips per batch, never one.
    assert runtime.round_trips == 2 * batches


def test_benchmark_fused_ten_udfs(benchmark):
    engine = make_engine(True)
    plan = plan_with_udfs(10)
    benchmark(lambda: run(engine, plan))


def test_benchmark_unfused_ten_udfs(benchmark):
    engine = make_engine(False)
    plan = plan_with_udfs(10)
    benchmark(lambda: run(engine, plan))
