"""Query driver: ties analyzer, optimizer, planner and execution together.

:class:`QueryEngine` is the in-process equivalent of a Spark driver. The
Connect service owns one per cluster; Lakeguard configures it with a
governed relation resolver, a credential-fetching data source, a sandboxed
UDF runtime, and (on dedicated compute) an eFGAC remote executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.common.context import QueryContext, current_context, span_or_null
from repro.engine.analyzer import Analyzer, RelationResolver
from repro.engine.batch import ColumnBatch, chunk_batch
from repro.engine.compile import KernelCompiler
from repro.engine.expressions import EvalContext, UDFRuntime
from repro.engine.logical import LogicalPlan, RemoteScan, TableRef
from repro.engine.optimizer import Optimizer, OptimizerConfig, Rule
from repro.engine.physical import (
    DEFAULT_BATCH_SIZE,
    DataSource,
    ExecContext,
    PhysicalPlanner,
    QueryMetrics,
    RowSelection,
)
from repro.errors import ExecutionError


@dataclass
class ExecutionConfig:
    """Engine-level knobs."""

    batch_size: int = DEFAULT_BATCH_SIZE
    #: Number of simulated executor workers a scan is spread across.
    num_executors: int = 2
    #: Run each planned loop as generated code (the interpreter remains the
    #: fallback for any loop the compiler refuses). Off, the same plan runs
    #: every loop through the interpreter.
    compile_enabled: bool = True


class LocalDataSource:
    """Data source backed by in-memory columns, keyed by table full name."""

    def __init__(self) -> None:
        self._tables: dict[str, dict[str, list[Any]]] = {}

    def register(self, full_name: str, columns: dict[str, list[Any]]) -> None:
        self._tables[full_name] = columns

    def scan(
        self,
        table: TableRef,
        eval_ctx: EvalContext,
        columns: Sequence[int],
        policy: RowSelection | None = None,
        access: Any = None,
    ) -> Iterator[ColumnBatch]:
        """Every row of ``columns`` (``access`` paths are a memo's; this
        source has none and reads the whole table)."""
        try:
            data = self._tables[table.full_name]
        except KeyError:
            raise ExecutionError(f"no data registered for '{table.full_name}'") from None
        schema = table.schema.select(list(columns))
        batch = ColumnBatch.from_dict(schema, data)
        if policy is not None:
            batch = batch.take(policy.admitted([data[n] for n in policy.columns], eval_ctx))
        yield from chunk_batch(batch, eval_ctx.batch_size)


@dataclass
class QueryResult:
    """A completed query: final batch plus plans and metrics for inspection."""

    batch: ColumnBatch
    analyzed_plan: LogicalPlan
    optimized_plan: LogicalPlan
    metrics: QueryMetrics

    def rows(self) -> list[tuple]:
        return self.batch.to_rows()

    def column(self, name: str) -> list[Any]:
        return self.batch.column(name)


RemoteExecutor = Callable[[RemoteScan, EvalContext], Iterator[ColumnBatch]]


class QueryEngine:
    """Analyze → optimize → plan → execute, with pluggable governance hooks."""

    def __init__(
        self,
        resolver: RelationResolver,
        data_source: DataSource | None = None,
        config: ExecutionConfig | None = None,
        optimizer_config: OptimizerConfig | None = None,
        extra_rules: Sequence[Rule] = (),
        udf_runtime: UDFRuntime | None = None,
        remote_executor: RemoteExecutor | None = None,
        kernel_compiler: KernelCompiler | None = None,
    ):
        self.config = config or ExecutionConfig()
        self._analyzer = Analyzer(resolver)
        self._optimizer_config = optimizer_config or OptimizerConfig()
        self._extra_rules = tuple(extra_rules)
        # A shared compiler (e.g. the cluster-wide one, for cross-session
        # kernel reuse) wins; otherwise the engine owns a private cache.
        compiler = None
        if self.config.compile_enabled:
            compiler = kernel_compiler or KernelCompiler()
        self.kernel_compiler = compiler
        self._planner = PhysicalPlanner(compiler)
        self._data_source = data_source
        self._udf_runtime = udf_runtime
        self._remote_executor = remote_executor

    # -- phases -------------------------------------------------------------------

    def analyze(self, plan: LogicalPlan) -> LogicalPlan:
        return self._analyzer.analyze(plan)

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        """Run the rule fixpoint, under an ``optimizer`` span when traced."""
        # A fresh Optimizer per query keeps fusion-group ids plan-local.
        optimizer = Optimizer(self._optimizer_config, extra_rules=self._extra_rules)
        qctx = current_context()
        with span_or_null(
            qctx, "optimize", "optimizer", rules=len(optimizer.rule_names)
        ) as span:
            optimized = optimizer.optimize(plan)
            if qctx is not None:
                span.set_attribute("nodes_in", _count_nodes(plan))
                span.set_attribute("nodes_out", _count_nodes(optimized))
            return optimized

    def plan_physical(self, optimized: LogicalPlan):
        """Map an optimized logical plan to its physical operator tree."""
        return self._planner.plan(optimized)

    def exec_context(
        self,
        user: str = "anonymous",
        groups: frozenset[str] | set[str] = frozenset(),
        udf_runtime: UDFRuntime | None = None,
        auth: Any = None,
        query_ctx: QueryContext | None = None,
        params: tuple[Any, ...] = (),
    ) -> ExecContext:
        """Build the runtime context an operator tree executes under
        (``params``: the values of the plan's parameter slots)."""
        eval_ctx = EvalContext(
            user=user,
            groups=frozenset(groups),
            udf_runtime=udf_runtime or self._udf_runtime or UDFRuntime(),
            auth=auth,
            query_ctx=query_ctx if query_ctx is not None else current_context(),
            batch_size=self.config.batch_size,
            params=params,
        )
        return ExecContext(
            eval_ctx=eval_ctx,
            data_source=self._data_source,
            remote_executor=self._remote_executor,
            batch_size=self.config.batch_size,
            parallel_children=self.config.num_executors > 1,
        )

    def explain(self, plan: LogicalPlan, user: str = "anonymous") -> str:
        analyzed = self.analyze(plan)
        optimized = self.optimize(analyzed)
        return optimized.explain()

    # -- execution ------------------------------------------------------------------

    def execute(
        self,
        plan: LogicalPlan,
        user: str = "anonymous",
        groups: frozenset[str] | set[str] = frozenset(),
        udf_runtime: UDFRuntime | None = None,
        auth: Any = None,
    ) -> QueryResult:
        analyzed = self.analyze(plan)
        optimized = self.optimize(analyzed)
        return self.execute_optimized(
            optimized, analyzed, user, groups, udf_runtime, auth
        )

    def execute_optimized(
        self,
        optimized: LogicalPlan,
        analyzed: LogicalPlan | None = None,
        user: str = "anonymous",
        groups: frozenset[str] | set[str] = frozenset(),
        udf_runtime: UDFRuntime | None = None,
        auth: Any = None,
    ) -> QueryResult:
        """Run an already-optimized plan (used by eFGAC split pipelines)."""
        ctx = self.exec_context(
            user=user, groups=groups, udf_runtime=udf_runtime, auth=auth
        )
        operator = self.plan_physical(optimized)
        batch = self.run_operator(operator, ctx)
        return QueryResult(
            batch=batch,
            analyzed_plan=analyzed if analyzed is not None else optimized,
            optimized_plan=optimized,
            metrics=ctx.metrics,
        )

    def run_operator(self, operator, ctx: ExecContext):
        """Collect an operator tree, emitting an executor span if traced."""
        qctx = ctx.eval_ctx.query_ctx
        with span_or_null(
            qctx, "collect", "executor", batch_size=ctx.batch_size
        ) as span:
            batch = operator.collect(ctx)
            if qctx is not None:
                span.set_attribute("rows_output", ctx.metrics.rows_output)
                span.set_attribute("rows_scanned", ctx.metrics.rows_scanned)
                span.set_attribute(
                    "sandbox_round_trips", ctx.metrics.sandbox_round_trips
                )
            return batch


def _count_nodes(plan: LogicalPlan) -> int:
    return 1 + sum(_count_nodes(c) for c in plan.children)
