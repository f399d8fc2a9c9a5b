"""Physical operators: columnar, batch-at-a-time execution.

The governance hooks at this layer:

- :class:`PhysScan` pulls batches from a :class:`DataSource`; Lakeguard's
  governed data source fetches per-user temporary credentials before touching
  storage, so executor-side access is always identity-bound.
- :class:`PhysProject` executes fused Python-UDF groups through the context's
  ``UDFRuntime`` — one sandbox round-trip per fusion group per batch.
- :class:`PhysRemoteScan` delegates an eFGAC sub-plan to a remote endpoint.

Expression-heavy operators (filter, project, sort keys, join keys, aggregate
accumulation) accept an optional compiled kernel from
:mod:`repro.engine.compile`; when present it replaces interpreted tree
walking with one generated loop per batch. Kernels are produced at plan
time, so a compile failure simply leaves the interpreter path in place.
"""

from __future__ import annotations

import heapq
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol, Sequence

from repro.common.context import span_or_null
from repro.engine.aggregates import AggregateCall
from repro.engine.batch import ColumnBatch, chunk_batch
from repro.engine.compile import (
    CompiledKernels,
    CompiledPipeline,
    KernelCompiler,
    PipelineSpec,
    has_opaque_nodes,
    predicate_mask,
)
from repro.engine.expressions import (
    BooleanOp,
    BoundRef,
    EvalContext,
    Expression,
    Literal,
    PythonUDFCall,
    SortOrder,
    shift_refs,
    split_equi_condition,
)
from repro.engine.optimizer import inline_through_projection
from repro.engine.logical import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LocalRelation,
    LogicalPlan,
    Project,
    Range,
    RemoteScan,
    Scan,
    SecureView,
    Sort,
    SubqueryAlias,
    TableRef,
    Union,
)
from repro.engine.types import STRING, Field, Schema
from repro.errors import ExecutionError, UnsupportedOperationError

DEFAULT_BATCH_SIZE = 4096


class DataSource(Protocol):
    """Provides full-schema batches for a governed table."""

    def scan(self, table: TableRef, eval_ctx: EvalContext) -> Iterator[ColumnBatch]: ...


@dataclass
class QueryMetrics:
    """Execution counters surfaced to benchmarks."""

    rows_scanned: int = 0
    rows_output: int = 0
    batches_output: int = 0
    sandbox_round_trips: int = 0
    remote_subqueries: int = 0
    remote_rows_received: int = 0

    def merge_from(self, other: "QueryMetrics") -> None:
        """Fold a forked subtree's counters back into this context's."""
        self.rows_scanned += other.rows_scanned
        self.rows_output += other.rows_output
        self.batches_output += other.batches_output
        self.sandbox_round_trips += other.sandbox_round_trips
        self.remote_subqueries += other.remote_subqueries
        self.remote_rows_received += other.remote_rows_received


@dataclass
class ExecContext:
    """Everything an operator tree needs at run time."""

    eval_ctx: EvalContext
    data_source: DataSource | None = None
    remote_executor: Callable[[RemoteScan, EvalContext], Iterator[ColumnBatch]] | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    metrics: QueryMetrics = field(default_factory=QueryMetrics)
    #: Materialize independent child subtrees (join/union inputs) on threads.
    parallel_children: bool = False
    #: Process-backend :class:`~repro.engine.workers.WorkerPool`; when set,
    #: compiled-kernel operators and governed scans route their per-batch
    #: work through worker processes (None = thread backend).
    worker_pool: Any = None

    def fork(self) -> "ExecContext":
        """An isolated context for running one subtree on its own thread.

        The fork gets fresh metrics (merged back via ``merge_from``), a fresh
        ``udf_results`` memo, and — because contextvars do not propagate to
        worker threads — an explicit child :class:`QueryContext` created
        *now*, so the subtree's spans parent onto the query's current span
        and keep its trace id.
        """
        eval_ctx = self.eval_ctx
        qctx = eval_ctx.query_ctx
        forked_eval = EvalContext(
            user=eval_ctx.user,
            groups=eval_ctx.groups,
            udf_runtime=eval_ctx.udf_runtime,
            auth=eval_ctx.auth,
            query_ctx=qctx.child() if qctx is not None else None,
            batch_size=eval_ctx.batch_size,
        )
        return ExecContext(
            eval_ctx=forked_eval,
            data_source=self.data_source,
            remote_executor=self.remote_executor,
            batch_size=self.batch_size,
            parallel_children=self.parallel_children,
            worker_pool=self.worker_pool,
        )


def collect_children_parallel(
    ctx: ExecContext, children: Sequence["PhysicalOperator"]
) -> list[ColumnBatch]:
    """Materialize independent subtrees, concurrently when enabled.

    Each child runs on an ephemeral thread with a forked context (fresh
    metrics/UDF memo, explicit child QueryContext); ephemeral threads rather
    than a shared pool so a subtree that itself fans out scan tasks can never
    deadlock against its own parent's worker slots. Results come back in
    child order and forked metrics are merged deterministically.
    """
    if not ctx.parallel_children or len(children) < 2:
        return [
            ColumnBatch.concat(child.schema, list(child.execute(ctx)))
            for child in children
        ]
    forked = [ctx.fork() for _ in children]
    results: list[ColumnBatch | None] = [None] * len(children)
    errors: list[BaseException | None] = [None] * len(children)

    def run(index: int, child: "PhysicalOperator", fctx: ExecContext) -> None:
        try:
            results[index] = ColumnBatch.concat(
                child.schema, list(child.execute(fctx))
            )
        except BaseException as exc:  # noqa: BLE001 - reraised on the caller
            errors[index] = exc

    threads = [
        threading.Thread(
            target=run,
            args=(i, child, fctx),
            name=f"exec-child-{i}",
            daemon=True,
        )
        for i, (child, fctx) in enumerate(zip(children, forked))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for fctx in forked:
        ctx.metrics.merge_from(fctx.metrics)
    for error in errors:
        if error is not None:
            raise error
    return [batch for batch in results if batch is not None]


class PhysicalOperator:
    """Base physical operator."""

    def __init__(self, schema: Schema, children: tuple["PhysicalOperator", ...] = ()):
        self.schema = schema
        self.children = children

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        """Produce this operator's output as a stream of column batches."""
        raise NotImplementedError(type(self).__name__)

    def collect(self, ctx: ExecContext) -> ColumnBatch:
        batches = list(self.execute(ctx))
        result = ColumnBatch.concat(self.schema, batches)
        ctx.metrics.rows_output += result.num_rows
        ctx.metrics.batches_output += len(batches)
        return result


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class PhysLocalData(PhysicalOperator):
    """Client-supplied in-memory data, re-chunked to the batch size."""

    def __init__(self, schema: Schema, columns: list[list[Any]]):
        super().__init__(schema)
        self._columns = columns

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        full = ColumnBatch(self.schema, self._columns)
        for start in range(0, max(full.num_rows, 1), ctx.batch_size):
            chunk = full.slice(start, start + ctx.batch_size)
            if chunk.num_rows or start == 0:
                yield chunk


class PhysRange(PhysicalOperator):
    """Generated integer sequence (``spark.range``)."""

    def __init__(self, node: Range):
        super().__init__(node.schema)
        self._node = node

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        values = list(range(self._node.start, self._node.end, self._node.step))
        for start in range(0, max(len(values), 1), ctx.batch_size):
            yield ColumnBatch(self.schema, [values[start : start + ctx.batch_size]])


class PhysScan(PhysicalOperator):
    """Governed table scan: full-object read, then pushed filters, then prune.

    The read-then-filter order is deliberate and mirrors Fig. 3: cloud
    storage is object-granular, so the engine must ingest all bytes before
    policy or predicate evaluation can drop anything.

    Each pushed filter (the injected policy predicate first) runs through
    its compiled predicate kernel from ``filter_kernels``; a ``None`` entry
    — no compiler, or the compiler refused that predicate — is interpreted.
    The planner hands a scan that still carries pushed filters to this
    operator only when no fused consumer absorbed them (UDF stage directly
    above, fusion off, bare scan); a fused consumer plans a filter-less
    scan and tests the predicates inside its own loop.
    """

    def __init__(
        self,
        node: Scan,
        filter_kernels: tuple[CompiledKernels | None, ...] | None = None,
    ):
        super().__init__(node.schema)
        self._node = node
        self._filter_kernels = filter_kernels or (None,) * len(node.pushed_filters)

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        if ctx.data_source is None:
            raise ExecutionError(
                f"no data source configured; cannot scan {self._node.table.full_name}"
            )
        pooled = self.pooled_scan(ctx)
        if pooled is not None:
            yield from pooled
            return
        filters = list(zip(self._node.pushed_filters, self._filter_kernels))
        for batch in ctx.data_source.scan(self._node.table, ctx.eval_ctx):
            ctx.metrics.rows_scanned += batch.num_rows
            for predicate, kernel in filters:
                if batch.num_rows == 0:
                    break
                batch = batch.filter(
                    predicate_mask(kernel, predicate, batch, ctx.eval_ctx)
                )
            if self._node.required_columns is not None:
                batch = batch.select_indices(list(self._node.required_columns))
            yield batch

    def pooled_scan(
        self,
        ctx: ExecContext,
        fused_kernel: CompiledKernels | CompiledPipeline | None = None,
        fused_exprs: tuple[Expression, ...] | PipelineSpec | None = None,
        out_schema: Schema | None = None,
        kernel_mode: str = "filter-project",
    ) -> Iterator[ColumnBatch] | None:
        """Process-backend scan: pushed filters (and an optional fused
        filter→project kernel or whole aggregation pipeline, selected by
        ``kernel_mode``) run inside worker processes.

        Returns ``None`` — falling back to the thread path — when no pool is
        active, the data source has no pipeline support, or a pushed filter
        contains user code (user code only runs inside the UDF sandbox,
        never in engine workers).
        """
        pool = ctx.worker_pool
        source = ctx.data_source
        if pool is None or not hasattr(source, "scan_pipeline"):
            return None
        node = self._node
        for predicate in node.pushed_filters:
            if any(n.is_user_code for n in predicate.walk()):
                return None
        spec = {
            "pushed_filters": tuple(node.pushed_filters),
            "required_columns": (
                list(node.required_columns)
                if node.required_columns is not None
                else None
            ),
            "kernel": fused_kernel,
            "exprs": fused_exprs,
            "kernel_mode": kernel_mode,
            "out_schema": out_schema if out_schema is not None else self.schema,
        }

        def on_rows(rows_in: int) -> None:
            ctx.metrics.rows_scanned += rows_in

        return source.scan_pipeline(node.table, ctx.eval_ctx, spec, pool, on_rows)


class PhysRemoteScan(PhysicalOperator):
    """Submit the eFGAC sub-plan to the remote endpoint and stream results."""

    def __init__(self, node: RemoteScan):
        super().__init__(node.schema)
        self._node = node

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        if ctx.remote_executor is None:
            raise ExecutionError(
                "plan contains a RemoteScan but no remote executor is configured "
                f"(tables: {self._node.source_tables})"
            )
        ctx.metrics.remote_subqueries += 1
        for batch in ctx.remote_executor(self._node, ctx.eval_ctx):
            ctx.metrics.remote_rows_received += batch.num_rows
            yield batch


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class PhysFilter(PhysicalOperator):
    """Row filtering with SQL semantics (NULL predicate drops the row).

    With a compiled ``kernel`` the predicate mask comes from one generated
    loop per batch instead of interpreted tree walking; the result is
    identical (the kernel is lowered from the same expression tree).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        condition: Expression,
        kernel: CompiledKernels | None = None,
    ):
        super().__init__(child.schema, (child,))
        self._condition = condition
        self._kernel = kernel

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        with _kernel_span(ctx, self._kernel, "filter"):
            if _pool_kernel_eligible(ctx, self._kernel):
                yield from _pooled_kernel_stream(
                    ctx,
                    self.children[0].execute(ctx),
                    kmode="filter",
                    kernel=self._kernel,
                    exprs=(self._condition,),
                    mode="project",
                    out_schema=self.schema,
                )
                return
            for batch in self.children[0].execute(ctx):
                if batch.num_rows == 0:
                    yield batch
                    continue
                yield batch.filter(
                    predicate_mask(
                        self._kernel, self._condition, batch, ctx.eval_ctx
                    )
                )


class PhysProject(PhysicalOperator):
    """Projection with fused UDF execution.

    Per batch: every fusion group's UDF calls are shipped to the runtime in
    one invocation; results land in ``ctx.eval_ctx.udf_results`` so normal
    expression evaluation picks them up without re-running the user code.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        exprs: tuple[Expression, ...],
        schema: Schema,
        kernel: CompiledKernels | None = None,
    ):
        super().__init__(schema, (child,))
        self._exprs = exprs
        self._kernel = kernel
        self._fusion_groups = self._collect_fusion_groups(exprs)

    @staticmethod
    def _collect_fusion_groups(
        exprs: tuple[Expression, ...]
    ) -> dict[int, list[PythonUDFCall]]:
        groups: dict[int, list[PythonUDFCall]] = {}
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, PythonUDFCall) and node.fusion_group is not None:
                    groups.setdefault(node.fusion_group, []).append(node)
        return groups

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        eval_ctx = ctx.eval_ctx
        with _kernel_span(ctx, self._kernel, "project"):
            if not self._fusion_groups and _pool_kernel_eligible(ctx, self._kernel):
                yield from _pooled_kernel_stream(
                    ctx,
                    self.children[0].execute(ctx),
                    kmode="project",
                    kernel=self._kernel,
                    exprs=self._exprs,
                    mode="project",
                    out_schema=self.schema,
                )
                return
            for batch in self.children[0].execute(ctx):
                eval_ctx.udf_results.clear()
                if batch.num_rows and self._fusion_groups and eval_ctx.udf_runtime:
                    self._run_fused_groups(batch, ctx)
                if self._kernel is not None:
                    # Opaque (UDF) nodes inside the kernel read the fused
                    # results planted above, exactly like interpreted eval.
                    columns = self._kernel.eval_all(batch, eval_ctx)
                else:
                    columns = [e.eval(batch, eval_ctx) for e in self._exprs]
                eval_ctx.udf_results.clear()
                yield ColumnBatch(self.schema, columns)

    def _run_fused_groups(self, batch: ColumnBatch, ctx: ExecContext) -> None:
        runtime = ctx.eval_ctx.udf_runtime
        for group_calls in self._fusion_groups.values():
            requests = []
            for call in group_calls:
                args = [c.eval(batch, ctx.eval_ctx) for c in call.children]
                requests.append((call.expr_id, call.udf, args))
            results = runtime.run_fused(requests)
            for call in group_calls:
                produced = results.get(call.expr_id)
                if produced is None or len(produced) != batch.num_rows:
                    raise ExecutionError(
                        f"UDF '{call.udf.name}' returned "
                        f"{0 if produced is None else len(produced)} values "
                        f"for {batch.num_rows} rows"
                    )
            ctx.eval_ctx.udf_results.update(results)


class PhysFilterProject(PhysicalOperator):
    """Fused filter→project running one compiled loop per batch.

    The intermediate filtered batch is never materialized: the kernel tests
    the predicate and appends the projected values row by row. The planner
    only builds this operator when the compiler accepted both the condition
    and the projection list (no user code — a pre-filter UDF invocation
    would change how often user code runs — and no unknown node types).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        condition: Expression,
        exprs: tuple[Expression, ...],
        schema: Schema,
        kernel: CompiledKernels,
    ):
        super().__init__(schema, (child,))
        self._condition = condition
        self._exprs = exprs
        self._kernel = kernel

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        with _kernel_span(ctx, self._kernel, "filter-project"):
            if _pool_kernel_eligible(ctx, self._kernel):
                child = self.children[0]
                if isinstance(child, PhysScan):
                    # Fuse all the way down: the scan workers run the pushed
                    # filters AND this kernel on the same shared-memory batch.
                    pooled = child.pooled_scan(
                        ctx,
                        fused_kernel=self._kernel,
                        fused_exprs=(self._condition, *self._exprs),
                        out_schema=self.schema,
                    )
                    if pooled is not None:
                        yield from pooled
                        return
                yield from _pooled_kernel_stream(
                    ctx,
                    child.execute(ctx),
                    kmode="filter_project",
                    kernel=self._kernel,
                    exprs=(self._condition, *self._exprs),
                    mode="filter-project",
                    out_schema=self.schema,
                )
                return
            for batch in self.children[0].execute(ctx):
                yield ColumnBatch(
                    self.schema, self._kernel.eval_all(batch, ctx.eval_ctx)
                )


def _pool_kernel_eligible(ctx: ExecContext, kernel: CompiledKernels | None) -> bool:
    """A kernel can run in a worker process only when it embeds no opaque
    slots (UDFs and unknown nodes stay driver-side, next to the sandbox)."""
    return (
        ctx.worker_pool is not None
        and kernel is not None
        and not kernel.artifact.opaque_spec
    )


def _pooled_kernel_stream(
    ctx: ExecContext,
    batches: Iterator[ColumnBatch],
    kmode: str,
    kernel: CompiledKernels,
    exprs: tuple[Expression, ...],
    mode: str,
    out_schema: Schema,
) -> Iterator[ColumnBatch]:
    """Route one operator's batch stream through the worker pool.

    Keeps up to ``pool.size`` batches in flight and yields results in input
    order, so operator semantics (and downstream LIMIT early-exit) match
    the thread backend exactly. The kernel travels once per (worker,
    fingerprint) as a cloudpickled expression list; batch data travels as
    shared-memory buffers.
    """
    from collections import deque

    pool = ctx.worker_pool
    eval_ctx = ctx.eval_ctx
    qctx = eval_ctx.query_ctx
    spec = pool.kernel_spec(kernel, exprs, mode)

    def submit(batch: ColumnBatch):
        meta, payload = batch.to_buffers()
        task = {
            "op": "eval",
            "kmode": kmode,
            "schema": batch.schema,
            "meta": meta,
            "kernel": spec,
            "user": eval_ctx.user,
            "groups": tuple(eval_ctx.groups),
            "trace_id": qctx.trace_id if qctx is not None else "",
            "session_id": qctx.session_id if qctx is not None else "",
            "cluster_id": qctx.cluster_id if qctx is not None else "",
        }
        return pool.submit(task, payload, meta["pickled_bytes"], retries=2)

    def resolve(entry) -> ColumnBatch:
        kind, value = entry
        if kind == "local":
            return value
        columns, _num_rows, _info = value.result()
        return ColumnBatch(out_schema, columns)

    pending: Any = deque()
    for batch in batches:
        if batch.num_rows == 0 or batch.num_columns == 0:
            # Degenerate batches are cheaper to answer in place (and the
            # zero-column OneRowBatch shape does not survive re-encoding).
            local = batch if kmode == "filter" else ColumnBatch.empty(out_schema)
            pending.append(("local", local))
        else:
            pending.append(("future", submit(batch)))
        while len(pending) > pool.size:
            yield resolve(pending.popleft())
    while pending:
        yield resolve(pending.popleft())


def _kernel_span(ctx: ExecContext, kernel: CompiledKernels | None, operator: str):
    """An ``engine.kernel`` span spanning one operator's batch stream (no-op
    without a kernel or a traced context)."""
    if kernel is None:
        return nullcontext()
    return span_or_null(
        ctx.eval_ctx.query_ctx,
        f"kernel:{operator}",
        "engine.kernel",
        fingerprint=kernel.fingerprint[:12],
    )


class PhysLimit(PhysicalOperator):
    """LIMIT/OFFSET with early termination of the input stream."""

    def __init__(self, child: PhysicalOperator, limit: int, offset: int = 0):
        super().__init__(child.schema, (child,))
        self._limit = limit
        self._offset = offset

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        to_skip = self._offset
        remaining = self._limit
        for batch in self.children[0].execute(ctx):
            if to_skip:
                if batch.num_rows <= to_skip:
                    to_skip -= batch.num_rows
                    continue
                batch = batch.slice(to_skip, batch.num_rows)
                to_skip = 0
            if remaining <= 0:
                return
            if batch.num_rows > remaining:
                batch = batch.slice(0, remaining)
            remaining -= batch.num_rows
            yield batch
            if remaining <= 0:
                return


class PhysDistinct(PhysicalOperator):
    """Streaming duplicate elimination over full rows."""

    def __init__(self, child: PhysicalOperator):
        super().__init__(child.schema, (child,))

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        seen: set[tuple] = set()
        for batch in self.children[0].execute(ctx):
            keep = []
            for i, row in enumerate(batch.iter_rows()):
                if row not in seen:
                    seen.add(row)
                    keep.append(i)
            yield batch.take(keep)


class PhysSort(PhysicalOperator):
    """Materializing sort with per-key direction and NULL placement.

    Each ORDER BY term is one stable ``list.sort`` pass over row indices,
    least-significant term first, descending terms with ``reverse=True``
    (which keeps ties in input order, like an ascending pass). Keys are the
    raw values, or ``(rank, value)`` tuples when the column holds NULLs —
    no comparison ever re-enters Python.

    With ``limit`` (a ``Limit`` directly above: its limit + offset) only the
    first ``limit`` rows are produced. When every term sorts in the same
    direction that is a bounded top-k: ``heapq.nsmallest`` / ``nlargest``
    are defined as ``sorted(...)[:k]``, so the rows and their tie order are
    exactly those of the full sort.

    With ``appended_keys`` > 0 the child is a fused pipeline whose output
    carries the pre-computed sort-key columns appended after the data
    columns; the sort strips them off and orders by them directly, so key
    expressions never re-evaluate over the materialized input.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        orders: tuple[SortOrder, ...],
        key_kernel: CompiledKernels | None = None,
        appended_keys: int = 0,
        limit: int | None = None,
    ):
        schema = child.schema
        if appended_keys:
            schema = Schema(schema.fields[:-appended_keys])
        super().__init__(schema, (child,))
        self._orders = orders
        self._key_kernel = key_kernel
        self._appended_keys = appended_keys
        self._limit = limit

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        full = ColumnBatch.concat(
            self.children[0].schema, list(self.children[0].execute(ctx))
        )
        key_columns: list[list[Any]] | None = None
        if self._appended_keys:
            key_columns = full.columns[-self._appended_keys:]
            full = ColumnBatch(self.schema, full.columns[: -self._appended_keys])
        if full.num_rows == 0:
            yield full
            return
        if key_columns is None:
            if self._key_kernel is not None:
                key_columns = self._key_kernel.eval_all(full, ctx.eval_ctx)
            else:
                key_columns = [
                    o.expr.eval(full, ctx.eval_ctx) for o in self._orders
                ]
        yield full.take(self._sorted_indices(key_columns, full.num_rows))

    def _sorted_indices(self, key_columns: list[list[Any]], n: int) -> list[int]:
        keys = [
            _ranked_keys(values, order)
            for order, values in zip(self._orders, key_columns)
        ]
        descending = [not order.ascending for order in self._orders]
        limit = self._limit
        if limit is not None and limit < n and len(set(descending)) == 1:
            # One direction: the terms compare as one composite key.
            composite = keys[0] if len(keys) == 1 else list(zip(*keys))
            top = heapq.nlargest if descending[0] else heapq.nsmallest
            return top(limit, range(n), key=composite.__getitem__)
        indices = list(range(n))
        for term_keys, reverse in reversed(list(zip(keys, descending))):
            indices.sort(key=term_keys.__getitem__, reverse=reverse)
        return indices[:limit]


def _ranked_keys(values: list[Any], order: SortOrder) -> list[Any]:
    """Sort keys of one ORDER BY term: the values themselves, or — when any
    is NULL — ``(rank, value)`` tuples whose rank puts NULLs where
    ``nulls_first`` wants them under the pass's direction."""
    if None not in values:
        return values
    null_key = (0 if order.nulls_first == order.ascending else 2, 0)
    return [null_key if v is None else (1, v) for v in values]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

AGG_MODE_COMPLETE = "complete"
AGG_MODE_PARTIAL = "partial"
AGG_MODE_FINAL = "final"


def distinct_agg_calls(outputs: tuple[Expression, ...]) -> list[AggregateCall]:
    """Distinct aggregate calls across output expressions, in walk order.

    Shared by :class:`PhysHashAggregate` and the planner's pipeline fusion
    so both derive the identical call list (and therefore identical state
    layouts) from the same logical node.
    """
    calls: list[AggregateCall] = []
    seen: set[int] = set()
    for expr in outputs:
        for node in expr.walk():
            if isinstance(node, AggregateCall) and node.expr_id not in seen:
                seen.add(node.expr_id)
                calls.append(node)
    return calls


class PhysHashAggregate(PhysicalOperator):
    """Hash aggregation with complete / partial / final modes.

    Partial mode emits ``group keys + opaque aggregate states`` (what eFGAC
    ships across the wire); final mode merges such states. Complete mode does
    both locally.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        groupings: tuple[Expression, ...],
        outputs: tuple[Expression, ...],
        schema: Schema,
        mode: str = AGG_MODE_COMPLETE,
        compiler: KernelCompiler | None = None,
    ):
        super().__init__(schema, (child,))
        self._groupings = groupings
        self._outputs = outputs
        self._mode = mode
        # Distinct aggregate calls across all output expressions, in order.
        self._agg_calls: list[AggregateCall] = distinct_agg_calls(outputs)
        # One kernel computes grouping keys + aggregate inputs per batch
        # (COUNT(*) contributes a constant-True column, matching the
        # interpreted path). None when everything is a bare ref/constant.
        self._accum_kernel: CompiledKernels | None = None
        if compiler is not None and mode != AGG_MODE_FINAL:
            accum_exprs = tuple(groupings) + tuple(
                call.child if call.child is not None else Literal(True)
                for call in self._agg_calls
            )
            self._accum_kernel = compiler.compile_projection(accum_exprs)

    # -- state accumulation ------------------------------------------------------

    def _accumulate(self, ctx: ExecContext) -> dict[tuple, list[Any]]:
        groups: dict[tuple, list[Any]] = {}
        for batch in self.children[0].execute(ctx):
            if batch.num_rows == 0:
                continue
            if self._mode == AGG_MODE_FINAL:
                # Partial batches arrive laid out as [keys..., states...].
                key_cols = batch.columns[: len(self._groupings)]
                self._merge_partial_batch(batch, key_cols, groups)
            else:
                if self._accum_kernel is not None:
                    cols = self._accum_kernel.eval_all(batch, ctx.eval_ctx)
                    key_cols = cols[: len(self._groupings)]
                    value_cols = cols[len(self._groupings):]
                else:
                    key_cols = [
                        g.eval(batch, ctx.eval_ctx) for g in self._groupings
                    ]
                    value_cols = self._value_columns(batch, ctx)
                self._update_from_rows(batch, key_cols, value_cols, groups)
        if not groups and not self._groupings:
            # Global aggregate over empty input still yields one row.
            groups[()] = [call.func.create() for call in self._agg_calls]
        return groups

    def _value_columns(
        self, batch: ColumnBatch, ctx: ExecContext
    ) -> list[list[Any]]:
        """Interpreted aggregate-input columns, one per distinct call."""
        value_cols = []
        for call in self._agg_calls:
            if call.child is None:
                value_cols.append([True] * batch.num_rows)  # COUNT(*)
            else:
                value_cols.append(call.child.eval(batch, ctx.eval_ctx))
        return value_cols

    def _update_from_rows(
        self,
        batch: ColumnBatch,
        key_cols: list[list[Any]],
        value_cols: list[list[Any]],
        groups: dict[tuple, list[Any]],
    ) -> None:
        for row_idx in range(batch.num_rows):
            key = tuple(col[row_idx] for col in key_cols)
            states = groups.get(key)
            if states is None:
                states = [call.func.create() for call in self._agg_calls]
                groups[key] = states
            for j, call in enumerate(self._agg_calls):
                value = value_cols[j][row_idx]
                if value is None and call.func.ignores_nulls and call.child is not None:
                    continue
                states[j] = call.func.update(states[j], value)

    def _merge_partial_batch(
        self,
        batch: ColumnBatch,
        key_cols: list[list[Any]],
        groups: dict[tuple, list[Any]],
    ) -> None:
        import pickle

        num_keys = len(self._groupings)
        for row_idx in range(batch.num_rows):
            key = tuple(col[row_idx] for col in key_cols)
            states = groups.get(key)
            if states is None:
                states = [call.func.create() for call in self._agg_calls]
                groups[key] = states
            for j, call in enumerate(self._agg_calls):
                incoming = batch.columns[num_keys + j][row_idx]
                if isinstance(incoming, (bytes, bytearray)):
                    incoming = pickle.loads(incoming)
                states[j] = call.func.merge(states[j], incoming)

    # -- output -------------------------------------------------------------------

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        groups = self._accumulate(ctx)
        keys = list(groups.keys())
        # Emit in batch_size chunks: one monolithic result batch would defeat
        # downstream chunking and bloat shm segments on the process backend.
        step = max(1, ctx.batch_size)
        if not keys:
            chunks: list[list[tuple]] = [[]]
        else:
            chunks = [keys[i : i + step] for i in range(0, len(keys), step)]
        for chunk in chunks:
            if self._mode == AGG_MODE_PARTIAL:
                yield self._emit_partial(chunk, groups)
            else:
                yield self._emit_final(chunk, groups, ctx)

    def _emit_partial(self, keys: list[tuple], groups: dict[tuple, list[Any]]) -> ColumnBatch:
        # States are opaque to everything between partial and final — they
        # cross the eFGAC wire as pickled bytes, never as structured values.
        import pickle

        columns: list[list[Any]] = [
            [key[i] for key in keys] for i in range(len(self._groupings))
        ]
        for j in range(len(self._agg_calls)):
            columns.append(
                [pickle.dumps(groups[key][j], protocol=pickle.HIGHEST_PROTOCOL)
                 for key in keys]
            )
        return ColumnBatch(partial_agg_schema(self._groupings, self._agg_calls), columns)

    def _emit_final(
        self, keys: list[tuple], groups: dict[tuple, list[Any]], ctx: ExecContext
    ) -> ColumnBatch:
        # Intermediate batch: group keys, then finalized aggregate values.
        inter_columns: list[list[Any]] = [
            [key[i] for key in keys] for i in range(len(self._groupings))
        ]
        for j, call in enumerate(self._agg_calls):
            inter_columns.append([call.func.final(groups[key][j]) for key in keys])
        inter_schema_fields = [
            Field(g.output_name(), g.dtype or STRING) for g in self._groupings
        ] + [Field(c.output_name(), c.dtype or STRING) for c in self._agg_calls]
        inter = ColumnBatch(Schema(tuple(inter_schema_fields)), inter_columns)

        # Rewrite output expressions against the intermediate layout.
        call_position = {
            call.expr_id: len(self._groupings) + j
            for j, call in enumerate(self._agg_calls)
        }
        grouping_position = {
            g.output_name(): i for i, g in enumerate(self._groupings)
        }

        columns = []
        for expr in self._outputs:
            rebased = self._rebase_output(expr, call_position, grouping_position)
            columns.append(rebased.eval(inter, ctx.eval_ctx))
        return ColumnBatch(self.schema, columns)

    def _rebase_output(
        self,
        expr: Expression,
        call_position: dict[int, int],
        grouping_position: dict[str, int],
    ) -> Expression:
        """Replace AggregateCalls/grouped refs with refs into the inter batch."""
        # Whole-expression match against a grouping (e.g. SELECT upper(d) ... GROUP BY upper(d)).
        for i, g in enumerate(self._groupings):
            if str(expr) == str(g):
                return BoundRef(i, expr.output_name(), expr.dtype or STRING)

        # transform() rebuilds nodes bottom-up, which can replace an
        # AggregateCall instance (fresh expr_id); fall back to name lookup.
        call_position_by_name = {
            call.output_name(): len(self._groupings) + j
            for j, call in enumerate(self._agg_calls)
        }

        def rebase(node: Expression) -> Expression:
            if isinstance(node, AggregateCall):
                pos = call_position.get(node.expr_id)
                if pos is None:
                    pos = call_position_by_name[node.output_name()]
                return BoundRef(pos, node.output_name(), node.dtype or STRING)
            if isinstance(node, BoundRef):
                pos = grouping_position.get(node.name)
                if pos is not None:
                    return BoundRef(pos, node.name, node.dtype)
            return node

        rebased = expr.transform(rebase)
        for i, g in enumerate(self._groupings):
            text = str(g)

            def match_group(node: Expression, i=i, text=text) -> Expression:
                if str(node) == text:
                    return BoundRef(i, node.output_name(), node.dtype or STRING)
                return node

            rebased = rebased.transform(match_group)
        return rebased


def partial_agg_schema(
    groupings: tuple[Expression, ...], agg_calls: list[AggregateCall]
) -> Schema:
    """Schema of partial-aggregate exchange batches: keys then state blobs."""
    fields = [Field(g.output_name(), g.dtype or STRING) for g in groupings]
    fields += [Field(f"state_{j}", STRING) for j in range(len(agg_calls))]
    return Schema(tuple(fields))


class PhysFusedPipeline(PhysHashAggregate):
    """A whole scan→filter→project→aggregate chain as one generated loop.

    The planner composes every filter condition and projection in the chain
    down to the source operator's schema and compiles the result into a
    single :class:`~repro.engine.compile.CompiledPipeline`: per source batch,
    one function call filters, computes grouping keys and aggregate inputs,
    and folds rows into accumulator slots in place — no intermediate
    ``ColumnBatch`` between the fused operators, no per-group closure
    dispatch. Emission (partial blobs or finalized outputs) reuses the
    parent's machinery unchanged, so eFGAC exchange formats and output
    rewriting are byte-identical to the unfused plan.

    On the process backend the pipeline ships to workers by structural
    fingerprint (mode ``"pipeline"``); each worker accumulates its batches
    into local groups and returns a partial-aggregate batch, which the
    driver merges with the existing partial-merge path.
    """

    def __init__(
        self,
        source: PhysicalOperator,
        groupings: tuple[Expression, ...],
        outputs: tuple[Expression, ...],
        schema: Schema,
        mode: str,
        pipeline: CompiledPipeline,
    ):
        # The parent sees the *original* groupings/outputs (emission rebases
        # output expressions by name/expr_id against them); the composed
        # chain expressions live only inside the pipeline's spec.
        super().__init__(source, groupings, outputs, schema, mode=mode, compiler=None)
        self._pipeline = pipeline

    @property
    def pipeline(self) -> CompiledPipeline:
        """The compiled pipeline (tests inspect fingerprint/source)."""
        return self._pipeline

    def _accumulate(self, ctx: ExecContext) -> dict[tuple, list[Any]]:
        groups: dict[tuple, list[Any]] = {}
        pipeline = self._pipeline
        with _kernel_span(ctx, pipeline, "pipeline"):
            pooled = self._pooled_partials(ctx)
            if pooled is not None:
                key_count = len(self._groupings)
                for pbatch in pooled:
                    if pbatch.num_rows:
                        self._merge_partial_batch(
                            pbatch, pbatch.columns[:key_count], groups
                        )
            else:
                cell: list[Any] = [None, None]
                for batch in self.children[0].execute(ctx):
                    if batch.num_rows:
                        pipeline.accumulate(batch, ctx.eval_ctx, groups, cell)
        if not groups and not self._groupings:
            # Global aggregate over empty input still yields one row.
            groups[()] = [call.func.create() for call in self._agg_calls]
        return groups

    def _pooled_partials(self, ctx: ExecContext) -> Iterator[ColumnBatch] | None:
        """Process-backend accumulation: workers return partial batches.

        Workers each fold their batches into local groups and emit
        ``keys + pickled states``; the driver merges those partials in
        submission order, so group insertion order (and therefore output
        order) matches the thread backend.
        """
        if not _pool_kernel_eligible(ctx, self._pipeline):
            return None
        pschema = partial_agg_schema(self._groupings, self._agg_calls)
        source = self.children[0]
        if isinstance(source, PhysScan):
            # Fuse all the way down: scan workers run pushed filters AND the
            # whole pipeline on the same shared-memory batch.
            pooled = source.pooled_scan(
                ctx,
                fused_kernel=self._pipeline,
                fused_exprs=self._pipeline.spec,
                out_schema=pschema,
                kernel_mode="pipeline",
            )
            if pooled is not None:
                return pooled
        return _pooled_kernel_stream(
            ctx,
            source.execute(ctx),
            kmode="pipeline",
            kernel=self._pipeline,
            exprs=self._pipeline.spec,
            mode="pipeline",
            out_schema=pschema,
        )


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def probe_key_columns(
    left_key_cols: list[list[Any]],
    right_key_cols: list[list[Any]],
) -> list[tuple[int, int]]:
    """Hash-match pre-computed key columns; NULL keys never match (SQL)."""
    if len(left_key_cols) == 1:
        # Single key: the bare value is the dict key (no per-row tuple).
        left_keys, right_keys = left_key_cols[0], right_key_cols[0]
    else:
        # A NULL component poisons the whole key.
        left_keys, right_keys = (
            [None if None in key else key for key in zip(*cols)]
            for cols in (left_key_cols, right_key_cols)
        )
    table: dict[Any, list[int]] = {}
    for j, key in enumerate(right_keys):
        if key is not None:
            table.setdefault(key, []).append(j)
    probe = table.get
    # ``table`` holds no None key, so a NULL probe finds nothing.
    return [(i, j) for i, key in enumerate(left_keys) for j in probe(key, ())]


class PhysJoin(PhysicalOperator):
    """Nested-loop join with a hash fast path for conjunctive equi-joins.

    With ``pre_keys`` > 0 both children are fused pipelines whose outputs
    carry the equi-join key columns appended after the data columns (the
    planner only builds this shape for fully-equi conditions); the join
    strips the key columns off and hash-matches on them directly, so key
    expressions never re-evaluate over the materialized inputs.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        how: str,
        condition: Expression | None,
        schema: Schema,
        compiler: KernelCompiler | None = None,
        pre_keys: int = 0,
    ):
        super().__init__(schema, (left, right))
        self._how = how
        self._condition = condition
        self._compiler = compiler
        self._pre_keys = pre_keys
        # Lazily compiled (left keys, right keys) kernels: key expressions
        # depend on the left input's width, known only once batches flow.
        self._key_kernels: tuple[
            CompiledKernels | None, CompiledKernels | None
        ] | None = None

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        # Both inputs are materialized anyway, so they are safe to build
        # concurrently (forked contexts isolate metrics/UDF memo/trace).
        left, right = collect_children_parallel(ctx, self.children)
        pre_key_cols = None
        if self._pre_keys:
            k = self._pre_keys
            pre_key_cols = (left.columns[-k:], right.columns[-k:])
            left = ColumnBatch(Schema(left.schema.fields[:-k]), left.columns[:-k])
            right = ColumnBatch(
                Schema(right.schema.fields[:-k]), right.columns[:-k]
            )
        yield self._join(left, right, ctx, pre_key_cols)

    # -- core ---------------------------------------------------------------------

    def _join(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        ctx: ExecContext,
        pre_key_cols: tuple[list, list] | None = None,
    ) -> ColumnBatch:
        how = self._how
        n_left, n_right = left.num_rows, right.num_rows
        matches: list[tuple[int, int]] = []
        left_matched = [False] * n_left
        right_matched = [False] * n_right

        if how == "cross":
            matches = [(i, j) for i in range(n_left) for j in range(n_right)]
        else:
            matches = self._find_matches(
                left, right, ctx, left_matched, right_matched, pre_key_cols
            )

        if how in ("inner", "cross"):
            return self._emit_pairs(left, right, matches)
        if how == "semi":
            keep = [i for i in range(n_left) if left_matched[i]]
            return left.take(keep).rename(self.schema)
        if how == "anti":
            keep = [i for i in range(n_left) if not left_matched[i]]
            return left.take(keep).rename(self.schema)
        if how == "left":
            extra = [(i, None) for i in range(n_left) if not left_matched[i]]
            return self._emit_pairs(left, right, matches + extra)
        if how == "right":
            extra = [(None, j) for j in range(n_right) if not right_matched[j]]
            return self._emit_pairs(left, right, matches + extra)
        if how == "full":
            extra = [(i, None) for i in range(n_left) if not left_matched[i]]
            extra += [(None, j) for j in range(n_right) if not right_matched[j]]
            return self._emit_pairs(left, right, matches + extra)
        raise UnsupportedOperationError(f"join type '{how}'")

    def _find_matches(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        ctx: ExecContext,
        left_matched: list[bool],
        right_matched: list[bool],
        pre_key_cols: tuple[list, list] | None = None,
    ) -> list[tuple[int, int]]:
        if pre_key_cols is not None:
            candidates = probe_key_columns(pre_key_cols[0], pre_key_cols[1])
            for i, j in candidates:
                left_matched[i] = True
                right_matched[j] = True
            return candidates
        equi = self._extract_equi_keys(left.num_columns)
        if equi is not None:
            left_keys, right_keys, residual = equi
            return self._hash_matches(
                left, right, ctx, left_keys, right_keys, residual,
                left_matched, right_matched,
            )
        return self._loop_matches(left, right, ctx, left_matched, right_matched)

    def _extract_equi_keys(
        self, left_width: int
    ) -> tuple[list[Expression], list[Expression], Expression | None] | None:
        """Split a conjunctive condition into left-key = right-key pairs."""
        return split_equi_condition(self._condition, left_width)

    def _hash_matches(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        ctx: ExecContext,
        left_keys: list[Expression],
        right_keys: list[Expression],
        residual: Expression | None,
        left_matched: list[bool],
        right_matched: list[bool],
    ) -> list[tuple[int, int]]:
        left_width = left.num_columns
        # Right-side key expressions reference combined-schema positions.
        shifted = [shift_refs(k, -left_width) for k in right_keys]
        if self._compiler is not None and self._key_kernels is None:
            # Compiled once per operator; None entries (e.g. bare-column
            # keys, where interpretation is already a no-copy read) keep
            # the interpreted path for that side.
            self._key_kernels = (
                self._compiler.compile_projection(tuple(left_keys)),
                self._compiler.compile_projection(tuple(shifted)),
            )
        left_kernel, right_kernel = self._key_kernels or (None, None)
        if right_kernel is not None:
            right_key_cols = right_kernel.eval_all(right, ctx.eval_ctx)
        else:
            right_key_cols = [k.eval(right, ctx.eval_ctx) for k in shifted]
        if left_kernel is not None:
            left_key_cols = left_kernel.eval_all(left, ctx.eval_ctx)
        else:
            left_key_cols = [k.eval(left, ctx.eval_ctx) for k in left_keys]
        candidates = probe_key_columns(left_key_cols, right_key_cols)
        if residual is not None and candidates:
            combined = self._pairs_batch(left, right, candidates)
            mask = residual.eval(combined, ctx.eval_ctx)
            candidates = [p for p, m in zip(candidates, mask) if m]
        for i, j in candidates:
            left_matched[i] = True
            right_matched[j] = True
        return candidates

    def _loop_matches(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        ctx: ExecContext,
        left_matched: list[bool],
        right_matched: list[bool],
    ) -> list[tuple[int, int]]:
        pairs = [(i, j) for i in range(left.num_rows) for j in range(right.num_rows)]
        if not pairs:
            return []
        combined = self._pairs_batch(left, right, pairs)
        mask = self._condition.eval(combined, ctx.eval_ctx)
        matches = [p for p, m in zip(pairs, mask) if m]
        for i, j in matches:
            left_matched[i] = True
            right_matched[j] = True
        return matches

    def _pairs_batch(
        self, left: ColumnBatch, right: ColumnBatch, pairs: list[tuple[int, int]]
    ) -> ColumnBatch:
        columns = [
            [col[i] for i, _ in pairs] for col in left.columns
        ] + [
            [col[j] for _, j in pairs] for col in right.columns
        ]
        return ColumnBatch(left.schema.concat(right.schema), columns)

    def _emit_pairs(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        pairs: list[tuple[int | None, int | None]],
    ) -> ColumnBatch:
        columns = [
            [None if i is None else col[i] for i, _ in pairs] for col in left.columns
        ] + [
            [None if j is None else col[j] for _, j in pairs] for col in right.columns
        ]
        return ColumnBatch(self.schema, columns)


class PhysUnion(PhysicalOperator):
    """UNION ALL: concatenates child streams."""

    def __init__(self, children: tuple[PhysicalOperator, ...], schema: Schema):
        super().__init__(schema, children)

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        if ctx.parallel_children and len(self.children) >= 2:
            for batch in collect_children_parallel(ctx, self.children):
                yield from chunk_batch(batch.rename(self.schema), ctx.batch_size)
            return
        for child in self.children:
            for batch in child.execute(ctx):
                yield batch.rename(self.schema)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def _unfold_scan(scan: Scan) -> LogicalPlan:
    """``scan`` as explicit stages over a bare scan of the same table:
    its pushed filters in order, then its column pruning."""
    plan: LogicalPlan = Scan(scan.table)
    for predicate in scan.pushed_filters:
        plan = Filter(plan, predicate)
    if scan.required_columns is not None:
        fields = scan.table.schema.fields
        plan = Project(
            plan,
            [
                BoundRef(i, fields[i].name, fields[i].dtype)
                for i in scan.required_columns
            ],
        )
    return plan


class PhysicalPlanner:
    """Maps an optimized logical plan to a physical operator tree.

    With a :class:`~repro.engine.compile.KernelCompiler`, expression-heavy
    operators receive compiled kernels and ``Project(Filter(x))`` shapes
    collapse into :class:`PhysFilterProject` when the compiler accepts the
    fusion. Every kernel is optional: a refused or failed compilation keeps
    the interpreted operator, so planning never fails due to compilation.

    With ``fuse_operators`` (and a compiler), the planner additionally
    detects maximal fusable chains — runs of Filter/Project stages feeding
    an aggregate, a sort, an equi-join, or nothing (the chain's top stage
    is then the result) — and lowers each into one generated loop
    (:class:`PhysFusedPipeline`, or a fused filter→project that also
    appends the keys a sort/join sink needs). A chain starts at the scan's
    pushed filters, so the policy row filter is the loop's first test, not
    a separate pass over the scan output. Chains break at any stage
    containing user code: the opaque stage plans normally (its UDFs run
    next to the sandbox, exactly as often as unfused) and fusion restarts
    below it, so a UDF splits a chain into two fused segments around the
    sandbox call; a scan directly below the break keeps its pushed filters
    and runs them through its own predicate kernels.
    """

    def __init__(
        self,
        compiler: KernelCompiler | None = None,
        fuse_operators: bool = True,
    ):
        self._compiler = compiler
        self._fuse = fuse_operators

    def plan(self, logical: LogicalPlan) -> PhysicalOperator:
        """Recursively select a physical operator for each logical node."""
        if isinstance(logical, LocalRelation):
            return PhysLocalData(logical.schema, logical.columns)
        if isinstance(logical, Range):
            return PhysRange(logical)
        if isinstance(logical, Scan):
            return self._plan_scan(logical)
        if isinstance(logical, RemoteScan):
            return PhysRemoteScan(logical)
        if isinstance(logical, Filter):
            fused = self._plan_fused_chain(logical)
            if fused is not None:
                return fused
            kernel = None
            if self._compiler is not None:
                kernel = self._compiler.compile_predicate(logical.condition)
            return PhysFilter(
                self.plan(logical.child), logical.condition, kernel=kernel
            )
        if isinstance(logical, Project):
            fused = self._plan_fused_chain(logical)
            if fused is None:
                fused = self._plan_fused_filter_project(logical)
            if fused is not None:
                return fused
            kernel = None
            if self._compiler is not None:
                kernel = self._compiler.compile_projection(logical.exprs)
            return PhysProject(
                self.plan(logical.child), logical.exprs, logical.schema,
                kernel=kernel,
            )
        if isinstance(logical, Aggregate):
            fused_agg = self._plan_fused_pipeline(logical)
            if fused_agg is not None:
                return fused_agg
            return PhysHashAggregate(
                self.plan(logical.child),
                logical.groupings,
                logical.aggregates,
                logical.schema,
                mode=logical.mode,
                compiler=self._compiler,
            )
        if isinstance(logical, Join):
            fused_join = self._plan_fused_join(logical)
            if fused_join is not None:
                return fused_join
            return PhysJoin(
                self.plan(logical.left),
                self.plan(logical.right),
                logical.how,
                logical.condition,
                logical.schema,
                compiler=self._compiler,
            )
        if isinstance(logical, Sort):
            return self._plan_sort(logical)
        if isinstance(logical, Limit):
            if isinstance(logical.child, Sort):
                # ORDER BY … LIMIT: the sort keeps only the rows the limit
                # (after its offset) can still return — a bounded top-k.
                child: PhysicalOperator = self._plan_sort(
                    logical.child, limit=logical.limit + logical.offset
                )
            else:
                child = self.plan(logical.child)
            return PhysLimit(child, logical.limit, logical.offset)
        if isinstance(logical, Distinct):
            return PhysDistinct(self.plan(logical.child))
        if isinstance(logical, Union):
            return PhysUnion(
                tuple(self.plan(c) for c in logical.children), logical.schema
            )
        if isinstance(logical, (SecureView, SubqueryAlias)):
            # Pure metadata wrappers at execution time.
            child = self.plan(logical.children[0])
            child.schema = logical.schema
            return child
        raise UnsupportedOperationError(
            f"no physical implementation for {type(logical).__name__}"
        )

    def _plan_scan(self, logical: Scan) -> PhysScan:
        """A scan no fused consumer absorbed: one predicate kernel per pushed
        filter. A refused predicate is interpreted, and counted as a fusion
        miss so the fallback shows in ``cache_stats``."""
        if self._compiler is None or not logical.pushed_filters:
            return PhysScan(logical)
        kernels = tuple(
            self._compiler.compile_predicate(p) for p in logical.pushed_filters
        )
        if None in kernels:
            self._compiler.note_fusion(False)
        return PhysScan(logical, kernels)

    def _plan_sort(self, logical: Sort, limit: int | None = None) -> PhysSort:
        fused_sort = self._plan_fused_sort(logical, limit)
        if fused_sort is not None:
            return fused_sort
        key_kernel = None
        if self._compiler is not None:
            key_kernel = self._compiler.compile_projection(
                tuple(o.expr for o in logical.orders)
            )
        return PhysSort(
            self.plan(logical.child),
            logical.orders,
            key_kernel=key_kernel,
            limit=limit,
        )

    def _plan_fused_filter_project(
        self, logical: Project
    ) -> PhysFilterProject | None:
        """Collapse ``Project(Filter(x))`` into one compiled operator.

        Only when the compiler accepts condition *and* projections — it
        refuses any user code or unknown node, which keeps sandbox fusion
        and UDF invocation counts identical to the unfused plan.
        """
        if self._compiler is None or not isinstance(logical.child, Filter):
            return None
        filter_node = logical.child
        kernel = self._compiler.compile_filter_projection(
            filter_node.condition, logical.exprs
        )
        if kernel is None:
            return None
        return PhysFilterProject(
            self.plan(filter_node.child),
            filter_node.condition,
            logical.exprs,
            logical.schema,
            kernel,
        )

    # -- whole-operator (pipeline) fusion ------------------------------------

    def _fusion_chain(
        self, node: LogicalPlan
    ) -> tuple[list[LogicalPlan], LogicalPlan]:
        """Maximal run of compilable Filter/Project stages below ``node``.

        Walks down through metadata wrappers (SecureView/SubqueryAlias keep
        column positions, so positional composition passes straight through
        them — this is what lets fusion cross the policy filters enforcement
        wraps around governed tables). Stops at the first stage containing
        user code or an unknown node: that stage is the UDF chain-break.
        Returns ``(stages top-down, boundary node)``; the boundary plans
        normally and becomes the fused pipeline's source.

        A scan's pushed filters — the policy row filter first — are the
        chain's bottom stages: the scan is unfolded into ``Project(required
        columns) → Filter(pushed) … → bare Scan`` and the bare scan becomes
        the boundary, so the fused loop tests the policy predicate itself
        and no filtered batch is built between scan and consumer. Pruning
        is list selection, not I/O, so reading unpruned costs nothing.
        """
        stages: list[LogicalPlan] = []
        cur = node
        while True:
            if isinstance(cur, (SecureView, SubqueryAlias)):
                cur = cur.children[0]
                continue
            if isinstance(cur, Filter) and not has_opaque_nodes((cur.condition,)):
                stages.append(cur)
                cur = cur.child
                continue
            if isinstance(cur, Project) and not has_opaque_nodes(cur.exprs):
                stages.append(cur)
                cur = cur.child
                continue
            if (
                isinstance(cur, Scan)
                and cur.pushed_filters
                and not has_opaque_nodes(cur.pushed_filters)
            ):
                cur = _unfold_scan(cur)
                continue
            return stages, cur

    @staticmethod
    def _compose_chain(
        stages: list[LogicalPlan],
    ) -> tuple[Expression | None, list[Expression] | None]:
        """Compose a chain's stages down to the boundary's schema.

        Bottom-up: projections substitute into everything above them
        (``inline_through_projection``); filter conditions conjoin with AND,
        which preserves semantics exactly because a row survives sequential
        filters iff every condition is truthy, and all inlined expressions
        are deterministic and side-effect-free (opaque nodes were refused).
        Lower stages are the AND's left operands and the generated loop
        tests conjuncts left to right, so a stage still only sees rows
        every stage below it — the scan's policy filter first — let through.
        ``out_exprs`` of ``None`` means identity (no projection in chain).
        """
        condition: Expression | None = None
        out_exprs: list[Expression] | None = None
        for stage in reversed(stages):
            if isinstance(stage, Filter):
                cond = inline_through_projection(stage.condition, out_exprs)
                condition = (
                    cond if condition is None else BooleanOp("AND", condition, cond)
                )
            else:
                out_exprs = [
                    inline_through_projection(e, out_exprs) for e in stage.exprs
                ]
        return condition, out_exprs

    def _plan_fused_pipeline(self, logical: Aggregate) -> PhysFusedPipeline | None:
        """Lower chain→aggregate into one :class:`PhysFusedPipeline`.

        Applies in complete and partial modes (final mode merges opaque
        state blobs — nothing to fuse). Even a chain-less aggregate fuses:
        inlined accumulator updates alone beat per-call closure dispatch.
        Any refusal (opaque nodes, unknown aggregate, compile failure)
        counts a fusion miss and falls back to the unfused plan.
        """
        if self._compiler is None or not self._fuse:
            return None
        if logical.mode == AGG_MODE_FINAL:
            return None
        try:
            agg_calls = distinct_agg_calls(logical.aggregates)
            raw_inputs = tuple(
                call.child if call.child is not None else Literal(True)
                for call in agg_calls
            )
            if has_opaque_nodes(tuple(logical.groupings) + raw_inputs):
                self._compiler.note_fusion(False)
                return None
            stages, boundary = self._fusion_chain(logical.child)
            condition, out_exprs = self._compose_chain(stages)
            groupings_c = tuple(
                inline_through_projection(g, out_exprs) for g in logical.groupings
            )
            inputs_c = tuple(
                inline_through_projection(e, out_exprs) for e in raw_inputs
            )
            pipeline = self._compiler.compile_pipeline(
                condition, groupings_c, agg_calls, inputs_c
            )
        except Exception:  # noqa: BLE001 - fusion is an optional fast path
            pipeline = None
        if pipeline is None:
            self._compiler.note_fusion(False)
            return None
        self._compiler.note_fusion(True)
        return PhysFusedPipeline(
            self.plan(boundary),
            logical.groupings,
            logical.aggregates,
            logical.schema,
            logical.mode,
            pipeline,
        )

    def _plan_fused_chain(
        self, logical: Filter | Project
    ) -> PhysicalOperator | None:
        """Lower a chain that ends in no sink — ``logical`` is its top
        Filter/Project — into one fused filter→project loop.

        Only chains of two or more stages (a scan's pushed filters count):
        a lone stage is already a single kernel.
        """
        if self._compiler is None or not self._fuse:
            return None
        stages, boundary = self._fusion_chain(logical)
        if len(stages) < 2:
            return None
        try:
            condition, out_exprs = self._compose_chain(stages)
            fused = self._fused_keyed_child(
                boundary, logical.schema, condition, out_exprs, ()
            )
        except Exception:  # noqa: BLE001 - fusion is an optional fast path
            fused = None
        self._compiler.note_fusion(fused is not None)
        return fused

    def _fused_keyed_child(
        self,
        boundary: LogicalPlan,
        data_schema: Schema,
        condition: Expression | None,
        out_exprs: list[Expression] | None,
        keys: tuple[Expression, ...],
    ) -> PhysicalOperator | None:
        """One fused operator producing ``data columns + key columns``.

        The sort/join sink shape: the chain's composed filter+projection and
        the sink's key expressions run in a single generated loop; the sink
        strips the appended key columns off the result. Returns ``None``
        when the compiler refuses (caller falls back to unfused planning).
        """
        if out_exprs is None:
            data_exprs: tuple[Expression, ...] = tuple(
                BoundRef(i, f.name, f.dtype)
                for i, f in enumerate(data_schema.fields)
            )
        else:
            data_exprs = tuple(out_exprs)
        all_exprs = data_exprs + tuple(keys)
        ext_schema = Schema(
            tuple(data_schema.fields)
            + tuple(
                Field(f"__key_{i}", k.dtype or STRING) for i, k in enumerate(keys)
            )
        )
        if condition is not None:
            kernel = self._compiler.compile_filter_projection(condition, all_exprs)
            if kernel is None:
                return None
            return PhysFilterProject(
                self.plan(boundary), condition, all_exprs, ext_schema, kernel
            )
        kernel = self._compiler.compile_projection(all_exprs)
        if kernel is None:
            return None
        return PhysProject(self.plan(boundary), all_exprs, ext_schema, kernel=kernel)

    def _plan_fused_sort(
        self, logical: Sort, limit: int | None = None
    ) -> PhysSort | None:
        """Fuse chain→sort-key extraction: keys computed in the chain's loop.

        Only when a non-empty fusable chain sits below the sort (otherwise
        the existing key kernel already covers key evaluation).
        """
        if self._compiler is None or not self._fuse:
            return None
        key_exprs = tuple(o.expr for o in logical.orders)
        if not key_exprs or has_opaque_nodes(key_exprs):
            return None
        stages, boundary = self._fusion_chain(logical.child)
        if not stages:
            return None
        try:
            condition, out_exprs = self._compose_chain(stages)
            keys_c = tuple(
                inline_through_projection(k, out_exprs) for k in key_exprs
            )
            fused = self._fused_keyed_child(
                boundary, logical.schema, condition, out_exprs, keys_c
            )
        except Exception:  # noqa: BLE001 - fusion is an optional fast path
            fused = None
        if fused is None:
            self._compiler.note_fusion(False)
            return None
        self._compiler.note_fusion(True)
        return PhysSort(
            fused, logical.orders, appended_keys=len(keys_c), limit=limit
        )

    def _plan_fused_join(self, logical: Join) -> PhysJoin | None:
        """Fuse chain→equi-join key extraction on both inputs.

        Requires a fully-equi condition (no residual — residual evaluation
        needs the combined batch) and a non-empty fusable chain on *each*
        side; both children then emit ``data + key`` columns and the join
        hash-matches the pre-computed keys directly.
        """
        if self._compiler is None or not self._fuse or logical.how == "cross":
            return None
        left_width = len(logical.left.schema.fields)
        equi = split_equi_condition(logical.condition, left_width)
        if equi is None:
            return None
        left_keys, right_keys, residual = equi
        if residual is not None:
            return None
        shifted = [shift_refs(k, -left_width) for k in right_keys]
        if has_opaque_nodes(tuple(left_keys) + tuple(shifted)):
            return None
        fused_sides: list[PhysicalOperator] = []
        for side, keys in ((logical.left, left_keys), (logical.right, shifted)):
            stages, boundary = self._fusion_chain(side)
            if not stages:
                return None
            try:
                condition, out_exprs = self._compose_chain(stages)
                keys_c = tuple(
                    inline_through_projection(k, out_exprs) for k in keys
                )
                fused = self._fused_keyed_child(
                    boundary, side.schema, condition, out_exprs, keys_c
                )
            except Exception:  # noqa: BLE001 - fusion is an optional fast path
                fused = None
            if fused is None:
                self._compiler.note_fusion(False)
                return None
            fused_sides.append(fused)
        self._compiler.note_fusion(True)
        return PhysJoin(
            fused_sides[0],
            fused_sides[1],
            logical.how,
            logical.condition,
            logical.schema,
            compiler=self._compiler,
            pre_keys=len(left_keys),
        )
