"""Physical operators: columnar, batch-at-a-time execution.

The governance hooks at this layer:

- :class:`PhysScan` pulls batches from a :class:`DataSource`; Lakeguard's
  governed data source fetches per-user temporary credentials before touching
  storage, so executor-side access is always identity-bound.
- :class:`PhysProject` executes fused Python-UDF groups through the context's
  ``UDFRuntime`` — one sandbox round-trip per fusion group per batch.
- :class:`PhysRemoteScan` delegates an eFGAC sub-plan to a remote endpoint.

Every chain of engine-code filters and projections runs as one loop
together with its sink (:class:`PhysPipeline`, an aggregate's
accumulation): generated code from :mod:`repro.engine.compile` where the
compiler accepted it, :func:`~repro.engine.compile.interpret_pipeline`
otherwise. The plan is the same either way; only the loop differs.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, NamedTuple, Protocol, Sequence

from repro.common.context import span_or_null
from repro.engine.aggregates import AggregateCall
from repro.engine.batch import ColumnBatch, chunk_batch
from repro.engine.compile import (
    CompiledPipeline,
    JoinProbe,
    KernelCompiler,
    PipelineSpec,
    _gate,
    collect_loop,
    has_opaque_nodes,
    hash_keys,
    interpret_pipeline,
    join_keys,
    policy_digest,
    run_pipeline,
    sink_state,
    topk_rows,
)
from repro.engine.expressions import (
    Alias,
    BooleanOp,
    BoundRef,
    EvalContext,
    Expression,
    Literal,
    Parameter,
    PythonUDFCall,
    SortOrder,
    column_bound,
    conjuncts,
    split_equi_condition,
)
from repro.engine.optimizer import (
    inline_through_projection,
    project_columns,
    rebind_refs,
    selection_map,
    substitute_refs,
)
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
from repro.engine.types import FLOAT, INT, STRING, Field, Schema
from repro.errors import ExecutionError, UnsupportedOperationError

DEFAULT_BATCH_SIZE = 4096


class DataSource(Protocol):
    """Provides batches of a governed table's columns.

    ``columns`` are positions in ``table.schema`` in ascending order;
    batches carry exactly those columns, in that order, and a source
    decodes nothing else. With a ``policy``, only the rows it admits (passed
    only when set: a source without the keyword fails, never ignores it).
    An ``access`` path (also passed only when set) is a hint: a source may
    serve fewer rows that still hold every row the loop keeps, or runs
    (:attr:`ColumnBatch.runs`), or ignore it.
    """

    def scan(
        self,
        table: TableRef,
        eval_ctx: EvalContext,
        columns: Sequence[int],
        policy: "RowSelection | None" = None,
        access: AccessPath | None = None,
    ) -> Iterator[ColumnBatch]: ...


class RowSelection:
    """A predicate over a table's ``columns``, compiled once into a
    ``collect`` loop (interpreted conjunct by conjunct when refused) that
    selects the positions of the rows it admits; NULL rejects. A scan's row
    filter or a write's pass."""

    def __init__(
        self,
        predicate: Expression,
        fields: Sequence[Field],
        compiler: KernelCompiler | None = None,
    ):
        read = sorted(predicate.references()) or [0]  # a row count needs a column
        self.digest = policy_digest(predicate)
        self.columns: tuple[str, ...] = tuple(fields[i].name for i in read)
        self._schema = Schema(tuple(fields[i] for i in read) + (Field("#row", INT),))
        self.spec, self.kernel = collect_loop(
            compiler,
            substitute_refs(predicate, selection_map(fields, read)),
            (BoundRef(len(read), "#row", INT),),
        )

    def admitted(self, columns: Sequence[list], ctx: EvalContext) -> list[int]:
        """Admitted positions of ``columns`` (one list per :attr:`columns`)."""
        batch = ColumnBatch(self._schema, [*columns, list(range(len(columns[0])))])
        return run_pipeline(self.spec, self.kernel, batch, ctx)[0]


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
    #: Materialize independent child subtrees (union inputs) on threads.
    parallel_children: bool = False

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
            params=eval_ctx.params,
        )
        return ExecContext(
            eval_ctx=forked_eval,
            data_source=self.data_source,
            remote_executor=self.remote_executor,
            batch_size=self.batch_size,
            parallel_children=self.parallel_children,
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
    """Governed table scan: whole-object fetch, late decode and the policy
    slot — nothing else.

    The fetch is object-granular and mirrors Fig. 3: cloud storage
    authorises whole objects, so the engine ingests every byte before
    policy or predicate evaluation can drop anything. Decoding is compute,
    and only :attr:`columns` (the scan's required columns) are decoded.

    A policy slot's :class:`RowSelection` goes to the data source, which
    yields only the rows it admits. Pushed filters never reach this
    operator: the planner unfolds them into the stages of the loop that
    reads the scan (see :func:`_unfold_scan`), so every later conjunct runs
    there, on admitted rows only.

    The compiled loop that reads the scan may set its :attr:`path`: what
    the memo entries of its files can serve it instead of every row.
    """

    def __init__(self, node: Scan, compiler: KernelCompiler | None = None):
        super().__init__(node.schema)
        self._node = node
        fields = node.table.schema.fields
        required = node.required_columns
        #: Positions in ``table.schema`` this scan decodes, ascending.
        self.columns: tuple[int, ...] = (
            tuple(range(len(fields))) if required is None else required
        )
        self.policy: RowSelection | None = None
        if node.policy_filter is not None:
            self.policy = RowSelection(node.policy_filter, fields, compiler)
        self.path: AccessPath | None = None

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        if ctx.data_source is None:
            raise ExecutionError(
                f"no data source configured; cannot scan {self._node.table.full_name}"
            )
        extra: dict[str, Any] = {}
        if self.policy is not None:
            extra["policy"] = self.policy
        if self.path is not None:
            extra["access"] = self.path.resolve(ctx.eval_ctx.params)
        scan = ctx.data_source.scan(self._node.table, ctx.eval_ctx, self.columns, **extra)
        for batch in scan:
            ctx.metrics.rows_scanned += batch.num_rows
            yield batch


class AccessPath(NamedTuple):
    """What one loop over a memo entry may read instead of every row.

    ``bounds`` — ``(op, value)`` pairs, ``op`` one of ``= < <= > >=`` — are
    the loop's leading conjuncts on ``column``: the rows they pass are a
    slice of the column's sorted index. ``top`` is ``(k + offset,
    descending)`` of a top-k ordered by ``column`` whose condition is only
    those bounds. ``group`` is the GROUP BY column of an aggregate loop that
    can fold the entry run by run. As planned, a value is a
    :class:`Literal` or a :class:`Parameter`; :meth:`resolve` makes it the
    number a memo bisects by.
    """

    column: str | None = None
    bounds: tuple[tuple[str, Any], ...] = ()
    top: tuple[int, bool] | None = None
    group: str | None = None

    def resolve(self, params: Sequence[Any]) -> "AccessPath":
        """This path under one execution's ``params``: no slice unless every
        bound is a number other than NaN."""
        bounds = []
        for op, value in self.bounds:
            v = value.value if isinstance(value, Literal) else params[value.slot]
            if type(v) not in (int, float) or v != v:
                return AccessPath(group=self.group)
            bounds.append((op, v))
        return self._replace(bounds=tuple(bounds))


def loop_path(
    spec: PipelineSpec, fields: Sequence[Field], limit: int | None, runs: bool
) -> AccessPath | None:
    """What a compiled loop over a bare scan of ``fields`` may read instead
    of every row: a slice by its leading conjuncts when they bound one INT
    or FLOAT column by values, just the top ``limit`` of it for a top-k by
    that column that tests and probes nothing else, and with ``runs`` the
    runs of the aggregate's grouping column (``None``: none of these)."""
    column, bounds = None, []
    parts = [] if spec.condition is None else conjuncts(spec.condition)
    for part in parts:
        found = column_bound(part)
        if found is None:
            break
        ref, op, value = found
        if (
            not isinstance(value, (Literal, Parameter))
            or ref.index >= len(fields)
            or fields[ref.index].dtype not in (INT, FLOAT)
            or column not in (None, ref.index)
        ):
            break
        column = ref.index
        bounds.append((op, value))
    top = None
    if (
        spec.sink == "topk"
        and limit
        and spec.probe is None
        and len(bounds) == len(parts)
        and len(spec.order) == 1
        and isinstance(spec.order[0], BoundRef)
        and spec.order[0].index == column
    ):
        top = (limit, spec.descending)
    group = fields[spec.groupings[0].index].name if runs else None
    if column is None and group is None:
        return None
    return AccessPath(
        None if column is None else fields[column].name, tuple(bounds), top, group
    )


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
    """Row filtering with SQL semantics (NULL predicate drops the row), for
    a condition no loop can hold: one with user code (or a node type the
    generator does not know) in it. One conjunct at a time, so user code
    only sees the rows every conjunct left of it admitted."""

    def __init__(self, child: PhysicalOperator, condition: Expression):
        super().__init__(child.schema, (child,))
        self._condition = condition

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        for batch in self.children[0].execute(ctx):
            yield _gate(self._condition, batch, ctx.eval_ctx)


class PhysProject(PhysicalOperator):
    """Projection with fused UDF execution: a stage with user code in it,
    or a pure column selection.

    Per batch: every fusion group's UDF calls are shipped to the runtime in
    one invocation; results land in ``ctx.eval_ctx.udf_results`` so normal
    expression evaluation picks them up without re-running the user code.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        exprs: tuple[Expression, ...],
        schema: Schema,
    ):
        super().__init__(schema, (child,))
        self._exprs = exprs
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
        for batch in self.children[0].execute(ctx):
            eval_ctx.udf_results.clear()
            if batch.num_rows and self._fusion_groups and eval_ctx.udf_runtime:
                self._run_fused_groups(batch, ctx)
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


def _pipeline_span(ctx: ExecContext, pipeline: CompiledPipeline | None, sink: str):
    """An ``engine.kernel`` span over one generated loop's batch stream,
    naming its sink (a no-op when the loop is interpreted or untraced)."""
    if pipeline is None:
        return nullcontext()
    return span_or_null(
        ctx.eval_ctx.query_ctx,
        "kernel:pipeline",
        "engine.kernel",
        fingerprint=pipeline.fingerprint[:12],
        sink=sink,
    )


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
    """Materializing sort with per-key direction and NULL placement, for an
    ORDER BY no ``topk`` loop can run: mixed directions, or user code in a
    key.

    Each ORDER BY term is one stable ``list.sort`` pass over row indices,
    least-significant term first, descending terms with ``reverse=True``
    (which keeps ties in input order, like an ascending pass). Keys are the
    raw values, or ``(rank, value)`` tuples when the column holds NULLs —
    no comparison ever re-enters Python.
    """

    def __init__(self, child: PhysicalOperator, orders: tuple[SortOrder, ...]):
        super().__init__(child.schema, (child,))
        self._orders = orders

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        full = ColumnBatch.concat(self.schema, list(self.children[0].execute(ctx)))
        if full.num_rows == 0:
            yield full
            return
        keys = [_ranked_keys(o.expr.eval(full, ctx.eval_ctx), o) for o in self._orders]
        indices = list(range(full.num_rows))
        for term_keys, order in reversed(list(zip(keys, self._orders))):
            indices.sort(key=term_keys.__getitem__, reverse=not order.ascending)
        yield full.take(indices)


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


def aggregate_spec(
    groupings: Sequence[Expression],
    calls: Sequence[AggregateCall],
    inputs: Sequence[Expression] | None = None,
    condition: Expression | None = None,
    **chain: Any,
) -> PipelineSpec:
    """The aggregate sink of ``calls`` grouped by ``groupings``: ``inputs``
    are the calls' inputs (``Literal(True)`` for ``COUNT(*)`` by default),
    ``condition`` and ``chain`` the rest of a fused :class:`PipelineSpec`."""
    if inputs is None:
        inputs = [c.child if c.child is not None else Literal(True) for c in calls]
    return PipelineSpec(
        condition,
        groupings=tuple(groupings),
        agg_specs=tuple((call.func_name, call.child is not None) for call in calls),
        agg_inputs=tuple(inputs),
        **chain,
    )


class PhysHashAggregate(PhysicalOperator):
    """Hash aggregation with complete / partial / final modes.

    Partial mode emits ``group keys + aggregate states as data`` (what eFGAC
    ships across the wire); final mode merges such states. Complete mode does
    both locally.

    Complete and partial modes accumulate through one pipeline loop: the
    planner's ``spec`` of the whole chain below composed onto
    ``children[0]`` — through a join probe whose build side is
    ``children[1]`` — so one call per source batch filters, probes and
    folds rows into accumulator slots in place, with no intermediate or
    joined batch; or, for an aggregate over user code, the aggregate alone
    over ``children[0]``. The loop's groups convert to the aggregate
    algebra's layout once, after the last batch, so emission (partial blobs
    or finalized outputs) is byte-identical to the interpreted loop's.
    Without a compiled ``pipeline`` (no compiler, or it refused) the spec
    is interpreted.
    """

    def __init__(
        self,
        children: Sequence[PhysicalOperator],
        groupings: tuple[Expression, ...],
        outputs: tuple[Expression, ...],
        schema: Schema,
        mode: str = AGG_MODE_COMPLETE,
        compiler: KernelCompiler | None = None,
        spec: PipelineSpec | None = None,
        pipeline: CompiledPipeline | None = None,
    ):
        super().__init__(schema, tuple(children))
        self._groupings = groupings
        self._outputs = outputs
        self._mode = mode
        # Distinct aggregate calls across all output expressions, in order.
        self._agg_calls: list[AggregateCall] = distinct_agg_calls(outputs)
        if spec is None and mode != AGG_MODE_FINAL:
            spec = aggregate_spec(groupings, self._agg_calls)
            pipeline = compiler and compiler.compile_pipeline_spec(spec)
        self.spec = spec
        self.pipeline = pipeline

    # -- state accumulation ------------------------------------------------------

    def _accumulate(self, ctx: ExecContext) -> dict[tuple, list[Any]]:
        groups: dict[Any, list[Any]] = {}
        if self._mode == AGG_MODE_FINAL:
            for batch in self.children[0].execute(ctx):
                # Partial batches arrive laid out as [keys..., states...].
                self._merge_partial_batch(batch, groups)
        else:
            pipeline = self.pipeline
            with _pipeline_span(ctx, pipeline, self.spec.label):
                for _ in _run_loop(ctx, self.children, self.spec, pipeline, groups):
                    pass
            if pipeline is not None:
                groups = pipeline.algebra_groups(groups)
        if not groups and not self._groupings:
            # Global aggregate over empty input still yields one row.
            groups[()] = [call.func.create() for call in self._agg_calls]
        return groups

    def _merge_partial_batch(
        self, batch: ColumnBatch, groups: dict[tuple, list[Any]]
    ) -> None:
        num_keys = len(self._groupings)
        key_cols = batch.columns[:num_keys]
        for row_idx in range(batch.num_rows):
            key = tuple(col[row_idx] for col in key_cols)
            states = groups.get(key)
            if states is None:
                states = [call.func.create() for call in self._agg_calls]
                groups[key] = states
            for j, call in enumerate(self._agg_calls):
                incoming = call.func.state_from_data(
                    batch.columns[num_keys + j][row_idx]
                )
                states[j] = call.func.merge(states[j], incoming)

    # -- output -------------------------------------------------------------------

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        groups = self._accumulate(ctx)
        keys = list(groups.keys())
        # Emit in batch_size chunks: one monolithic result batch would defeat
        # downstream chunking.
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
        # States cross the eFGAC wire as plain data (numbers, pairs, lists),
        # which the final side checks and never decodes.
        columns: list[list[Any]] = [
            [key[i] for key in keys] for i in range(len(self._groupings))
        ]
        for j, call in enumerate(self._agg_calls):
            to_data = call.func.state_to_data
            columns.append([to_data(groups[key][j]) for key in keys])
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
    """Schema of partial-aggregate exchange batches: keys, then states."""
    fields = [Field(g.output_name(), g.dtype or STRING) for g in groupings]
    fields += [Field(f"state_{j}", STRING) for j in range(len(agg_calls))]
    return Schema(tuple(fields))


def _run_loop(
    ctx: ExecContext,
    children: Sequence[PhysicalOperator],
    spec: PipelineSpec,
    pipeline: CompiledPipeline | None,
    state: Any,
) -> Iterator[Any]:
    """Feed every source batch to the pipeline's loop — to
    :func:`~repro.engine.compile.interpret_pipeline` where the compiler
    refused it — after hashing the build side (``children[1]``) once;
    yields each call's result."""
    table = None
    if spec.probe is not None:
        build = ColumnBatch.concat(children[1].schema, list(children[1].execute(ctx)))
        keys = join_keys([k.eval(build, ctx.eval_ctx) for k in spec.probe.build_keys])
        rows = build.iter_rows()
        if spec.probe.how == "full":
            rows = [(*row, j) for j, row in enumerate(rows)]
        table = hash_keys(keys, rows)
    for batch in children[0].execute(ctx):
        if batch.num_rows:
            yield run_pipeline(spec, pipeline, batch, ctx.eval_ctx, state, table)
    if spec.probe is not None and spec.probe.how == "full":
        # The build rows no match recorded, NULL-extended, in their order.
        unmatched = build.take([j for j in range(build.num_rows) if j not in state])
        nulls = [[None] * unmatched.num_rows for _ in range(spec.probe.width)]
        rest = replace(spec, condition=spec.matched, matched=None, probe=None)
        joined = ColumnBatch(children[0].schema.concat(build.schema), nulls + unmatched.columns)
        yield interpret_pipeline(rest, joined, ctx.eval_ctx, state)


class PhysPipeline(PhysicalOperator):
    """A chain and its ``collect``, ``limit`` or ``topk`` sink as one loop.

    ``children`` are the source and, for a join probe, the build side. A
    ``limit`` sink stops pulling source batches once its last row is kept;
    a ``topk`` emits its rows after the last batch. ``limit`` / ``offset``
    are the LIMIT's (a top-k's ``k``; no limit sorts everything) and reach
    the loop through its sink state, so they are not part of the code.
    """

    def __init__(
        self,
        children: Sequence[PhysicalOperator],
        schema: Schema,
        spec: PipelineSpec,
        pipeline: CompiledPipeline | None,
        limit: int | None = None,
        offset: int = 0,
    ):
        super().__init__(schema, tuple(children))
        self.spec = spec
        self.pipeline = pipeline
        self._limit = limit
        self._offset = offset

    def execute(self, ctx: ExecContext) -> Iterator[ColumnBatch]:
        spec = self.spec
        if self._limit == 0:
            return
        state = sink_state(spec, self._limit, self._offset)
        with _pipeline_span(ctx, self.pipeline, spec.label):
            for columns in _run_loop(ctx, self.children, spec, self.pipeline, state):
                if spec.sink != "topk":
                    yield ColumnBatch(self.schema, columns)
                    if spec.sink == "limit" and not state[1]:
                        return
        if spec.sink == "topk":
            rows = topk_rows(spec, state, self._limit, self._offset)
            yield ColumnBatch.from_rows(self.schema, rows)


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


def _narrow_scan(
    boundary: LogicalPlan, exprs: Sequence[Expression | None]
) -> tuple[LogicalPlan, list[Expression | None]]:
    """Narrow a fused chain's filter-less boundary scan to the columns the
    composed ``exprs`` read, and rebind ``exprs`` onto the narrowed layout.

    Any other boundary, or a scan whose every column is read, comes back
    unchanged with ``exprs``. ``None`` entries pass through.
    """
    if not isinstance(boundary, Scan) or boundary.pushed_filters:
        return boundary, list(exprs)
    fields = boundary.schema.fields
    refs = [n for e in exprs if e is not None for n in e.walk() if isinstance(n, BoundRef)]
    read = sorted({r.index for r in refs if r.index < len(fields)})
    if len(read) == len(fields):
        return boundary, list(exprs)
    read = read or [0]  # a batch needs one column to carry its row count
    base = boundary.required_columns
    if base is None:
        base = tuple(range(len(fields)))
    # The policy slot stays: the data source still reads its columns.
    narrowed = Scan(boundary.table, tuple(base[i] for i in read), (), boundary.policy_filter)
    mapping = selection_map(fields, read)
    # A join probe's build columns follow the source's: they move with it.
    shift = len(read) - len(fields)
    mapping.update(
        (r.index, BoundRef(r.index + shift, r.name, r.dtype))
        for r in refs if r.index >= len(fields)
    )
    return narrowed, [
        None if e is None else substitute_refs(e, mapping) for e in exprs
    ]


def _unfold_scan(scan: Scan) -> LogicalPlan:
    """``scan`` as explicit stages over a scan of the same table with only
    its policy slot: its pushed filters in order, then its column pruning."""
    plan: LogicalPlan = Scan(scan.table, policy_filter=scan.policy_filter)
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

    Every maximal chain of engine-code Filter/Project stages — through at
    most one join the loop probes — is lowered together with the sink it
    feeds into one loop (see :meth:`_plan_pipeline`): an aggregate, a
    one-direction sort (with its LIMIT: a bounded top-k), a LIMIT, or
    nothing (``collect``: the rows are the result). A chain starts at the
    scan's pushed filters (a row filter outside the policy slot first), so
    the first is the loop's first test. The plan does not depend on the
    compiler: with one, each loop runs as generated code where the compiler
    accepts it; without one, or where it refuses,
    :func:`~repro.engine.compile.interpret_pipeline` runs the same spec.

    Chains break at any stage containing user code: that stage plans as a
    :class:`PhysFilter` / :class:`PhysProject` (its UDFs run next to the
    sandbox, exactly as often as the query says) and chaining restarts
    below it, so a UDF splits a chain into two loops around the sandbox
    call. Every join is a probe loop: keyed on its equalities (or on TRUE),
    its other conditions the probe's residual; a join holding user code is
    one the compiler refuses. What no loop runs stays on an interpreted
    :class:`PhysSort` (mixed directions, or user code in a key).
    """

    def __init__(self, compiler: KernelCompiler | None = None):
        self._compiler = compiler

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
            return self._plan_pipeline(logical) or PhysFilter(
                self.plan(logical.child), logical.condition
            )
        if isinstance(logical, Project):
            fused = self._plan_pipeline(logical)
            if fused is not None:
                return fused
            logical = self._narrow_child(logical)
            return PhysProject(self.plan(logical.child), logical.exprs, logical.schema)
        if isinstance(logical, Aggregate):
            return self._plan_pipeline(logical) or PhysHashAggregate(
                [self.plan(logical.child)],
                logical.groupings,
                logical.aggregates,
                logical.schema,
                mode=logical.mode,
                compiler=self._compiler,
            )
        if isinstance(logical, Join):
            return self._plan_pipeline(logical)
        if isinstance(logical, Sort):
            return self._plan_pipeline(logical) or PhysSort(
                self.plan(logical.child), logical.orders
            )
        if isinstance(logical, Limit):
            return self._plan_pipeline(logical) or self._plan_pipeline(
                logical, compose=False
            )
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

    def _narrow_child(self, logical: Project) -> Project:
        """A projection no chain absorbed — a UDF stage — reads only some of
        its child's columns: stack a projection of exactly those on the
        child, so the chain below ends in it (and its scan decodes only
        them), and rebind this projection onto it. Unchanged when the child
        is a scan (logical pruning covers it), when every column is read, or
        when this projection already is a column selection."""
        child = logical.child
        fields = child.schema.fields
        if (
            not fields
            or isinstance(child, Scan)
            or all(isinstance(e, BoundRef) for e in logical.exprs)
        ):
            return logical
        read = sorted(set().union(*(e.references() for e in logical.exprs))) or [0]
        if len(read) == len(fields):
            return logical
        kept, mapping = project_columns(child, read)
        return Project(kept, [rebind_refs(e, mapping) for e in logical.exprs])

    def _plan_scan(self, logical: Scan) -> PhysicalOperator:
        """A scan's pushed filters and column pruning plan as the stages they
        are (:func:`_unfold_scan`), so :class:`PhysScan` is left with the
        fetch, the decode and the policy slot (whose kernel, where the
        compiler refused it, counts a fusion miss). A scan that keeps no
        column is unfolded too: a batch needs one to carry its row count."""
        if logical.pushed_filters or logical.required_columns == ():
            operator = self.plan(_unfold_scan(logical))
            operator.schema = logical.schema
            return operator
        scan = PhysScan(logical, self._compiler)
        if scan.policy is not None and scan.policy.kernel is None:
            self._note_miss()
        return scan

    def _note_miss(self) -> None:
        """Count one loop that runs interpreted although a compiler is set."""
        if self._compiler is not None:
            self._compiler.note_fusion(False)

    def _plan_selection(
        self, boundary: LogicalPlan, refs: list[Expression], schema: Schema
    ) -> PhysicalOperator:
        """A chain that only selects ``boundary``'s columns ``refs``: the
        boundary's operator — a scan narrowed to them — with the selection
        above it where that is not already its layout (nothing to loop
        over)."""
        boundary, refs = _narrow_scan(boundary, refs)
        child = self.plan(boundary)
        if [r.index for r in refs] == list(range(len(boundary.schema))):
            child.schema = schema
            return child
        return PhysProject(child, tuple(refs), schema)

    # -- chains and their sinks ------------------------------------------------

    def _fusion_chain(
        self, node: LogicalPlan
    ) -> tuple[list[LogicalPlan], LogicalPlan]:
        """Maximal run of compilable Filter/Project stages below ``node``.

        Walks down through metadata wrappers (SecureView/SubqueryAlias keep
        column positions, so positional composition passes straight through
        them — this is what lets a chain cross the policy filters enforcement
        wraps around governed tables). Stops at the first stage containing
        user code or an unknown node: that stage is the UDF chain-break.
        Returns ``(stages top-down, boundary node)``; the boundary plans
        normally and becomes the loop's source.

        A scan's pushed filters are the
        chain's bottom stages: the scan is unfolded into ``Project(required
        columns) → Filter(pushed) … → bare Scan`` (keeping its policy slot)
        and the bare scan becomes the boundary, so the loop tests the
        pushed predicates itself and no filtered batch is built between
        scan and consumer. The bare scan is not left reading every column:
        once the chain is composed,
        :func:`_narrow_scan` prunes it to the columns the composed condition,
        outputs and keys read, so the scan decodes exactly those (decoding
        is the cost; the object is fetched whole either way).
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

    @staticmethod
    def _probe_split(join: Join, full: bool = False) -> tuple | None:
        """``(how, probe side, build side, probe keys, build keys, residual)``
        of ``join`` as the loop probes it: keyed on its equalities (the
        constant TRUE when it has none: a cross or non-equi join), with the
        rest of its condition as the residual, over the join's own layout. A
        RIGHT join's sides swap into a LEFT one and a cross join is an inner
        one; ``None`` for a FULL join unless ``full`` (its rows are the
        result: its loop collects)."""
        if join.how == "full" and not full:
            return None
        how = {"right": "left", "cross": "inner"}.get(join.how, join.how)
        left_keys, right_keys, residual = split_equi_condition(
            join.condition, len(join.left.schema)
        )
        if join.how == "right":
            return how, join.right, join.left, right_keys, left_keys, residual
        return how, join.left, join.right, left_keys, right_keys, residual

    def _compose_source(self, node: LogicalPlan, full: bool = False) -> "_Source":
        """``node``'s fusable chain composed onto the operator it reads —
        through a join the loop can probe, when the chain ends in one: the
        stages above the join then compose onto the probe side's source
        followed by the build row's columns."""
        stages, below = self._fusion_chain(node)
        condition, out_exprs = self._compose_chain(stages)
        outs = _refs(below) if out_exprs is None else [_bare(e) for e in out_exprs]
        split = self._probe_split(below, full) if isinstance(below, Join) else None
        if split is None:
            return _Source(below, condition, outs, len(stages))
        how, probe_side, build, keys, build_keys, residual = split
        probe_stages, boundary = self._fusion_chain(probe_side)
        probe_condition, probe_outs = self._compose_chain(probe_stages)
        probe_cols = _refs(boundary) if probe_outs is None else [_bare(e) for e in probe_outs]
        build_cols = _refs(build, len(boundary.schema))
        joined = build_cols + probe_cols if below.how == "right" else probe_cols + build_cols
        mapping = dict(enumerate(joined))  # the join's layout (SEMI / ANTI: a prefix)
        return _Source(
            boundary,
            probe_condition,
            [substitute_refs(e, mapping) for e in outs],
            len(stages) + len(probe_stages),
            build,
            how,
            tuple(inline_through_projection(k, probe_outs) for k in keys),
            build_keys,
            None if condition is None else substitute_refs(condition, mapping),
            None if residual is None else substitute_refs(residual, mapping),
        )

    def _plan_pipeline(
        self, node: LogicalPlan, compose: bool = True
    ) -> PhysicalOperator | None:
        """Lower ``node`` — a sink — and the chain below it into one loop.

        The sink is an Aggregate, a one-direction Sort (a top-k of every
        row), a Limit — over such a Sort, through projections that compose
        into its outputs, a bounded top-k — or ``collect``: a Filter,
        Project or Join whose rows are the result, which needs a stage or a
        join the loop probes. Without ``compose`` the sink reads its child's
        operator as is. ``None`` leaves ``node`` to its own operator: a
        FINAL aggregate, a mixed-direction sort, user code in the sink or at
        the top of the chain, or a chain that does not compose (never a
        join: a join that does not compose raises). Each loop is generated
        code where the compiler accepts it,
        :func:`~repro.engine.compile.interpret_pipeline` otherwise.
        """
        aggregate = isinstance(node, Aggregate)
        collect = isinstance(node, (Filter, Project, Join))
        if aggregate and node.mode == AGG_MODE_FINAL:
            return None
        above: list[LogicalPlan] = []  # projections between a Limit and its Sort
        sort = node
        if isinstance(node, Limit) and compose:
            above, sort = self._fusion_chain(node.child)
            if not (_one_direction(sort) and all(isinstance(s, Project) for s in above)):
                above, sort = [], node
        elif isinstance(node, Sort) and not _one_direction(node):
            return None
        orders = sort.orders if isinstance(sort, Sort) else ()
        below = node if collect else sort.child
        if aggregate:
            calls = distinct_agg_calls(node.aggregates)
            inputs = [c.child if c.child is not None else Literal(True) for c in calls]
            raw = [*node.groupings, *inputs]
            if has_opaque_nodes(raw):
                self._note_miss()  # the aggregate alone, over user code
                return None
        else:
            raw = [o.expr for o in orders]
        try:
            source = (
                self._compose_source(below, full=collect)
                if compose
                else _Source(below, None, _refs(below), 0)
            )
            sinks = [inline_through_projection(e, source.outs) for e in raw]
            outs = source.outs
            if above:
                lifted = self._compose_chain(above)[1]
                outs = [inline_through_projection(_bare(e), outs) for e in lifted]
            boundary, (condition, matched, residual, *rest) = _narrow_scan(
                source.boundary,
                [source.condition, source.matched, source.residual, *source.keys, *sinks]
                + ([] if aggregate else outs),
            )
        except Exception:  # noqa: BLE001 - such a chain plans per operator
            if isinstance(node, Join):
                raise  # a join has no other operator
            self._note_miss()
            return None
        if collect and not (source.stages or source.build is not None):
            return None
        if collect and source.build is None and source.condition is None and all(
            isinstance(e, BoundRef) for e in source.outs
        ):
            return self._plan_selection(source.boundary, source.outs, node.schema)
        keys, sinks = tuple(rest[: len(source.keys)]), rest[len(source.keys) :]
        probe = None
        if source.build is not None:
            build_width = len(source.build.schema)
            if source.how in ("semi", "anti") and residual is None:
                build_width = 0
            probe = JoinProbe(
                source.how, keys, source.build_keys, len(boundary.schema), build_width,
                residual,
            )
        chain = {"condition": condition, "matched": matched, "probe": probe}
        if aggregate:
            split = len(node.groupings)
            spec = aggregate_spec(sinks[:split], calls, sinks[split:], **chain)
        else:
            spec = PipelineSpec(
                sink="topk" if orders else "collect" if collect else "limit",
                order=tuple(sinks[: len(orders)]),
                outputs=tuple(sinks[len(orders) :]),
                descending=bool(orders) and not orders[0].ascending,
                nulls_first=tuple(o.nulls_first for o in orders),
                **chain,
            )
        pipeline = None
        if self._compiler is not None:
            pipeline = self._compiler.compile_pipeline_spec(spec)
            self._compiler.note_fusion(pipeline is not None)
        children = [self.plan(boundary)]
        if source.build is not None:
            children.append(self.plan(source.build))
        limit = (node.limit, node.offset) if isinstance(node, Limit) else (None, 0)
        if pipeline is not None and isinstance(children[0], PhysScan):
            # The compiled loop reads its scan's memo entries through an
            # access path; an interpreted one always reads every row.
            if aggregate:
                self._compiler.compile_runs(pipeline)
            top = None if limit[0] is None else limit[0] + limit[1]
            fields = [boundary.table.schema.fields[i] for i in children[0].columns]
            children[0].path = loop_path(spec, fields, top, pipeline.runs is not None)
        if aggregate:
            return PhysHashAggregate(
                children, node.groupings, node.aggregates, node.schema, node.mode,
                spec=spec, pipeline=pipeline,
            )
        return PhysPipeline(children, node.schema, spec, pipeline, *limit)


def _one_direction(plan: LogicalPlan) -> bool:
    """Whether ``plan`` is a Sort a ``topk`` loop can run: every term in one
    direction, no user code in a key."""
    return (
        isinstance(plan, Sort)
        and len({o.ascending for o in plan.orders}) == 1
        and not has_opaque_nodes([o.expr for o in plan.orders])
    )


@dataclass
class _Source:
    """A fusable chain composed onto the operator it reads (``boundary``):
    ``outs`` are the chain top's columns over the loop's layout. With a join
    probe, ``build`` is its build side, ``keys`` / ``build_keys`` its key
    pairs, ``matched`` the condition above the join and ``residual`` the
    rest of the join's own condition."""

    boundary: LogicalPlan
    condition: Expression | None
    outs: list[Expression]
    stages: int
    build: LogicalPlan | None = None
    how: str = ""
    keys: tuple[Expression, ...] = ()
    build_keys: tuple[Expression, ...] = ()
    matched: Expression | None = None
    residual: Expression | None = None


def _refs(plan: LogicalPlan, start: int = 0) -> list[Expression]:
    """A ref to each of ``plan``'s columns, numbered from ``start``."""
    return [BoundRef(start + i, f.name, f.dtype) for i, f in enumerate(plan.schema)]


def _bare(expr: Expression) -> Expression:
    """``expr`` without its alias."""
    return expr.child if isinstance(expr, Alias) else expr
