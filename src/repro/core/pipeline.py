"""The explicit enforcement pipeline (Fig. 5 made first-class).

Every governed query runs through the same named, composable stages::

    parse -> resolve-secure -> efgac-rewrite -> optimize -> encode-plan
          -> execute -> stream

Each stage executes under a ``pipeline.stage`` span of the query's
:class:`~repro.common.context.QueryContext`, so the full enforcement path —
where policies were injected, what was routed to eFGAC, what the optimizer
pushed down, how execution spent its time — is observable from one trace
tree instead of ad-hoc stopwatches. :class:`~repro.core.lakeguard.
LakeguardCluster` is a thin assembler over this pipeline; later PRs can
shard, parallelize or cache against these seams without re-plumbing.

Note on ``efgac-rewrite``: the pushdown *rules* run inside the optimizer
fixpoint (they must interleave with generic pushdown), so this stage is the
observability seam for the decision — it records which relations the
resolver routed to external FGAC; the ``optimize`` stage records what was
ultimately folded into each remote payload.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.common.context import QueryContext
from repro.common.telemetry import Span
from repro.connect.proto import resolve_references
from repro.connect.sessions import SessionState
from repro.core.plan_cache import (
    CachedSecurePlan,
    PlanCacheKey,
    SecurePlanCache,
    fingerprint_relation,
)
from repro.core.plan_codec import PlanDecoder
from repro.engine.executor import QueryEngine, QueryResult
from repro.engine.logical import LogicalPlan, RemoteScan
from repro.engine.types import Schema

#: Canonical stage names, in execution order.
STAGE_PARSE = "parse"
STAGE_RESOLVE = "resolve-secure"
STAGE_EFGAC = "efgac-rewrite"
STAGE_OPTIMIZE = "optimize"
STAGE_PLAN = "encode-plan"
STAGE_EXECUTE = "execute"
STAGE_STREAM = "stream"

STAGE_ORDER = (
    STAGE_PARSE,
    STAGE_RESOLVE,
    STAGE_EFGAC,
    STAGE_OPTIMIZE,
    STAGE_PLAN,
    STAGE_EXECUTE,
    STAGE_STREAM,
)


@dataclass
class PipelineState:
    """Everything a query accumulates while flowing through the stages."""

    session: SessionState
    #: Wire-format relation (when the query arrived over Connect).
    relation: dict[str, Any] | None = None
    #: Decoded/parsed logical plan (set by ``parse``, or pre-set by SQL
    #: command paths that already built a plan).
    plan: LogicalPlan | None = None
    analyzed: LogicalPlan | None = None
    optimized: LogicalPlan | None = None
    operator: Any = None
    exec_ctx: Any = None
    result: QueryResult | None = None
    #: Stream-ready outputs.
    schema_message: list[dict[str, str]] | None = None
    columns: list[list[Any]] | None = None
    #: Secure-plan cache bookkeeping: the key computed at parse time, and
    #: whether resolve/rewrite/optimize were satisfied from the cache.
    cache_key: PlanCacheKey | None = None
    cache_hit: bool = False
    #: The live cache entry (on hit *or* after insert), so the physical
    #: operator tree — compiled kernels included — can ride the same entry
    #: and die with it when the policy epoch bumps.
    cache_entry: CachedSecurePlan | None = None


@dataclass(frozen=True)
class Stage:
    """One named pipeline step: ``run(query_ctx, state, span)``."""

    name: str
    run: Callable[[QueryContext, PipelineState, Span], None]


class QueryPipeline:
    """Runs stages in order, one ``pipeline.stage`` span per stage."""

    def __init__(self, stages: Sequence[Stage]):
        self.stages = tuple(stages)

    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    def run(self, query_ctx: QueryContext, state: PipelineState) -> PipelineState:
        """Run every stage in order against ``state``; returns ``state``."""
        for stage in self.stages:
            query_ctx.check_deadline(where=f"stage '{stage.name}'")
            with query_ctx.span(
                f"stage:{stage.name}", "pipeline.stage", stage=stage.name
            ) as span:
                stage.run(query_ctx, state, span)
        return state


# ---------------------------------------------------------------------------
# The standard enforcement stages
# ---------------------------------------------------------------------------


def _schema_message(schema: Schema) -> list[dict[str, str]]:
    return [{"name": f.qualified_name(), "type": f.dtype.name} for f in schema]


def _remote_scans(plan: LogicalPlan) -> list[RemoteScan]:
    found: list[RemoteScan] = []

    def visit(node: LogicalPlan) -> None:
        if isinstance(node, RemoteScan):
            found.append(node)
        for child in node.children:
            visit(child)

    visit(plan)
    return found


def build_enforcement_pipeline(
    engine: QueryEngine,
    decoder: PlanDecoder,
    *,
    plan_cache: SecurePlanCache | None = None,
    policy_epoch: Callable[[], int] | None = None,
    compute_id: str = "",
    workload_manager: Any = None,
    result_cache: Any = None,
    data_epoch: Callable[[], int] | None = None,
) -> QueryPipeline:
    """The standard governed-query pipeline over one session's engine.

    With a ``plan_cache``, the parse stage computes the full cache key
    (fingerprint, user, principals, live policy epoch, compute id, session
    temp-state version); a hit skips decode/resolve/rewrite/optimize
    entirely, a miss inserts after optimize. ``policy_epoch`` must return
    the catalog's *current* governance epoch so any policy change since the
    plan was cached is a hard miss.

    With a ``workload_manager``, the execute stage brackets the operator
    run in :meth:`~repro.scheduler.workload.WorkloadManager.execution_slot`
    — the admitted slot is marked busy for the duration of the stage span
    and released (dispatching the next queued query) as soon as execution
    finishes, rather than when the client drains the stream.

    With a ``result_cache`` (:class:`repro.store.GovernedResultCache`), the
    execute stage first probes the governed result cache under the plan
    cache key + the catalog's current **data epoch**: a hit streams the
    stored bytes without taking a workload slot or running the operator; a
    miss executes normally and stores the encoded batch. Plans containing
    user code, non-deterministic expressions or eFGAC remote scans are
    excluded by construction (:func:`repro.store.plan_is_cacheable`), as is
    any query without a cache key (system tables, prebuilt-plan paths, and
    sessions with an open transaction — pinned-snapshot reads must never
    populate or hit either cache).
    """

    def _cache_key(state: PipelineState) -> PlanCacheKey:
        user_ctx = state.session.user_ctx
        return PlanCacheKey(
            fingerprint=fingerprint_relation(state.relation),
            user=user_ctx.user,
            principals=frozenset(user_ctx.principals()),
            policy_epoch=policy_epoch() if policy_epoch is not None else 0,
            compute_id=compute_id,
            temp_state_version=state.session.temp_state_version,
        )

    def parse(ctx: QueryContext, state: PipelineState, span: Span) -> None:
        if state.plan is None:
            span.set_attribute("source", "wire")
            span.set_attribute(
                "relation_type", (state.relation or {}).get("@type", "?")
            )
            refs = ctx.plan_refs
            if refs is None or refs.plan is not state.relation:
                # Not the plan the Connect service resolved for this
                # operation (a direct backend call, an eFGAC sub-plan).
                refs = resolve_references(state.relation)
            if (
                plan_cache is not None
                and state.session.active_txn is None
                and not refs.targets_system_tables()
            ):
                state.cache_key = _cache_key(state)
                entry = plan_cache.lookup(state.cache_key, state.relation)
                if entry is not None:
                    state.analyzed = entry.analyzed
                    state.optimized = entry.optimized
                    state.cache_hit = True
                    state.cache_entry = entry
                    span.set_attribute("plan_cache", "hit")
                    return
                span.set_attribute("plan_cache", "miss")
            state.plan = decoder.relation(state.relation, parsed=refs.statements)
        else:
            # SQL command paths (CTAS, MV refresh) hand the pipeline a plan
            # they already parsed; the stage still marks the seam.
            span.set_attribute("source", "prebuilt")

    def resolve_secure(ctx: QueryContext, state: PipelineState, span: Span) -> None:
        if state.cache_hit:
            span.set_attribute("plan_cache", "hit")
        else:
            state.analyzed = engine.analyze(state.plan)
        span.set_attribute("output_columns", len(state.analyzed.schema))

    def efgac_rewrite(ctx: QueryContext, state: PipelineState, span: Span) -> None:
        remotes = _remote_scans(state.analyzed)
        span.set_attribute("remote_scans", len(remotes))
        span.set_attribute("enforcement", "external" if remotes else "local")
        if remotes:
            span.set_attribute(
                "remote_tables",
                sorted({t for r in remotes for t in r.source_tables}),
            )

    def optimize(ctx: QueryContext, state: PipelineState, span: Span) -> None:
        if state.cache_hit:
            span.set_attribute("plan_cache", "hit")
        else:
            state.optimized = engine.optimize(state.analyzed)
        pushed: dict[str, int] = {}
        for remote in _remote_scans(state.optimized):
            for key, count in remote.pushed.items():
                pushed[key] = pushed.get(key, 0) + count
        if pushed:
            span.set_attribute("efgac_pushdowns", pushed)
        if (
            plan_cache is not None
            and not state.cache_hit
            and state.cache_key is not None
        ):
            state.cache_entry = plan_cache.insert(
                state.cache_key, state.relation, state.analyzed, state.optimized
            )

    def encode_plan(ctx: QueryContext, state: PipelineState, span: Span) -> None:
        entry = state.cache_entry
        if entry is not None and entry.physical is not None:
            # The physical tree (with its compiled kernels already bound)
            # rides the secure-plan entry: same key, same policy-epoch
            # invalidation, zero re-planning / re-compilation on a hit.
            state.operator = entry.physical
            span.set_attribute("physical_cache", "hit")
        else:
            state.operator = engine.plan_physical(state.optimized)
            if entry is not None:
                entry.physical = state.operator
                span.set_attribute("physical_cache", "miss")
        span.set_attribute("physical_operators", _count_operators(state.operator))

    def _result_probe(state: PipelineState, span: Span) -> tuple[str | None, int]:
        """Result-cache key for this query, or None when not cacheable."""
        if result_cache is None or state.cache_key is None:
            return None, 0
        if state.optimized is None:
            return None, 0
        from repro.store import plan_is_cacheable

        if not plan_is_cacheable(state.optimized):
            result_cache.note_ineligible()
            span.set_attribute("result_cache", "ineligible")
            return None, 0
        d_epoch = data_epoch() if data_epoch is not None else 0
        return result_cache.key_for(state.cache_key, d_epoch), d_epoch

    def execute(ctx: QueryContext, state: PipelineState, span: Span) -> None:
        session = state.session
        state.exec_ctx = engine.exec_context(
            user=session.user_ctx.user,
            groups=session.user_ctx.groups,
            auth=session.user_ctx,
            query_ctx=ctx,
        )
        result_key, d_epoch = _result_probe(state, span)
        if result_key is not None:
            cached = result_cache.lookup(result_key)
            if cached is not None:
                # Same bytes the original execution produced — no workload
                # slot, no operator run, no scan, no credential vend.
                span.set_attribute("result_cache", "hit")
                span.set_attribute("rows", cached.num_rows)
                state.result = QueryResult(
                    batch=cached,
                    analyzed_plan=state.analyzed,
                    optimized_plan=state.optimized,
                    metrics=state.exec_ctx.metrics,
                )
                return
            span.set_attribute("result_cache", "miss")
        slot = (
            workload_manager.execution_slot(ctx)
            if workload_manager is not None
            else nullcontext()
        )
        with slot as ticket:
            if ticket is not None:
                span.set_attribute("admission_tenant", ticket.tenant)
                span.set_attribute("admission_lane", ticket.lane)
                span.set_attribute(
                    "queue_wait_seconds", round(ticket.queue_wait, 6)
                )
            batch = engine.run_operator(state.operator, state.exec_ctx)
        if result_key is not None:
            result_cache.store(result_key, state.cache_key, d_epoch, batch)
        state.result = QueryResult(
            batch=batch,
            analyzed_plan=state.analyzed,
            optimized_plan=state.optimized,
            metrics=state.exec_ctx.metrics,
        )
        span.set_attribute("rows", batch.num_rows)

    def stream(ctx: QueryContext, state: PipelineState, span: Span) -> None:
        state.schema_message = _schema_message(state.result.batch.schema)
        state.columns = state.result.batch.columns
        span.set_attribute("rows", state.result.batch.num_rows)
        span.set_attribute("columns", len(state.columns))

    return QueryPipeline(
        (
            Stage(STAGE_PARSE, parse),
            Stage(STAGE_RESOLVE, resolve_secure),
            Stage(STAGE_EFGAC, efgac_rewrite),
            Stage(STAGE_OPTIMIZE, optimize),
            Stage(STAGE_PLAN, encode_plan),
            Stage(STAGE_EXECUTE, execute),
            Stage(STAGE_STREAM, stream),
        )
    )


def _count_operators(operator: Any) -> int:
    return 1 + sum(_count_operators(c) for c in getattr(operator, "children", ()))
