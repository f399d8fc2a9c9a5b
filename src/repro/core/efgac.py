"""External fine-grained access control (§3.4, Fig. 8).

On privileged compute the resolver plants :class:`RemoteScan` leaves; the
rules here then *refine* those leaves by folding safe filters, projections,
limits, and partial aggregations into the remote payload — so the serverless
endpoint ships back as little data as possible. The remote side re-analyzes
the unresolved plan against the catalog, which re-injects the row filters and
masks the origin compute was never allowed to see. A pushed predicate keeps
its plan-cache parameters as slot markers, so the payload belongs to the
cached template; :class:`RemoteQueryExecutor` binds them at submit.

Result handling implements the paper's dual mode: small results return
inline with the query; large results are staged to cloud storage, in the
column-chunked data-file layout, and read back in parallel by the origin
cluster with the data-only decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.catalog.metastore import UnityCatalog
from repro.catalog.privileges import UserContext
from repro.common.context import current_context, span_or_null
from repro.common.datacodec import decode_data_file, encode_data_file
from repro.common.ids import new_id
from repro.core.plan_codec import bind_markers, encode_expression
from repro.engine.batch import ColumnBatch
from repro.engine.expressions import (
    BoundRef,
    EvalContext,
    Expression,
    contains_user_code,
)
from repro.engine.logical import (
    Aggregate,
    Filter,
    Limit,
    LogicalPlan,
    Project,
    RemoteScan,
)
from repro.engine.optimizer import is_safe_to_push
from repro.engine.types import Schema
from repro.errors import ExecutionError, ProtocolError
from repro.storage.credentials import DELETE, READ, WRITE

#: Result sets at or below this row count return inline with the query.
INLINE_RESULT_ROW_THRESHOLD = 1000

STAGING_ROOT = "s3://unity-staging"


def _bump(remote: RemoteScan, key: str) -> dict[str, Any]:
    pushed = dict(remote.pushed)
    pushed[key] = pushed.get(key, 0) + 1
    return pushed


@dataclass
class PushFilterIntoRemoteScan:
    """Filter(RemoteScan) → RemoteScan with the predicate in the payload."""

    name: str = "PushFilterIntoRemoteScan"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Filter) and isinstance(node.child, RemoteScan)):
                return node
            if not is_safe_to_push(node.condition):
                return node
            remote = node.child
            try:
                condition = encode_expression(node.condition)
            except ProtocolError:
                return node
            payload = {
                "@type": "relation.filter",
                "input": remote.payload,
                "condition": condition,
            }
            return RemoteScan(
                payload, remote.schema, remote.source_tables,
                _bump(remote, "filters"),
            )

        return plan.transform_up(rewrite)


@dataclass
class PushProjectIntoRemoteScan:
    """Project(RemoteScan) → RemoteScan computing the projection remotely."""

    name: str = "PushProjectIntoRemoteScan"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Project) and isinstance(node.child, RemoteScan)):
                return node
            if any(
                not e.deterministic or contains_user_code(e) for e in node.exprs
            ):
                return node
            remote = node.child
            try:
                exprs = [self._named(e) for e in node.exprs]
            except ProtocolError:
                return node
            payload = {
                "@type": "relation.project",
                "input": remote.payload,
                "expressions": exprs,
            }
            return RemoteScan(
                payload, node.schema, remote.source_tables,
                _bump(remote, "projections"),
            )

        return plan.transform_up(rewrite)

    @staticmethod
    def _named(expr: Expression) -> dict[str, Any]:
        """Keep output names stable so the local schema stays aligned."""
        encoded = encode_expression(expr)
        if encoded.get("@type") == "expr.alias":
            return encoded
        return {"@type": "expr.alias", "child": encoded, "name": expr.output_name()}


@dataclass
class PushLimitIntoRemoteScan:
    """Limit(RemoteScan) → RemoteScan with the limit in the payload."""

    name: str = "PushLimitIntoRemoteScan"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Limit) and isinstance(node.child, RemoteScan)):
                return node
            remote = node.child
            payload = {
                "@type": "relation.limit",
                "input": remote.payload,
                "limit": node.limit,
                "offset": node.offset,
            }
            return RemoteScan(
                payload, remote.schema, remote.source_tables,
                _bump(remote, "limits"),
            )

        return plan.transform_up(rewrite)


@dataclass
class PushPartialAggIntoRemoteScan:
    """Aggregate(RemoteScan) → final-Aggregate(RemoteScan[partial agg]).

    The remote endpoint computes partial aggregate states over the governed
    rows; only (group keys, opaque states) cross the wire; the origin merges
    and finalizes. Group keys and aggregate inputs must be engine-safe.
    """

    name: str = "PushPartialAggIntoRemoteScan"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (
                isinstance(node, Aggregate)
                and node.mode == "complete"
                and isinstance(node.child, RemoteScan)
            ):
                return node
            remote = node.child
            exprs = list(node.groupings) + list(node.aggregates)
            if any(not e.deterministic or contains_user_code(e) for e in exprs):
                return node
            try:
                payload = {
                    "@type": "relation.aggregate",
                    "input": remote.payload,
                    "groupings": [encode_expression(g) for g in node.groupings],
                    "aggregates": [encode_expression(a) for a in node.aggregates],
                    "mode": "partial",
                }
            except ProtocolError:
                return node

            # The remote scan now yields [keys..., states...].
            partial_node = Aggregate(
                remote, node.groupings, node.aggregates, mode="partial"
            )
            partial_schema = partial_node.schema
            new_remote = RemoteScan(
                payload, partial_schema, remote.source_tables,
                _bump(remote, "partial_aggregates"),
            )
            final_groupings = [
                BoundRef(i, g.output_name(), g.dtype)
                for i, g in enumerate(node.groupings)
            ]
            return Aggregate(
                new_remote, final_groupings, node.aggregates, mode="final"
            )

        return plan.transform_up(rewrite)


def efgac_rules() -> list[Any]:
    """The rule set Lakeguard adds to the optimizer on privileged compute."""
    return [
        PushFilterIntoRemoteScan(),
        PushProjectIntoRemoteScan(),
        PushPartialAggIntoRemoteScan(),
        PushLimitIntoRemoteScan(),
    ]


# ---------------------------------------------------------------------------
# Remote execution with dual result modes
# ---------------------------------------------------------------------------

#: Submits a relation proto to the governed remote endpoint as a given user.
#: Returns (schema message, column-major data).
RemoteSubmit = Callable[[str, dict[str, Any]], tuple[list[dict[str, str]], list[list[Any]]]]


@dataclass
class RemoteQueryStats:
    """Counters for sub-plans shipped to the serverless endpoint."""

    subqueries: int = 0
    inline_results: int = 0
    staged_results: int = 0
    rows_received: int = 0
    bytes_staged: int = 0


class RemoteQueryExecutor:
    """Executes RemoteScan leaves against a serverless endpoint (§3.4)."""

    def __init__(
        self,
        submit: RemoteSubmit,
        catalog: UnityCatalog,
        inline_row_threshold: int = INLINE_RESULT_ROW_THRESHOLD,
        staging_chunk_rows: int = 4096,
    ):
        self._submit = submit
        self._catalog = catalog
        self._inline_threshold = inline_row_threshold
        self._staging_chunk_rows = staging_chunk_rows
        self.stats = RemoteQueryStats()

    def __call__(
        self, remote: RemoteScan, eval_ctx: EvalContext
    ) -> Iterator[ColumnBatch]:
        ctx = eval_ctx.auth
        user = ctx.user if isinstance(ctx, UserContext) else eval_ctx.user
        self.stats.subqueries += 1
        qctx = getattr(eval_ctx, "query_ctx", None) or current_context()
        with span_or_null(
            qctx,
            "efgac-remote-subquery",
            "remote.subquery",
            tables=sorted(remote.source_tables),
            pushed=dict(remote.pushed),
        ) as span:
            # A cached plan's payload: each submit binds its own parameters.
            payload = bind_markers(
                remote.payload,
                lambda slot: {"@type": "expr.literal", "value": eval_ctx.params[slot]},
            )
            schema_msg, columns = self._submit(user, payload)
            if len(schema_msg) != len(remote.schema):
                raise ExecutionError(
                    f"remote result arity {len(schema_msg)} does not match "
                    f"expected schema {remote.schema}"
                )
            num_rows = len(columns[0]) if columns else 0
            self.stats.rows_received += num_rows
            inline = num_rows <= self._inline_threshold
            if span is not None:
                span.set_attribute("rows", num_rows)
                span.set_attribute("result_mode", "inline" if inline else "staged")

        if inline:
            self.stats.inline_results += 1
            yield ColumnBatch(remote.schema, [list(c) for c in columns])
            return

        # Large result: persist to cloud storage, then read back in chunks.
        self.stats.staged_results += 1
        yield from self._stage_and_read(user, remote.schema, columns)

    def _stage_and_read(
        self, user: str, schema: Schema, columns: list[list[Any]]
    ) -> Iterator[ColumnBatch]:
        staging_prefix = f"{STAGING_ROOT}/{new_id('stage')}"
        credential = self._catalog.vendor.issue(
            identity=user,
            prefixes=[staging_prefix],
            operations={READ, WRITE, DELETE},
        )
        num_rows = len(columns[0]) if columns else 0
        # Staged parts use the data-file layout, keyed by column position
        # (result columns need not have distinct names).
        keys = [str(i) for i in range(len(schema))]
        paths: list[str] = []
        for part, start in enumerate(range(0, num_rows, self._staging_chunk_rows)):
            blob = encode_data_file({
                key: c[start : start + self._staging_chunk_rows]
                for key, c in zip(keys, columns)
            })
            path = f"{staging_prefix}/part-{part:05d}"
            self._catalog.store.put(path, blob, credential)
            self.stats.bytes_staged += len(blob)
            paths.append(path)
        # Origin cluster reads the staged parts (in parallel in production).
        # Anyone who can write the staging bucket controls these bytes, so
        # they are decoded as data only; a refused part still cleans up.
        try:
            for path in paths:
                part = decode_data_file(
                    self._catalog.store.get(path, credential), keys,
                    f"staged part '{path}'",
                )
                yield ColumnBatch(schema, [part[key] for key in keys])
        finally:
            for path in paths:
                self._catalog.store.delete(path, credential)
            self._catalog.vendor.revoke(credential.token)
