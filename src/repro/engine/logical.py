"""Logical query plans.

Nodes of note for the paper's mechanics:

- :class:`SecureView` — the barrier the planner injects around governed
  relations (views, row filters, column masks). Expressions containing user
  code or non-determinism are never pushed below it (Fig. 8, §3.4).
- :class:`RemoteScan` — the eFGAC leaf: a serialized Spark Connect sub-plan
  executed by a remote (serverless) endpoint; the optimizer pushes filters,
  projections, and partial aggregates into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.engine.aggregates import AggregateCall
from repro.engine.expressions import Expression, SortOrder
from repro.engine.types import Field, Schema
from repro.errors import AnalysisError

JOIN_TYPES = ("inner", "left", "right", "full", "semi", "anti", "cross")


@dataclass(frozen=True)
class TableRef:
    """Resolved reference to a governed table: metadata the engine may hold.

    ``annotations`` carries catalog hints such as
    ``requires_external_fgac`` (this compute may not process the relation
    locally) — exactly the mechanism §3.4 describes for dedicated clusters.
    """

    full_name: str
    schema: Schema
    storage_root: str | None = None
    owner: str | None = None
    annotations: frozenset[str] = frozenset()
    #: When this scan was authorized under definer rights (a view body), the
    #: principal whose rights vend the runtime credential. The querying
    #: user's identity is still recorded for auditing.
    auth_delegate: str | None = None
    #: Pin the scan to a historical table version (Delta time travel).
    snapshot_version: int | None = None


class LogicalPlan:
    """Base logical plan node."""

    def __init__(self, children: Sequence["LogicalPlan"] = ()):
        self.children: tuple[LogicalPlan, ...] = tuple(children)

    @property
    def schema(self) -> Schema:
        raise NotImplementedError(type(self).__name__)

    @property
    def resolved(self) -> bool:
        return all(c.resolved for c in self.children)

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        raise NotImplementedError(type(self).__name__)

    def transform_up(self, fn: Callable[["LogicalPlan"], "LogicalPlan"]) -> "LogicalPlan":
        """Bottom-up plan rewrite."""
        new_children = tuple(c.transform_up(fn) for c in self.children)
        node = self
        if new_children != self.children:
            node = self.with_children(new_children)
        return fn(node)

    def walk(self) -> Iterable["LogicalPlan"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def expressions(self) -> list[Expression]:
        """Expressions held directly by this node (subclasses override)."""
        return []

    # -- explain ---------------------------------------------------------------

    def _node_label(self) -> str:
        return type(self).__name__

    def explain(self) -> str:
        """Indented plan tree, Spark's ``explain()`` style."""
        lines: list[str] = []

        def render(node: LogicalPlan, depth: int) -> None:
            lines.append("  " * depth + "+- " + node._node_label())
            for child in node.children:
                render(child, depth + 1)

        render(self, 0)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class UnresolvedRelation(LogicalPlan):
    """A table/view name the analyzer still has to resolve (and authorize).

    ``options`` carries source-specific read options — e.g. the Delta
    Connect extension's time-travel ``{"version": 3}`` — which governed
    resolvers may honour.
    """

    def __init__(self, name: str, options: dict[str, Any] | None = None):
        super().__init__()
        self.name = name
        self.options = dict(options or {})

    @property
    def schema(self) -> Schema:
        raise AnalysisError(f"relation '{self.name}' is not resolved")

    @property
    def resolved(self) -> bool:
        return False

    def with_children(self, children):
        return self

    def _node_label(self) -> str:
        suffix = f" options={self.options}" if self.options else ""
        return f"UnresolvedRelation [{self.name}]{suffix}"


class LocalRelation(LogicalPlan):
    """In-memory data supplied by the client (``createDataFrame``)."""

    def __init__(self, schema: Schema, columns: list[list[Any]]):
        super().__init__()
        self._schema = schema
        self.columns = columns

    @property
    def schema(self) -> Schema:
        return self._schema

    def with_children(self, children):
        return self

    def _node_label(self) -> str:
        rows = len(self.columns[0]) if self.columns else 0
        return f"LocalRelation {self._schema} rows={rows}"


class Range(LogicalPlan):
    """``spark.range(start, end, step)`` — a generated integer column ``id``."""

    def __init__(self, start: int, end: int, step: int = 1):
        super().__init__()
        if step == 0:
            raise AnalysisError("range step must be non-zero")
        self.start, self.end, self.step = start, end, step
        from repro.engine.types import INT

        self._schema = Schema((Field("id", INT, nullable=False),))

    @property
    def schema(self) -> Schema:
        return self._schema

    def with_children(self, children):
        return self

    def _node_label(self) -> str:
        return f"Range ({self.start}, {self.end}, step={self.step})"


class Scan(LogicalPlan):
    """A governed table scan, possibly narrowed by pushed-down state.
    ``policy_filter``, a row filter the data source applies, goes before
    ``pushed_filters``."""

    def __init__(
        self,
        table: TableRef,
        required_columns: tuple[int, ...] | None = None,
        pushed_filters: tuple[Expression, ...] = (),
        policy_filter: Expression | None = None,
    ):
        super().__init__()
        self.table = table
        self.required_columns = required_columns
        self.pushed_filters = tuple(pushed_filters)
        self.policy_filter = policy_filter

    @property
    def schema(self) -> Schema:
        if self.required_columns is None:
            return self.table.schema
        return self.table.schema.select(list(self.required_columns))

    def with_children(self, children):
        return self

    def _node_label(self) -> str:
        extras = []
        if self.required_columns is not None:
            names = [self.table.schema[i].name for i in self.required_columns]
            extras.append(f"columns={names}")
        if self.policy_filter is not None:
            extras.append(f"policy=[{self.policy_filter}]")
        if self.pushed_filters:
            extras.append(f"filters=[{', '.join(map(str, self.pushed_filters))}]")
        suffix = (" " + ", ".join(extras)) if extras else ""
        return f"Scan [{self.table.full_name}]{suffix}"


class RemoteScan(LogicalPlan):
    """eFGAC leaf: a sub-plan executed remotely by a governed endpoint.

    ``payload`` is the wire-format Spark Connect plan shipped to the
    serverless endpoint; ``pushed`` records which refinements the optimizer
    folded into the remote query (for explain output and benchmarks).
    """

    def __init__(
        self,
        payload: dict[str, Any],
        schema: Schema,
        source_tables: tuple[str, ...],
        pushed: dict[str, Any] | None = None,
    ):
        super().__init__()
        self.payload = payload
        self._schema = schema
        self.source_tables = source_tables
        self.pushed = dict(pushed or {})

    @property
    def schema(self) -> Schema:
        return self._schema

    def with_children(self, children):
        return self

    def _node_label(self) -> str:
        pushed = f" pushed={self.pushed}" if self.pushed else ""
        return f"RemoteScan [{', '.join(self.source_tables)}]{pushed}"


# ---------------------------------------------------------------------------
# Unary nodes
# ---------------------------------------------------------------------------


class Project(LogicalPlan):
    """Column projection / computation (``SELECT`` list)."""

    def __init__(self, child: LogicalPlan, exprs: Sequence[Expression]):
        super().__init__((child,))
        self.exprs = tuple(exprs)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        fields = []
        for e in self.exprs:
            if e.dtype is None:
                raise AnalysisError(f"projection '{e}' is unresolved")
            fields.append(Field(e.output_name(), e.dtype))
        return Schema(tuple(fields))

    @property
    def resolved(self) -> bool:
        return super().resolved and all(e.resolved for e in self.exprs)

    def with_children(self, children):
        return Project(children[0], self.exprs)

    def expressions(self):
        return list(self.exprs)

    def _node_label(self) -> str:
        return f"Project [{', '.join(str(e) for e in self.exprs)}]"


class Filter(LogicalPlan):
    """Row filtering by a boolean condition (``WHERE``). ``policy`` marks
    the row filter enforcement injected over a governed table's scan."""

    def __init__(self, child: LogicalPlan, condition: Expression, policy: bool = False):
        super().__init__((child,))
        self.condition = condition
        self.policy = policy

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def resolved(self) -> bool:
        return super().resolved and self.condition.resolved

    def with_children(self, children):
        return Filter(children[0], self.condition, self.policy)

    def expressions(self):
        return [self.condition]

    def _node_label(self) -> str:
        return f"Filter [{self.condition}]"


class SecureView(LogicalPlan):
    """Governance barrier wrapping a policy-rewritten relation.

    Everything *below* this node was produced by the trusted planner from
    catalog policies (view text, row filters, column masks). The optimizer
    must not move user-controlled or non-deterministic expressions below it,
    otherwise user code could observe pre-policy rows (§3.4, Fig. 8).
    """

    def __init__(self, child: LogicalPlan, name: str, owner: str | None = None):
        super().__init__((child,))
        self.name = name
        self.owner = owner

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children):
        return SecureView(children[0], self.name, self.owner)

    def _node_label(self) -> str:
        return f"SecureView [{self.name}]"


class SubqueryAlias(LogicalPlan):
    """Attach a relation alias; re-qualifies the child's output columns."""

    def __init__(self, child: LogicalPlan, alias: str):
        super().__init__((child,))
        self.alias = alias

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema.with_qualifier(self.alias)

    def with_children(self, children):
        return SubqueryAlias(children[0], self.alias)

    def _node_label(self) -> str:
        return f"SubqueryAlias [{self.alias}]"


class Aggregate(LogicalPlan):
    """GROUP BY: grouping expressions plus aggregate calls.

    ``mode`` supports the eFGAC partial-aggregation pushdown (§3.4):
    ``complete`` (default) does everything locally; ``partial`` emits its
    aggregate states as data (what the remote endpoint ships back);
    ``final`` merges partial states produced elsewhere.
    """

    MODES = ("complete", "partial", "final")

    def __init__(
        self,
        child: LogicalPlan,
        groupings: Sequence[Expression],
        aggregates: Sequence[Expression],
        mode: str = "complete",
    ):
        if mode not in self.MODES:
            raise AnalysisError(f"unknown aggregate mode '{mode}'")
        super().__init__((child,))
        self.groupings = tuple(groupings)
        self.aggregates = tuple(aggregates)
        self.mode = mode

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        if self.mode == "partial":
            from repro.engine.aggregates import AggregateCall
            from repro.engine.physical import partial_agg_schema

            calls: list[AggregateCall] = []
            seen: set[int] = set()
            for expr in self.aggregates:
                for node in expr.walk():
                    if isinstance(node, AggregateCall) and node.expr_id not in seen:
                        seen.add(node.expr_id)
                        calls.append(node)
            return partial_agg_schema(self.groupings, calls)
        # ``aggregates`` is the full output list (Spark's aggregateExprs);
        # groupings are only the keys and appear in the output when listed.
        fields = []
        for e in self.aggregates:
            if e.dtype is None:
                raise AnalysisError(f"aggregate output '{e}' is unresolved")
            fields.append(Field(e.output_name(), e.dtype))
        return Schema(tuple(fields))

    @property
    def resolved(self) -> bool:
        return super().resolved and all(
            e.resolved for e in list(self.groupings) + list(self.aggregates)
        )

    def with_children(self, children):
        return Aggregate(children[0], self.groupings, self.aggregates, self.mode)

    def expressions(self):
        return list(self.groupings) + list(self.aggregates)

    def _node_label(self) -> str:
        return (
            f"Aggregate groupBy=[{', '.join(map(str, self.groupings))}] "
            f"agg=[{', '.join(map(str, self.aggregates))}]"
        )


class Sort(LogicalPlan):
    """Total ordering by one or more sort keys (``ORDER BY``)."""

    def __init__(self, child: LogicalPlan, orders: Sequence[SortOrder]):
        super().__init__((child,))
        self.orders = tuple(orders)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children):
        return Sort(children[0], self.orders)

    def expressions(self):
        return [o.expr for o in self.orders]

    def _node_label(self) -> str:
        return f"Sort [{', '.join(str(o) for o in self.orders)}]"


class Limit(LogicalPlan):
    """Row-count bound with optional offset (``LIMIT``/``OFFSET``)."""

    def __init__(self, child: LogicalPlan, limit: int, offset: int = 0):
        super().__init__((child,))
        if limit < 0 or offset < 0:
            raise AnalysisError("LIMIT/OFFSET must be non-negative")
        self.limit = limit
        self.offset = offset

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children):
        return Limit(children[0], self.limit, self.offset)

    def _node_label(self) -> str:
        suffix = f" offset={self.offset}" if self.offset else ""
        return f"Limit [{self.limit}]{suffix}"


class Distinct(LogicalPlan):
    """Duplicate elimination (``SELECT DISTINCT``)."""

    def __init__(self, child: LogicalPlan):
        super().__init__((child,))

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children):
        return Distinct(children[0])


# ---------------------------------------------------------------------------
# Binary / n-ary nodes
# ---------------------------------------------------------------------------


class Join(LogicalPlan):
    """Binary join; ``how`` is one of JOIN_TYPES, with an ON condition."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        how: str = "inner",
        condition: Expression | None = None,
    ):
        if how not in JOIN_TYPES:
            raise AnalysisError(f"unknown join type '{how}'; one of {JOIN_TYPES}")
        if how != "cross" and condition is None:
            raise AnalysisError(f"'{how}' join requires a condition")
        super().__init__((left, right))
        self.how = how
        self.condition = condition

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    @property
    def schema(self) -> Schema:
        if self.how in ("semi", "anti"):
            return self.left.schema
        return self.left.schema.concat(self.right.schema)

    @property
    def resolved(self) -> bool:
        cond_ok = self.condition is None or self.condition.resolved
        return super().resolved and cond_ok

    def with_children(self, children):
        return Join(children[0], children[1], self.how, self.condition)

    def expressions(self):
        return [self.condition] if self.condition is not None else []

    def _node_label(self) -> str:
        cond = f" on {self.condition}" if self.condition is not None else ""
        return f"Join [{self.how}]{cond}"


class Union(LogicalPlan):
    """UNION ALL of arity-compatible inputs."""

    def __init__(self, children: Sequence[LogicalPlan]):
        if len(children) < 2:
            raise AnalysisError("UNION needs at least two inputs")
        super().__init__(children)

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def with_children(self, children):
        return Union(children)


# ---------------------------------------------------------------------------
# Helpers used by analyzer / optimizer / rewriters
# ---------------------------------------------------------------------------


def transform_expressions(
    plan: LogicalPlan, fn: Callable[[Expression], Expression]
) -> LogicalPlan:
    """``plan`` with ``fn`` applied bottom-up to every expression node —
    conditions, projections, aggregates, sort keys and pushed scan filters."""

    def rewrite(node: LogicalPlan) -> LogicalPlan:
        if isinstance(node, Filter):
            return Filter(node.child, node.condition.transform(fn), node.policy)
        if isinstance(node, Project):
            return Project(node.child, [e.transform(fn) for e in node.exprs])
        if isinstance(node, Aggregate):
            return Aggregate(
                node.child,
                [g.transform(fn) for g in node.groupings],
                [a.transform(fn) for a in node.aggregates],
                node.mode,
            )
        if isinstance(node, Sort):
            return Sort(
                node.child,
                [
                    SortOrder(o.expr.transform(fn), o.ascending, o.nulls_first)
                    for o in node.orders
                ],
            )
        if isinstance(node, Join) and node.condition is not None:
            return Join(node.left, node.right, node.how, node.condition.transform(fn))
        if isinstance(node, Scan) and (node.pushed_filters or node.policy_filter):
            policy = node.policy_filter
            return Scan(
                node.table,
                node.required_columns,
                tuple(f.transform(fn) for f in node.pushed_filters),
                None if policy is None else policy.transform(fn),
            )
        return node

    return plan.transform_up(rewrite)


def plan_expressions(plan: LogicalPlan) -> Iterable[Expression]:
    """Every expression held anywhere in ``plan``, pushed scan filters included."""
    for node in plan.walk():
        yield from node.expressions()
        if isinstance(node, Scan):
            if node.policy_filter is not None:
                yield node.policy_filter
            yield from node.pushed_filters
