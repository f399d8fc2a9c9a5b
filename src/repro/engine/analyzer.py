"""Plan analysis: relation resolution, star expansion, expression binding.

The analyzer is the enforcement point Lakeguard hooks: it resolves relation
*names* through a :class:`RelationResolver`, and in Lakeguard that resolver is
the catalog — which checks privileges, expands view text, and injects
row-filter / column-mask plans wrapped in ``SecureView`` before the engine
ever sees the data (§3.4). The engine itself stays policy-agnostic.
"""

from __future__ import annotations

from typing import Protocol

from repro.engine.aggregates import AggregateCall, is_aggregate_expression
from repro.engine.expressions import (
    BoundRef,
    Expression,
    SortOrder,
    Star,
    UnresolvedColumn,
    bind_expression,
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
    Union,
    UnresolvedRelation,
)
from repro.engine.types import BOOL, Schema
from repro.errors import AnalysisError

#: Guard against infinitely recursive view definitions.
MAX_RESOLUTION_DEPTH = 32


class RelationResolver(Protocol):
    """Maps a relation name (plus read options) to a logical plan.

    Implementations are free to return plans containing further unresolved
    relations (e.g. a view body referencing tables); the analyzer recurses.
    Governance implementations raise :class:`~repro.errors.PermissionDenied`
    here — *before* any data access.
    """

    def resolve_relation(
        self, name: str, options: dict | None = None
    ) -> LogicalPlan: ...


class DictResolver:
    """Simple resolver backed by a name → plan mapping (tests, local data)."""

    def __init__(self, relations: dict[str, LogicalPlan] | None = None):
        self._relations = dict(relations or {})

    def register(self, name: str, plan: LogicalPlan) -> None:
        self._relations[name] = plan

    def resolve_relation(self, name: str, options: dict | None = None) -> LogicalPlan:
        try:
            return self._relations[name]
        except KeyError:
            raise AnalysisError(f"table or view not found: '{name}'") from None


class Analyzer:
    """Turns an unresolved plan into a fully bound, type-checked plan."""

    def __init__(self, resolver: RelationResolver):
        self._resolver = resolver

    # -- public ----------------------------------------------------------------

    def analyze(self, plan: LogicalPlan) -> LogicalPlan:
        analyzed = self._analyze(plan, depth=0)
        self._check(analyzed)
        return analyzed

    # -- recursion ----------------------------------------------------------------

    def _analyze(self, plan: LogicalPlan, depth: int) -> LogicalPlan:
        if depth > MAX_RESOLUTION_DEPTH:
            raise AnalysisError(
                "maximum view resolution depth exceeded (recursive view?)"
            )

        if isinstance(plan, UnresolvedRelation):
            resolved = self._resolver.resolve_relation(plan.name, plan.options)
            return self._analyze(resolved, depth + 1)

        # Leaves that are already resolved.
        if isinstance(plan, (LocalRelation, Scan, Range, RemoteScan)):
            return plan

        children = [self._analyze(c, depth) for c in plan.children]

        if isinstance(plan, Project):
            return self._analyze_project(plan, children[0])
        if isinstance(plan, Filter):
            return self._analyze_filter(plan, children[0])
        if isinstance(plan, Aggregate):
            return self._analyze_aggregate(plan, children[0])
        if isinstance(plan, Join):
            return self._analyze_join(plan, children)
        if isinstance(plan, Sort):
            return self._analyze_sort(plan, children[0])
        if isinstance(plan, Union):
            return self._analyze_union(plan, children)
        if isinstance(plan, (Limit, Distinct, SubqueryAlias, SecureView)):
            return plan.with_children(children)

        raise AnalysisError(f"analyzer does not know node {type(plan).__name__}")

    # -- per-node rules -----------------------------------------------------------

    def _analyze_project(self, plan: Project, child: LogicalPlan) -> Project:
        schema = child.schema
        exprs: list[Expression] = []
        for expr in plan.exprs:
            if isinstance(expr, Star):
                exprs.extend(self._expand_star(expr, schema))
            else:
                exprs.append(bind_expression(expr, schema))
        for expr in exprs:
            if is_aggregate_expression(expr):
                raise AnalysisError(
                    f"aggregate '{expr}' requires a GROUP BY (use Aggregate node)"
                )
        return Project(child, exprs)

    @staticmethod
    def _expand_star(star: Star, schema: Schema) -> list[Expression]:
        refs = [
            BoundRef(i, f.name, f.dtype)
            for i, f in enumerate(schema)
            if star.qualifier is None or f.qualifier == star.qualifier
        ]
        if not refs:
            raise AnalysisError(f"star '{star}' matched no columns in {schema}")
        return refs

    def _analyze_sort(self, plan: Sort, child: LogicalPlan) -> LogicalPlan:
        """Bind ORDER BY against the output; fall back below a Project.

        ``SELECT region FROM t ORDER BY id`` sorts by a column the
        projection dropped. Projections are row-wise, so sorting the
        projection's *input* and projecting afterwards is equivalent —
        the same resolution rule Spark applies.
        """
        try:
            orders = [
                SortOrder(
                    bind_expression(o.expr, child.schema), o.ascending, o.nulls_first
                )
                for o in plan.orders
            ]
            return Sort(child, orders)
        except AnalysisError:
            if not isinstance(child, Project):
                raise
        project = child
        orders = [
            SortOrder(
                bind_expression(o.expr, project.child.schema),
                o.ascending,
                o.nulls_first,
            )
            for o in plan.orders
        ]
        return Project(Sort(project.child, orders), project.exprs)

    def _analyze_filter(self, plan: Filter, child: LogicalPlan) -> Filter:
        condition = bind_expression(plan.condition, child.schema)
        if condition.dtype != BOOL:
            raise AnalysisError(
                f"filter condition must be boolean, got {condition.dtype}: "
                f"{condition}"
            )
        if is_aggregate_expression(condition):
            raise AnalysisError("aggregates are not allowed in WHERE (use HAVING)")
        return Filter(child, condition, plan.policy)

    def _analyze_aggregate(self, plan: Aggregate, child: LogicalPlan) -> Aggregate:
        schema = child.schema
        groupings = [bind_expression(g, schema) for g in plan.groupings]
        aggregates = [bind_expression(a, schema) for a in plan.aggregates]

        grouping_refs: set[int] = set()
        for g in groupings:
            grouping_refs |= g.references()

        for agg_expr in aggregates:
            self._check_aggregate_expr(agg_expr, grouping_refs)
        return Aggregate(child, groupings, aggregates, plan.mode)

    def _check_aggregate_expr(self, expr: Expression, grouping_refs: set[int]) -> None:
        """Column refs outside aggregate calls must be grouped."""
        if isinstance(expr, AggregateCall):
            return  # everything under an aggregate call is fine
        if isinstance(expr, BoundRef) and expr.index not in grouping_refs:
            raise AnalysisError(
                f"column '{expr.name}' must appear in GROUP BY or inside an "
                "aggregate function"
            )
        for child in expr.children:
            self._check_aggregate_expr(child, grouping_refs)

    def _analyze_join(self, plan: Join, children: list[LogicalPlan]) -> Join:
        left, right = children
        if plan.condition is None:
            return Join(left, right, plan.how, None)
        combined = left.schema.concat(right.schema)
        condition = bind_expression(plan.condition, combined)
        if condition.dtype != BOOL:
            raise AnalysisError(
                f"join condition must be boolean, got {condition.dtype}"
            )
        return Join(left, right, plan.how, condition)

    @staticmethod
    def _analyze_union(plan: Union, children: list[LogicalPlan]) -> Union:
        arity = len(children[0].schema)
        for child in children[1:]:
            if len(child.schema) != arity:
                raise AnalysisError(
                    f"UNION inputs have different column counts: "
                    f"{arity} vs {len(child.schema)}"
                )
        return Union(children)

    # -- final validation -----------------------------------------------------------

    @staticmethod
    def _check(plan: LogicalPlan) -> None:
        for node in plan.walk():
            for expr in node.expressions():
                for e in expr.walk():
                    if isinstance(e, (UnresolvedColumn, Star)):
                        raise AnalysisError(
                            f"unresolved expression '{e}' survived analysis in "
                            f"{node._node_label()}"
                        )
        if not plan.resolved:
            raise AnalysisError("plan is not fully resolved after analysis")
        # Force schema computation everywhere: surfaces latent type errors.
        for node in plan.walk():
            _ = node.schema
