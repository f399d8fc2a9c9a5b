"""Convert query ASTs to (unresolved) logical plans.

UDF name resolution happens here: an :class:`UnresolvedFunction` becomes a
:class:`PythonUDFCall` through the session's ``FunctionLookup`` — which is
where Lakeguard fetches *cataloged* UDFs (EXECUTE-checked, owner-stamped)
versus session-temporary ones.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.aggregates import is_aggregate_expression
from repro.engine.expressions import (
    Alias,
    Expression,
    PythonUDFCall,
    SortOrder,
    UnresolvedColumn,
)
from repro.engine.logical import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Range,
    Sort,
    SubqueryAlias,
    Union,
    UnresolvedRelation,
)
from repro.engine.udf import PythonUDF
from repro.errors import AnalysisError
from repro.sql import ast_nodes as ast
from repro.sql.parser import UnresolvedFunction

#: Resolves a function name to a UDF (or None when unknown).
FunctionLookup = Callable[[str], PythonUDF | None]


def _no_functions(name: str) -> PythonUDF | None:
    return None


class PlanBuilder:
    """Builds logical plans from parsed query statements."""

    def __init__(self, function_lookup: FunctionLookup | None = None):
        self._lookup = function_lookup or _no_functions

    # -- public -----------------------------------------------------------------

    def build(self, stmt: ast.QueryStatement) -> LogicalPlan:
        if isinstance(stmt, ast.UnionStatement):
            return Union([self._build_select(s) for s in stmt.inputs])
        return self._build_select(stmt)

    # -- helpers ----------------------------------------------------------------

    def resolve_functions(self, expr: Expression | None) -> Expression | None:
        """``expr`` with each UDF name resolved to its call (``None`` stays
        ``None``); an unknown name is an ``AnalysisError``."""
        if expr is None:
            return None

        def resolve(node: Expression) -> Expression:
            if isinstance(node, UnresolvedFunction):
                udf = self._lookup(node.name)
                if udf is None:
                    raise AnalysisError(f"unknown function '{node.name}'")
                return PythonUDFCall(udf, node.children)
            return node

        return expr.transform(resolve)

    def _build_source(self, source: ast.FromSource) -> LogicalPlan:
        if isinstance(source, ast.TableSource):
            plan: LogicalPlan = UnresolvedRelation(source.name)
            alias = source.alias or source.name.split(".")[-1]
            return SubqueryAlias(plan, alias)
        subplan = self.build(source.query)
        return SubqueryAlias(subplan, source.alias)

    # -- SELECT -----------------------------------------------------------------

    def _build_select(self, stmt: ast.SelectStatement) -> LogicalPlan:
        if stmt.source is not None:
            plan = self._build_source(stmt.source)
        else:
            # SELECT without FROM: a single generated row to project over.
            plan = Range(0, 1)

        for join in stmt.joins:
            right = self._build_source(join.source)
            plan = Join(plan, right, join.how, self.resolve_functions(join.condition))

        if stmt.where is not None:
            plan = Filter(plan, self.resolve_functions(stmt.where))

        items = [
            ast.SelectItem(self.resolve_functions(item.expr), item.alias)
            for item in stmt.items
        ]
        groupings = [self.resolve_functions(g) for g in stmt.group_by]
        having = self.resolve_functions(stmt.having)

        output_exprs = [
            Alias(item.expr, item.alias) if item.alias else item.expr
            for item in items
        ]

        is_aggregate_query = bool(groupings) or any(
            is_aggregate_expression(e) for e in output_exprs
        ) or (having is not None and is_aggregate_expression(having))

        if is_aggregate_query:
            plan = self._build_aggregate(plan, output_exprs, groupings, having)
        else:
            if having is not None:
                raise AnalysisError("HAVING requires GROUP BY or aggregates")
            plan = Project(plan, output_exprs)

        if stmt.distinct:
            plan = Distinct(plan)

        if stmt.order_by:
            orders = []
            for item in stmt.order_by:
                nulls_first = (
                    item.nulls_first
                    if item.nulls_first is not None
                    else item.ascending
                )
                orders.append(
                    SortOrder(
                        self.resolve_functions(item.expr),
                        item.ascending,
                        nulls_first,
                    )
                )
            plan = Sort(plan, orders)

        if stmt.limit is not None:
            plan = Limit(plan, stmt.limit, stmt.offset)

        return plan

    def _build_aggregate(
        self,
        child: LogicalPlan,
        output_exprs: list[Expression],
        groupings: list[Expression],
        having: Expression | None,
    ) -> LogicalPlan:
        aggregates = list(output_exprs)
        visible = [e.output_name() for e in output_exprs]

        if having is None:
            return Aggregate(child, groupings, aggregates)

        if is_aggregate_expression(having):
            # Compute the HAVING predicate as a hidden aggregate output,
            # filter on it, then project it away.
            hidden = Alias(having, "__having__")
            aggregates.append(hidden)
            plan: LogicalPlan = Aggregate(child, groupings, aggregates)
            plan = Filter(plan, UnresolvedColumn("__having__"))
            return Project(plan, [UnresolvedColumn(name) for name in visible])

        plan = Aggregate(child, groupings, aggregates)
        return Filter(plan, having)
