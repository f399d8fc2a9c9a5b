"""Spark Connect plan messages ⇄ engine logical plans.

Decoding happens server-side only: the client never sees engine classes.
Encoding (expressions only) is used by the eFGAC rewriter, which wraps a
RemoteScan payload with the filters/projections/partial aggregates it pushes
to the remote endpoint.
"""

from __future__ import annotations

from typing import Any

import cloudpickle

from repro.engine.aggregates import AggregateCall
from repro.engine.expressions import (
    Alias,
    Arithmetic,
    BooleanOp,
    BoundRef,
    CaseWhen,
    Cast,
    Comparison,
    CurrentUser,
    Expression,
    FunctionCall,
    InList,
    IsAccountGroupMember,
    IsNull,
    Like,
    Literal,
    Not,
    PythonUDFCall,
    SortOrder,
    Star,
    UnresolvedColumn,
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
    Sort,
    SubqueryAlias,
    Union,
    UnresolvedRelation,
)
from repro.engine.types import Field, Schema, type_from_name
from repro.engine.udf import PythonUDF
from repro.errors import LakeguardError, ProtocolError
from repro.sql.parser import parse_expression, parse_statement
from repro.sql import ast_nodes as ast
from repro.sql.to_plan import FunctionLookup, PlanBuilder

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
_BOOL_OPS = {"AND", "OR"}

#: Maximum temp-view substitution depth (guards recursive definitions).
MAX_VIEW_DEPTH = 16


class PlanDecoder:
    """Decodes relation/expression messages for one session."""

    def __init__(
        self,
        session_user: str,
        function_lookup: FunctionLookup,
        temp_views: dict[str, dict[str, Any]] | None = None,
        extensions: "ExtensionRegistry | None" = None,
    ):
        self._session_user = session_user
        self._lookup = function_lookup
        self._temp_views = temp_views or {}
        self._builder = PlanBuilder(function_lookup)
        self._extensions = extensions
        self._parsed: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def relation(
        self, msg: dict[str, Any], depth: int = 0, parsed: dict[str, Any] | None = None
    ) -> LogicalPlan:
        """Decode a relation message into an (unresolved) logical plan.

        ``parsed`` maps SQL text to an AST the caller already built for this
        operation (:class:`repro.connect.proto.PlanReferences`); each entry
        is taken at most once, any other text is parsed here.

        Malformed messages (missing fields, type-confused values) must
        surface as typed :class:`ProtocolError`, never as bare Python
        exceptions — a crash mid-decode is an attacker-reachable path.
        """
        if parsed is not None:
            self._parsed = parsed
        try:
            return self._relation(msg, depth)
        except (LakeguardError, RecursionError):
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"malformed relation message: {exc!r}") from exc

    def _relation(self, msg: dict[str, Any], depth: int) -> LogicalPlan:
        if depth > MAX_VIEW_DEPTH:
            raise ProtocolError("temp-view substitution exceeded maximum depth")
        kind = msg.get("@type")
        if kind == "relation.read":
            name = msg["table"]
            if name in self._temp_views:
                inner = self.relation(self._temp_views[name], depth + 1)
                return SubqueryAlias(inner, name.split(".")[-1])
            options = msg.get("options") or {}
            return SubqueryAlias(
                UnresolvedRelation(name, options), name.split(".")[-1]
            )
        if kind == "relation.sql":
            stmt = self._parsed.pop(msg["query"], None) or parse_statement(msg["query"])
            if not isinstance(stmt, (ast.SelectStatement, ast.UnionStatement)):
                raise ProtocolError("relation.sql must contain a query")
            return self._substitute_temp_views(self._builder.build(stmt), depth)
        if kind == "relation.local":
            fields = tuple(
                Field(f["name"], type_from_name(f["type"])) for f in msg["schema"]
            )
            return LocalRelation(Schema(fields), [list(c) for c in msg["columns"]])
        if kind == "relation.range":
            return Range(msg["start"], msg["end"], msg.get("step", 1))
        if kind == "relation.project":
            return Project(
                self.relation(msg["input"], depth),
                [self.expression(e) for e in msg["expressions"]],
            )
        if kind == "relation.filter":
            return Filter(
                self.relation(msg["input"], depth),
                self.expression(msg["condition"]),
            )
        if kind == "relation.join":
            condition = msg.get("condition")
            return Join(
                self.relation(msg["left"], depth),
                self.relation(msg["right"], depth),
                msg.get("how", "inner"),
                self.expression(condition) if condition is not None else None,
            )
        if kind == "relation.aggregate":
            return Aggregate(
                self.relation(msg["input"], depth),
                [self.expression(g) for g in msg["groupings"]],
                [self.expression(a) for a in msg["aggregates"]],
                mode=msg.get("mode", "complete"),
            )
        if kind == "relation.sort":
            orders = [
                SortOrder(
                    self.expression(o["expr"]),
                    bool(o.get("ascending", True)),
                    bool(o.get("nulls_first", True)),
                )
                for o in msg["orders"]
            ]
            return Sort(self.relation(msg["input"], depth), orders)
        if kind == "relation.limit":
            return Limit(
                self.relation(msg["input"], depth),
                msg["limit"],
                msg.get("offset", 0),
            )
        if kind == "relation.distinct":
            return Distinct(self.relation(msg["input"], depth))
        if kind == "relation.union":
            return Union([self.relation(r, depth) for r in msg["inputs"]])
        if kind == "relation.subquery_alias":
            return SubqueryAlias(self.relation(msg["input"], depth), msg["alias"])
        if kind == "relation.extension":
            if self._extensions is None:
                raise ProtocolError(
                    f"no extension registry; cannot decode '{msg.get('name')}'"
                )
            return self._extensions.decode_relation(
                msg.get("name", ""), msg.get("payload", {}), self
            )
        raise ProtocolError(f"unknown relation type '{kind}'")

    def _substitute_temp_views(self, plan: LogicalPlan, depth: int) -> LogicalPlan:
        """Replace references to session temp views inside SQL-derived plans."""
        if not self._temp_views:
            return plan

        def substitute(node: LogicalPlan) -> LogicalPlan:
            if isinstance(node, UnresolvedRelation) and node.name in self._temp_views:
                return self.relation(self._temp_views[node.name], depth + 1)
            return node

        return plan.transform_up(substitute)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def expression(self, msg: dict[str, Any]) -> Expression:
        """Decode an expression message into an engine expression tree."""
        kind = msg.get("@type")
        if kind == "expr.literal":
            return Literal(msg["value"])
        if kind == "expr.column":
            return UnresolvedColumn(msg["name"])
        if kind == "expr.star":
            return Star(msg.get("qualifier"))
        if kind == "expr.alias":
            return Alias(self.expression(msg["child"]), msg["name"])
        if kind == "expr.binary":
            op = msg["op"]
            left = self.expression(msg["left"])
            right = self.expression(msg["right"])
            if op in _ARITH_OPS:
                return Arithmetic(op, left, right)
            if op in _CMP_OPS:
                return Comparison(op, left, right)
            if op in _BOOL_OPS:
                return BooleanOp(op, left, right)
            raise ProtocolError(f"unknown binary operator '{op}'")
        if kind == "expr.not":
            return Not(self.expression(msg["child"]))
        if kind == "expr.isnull":
            return IsNull(self.expression(msg["child"]), bool(msg.get("negated")))
        if kind == "expr.in":
            return InList(
                self.expression(msg["child"]),
                tuple(msg["values"]),
                bool(msg.get("negated")),
            )
        if kind == "expr.like":
            return Like(
                self.expression(msg["child"]),
                msg["pattern"],
                bool(msg.get("negated")),
            )
        if kind == "expr.case":
            branches = [
                (self.expression(c), self.expression(v))
                for c, v in msg["branches"]
            ]
            otherwise = msg.get("otherwise")
            return CaseWhen(
                branches,
                self.expression(otherwise) if otherwise is not None else None,
            )
        if kind == "expr.cast":
            return Cast(self.expression(msg["child"]), type_from_name(msg["to"]))
        if kind == "expr.func":
            return FunctionCall(
                msg["name"], tuple(self.expression(a) for a in msg["args"])
            )
        if kind == "expr.agg":
            child = msg.get("child")
            return AggregateCall(
                msg["name"],
                self.expression(child) if child is not None else None,
                distinct=bool(msg.get("distinct")),
            )
        if kind == "expr.current_user":
            return CurrentUser()
        if kind == "expr.group_member":
            return IsAccountGroupMember(msg["group"])
        if kind == "expr.sql":
            parsed = parse_expression(msg["text"])
            return self._builder.resolve_functions(parsed)
        if kind == "expr.python_udf":
            try:
                func = cloudpickle.loads(msg["func_blob"])
            except Exception as exc:  # noqa: BLE001 - hostile blobs
                raise ProtocolError(
                    f"UDF '{msg.get('name')}' has an undeserializable "
                    f"function payload: {type(exc).__name__}"
                ) from exc
            udf = PythonUDF(
                name=msg["name"],
                func=func,
                return_type=type_from_name(msg["return_type"]),
                owner=self._session_user,  # ephemeral code: caller's domain
                deterministic=bool(msg.get("deterministic", True)),
            )
            return PythonUDFCall(udf, tuple(self.expression(a) for a in msg["args"]))
        if kind == "expr.catalog_function":
            udf = self._lookup(msg["name"])
            if udf is None:
                raise ProtocolError(f"unknown catalog function '{msg['name']}'")
            return PythonUDFCall(udf, tuple(self.expression(a) for a in msg["args"]))
        raise ProtocolError(f"unknown expression type '{kind}'")


# ---------------------------------------------------------------------------
# Expression encoding (for eFGAC pushdown payloads)
# ---------------------------------------------------------------------------


def encode_expression(expr: Expression) -> dict[str, Any]:
    """Encode a *bound, safe* expression back into protocol form.

    Column references become names: the remote endpoint re-analyzes the plan
    against its own (policy-injected) schema, which is exactly why eFGAC
    "operates on the unresolved logical plan level only" (§3.4).
    """
    if isinstance(expr, Literal):
        return {"@type": "expr.literal", "value": expr.value}
    if isinstance(expr, BoundRef):
        return {"@type": "expr.column", "name": expr.name}
    if isinstance(expr, UnresolvedColumn):
        return {"@type": "expr.column", "name": expr.name}
    if isinstance(expr, Alias):
        return {
            "@type": "expr.alias",
            "child": encode_expression(expr.child),
            "name": expr.name,
        }
    if isinstance(expr, Arithmetic) or isinstance(expr, Comparison):
        return {
            "@type": "expr.binary",
            "op": expr.op,
            "left": encode_expression(expr.children[0]),
            "right": encode_expression(expr.children[1]),
        }
    if isinstance(expr, BooleanOp):
        return {
            "@type": "expr.binary",
            "op": expr.op,
            "left": encode_expression(expr.children[0]),
            "right": encode_expression(expr.children[1]),
        }
    if isinstance(expr, Not):
        return {"@type": "expr.not", "child": encode_expression(expr.children[0])}
    if isinstance(expr, IsNull):
        return {
            "@type": "expr.isnull",
            "child": encode_expression(expr.children[0]),
            "negated": expr.negated,
        }
    if isinstance(expr, InList):
        return {
            "@type": "expr.in",
            "child": encode_expression(expr.children[0]),
            "values": list(expr.values),
            "negated": expr.negated,
        }
    if isinstance(expr, Like):
        return {
            "@type": "expr.like",
            "child": encode_expression(expr.children[0]),
            "pattern": expr.pattern,
            "negated": expr.negated,
        }
    if isinstance(expr, CaseWhen):
        otherwise = expr.otherwise()
        return {
            "@type": "expr.case",
            "branches": [
                [encode_expression(c), encode_expression(v)]
                for c, v in expr.branches()
            ],
            "otherwise": encode_expression(otherwise) if otherwise else None,
        }
    if isinstance(expr, Cast):
        return {
            "@type": "expr.cast",
            "child": encode_expression(expr.children[0]),
            "to": expr.target.name,
        }
    if isinstance(expr, FunctionCall):
        return {
            "@type": "expr.func",
            "name": expr.name,
            "args": [encode_expression(a) for a in expr.children],
        }
    if isinstance(expr, AggregateCall):
        return {
            "@type": "expr.agg",
            "name": "count" if expr.func_name == "count_distinct" else expr.func_name,
            "child": encode_expression(expr.child) if expr.child else None,
            "distinct": expr.distinct or expr.func_name == "count_distinct",
        }
    if isinstance(expr, CurrentUser):
        return {"@type": "expr.current_user"}
    if isinstance(expr, IsAccountGroupMember):
        return {"@type": "expr.group_member", "group": expr.group}
    raise ProtocolError(
        f"expression {type(expr).__name__} cannot be encoded for remote "
        "execution (user code never crosses the eFGAC boundary)"
    )
