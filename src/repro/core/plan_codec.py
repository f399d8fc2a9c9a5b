"""Spark Connect plan messages ⇄ engine logical plans.

Decoding happens server-side only: the client never sees engine classes.
Queries arrive as plan-cache *templates* (:func:`repro.core.plan_cache.lift`):
a lifted literal inside a filter or join condition decodes to a
:class:`~repro.engine.expressions.Parameter`, any other lifted literal to the
literal itself. Encoding (expressions only) is used by the eFGAC rewriter,
which wraps a RemoteScan payload with the filters/projections/partial
aggregates it pushes to the remote endpoint; a ``Parameter`` is encoded as a
slot marker that :func:`bind_markers` replaces with its value when the
sub-plan is submitted.
"""

from __future__ import annotations

import pickletools
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable

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
    Parameter,
    PythonUDFCall,
    SortOrder,
    Star,
    UnresolvedColumn,
    literal_type,
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
    transform_expressions,
)
from repro.engine.types import Field, Schema, type_from_name
from repro.engine.udf import PythonUDF
from repro.errors import LakeguardError, ProtocolError
from repro.sql.parser import parse_expression, parse_statement
from repro.sql import ast_nodes as ast
from repro.sql.to_plan import FunctionLookup, PlanBuilder

if TYPE_CHECKING:
    from repro.core.extensions import ExtensionRegistry
    from repro.core.plan_cache import LiftedRelation

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
_BOOL_OPS = {"AND", "OR"}

#: Maximum temp-view substitution depth (guards recursive definitions).
MAX_VIEW_DEPTH = 16


@lru_cache(maxsize=256)
def _check_pickle_stream(blob: bytes) -> None:
    """Raise unless ``blob`` is exactly one well-formed pickle stream.

    ``pickletools.genops`` parses opcodes and runs nothing; cached, because
    a client resends the same function with every plan.
    """
    end = -1
    for _, _, end in pickletools.genops(blob):
        pass
    if type(blob) is not bytes or end != len(blob) - 1:
        raise ValueError("not exactly one pickle stream")


def client_udf(
    name: str, blob: Any, return_type: str, owner: str, deterministic: bool
) -> PythonUDF:
    """A client's UDF, its function still bytes: only a sandbox worker (or
    the inline runtime of privileged compute) unpickles it."""
    try:
        _check_pickle_stream(blob)
    except Exception as exc:  # noqa: BLE001 - hostile blobs
        raise ProtocolError(
            f"UDF '{name}' has an undeserializable function payload: "
            f"{type(exc).__name__}"
        ) from exc
    return PythonUDF(name, blob, type_from_name(return_type), owner, deterministic=deterministic)


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
        #: The template being decoded (see :meth:`template`).
        self._lifted: "LiftedRelation | None" = None
        #: True while decoding a filter / join condition.
        self._in_predicate = False

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def template(
        self, lifted: "LiftedRelation", parsed: dict[str, Any] | None = None
    ) -> LogicalPlan:
        """Decode a lifted relation's template into an (unresolved) plan.

        A lifted literal in a filter or join condition (SQL: WHERE, HAVING,
        JOIN ON) becomes a :class:`Parameter` of its slot; every other
        lifted literal is decoded with its value (pinned). ``parsed`` maps
        SQL text to the AST the Connect service already parsed *lifted*.
        """
        self._lifted = lifted
        try:
            return self.relation(lifted.template, parsed=parsed)
        finally:
            self._lifted = None

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
                inner = self._untemplated(
                    lambda: self.relation(self._temp_views[name], depth + 1)
                )
                return SubqueryAlias(inner, name.split(".")[-1])
            options = msg.get("options") or {}
            return SubqueryAlias(
                UnresolvedRelation(name, options), name.split(".")[-1]
            )
        if kind == "relation.sql":
            if "sql" not in msg or self._lifted is None:
                return self._sql_query(parse_statement(msg["query"]), depth)
            text = self._lifted.sql_texts[msg["sql"]]
            stmt = self._parsed.pop(text, None) or parse_statement(text, True)
            plan = self._sql_query(stmt, depth)
            first = msg["slot"]
            if not first:
                return plan
            # The AST numbers its parameters from 0 in text order.
            return transform_expressions(
                plan,
                lambda e: Parameter(e.slot + first, e.dtype)
                if isinstance(e, Parameter)
                else e,
            )
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
                self._predicate(msg["condition"]),
            )
        if kind == "relation.join":
            condition = msg.get("condition")
            return Join(
                self.relation(msg["left"], depth),
                self.relation(msg["right"], depth),
                msg.get("how", "inner"),
                self._predicate(condition) if condition is not None else None,
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
            return self._untemplated(
                lambda: self._extensions.decode_relation(
                    msg.get("name", ""), msg.get("payload", {}), self
                )
            )
        raise ProtocolError(f"unknown relation type '{kind}'")

    def _sql_query(self, stmt: Any, depth: int) -> LogicalPlan:
        if not isinstance(stmt, (ast.SelectStatement, ast.UnionStatement)):
            raise ProtocolError("relation.sql must contain a query")
        return self._substitute_temp_views(self._builder.build(stmt), depth)

    def _predicate(self, msg: dict[str, Any]) -> Expression:
        """A condition: the position where lifted literals are parameters."""
        self._in_predicate = True
        try:
            return self.expression(msg)
        finally:
            self._in_predicate = False

    def _substitute_temp_views(self, plan: LogicalPlan, depth: int) -> LogicalPlan:
        """Replace references to session temp views inside SQL-derived plans."""
        if not self._temp_views:
            return plan

        def substitute(node: LogicalPlan) -> LogicalPlan:
            if isinstance(node, UnresolvedRelation) and node.name in self._temp_views:
                return self._untemplated(
                    lambda: self.relation(self._temp_views[node.name], depth + 1)
                )
            return node

        return plan.transform_up(substitute)

    def _untemplated(self, decode: Callable[[], LogicalPlan]) -> LogicalPlan:
        """Decode wire messages that were never lifted (temp views, extension
        payloads): their literals are values, whatever keys they carry."""
        lifted, self._lifted = self._lifted, None
        try:
            return decode()
        finally:
            self._lifted = lifted

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def expression(self, msg: dict[str, Any]) -> Expression:
        """Decode an expression message into an engine expression tree."""
        kind = msg.get("@type")
        if kind == "expr.literal":
            if "slot" not in msg or self._lifted is None:
                return Literal(msg["value"])
            slot = msg["slot"]
            value = self._lifted.params[slot]
            if self._in_predicate:
                return Parameter(slot, literal_type(value))
            return Literal(value)
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
            udf = client_udf(
                msg["name"],
                msg["func_blob"],
                msg["return_type"],
                self._session_user,  # ephemeral code: caller's domain
                bool(msg.get("deterministic", True)),
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

#: ``@type`` of a parameter's slot marker in an eFGAC payload. No decoder
#: knows it: a marker only exists between planning and submit.
PARAMETER_MARKER = "expr.parameter"

#: The keys under which the encoder and the eFGAC rules nest expressions and
#: relations; a literal's value, an IN list or a pattern is never walked.
_NESTED_KEYS = frozenset(("input", "condition", "expressions", "groupings", "aggregates",
                          "child", "left", "right", "branches", "otherwise", "args"))


def bind_markers(node: Any, bind: Callable[[int], Any]) -> Any:
    """``node`` (an eFGAC payload) with each slot marker
    :func:`encode_expression` wrote replaced by ``bind(slot)``.

    Only expression and relation positions are walked, so a marker-shaped
    value a client put inside a literal (which lifting keeps verbatim) or an
    IN list stays the value it is.
    """
    if isinstance(node, list):
        return [bind_markers(item, bind) for item in node]
    if not isinstance(node, dict):
        return node
    if node.get("@type") == PARAMETER_MARKER:
        return bind(node["slot"])
    return {
        key: bind_markers(value, bind) if key in _NESTED_KEYS else value
        for key, value in node.items()
    }


def encode_expression(expr: Expression) -> dict[str, Any]:
    """Encode a *bound, safe* expression back into protocol form.

    Column references become names: the remote endpoint re-analyzes the plan
    against its own (policy-injected) schema, which is exactly why eFGAC
    "operates on the unresolved logical plan level only" (§3.4). A
    :class:`Parameter` becomes a slot marker (:func:`bind_markers`).
    """
    if isinstance(expr, Literal):
        return {"@type": "expr.literal", "value": expr.value}
    if isinstance(expr, Parameter):
        return {"@type": PARAMETER_MARKER, "slot": expr.slot}
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
