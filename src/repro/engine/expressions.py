"""Expression trees with vectorized evaluation.

Expressions start *unresolved* (column names as strings) and are bound by the
analyzer to positional :class:`BoundRef` nodes. Evaluation takes a
:class:`ColumnBatch` and an :class:`EvalContext` and returns a value list.

Governance-relevant classification lives here:

- :func:`contains_user_code` — true if any node executes user Python; the
  SecureView barrier refuses to push such expressions below policy filters.
- ``deterministic`` — non-deterministic expressions are also pinned above
  barriers (a repeatably-evaluated predicate could otherwise probe data).
- :class:`CurrentUser` / :class:`IsAccountGroupMember` — the dynamic-view
  primitives; they evaluate against the *session* user at run time, which is
  what makes one view definition yield different rows per user.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

import cloudpickle

from repro.engine.batch import ColumnBatch
from repro.engine.types import (
    BINARY,
    BOOL,
    FLOAT,
    INT,
    STRING,
    DataType,
    Schema,
    common_numeric_type,
    is_numeric,
)
from repro.engine.udf import PythonUDF
from repro.errors import (
    AnalysisError,
    ExecutionError,
    SandboxPolicyViolation,
    UserCodeError,
)


@dataclass
class EvalContext:
    """Per-query evaluation context.

    ``udf_runtime`` decides *where* Python UDFs execute (inline for the
    unisolated baseline, sandboxed via the Dispatcher under Lakeguard).
    ``udf_results`` caches fused-UDF outputs keyed by call id so a fusion
    group costs one sandbox round-trip however many expressions use it.
    """

    user: str = "anonymous"
    groups: frozenset[str] = frozenset()
    udf_runtime: "UDFRuntime | None" = None
    udf_results: dict[int, list[Any]] = dc_field(default_factory=dict)
    #: Opaque authorization handle (e.g. a catalog UserContext) that governed
    #: data sources use to vend credentials. The engine never interprets it.
    auth: Any = None
    #: The instrumented QueryContext this evaluation belongs to (opaque to
    #: the engine; governed components use it to emit spans).
    query_ctx: Any = None
    #: Configured row-count ceiling per emitted batch (0 = unlimited); data
    #: sources chunk their output to honor it.
    batch_size: int = 0
    #: This execution's values of the plan's :class:`Parameter` slots (the
    #: user literals the secure-plan cache lifted out of the query).
    params: tuple[Any, ...] = ()


@lru_cache(maxsize=256)
def _inline_function(digest: bytes, blob: bytes) -> Callable[..., Any]:
    """A UDF's function, unpickled in this process — privileged compute only."""
    return cloudpickle.loads(blob)


class UDFRuntime:
    """Where UDF code runs. The default executes inline (no isolation), for
    privileged (single-user) compute and the Table 2 baseline only."""

    def run_udf(self, udf: PythonUDF, arg_columns: list[list[Any]]) -> list[Any]:
        udf.require_python()
        try:
            func = _inline_function(udf.digest, udf.blob)
            return [func(*row) for row in zip(*arg_columns)]
        except SandboxPolicyViolation:
            # Policy enforcement outranks user-code error wrapping: an egress
            # denial must surface as itself so callers can audit it.
            raise
        except Exception as exc:  # noqa: BLE001 - user code may raise anything
            raise UserCodeError(
                f"UDF '{udf.name}' raised {type(exc).__name__}: {exc}",
                udf_name=udf.name,
            ) from exc

    def run_fused(
        self, calls: list[tuple[int, PythonUDF, list[list[Any]]]]
    ) -> dict[int, list[Any]]:
        """Execute several UDF calls 'together'; inline just loops.

        Routed through :meth:`run_udf` so subclasses overriding the single
        path behave identically on the fused path.
        """
        return {call_id: self.run_udf(udf, args) for call_id, udf, args in calls}


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


_NEXT_EXPR_ID = 0


def _next_id() -> int:
    global _NEXT_EXPR_ID
    _NEXT_EXPR_ID += 1
    return _NEXT_EXPR_ID


class Expression:
    """Base expression node."""

    def __init__(self, children: tuple["Expression", ...] = ()):
        self.children: tuple[Expression, ...] = children
        self.dtype: DataType | None = None
        self.expr_id: int = _next_id()

    # -- structure ------------------------------------------------------------

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """Rebuild this node with new children (subclasses override)."""
        raise NotImplementedError(type(self).__name__)

    def transform(self, fn: Callable[["Expression"], "Expression"]) -> "Expression":
        """Bottom-up rewrite."""
        new_children = tuple(c.transform(fn) for c in self.children)
        node = self if new_children == self.children else self.with_children(new_children)
        return fn(node)

    def walk(self) -> Iterable["Expression"]:
        yield self
        for child in self.children:
            yield from child.walk()

    # -- properties -----------------------------------------------------------

    @property
    def resolved(self) -> bool:
        return self.dtype is not None and all(c.resolved for c in self.children)

    @property
    def deterministic(self) -> bool:
        return all(c.deterministic for c in self.children)

    @property
    def is_user_code(self) -> bool:
        """Does *this node itself* run user-supplied code?"""
        return False

    def references(self) -> set[int]:
        """Positions of all BoundRefs below this node."""
        refs: set[int] = set()
        for node in self.walk():
            if isinstance(node, BoundRef):
                refs.add(node.index)
        return refs

    # -- evaluation -------------------------------------------------------------

    def eval(self, batch: ColumnBatch, ctx: EvalContext) -> list[Any]:
        """Vectorized evaluation: one output value per input row."""
        raise NotImplementedError(type(self).__name__)

    def output_name(self) -> str:
        """Column name this expression gets when projected without an alias."""
        return str(self)


def contains_user_code(expr: Expression) -> bool:
    """True if any node in the tree executes user-supplied Python."""
    return any(node.is_user_code for node in expr.walk())


#: Deterministic per process, not across processes (salted string hashing).
PROCESS_SALTED_FUNCTIONS = frozenset({"hash"})


def is_pure(expr: Expression) -> bool:
    """No user code, nothing non-deterministic, no process-salted builtin."""
    for node in expr.walk():
        if node.is_user_code or not node.deterministic:
            return False
        if isinstance(node, FunctionCall) and node.name in PROCESS_SALTED_FUNCTIONS:
            return False
    return True


def to_expression(value: Any) -> Expression:
    """Coerce strings to column refs and Python scalars to literals."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return UnresolvedColumn(value)
    return Literal(value)


def lit(value: Any) -> "Literal":
    return Literal(value)


def col(name: str) -> "UnresolvedColumn":
    return UnresolvedColumn(name)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


def literal_type(value: Any) -> DataType:
    """The engine type of a Python constant."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, (bytes, bytearray)):
        return BINARY
    if value is None:
        return STRING  # NULL literal defaults to string; Cast can retype
    if isinstance(value, str):
        return STRING
    raise AnalysisError(f"unsupported literal type: {type(value).__name__}")


class Literal(Expression):
    """A constant; its type is inferred from the Python value."""

    def __init__(self, value: Any):
        super().__init__()
        self.value = value
        self.dtype = literal_type(value)

    def with_children(self, children):
        return self

    def eval(self, batch, ctx):
        return [self.value] * batch.num_rows

    def output_name(self) -> str:
        return repr(self.value)

    def __str__(self):
        return repr(self.value)

    def __eq__(self, other):
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self):
        return hash(("lit", self.value))


class Parameter(Expression):
    """A user literal lifted out of a cached plan: slot ``slot`` of
    :attr:`EvalContext.params`, bound per execution.

    Deliberately not a :class:`Literal` and without a ``value``: constant
    folding, filter simplification and codegen specialise on literal
    *values*, and none of them can read a parameter's — a plan holding one
    is correct for every value of its type.
    """

    def __init__(self, slot: int, dtype: DataType):
        super().__init__()
        self.slot = slot
        self.dtype = dtype

    def with_children(self, children):
        return self

    def eval(self, batch, ctx):
        return [ctx.params[self.slot]] * batch.num_rows

    def __str__(self):
        return f"?{self.slot}"


class UnresolvedColumn(Expression):
    """A column reference by (possibly qualified) name; bound by the analyzer."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    @property
    def resolved(self) -> bool:
        return False

    def with_children(self, children):
        return self

    def eval(self, batch, ctx):
        raise ExecutionError(f"unresolved column '{self.name}' reached execution")

    def output_name(self) -> str:
        return self.name.rpartition(".")[2]

    def __str__(self):
        return self.name


class BoundRef(Expression):
    """A column reference resolved to a position in the child's output."""

    def __init__(self, index: int, name: str, dtype: DataType):
        super().__init__()
        self.index = index
        self.name = name
        self.dtype = dtype

    def with_children(self, children):
        return self

    def eval(self, batch, ctx):
        return batch.columns[self.index]

    def output_name(self) -> str:
        return self.name

    def __str__(self):
        return f"{self.name}#{self.index}"


class Star(Expression):
    """``SELECT *`` placeholder; expanded by the analyzer."""

    def __init__(self, qualifier: str | None = None):
        super().__init__()
        self.qualifier = qualifier

    @property
    def resolved(self) -> bool:
        return False

    def with_children(self, children):
        return self

    def eval(self, batch, ctx):
        raise ExecutionError("Star must be expanded during analysis")

    def __str__(self):
        return f"{self.qualifier}.*" if self.qualifier else "*"


class CurrentUser(Expression):
    """``CURRENT_USER()`` — the session identity, evaluated at run time."""

    def __init__(self):
        super().__init__()
        self.dtype = STRING

    def with_children(self, children):
        return self

    def eval(self, batch, ctx):
        return [ctx.user] * batch.num_rows

    def output_name(self) -> str:
        return "current_user()"

    def __str__(self):
        return "current_user()"


class IsAccountGroupMember(Expression):
    """``IS_ACCOUNT_GROUP_MEMBER('g')`` — group test against the session."""

    def __init__(self, group: str):
        super().__init__()
        self.group = group
        self.dtype = BOOL

    def with_children(self, children):
        return self

    def eval(self, batch, ctx):
        return [self.group in ctx.groups] * batch.num_rows

    def output_name(self) -> str:
        return f"is_account_group_member({self.group!r})"

    def __str__(self):
        return self.output_name()


# ---------------------------------------------------------------------------
# Unary / wrapper nodes
# ---------------------------------------------------------------------------


class Alias(Expression):
    """Name a computed column."""

    def __init__(self, child: Expression, name: str):
        super().__init__((child,))
        self.name = name
        self.dtype = child.dtype

    @property
    def child(self) -> Expression:
        return self.children[0]

    def with_children(self, children):
        return Alias(children[0], self.name)

    def eval(self, batch, ctx):
        return self.child.eval(batch, ctx)

    def output_name(self) -> str:
        return self.name

    def __str__(self):
        return f"{self.child} AS {self.name}"


class Cast(Expression):
    """Explicit type conversion with SQL-ish semantics."""

    def __init__(self, child: Expression, dtype: DataType):
        super().__init__((child,))
        self.target = dtype
        self.dtype = dtype

    @property
    def child(self) -> Expression:
        return self.children[0]

    def with_children(self, children):
        return Cast(children[0], self.target)

    def _cast_one(self, value: Any) -> Any:
        if value is None:
            return None
        try:
            if self.target == INT:
                return int(value)
            if self.target == FLOAT:
                return float(value)
            if self.target == STRING:
                return str(value)
            if self.target == BOOL:
                if isinstance(value, str):
                    return value.strip().lower() in ("true", "t", "1", "yes")
                return bool(value)
            if self.target == BINARY:
                return value.encode() if isinstance(value, str) else bytes(value)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(f"cannot cast {value!r} to {self.target}: {exc}")
        raise ExecutionError(f"unsupported cast target {self.target}")

    def eval(self, batch, ctx):
        return [self._cast_one(v) for v in self.child.eval(batch, ctx)]

    def output_name(self) -> str:
        return f"cast({self.child.output_name()} as {self.target})"

    def __str__(self):
        return self.output_name()


class Not(Expression):
    """Logical negation with NULL propagation."""

    def __init__(self, child: Expression):
        super().__init__((child,))
        self.dtype = BOOL

    def with_children(self, children):
        return Not(children[0])

    def eval(self, batch, ctx):
        return [None if v is None else (not v) for v in self.children[0].eval(batch, ctx)]

    def __str__(self):
        return f"NOT ({self.children[0]})"


class IsNull(Expression):
    """``IS [NOT] NULL`` test (always a non-NULL boolean)."""

    def __init__(self, child: Expression, negated: bool = False):
        super().__init__((child,))
        self.negated = negated
        self.dtype = BOOL

    def with_children(self, children):
        return IsNull(children[0], self.negated)

    def eval(self, batch, ctx):
        values = self.children[0].eval(batch, ctx)
        if self.negated:
            return [v is not None for v in values]
        return [v is None for v in values]

    def __str__(self):
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.children[0]}) {op}"


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------

_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else None,  # SQL: x/0 -> NULL
    "%": lambda a, b: a % b if b != 0 else None,
}

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Arithmetic(Expression):
    """Numeric (or string ``+`` concatenation) binary arithmetic."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITH_OPS:
            raise AnalysisError(f"unknown arithmetic operator '{op}'")
        super().__init__((left, right))
        self.op = op
        self._bind_type()

    def _bind_type(self) -> None:
        left, right = self.children
        if left.dtype is None or right.dtype is None:
            return
        if self.op == "+" and left.dtype == STRING and right.dtype == STRING:
            self.dtype = STRING
        elif self.op == "/" and is_numeric(left.dtype) and is_numeric(right.dtype):
            self.dtype = FLOAT
        else:
            self.dtype = common_numeric_type(left.dtype, right.dtype)

    def with_children(self, children):
        return Arithmetic(self.op, children[0], children[1])

    def eval(self, batch, ctx):
        fn = _ARITH_OPS[self.op]
        lhs = self.children[0].eval(batch, ctx)
        rhs = self.children[1].eval(batch, ctx)
        return [
            None if (a is None or b is None) else fn(a, b) for a, b in zip(lhs, rhs)
        ]

    def __str__(self):
        return f"({self.children[0]} {self.op} {self.children[1]})"


class Comparison(Expression):
    """Binary comparison with NULL-propagating semantics."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _CMP_OPS:
            raise AnalysisError(f"unknown comparison operator '{op}'")
        super().__init__((left, right))
        self.op = op
        self.dtype = BOOL

    def with_children(self, children):
        return Comparison(self.op, children[0], children[1])

    def eval(self, batch, ctx):
        fn = _CMP_OPS[self.op]
        lhs = self.children[0].eval(batch, ctx)
        rhs = self.children[1].eval(batch, ctx)
        return [
            None if (a is None or b is None) else fn(a, b) for a, b in zip(lhs, rhs)
        ]

    def __str__(self):
        return f"({self.children[0]} {self.op} {self.children[1]})"


class BooleanOp(Expression):
    """AND/OR with SQL three-valued logic."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ("AND", "OR"):
            raise AnalysisError(f"unknown boolean operator '{op}'")
        super().__init__((left, right))
        self.op = op
        self.dtype = BOOL

    def with_children(self, children):
        return BooleanOp(self.op, children[0], children[1])

    def eval(self, batch, ctx):
        lhs = self.children[0].eval(batch, ctx)
        rhs = self.children[1].eval(batch, ctx)
        out = []
        if self.op == "AND":
            for a, b in zip(lhs, rhs):
                if a is False or b is False:
                    out.append(False)
                elif a is None or b is None:
                    out.append(None)
                else:
                    out.append(bool(a) and bool(b))
        else:
            for a, b in zip(lhs, rhs):
                if a is True or b is True:
                    out.append(True)
                elif a is None or b is None:
                    out.append(None)
                else:
                    out.append(bool(a) or bool(b))
        return out

    def __str__(self):
        return f"({self.children[0]} {self.op} {self.children[1]})"


class InList(Expression):
    """``expr IN (v1, v2, ...)`` over literal values."""

    def __init__(self, child: Expression, values: tuple[Any, ...], negated: bool = False):
        super().__init__((child,))
        self.values = tuple(values)
        self.negated = negated
        self.dtype = BOOL
        self._value_set = set(values)

    def with_children(self, children):
        return InList(children[0], self.values, self.negated)

    def eval(self, batch, ctx):
        out = []
        for v in self.children[0].eval(batch, ctx):
            if v is None:
                out.append(None)
            else:
                hit = v in self._value_set
                out.append((not hit) if self.negated else hit)
        return out

    def __str__(self):
        op = "NOT IN" if self.negated else "IN"
        return f"({self.children[0]} {op} {list(self.values)})"


class Like(Expression):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (any char) wildcards."""

    def __init__(self, child: Expression, pattern: str, negated: bool = False):
        super().__init__((child,))
        self.pattern = pattern
        self.negated = negated
        self.dtype = BOOL
        self._regex = self._compile(pattern)

    @staticmethod
    def _compile(pattern: str):
        import re

        out = []
        for ch in pattern:
            if ch == "%":
                out.append(".*")
            elif ch == "_":
                out.append(".")
            else:
                out.append(re.escape(ch))
        return re.compile("^" + "".join(out) + "$", re.DOTALL)

    def with_children(self, children):
        return Like(children[0], self.pattern, self.negated)

    def eval(self, batch, ctx):
        out = []
        for value in self.children[0].eval(batch, ctx):
            if value is None:
                out.append(None)
            else:
                hit = bool(self._regex.match(str(value)))
                out.append((not hit) if self.negated else hit)
        return out

    def __str__(self):
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.children[0]} {op} {self.pattern!r})"


class CaseWhen(Expression):
    """``CASE WHEN c1 THEN v1 ... ELSE e END``."""

    def __init__(
        self,
        branches: Sequence[tuple[Expression, Expression]],
        otherwise: Expression | None = None,
    ):
        flat: list[Expression] = []
        for cond, value in branches:
            flat.extend((cond, value))
        self.num_branches = len(branches)
        self.has_else = otherwise is not None
        if otherwise is not None:
            flat.append(otherwise)
        super().__init__(tuple(flat))
        value_types = {v.dtype for _, v in branches if v.dtype is not None}
        if otherwise is not None and otherwise.dtype is not None:
            value_types.add(otherwise.dtype)
        self.dtype = value_types.pop() if len(value_types) == 1 else (
            FLOAT if value_types and all(is_numeric(t) for t in value_types) else STRING
        )

    def branches(self) -> list[tuple[Expression, Expression]]:
        return [
            (self.children[2 * i], self.children[2 * i + 1])
            for i in range(self.num_branches)
        ]

    def otherwise(self) -> Expression | None:
        return self.children[-1] if self.has_else else None

    def with_children(self, children):
        branches = [
            (children[2 * i], children[2 * i + 1]) for i in range(self.num_branches)
        ]
        otherwise = children[-1] if self.has_else else None
        return CaseWhen(branches, otherwise)

    def eval(self, batch, ctx):
        n = batch.num_rows
        result: list[Any] = [None] * n
        decided = [False] * n
        for cond, value in self.branches():
            mask = cond.eval(batch, ctx)
            vals = value.eval(batch, ctx)
            for i in range(n):
                if not decided[i] and mask[i]:
                    result[i] = vals[i]
                    decided[i] = True
        otherwise = self.otherwise()
        if otherwise is not None:
            vals = otherwise.eval(batch, ctx)
            for i in range(n):
                if not decided[i]:
                    result[i] = vals[i]
        return result

    def __str__(self):
        parts = " ".join(f"WHEN {c} THEN {v}" for c, v in self.branches())
        tail = f" ELSE {self.otherwise()}" if self.has_else else ""
        return f"CASE {parts}{tail} END"


# ---------------------------------------------------------------------------
# Built-in scalar functions
# ---------------------------------------------------------------------------


def _sha256(value: Any) -> str | None:
    if value is None:
        return None
    data = value if isinstance(value, (bytes, bytearray)) else str(value).encode()
    return hashlib.sha256(data).hexdigest()


def _null_safe(fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


#: name -> (row_fn, result_type_fn(arg_types) -> DataType)
BUILTIN_FUNCTIONS: dict[str, tuple[Callable[..., Any], Callable[[list[DataType]], DataType]]] = {
    "upper": (_null_safe(lambda s: s.upper()), lambda ts: STRING),
    "lower": (_null_safe(lambda s: s.lower()), lambda ts: STRING),
    "length": (_null_safe(len), lambda ts: INT),
    "trim": (_null_safe(lambda s: s.strip()), lambda ts: STRING),
    "concat": (_null_safe(lambda *ss: "".join(str(s) for s in ss)), lambda ts: STRING),
    "substring": (
        _null_safe(lambda s, pos, n: s[max(pos - 1, 0) : max(pos - 1, 0) + n]),
        lambda ts: STRING,
    ),
    "abs": (_null_safe(abs), lambda ts: ts[0] if ts else FLOAT),
    "round": (_null_safe(lambda x, d=0: round(x, int(d))), lambda ts: FLOAT),
    "floor": (_null_safe(lambda x: int(math.floor(x))), lambda ts: INT),
    "ceil": (_null_safe(lambda x: int(math.ceil(x))), lambda ts: INT),
    "sqrt": (_null_safe(lambda x: math.sqrt(x) if x >= 0 else None), lambda ts: FLOAT),
    "coalesce": (
        lambda *args: next((a for a in args if a is not None), None),
        lambda ts: ts[0] if ts else STRING,
    ),
    "greatest": (_null_safe(max), lambda ts: ts[0] if ts else FLOAT),
    "least": (_null_safe(min), lambda ts: ts[0] if ts else FLOAT),
    "sha256": (_sha256, lambda ts: STRING),
    "hash": (_null_safe(lambda v: hash(v) & 0x7FFFFFFF), lambda ts: INT),
    "startswith": (_null_safe(lambda s, p: s.startswith(p)), lambda ts: BOOL),
    "endswith": (_null_safe(lambda s, p: s.endswith(p)), lambda ts: BOOL),
    "contains": (_null_safe(lambda s, p: p in s), lambda ts: BOOL),
    "replace": (_null_safe(lambda s, a, b: s.replace(a, b)), lambda ts: STRING),
    "if": (
        lambda c, t, f: t if c else f,
        lambda ts: ts[1] if len(ts) > 1 else STRING,
    ),
}


class FunctionCall(Expression):
    """A call to an *engine built-in* scalar function (trusted code)."""

    def __init__(self, name: str, args: tuple[Expression, ...]):
        lowered = name.lower()
        if lowered not in BUILTIN_FUNCTIONS:
            raise AnalysisError(
                f"unknown function '{name}'; built-ins: {sorted(BUILTIN_FUNCTIONS)}"
            )
        super().__init__(args)
        self.name = lowered
        self._bind_type()

    def _bind_type(self) -> None:
        if all(c.dtype is not None for c in self.children):
            _, type_fn = BUILTIN_FUNCTIONS[self.name]
            self.dtype = type_fn([c.dtype for c in self.children])

    def with_children(self, children):
        return FunctionCall(self.name, tuple(children))

    def eval(self, batch, ctx):
        fn, _ = BUILTIN_FUNCTIONS[self.name]
        arg_columns = [c.eval(batch, ctx) for c in self.children]
        if not arg_columns:
            return [fn() for _ in range(batch.num_rows)]
        return [fn(*row) for row in zip(*arg_columns)]

    def output_name(self) -> str:
        return f"{self.name}({', '.join(c.output_name() for c in self.children)})"

    def __str__(self):
        return f"{self.name}({', '.join(str(c) for c in self.children)})"


class PythonUDFCall(Expression):
    """A call to user Python code.

    ``is_user_code`` is True: this node is what the SecureView barrier and
    the sandbox dispatcher key off. Execution is delegated to the context's
    :class:`UDFRuntime`; fused results may already sit in ``ctx.udf_results``.
    """

    def __init__(self, udf: PythonUDF, args: tuple[Expression, ...]):
        super().__init__(args)
        self.udf = udf
        self.dtype = udf.return_type
        #: Fusion group assigned by the optimizer; None = not fused.
        self.fusion_group: int | None = None

    @property
    def is_user_code(self) -> bool:
        return True

    @property
    def deterministic(self) -> bool:
        return self.udf.deterministic and super().deterministic

    def with_children(self, children):
        clone = PythonUDFCall(self.udf, tuple(children))
        clone.fusion_group = self.fusion_group
        return clone

    def eval(self, batch, ctx):
        cached = ctx.udf_results.get(self.expr_id)
        if cached is not None:
            return cached
        arg_columns = [c.eval(batch, ctx) for c in self.children]
        runtime = ctx.udf_runtime or UDFRuntime()
        result = runtime.run_udf(self.udf, arg_columns)
        if len(result) != batch.num_rows:
            raise ExecutionError(
                f"UDF '{self.udf.name}' returned {len(result)} values for "
                f"{batch.num_rows} rows"
            )
        return result

    def output_name(self) -> str:
        return f"{self.udf.name}({', '.join(c.output_name() for c in self.children)})"

    def __str__(self):
        return f"pyudf:{self.output_name()}"


def conjuncts(condition: Expression) -> list[Expression]:
    """Top-level ``AND`` operands of ``condition``, left to right.

    A row passes ``a AND b`` exactly when it passes ``a`` and then ``b``,
    so callers may test the operands one after another — which keeps an
    upper stage's expressions (that may raise) away from rows a lower
    stage, e.g. the policy row filter, already rejected.
    """
    if isinstance(condition, BooleanOp) and condition.op == "AND":
        left, right = condition.children
        return conjuncts(left) + conjuncts(right)
    return [condition]


#: ``value op col`` read as ``col op' value``.
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def column_bound(part: Expression) -> tuple[BoundRef, str, Expression] | None:
    """``(column, op, other)`` of a ``col op other`` comparison (``= < <= >
    >=``, either operand order, read column first), or ``None``."""
    if not (isinstance(part, Comparison) and part.op in _MIRRORED):
        return None
    (column, other), op = part.children, part.op
    if not isinstance(column, BoundRef):
        column, other, op = other, column, _MIRRORED[op]
    return (column, op, other) if isinstance(column, BoundRef) else None


def conjoin(parts: Sequence[Expression]) -> Expression | None:
    """``parts`` joined left to right with ``AND`` (``None`` when empty) —
    the inverse of :func:`conjuncts`, keeping their evaluation order."""
    condition: Expression | None = None
    for part in parts:
        condition = part if condition is None else BooleanOp("AND", condition, part)
    return condition


def split_equi_condition(
    condition: Expression | None, left_width: int
) -> tuple[tuple[Expression, ...], tuple[Expression, ...], Expression | None]:
    """Split a conjunctive join condition into left-key = right-key pairs.

    Returns ``(left_keys, right_keys, residual)``: right keys bound against
    the right side's own columns, the residual against the combined layout.
    A condition with no equi pair (or none at all) keys both sides on the
    constant TRUE and is all residual. The planner splits a join this way
    at plan time, and MERGE matches on the same split.
    """
    left_keys: list[Expression] = []
    right_keys: list[Expression] = []
    residual: list[Expression] = []
    for conj in () if condition is None else conjuncts(condition):
        pair = None
        if isinstance(conj, Comparison) and conj.op == "=":
            a, b = conj.children
            a_refs, b_refs = a.references(), b.references()
            if a_refs and b_refs:
                if max(a_refs) < left_width <= min(b_refs):
                    pair = (a, b)
                elif max(b_refs) < left_width <= min(a_refs):
                    pair = (b, a)
        if pair is None:
            residual.append(conj)
        else:
            left_keys.append(pair[0])
            right_keys.append(shift_refs(pair[1], -left_width))
    if not left_keys:
        return (Literal(True),), (Literal(True),), condition
    return tuple(left_keys), tuple(right_keys), conjoin(residual)


def shift_refs(expr: Expression, delta: int) -> Expression:
    """``expr`` with every bound column position moved by ``delta``."""

    def shift(node: Expression) -> Expression:
        if isinstance(node, BoundRef):
            return BoundRef(node.index + delta, node.name, node.dtype)
        return node

    return expr.transform(shift)


# ---------------------------------------------------------------------------
# Sort order helper
# ---------------------------------------------------------------------------


@dataclass
class SortOrder:
    """One ORDER BY term."""

    expr: Expression
    ascending: bool = True
    nulls_first: bool = True

    def __str__(self):
        direction = "ASC" if self.ascending else "DESC"
        return f"{self.expr} {direction}"


def bind_expression(expr: Expression, schema: Schema) -> Expression:
    """Resolve all :class:`UnresolvedColumn` nodes against ``schema``."""

    def resolve(node: Expression) -> Expression:
        if isinstance(node, UnresolvedColumn):
            index = schema.field_index(node.name)
            field = schema[index]
            return BoundRef(index, field.name, field.dtype)
        if isinstance(node, (Arithmetic, FunctionCall)):
            # Re-run type binding now that children are resolved.
            return node.with_children(node.children)
        if isinstance(node, Alias) and node.dtype is None:
            return node.with_children(node.children)
        return node

    return expr.transform(resolve)
