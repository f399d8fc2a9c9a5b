"""Aggregate functions with a partial/final split.

The split matters for eFGAC (§3.4): the optimizer pushes *partial*
aggregations into the remote scan executed by Serverless Spark, and the
origin cluster runs the *final* merge — so aggregate states, not raw rows,
cross the wire.

Each function is defined by four steps over its state objects::

    state = create()            # identity
    state = update(state, v)    # fold one non-NULL input value
    state = merge(a, b)         # combine two partial states
    value = final(state)        # produce the SQL result

States cross as plain data (``state_to_data`` / ``state_from_data``: a
number, avg's ``(sum, count)``, a sorted ``count(DISTINCT)`` list) and can
come back through the eFGAC staging bucket, so ``state_from_data`` checks
the shape and decodes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.expressions import Expression
from repro.engine.types import FLOAT, INT, DataType
from repro.errors import AnalysisError, ExecutionError

#: Values a min / max state (a column value) may hold.
_SCALARS = (type(None), bool, int, float, str, bytes)


def _from_data(what: str, ok: Callable[[Any], bool], convert: Callable | None = None):
    """A ``state_from_data`` that refuses data not of the state's shape."""

    def check(value: Any) -> Any:
        if not ok(value):
            raise ExecutionError(
                f"partial aggregate state is not {what}: {type(value).__name__}"
            )
        return convert(value) if convert else value

    return check


@dataclass(frozen=True)
class AggregateFunction:
    """One aggregate's algebra plus its result-type rule."""

    name: str
    create: Callable[[], Any]
    update: Callable[[Any, Any], Any]
    merge: Callable[[Any, Any], Any]
    final: Callable[[Any], Any]
    result_type: Callable[[DataType | None], DataType]
    #: The state as plain data for the partial → final exchange, and back.
    state_to_data: Callable[[Any], Any] = lambda s: s
    state_from_data: Callable[[Any], Any] = _from_data(
        "a value", lambda v: type(v) in _SCALARS
    )
    #: COUNT counts rows even when the input expression is NULL.
    ignores_nulls: bool = True


def _avg_final(state: tuple[float, int]) -> float | None:
    total, count = state
    return total / count if count else None


AGGREGATE_FUNCTIONS: dict[str, AggregateFunction] = {
    "count": AggregateFunction(
        name="count",
        create=lambda: 0,
        update=lambda s, v: s + 1,
        merge=lambda a, b: a + b,
        final=lambda s: s,
        result_type=lambda t: INT,
        state_from_data=_from_data("a count", lambda v: type(v) is int),
    ),
    "sum": AggregateFunction(
        name="sum",
        create=lambda: None,
        update=lambda s, v: v if s is None else s + v,
        merge=lambda a, b: b if a is None else (a if b is None else a + b),
        final=lambda s: s,
        result_type=lambda t: t or FLOAT,
        state_from_data=_from_data(
            "a number or NULL", lambda v: type(v) in (type(None), bool, int, float)
        ),
    ),
    "min": AggregateFunction(
        name="min",
        create=lambda: None,
        update=lambda s, v: v if s is None else min(s, v),
        merge=lambda a, b: b if a is None else (a if b is None else min(a, b)),
        final=lambda s: s,
        result_type=lambda t: t or FLOAT,
    ),
    "max": AggregateFunction(
        name="max",
        create=lambda: None,
        update=lambda s, v: v if s is None else max(s, v),
        merge=lambda a, b: b if a is None else (a if b is None else max(a, b)),
        final=lambda s: s,
        result_type=lambda t: t or FLOAT,
    ),
    "avg": AggregateFunction(
        name="avg",
        create=lambda: (0.0, 0),
        update=lambda s, v: (s[0] + v, s[1] + 1),
        merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        final=_avg_final,
        result_type=lambda t: FLOAT,
        state_from_data=_from_data(
            "a (sum, count) pair",
            lambda v: type(v) in (tuple, list) and len(v) == 2
            and type(v[0]) in (int, float) and type(v[1]) is int,
            tuple,
        ),
    ),
    "count_distinct": AggregateFunction(
        name="count_distinct",
        create=frozenset,
        update=lambda s, v: s | {v},
        merge=lambda a, b: a | b,
        final=len,
        result_type=lambda t: INT,
        state_to_data=sorted,
        state_from_data=_from_data(
            "a list of values",
            lambda v: type(v) is list and all(type(x) in _SCALARS for x in v),
            frozenset,
        ),
    ),
}


class AggregateCall(Expression):
    """One aggregate invocation in an Aggregate plan node.

    ``child`` may be ``None`` for ``COUNT(*)``. This expression never
    evaluates row-wise; the hash-aggregate operator interprets it.
    """

    def __init__(
        self,
        func_name: str,
        child: Expression | None,
        distinct: bool = False,
    ):
        lowered = func_name.lower()
        if distinct and lowered == "count":
            lowered = "count_distinct"
        if lowered not in AGGREGATE_FUNCTIONS:
            raise AnalysisError(
                f"unknown aggregate '{func_name}'; "
                f"supported: {sorted(AGGREGATE_FUNCTIONS)}"
            )
        super().__init__((child,) if child is not None else ())
        self.func_name = lowered
        self.distinct = distinct
        self._bind_type()

    def _bind_type(self) -> None:
        func = AGGREGATE_FUNCTIONS[self.func_name]
        child_type = self.children[0].dtype if self.children else None
        if not self.children or child_type is not None:
            self.dtype = func.result_type(child_type)

    @property
    def func(self) -> AggregateFunction:
        return AGGREGATE_FUNCTIONS[self.func_name]

    @property
    def child(self) -> Expression | None:
        return self.children[0] if self.children else None

    def with_children(self, children):
        return AggregateCall(self.func_name, children[0] if children else None,
                             distinct=self.distinct)

    def eval(self, batch, ctx):
        raise AnalysisError(
            f"aggregate '{self.func_name}' used outside GROUP BY context"
        )

    def output_name(self) -> str:
        arg = self.child.output_name() if self.child is not None else "*"
        prefix = "count" if self.func_name == "count_distinct" else self.func_name
        inner = f"DISTINCT {arg}" if self.distinct else arg
        return f"{prefix}({inner})"

    def __str__(self):
        return self.output_name()


def is_aggregate_expression(expr: Expression) -> bool:
    """True if the tree contains any AggregateCall."""
    return any(isinstance(node, AggregateCall) for node in expr.walk())
