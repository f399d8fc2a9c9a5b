"""The Spark Connect DataFrame client (§3.2.1).

Deliberately *engine-free*: this module depends only on the wire format and
a channel. DataFrame operations accumulate an unresolved plan as protocol
messages; actions (``collect``, ``count``, ``show``) ship it to the service
and stream back result batches, transparently reattaching when the
connection drops.

Ephemeral Python UDFs are shipped inside the plan (cloudpickle), exactly as
PySpark does; on the server they run in the submitting user's trust-domain
sandbox, never in the engine.
"""

from __future__ import annotations

import uuid
from typing import Any, Callable, Sequence

import cloudpickle

from repro.common.datacodec import decode_data_file
from repro.connect import proto
from repro.connect.channel import Channel
from repro.connect.service import raise_from_message
from repro.errors import LakeguardError, ProtocolError, TransportError

#: How many times collect() re-attaches before giving up.
MAX_REATTACHES = 8


# ---------------------------------------------------------------------------
# Column DSL
# ---------------------------------------------------------------------------


class Column:
    """A client-side expression: a thin wrapper over an expression message."""

    def __init__(self, expr: dict[str, Any]):
        self.expr = expr

    # -- naming ---------------------------------------------------------------

    def alias(self, name: str) -> "Column":
        return Column(proto.alias(self.expr, name))

    def cast(self, type_name: str) -> "Column":
        return Column(proto.cast(self.expr, type_name))

    # -- arithmetic -------------------------------------------------------------

    def _binary(self, op: str, other: Any) -> "Column":
        # Spark semantics: non-Column operands of operators are literals
        # ('US' in col("region") == "US" is a string, not a column).
        return Column(proto.binary(op, self.expr, _to_literal_or_column(other)))

    def __add__(self, other):  # noqa: D105
        return self._binary("+", other)

    def __sub__(self, other):
        return self._binary("-", other)

    def __mul__(self, other):
        return self._binary("*", other)

    def __truediv__(self, other):
        return self._binary("/", other)

    def __mod__(self, other):
        return self._binary("%", other)

    def __radd__(self, other):
        return Column(proto.binary("+", _to_literal_or_column(other), self.expr))

    def __rmul__(self, other):
        return Column(proto.binary("*", _to_literal_or_column(other), self.expr))

    # -- comparisons --------------------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return self._binary("=", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._binary("!=", other)

    def __lt__(self, other):
        return self._binary("<", other)

    def __le__(self, other):
        return self._binary("<=", other)

    def __gt__(self, other):
        return self._binary(">", other)

    def __ge__(self, other):
        return self._binary(">=", other)

    # -- boolean ---------------------------------------------------------------

    def __and__(self, other):
        return self._binary("AND", other)

    def __or__(self, other):
        return self._binary("OR", other)

    def __invert__(self):
        return Column(proto.not_(self.expr))

    def is_null(self) -> "Column":
        return Column(proto.isnull(self.expr))

    def is_not_null(self) -> "Column":
        return Column(proto.isnull(self.expr, negated=True))

    def like(self, pattern: str) -> "Column":
        return Column(proto.like(self.expr, pattern))

    def not_like(self, pattern: str) -> "Column":
        return Column(proto.like(self.expr, pattern, negated=True))

    def isin(self, *values: Any) -> "Column":
        flat = values[0] if len(values) == 1 and isinstance(values[0], (list, tuple)) else values
        return Column(proto.in_list(self.expr, list(flat)))

    def __hash__(self):  # __eq__ overridden; keep Columns usable in sets
        return id(self)

    def __repr__(self):
        return f"Column({self.expr})"


def _to_expr(value: Any) -> dict[str, Any]:
    if isinstance(value, Column):
        return value.expr
    if isinstance(value, str):
        # Bare strings in expression positions are column names, as in Spark.
        return proto.column(value)
    return proto.literal(value)


def _to_literal_or_column(value: Any) -> dict[str, Any]:
    if isinstance(value, Column):
        return value.expr
    return proto.literal(value)


# -- public column constructors -------------------------------------------------


def col(name: str) -> Column:
    return Column(proto.column(name))


def lit(value: Any) -> Column:
    return Column(proto.literal(value))


def expr(sql_text: str) -> Column:
    """A SQL expression string, parsed server-side."""
    return Column(proto.sql_expr(sql_text))


def current_user() -> Column:
    return Column(proto.current_user())


def is_account_group_member(group: str) -> Column:
    return Column(proto.group_member(group))


def call_function(name: str, *args: Any) -> Column:
    return Column(proto.func(name, [_to_expr(a) for a in args]))


def when(condition: Column, value: Any) -> "CaseBuilder":
    return CaseBuilder([(condition.expr, _to_literal_or_column(value))])


class CaseBuilder:
    """Fluent CASE WHEN builder: ``when(c, v).when(...).otherwise(v)``."""

    def __init__(self, branches: list[tuple[dict, dict]]):
        self._branches = branches

    def when(self, condition: Column, value: Any) -> "CaseBuilder":
        return CaseBuilder(
            self._branches + [(condition.expr, _to_literal_or_column(value))]
        )

    def otherwise(self, value: Any) -> Column:
        return Column(proto.case_when(self._branches, _to_literal_or_column(value)))

    def end(self) -> Column:
        return Column(proto.case_when(self._branches, None))


# -- aggregates ------------------------------------------------------------------


def sum_(column: Any) -> Column:
    return Column(proto.agg("sum", _to_expr(column)))


def avg(column: Any) -> Column:
    return Column(proto.agg("avg", _to_expr(column)))


def min_(column: Any) -> Column:
    return Column(proto.agg("min", _to_expr(column)))


def max_(column: Any) -> Column:
    return Column(proto.agg("max", _to_expr(column)))


def count(column: Any = None) -> Column:
    return Column(proto.agg("count", None if column is None else _to_expr(column)))


def count_distinct(column: Any) -> Column:
    return Column(proto.agg("count", _to_expr(column), distinct_=True))


# -- UDFs -------------------------------------------------------------------------


class ConnectUDF:
    """A client-registered Python UDF; calling it builds a plan expression."""

    def __init__(self, func: Callable[..., Any], return_type: str,
                 name: str | None = None, deterministic: bool = True):
        self.func = func
        self.return_type = return_type
        self.name = name or func.__name__
        self.deterministic = deterministic
        self._blob = cloudpickle.dumps(func)

    def __call__(self, *args: Any) -> Column:
        return Column(
            proto.python_udf(
                self.name,
                self.return_type,
                self._blob,
                [_to_expr(a) for a in args],
                self.deterministic,
            )
        )


def udf(return_type: str, name: str | None = None, deterministic: bool = True):
    """Decorator: ``@udf("float")`` on the client side."""

    def wrap(func: Callable[..., Any]) -> ConnectUDF:
        return ConnectUDF(func, return_type, name, deterministic)

    return wrap


def catalog_function(name: str) -> Callable[..., Column]:
    """Reference a Unity Catalog UDF by three-level name."""

    def call(*args: Any) -> Column:
        return Column(proto.catalog_function(name, [_to_expr(a) for a in args]))

    return call


# ---------------------------------------------------------------------------
# DataFrame
# ---------------------------------------------------------------------------


class DataFrame:
    """An immutable, lazy plan of protocol messages."""

    def __init__(self, client: "SparkConnectClient", relation: dict[str, Any]):
        self._client = client
        self.relation = relation

    def _derive(self, relation: dict[str, Any]) -> "DataFrame":
        return DataFrame(self._client, relation)

    # -- transformations ---------------------------------------------------------

    def select(self, *columns: Any) -> "DataFrame":
        # NB: compare via isinstance first — Column overloads __eq__.
        exprs = [
            proto.star() if (isinstance(c, str) and c == "*") else _to_expr(c)
            for c in columns
        ]
        return self._derive(proto.project(self.relation, exprs))

    def filter(self, condition: Any) -> "DataFrame":
        cond = (
            proto.sql_expr(condition)
            if isinstance(condition, str)
            else _to_expr(condition)
        )
        return self._derive(proto.filter_relation(self.relation, cond))

    where = filter

    def with_column(self, name: str, column: Column) -> "DataFrame":
        exprs = [proto.star(), proto.alias(column.expr, name)]
        return self._derive(proto.project(self.relation, exprs))

    def join(self, other: "DataFrame", on: Any, how: str = "inner") -> "DataFrame":
        condition = None if how == "cross" else (
            proto.sql_expr(on) if isinstance(on, str) else _to_expr(on)
        )
        return self._derive(
            proto.join(self.relation, other.relation, how, condition)
        )

    def group_by(self, *keys: Any) -> "GroupedData":
        return GroupedData(self, [_to_expr(k) for k in keys])

    groupBy = group_by

    def order_by(self, *columns: Any, ascending: bool | Sequence[bool] = True) -> "DataFrame":
        """Sort by columns; ``ascending`` may be one flag or one per column."""
        flags = (
            list(ascending)
            if isinstance(ascending, (list, tuple))
            else [ascending] * len(columns)
        )
        orders = [
            {"expr": _to_expr(c), "ascending": bool(a), "nulls_first": bool(a)}
            for c, a in zip(columns, flags)
        ]
        return self._derive(proto.sort(self.relation, orders))

    orderBy = order_by

    def limit(self, n: int, offset: int = 0) -> "DataFrame":
        return self._derive(proto.limit(self.relation, n, offset))

    def distinct(self) -> "DataFrame":
        return self._derive(proto.distinct(self.relation))

    def union(self, other: "DataFrame") -> "DataFrame":
        return self._derive(proto.union([self.relation, other.relation]))

    def alias(self, name: str) -> "DataFrame":
        return self._derive(proto.subquery_alias(self.relation, name))

    # -- actions ---------------------------------------------------------------

    def collect(self) -> list[tuple]:
        schema, columns = self._client.execute_relation(self.relation)
        return list(zip(*columns)) if columns and columns[0] is not None else []

    def to_dict(self) -> dict[str, list[Any]]:
        schema, columns = self._client.execute_relation(self.relation)
        return {f["name"]: col_ for f, col_ in zip(schema, columns)}

    def count(self) -> int:
        agg_rel = proto.aggregate(
            self.relation, [], [proto.alias(proto.agg("count", None), "count")]
        )
        _, columns = self._client.execute_relation(agg_rel)
        return int(columns[0][0])

    def schema(self) -> list[dict[str, str]]:
        return self._client.analyze_relation(self.relation)

    def show(self, max_rows: int = 20) -> None:
        """Print an ASCII table of up to ``max_rows`` result rows."""
        schema, columns = self._client.execute_relation(self.relation)
        names = [f["name"] for f in schema]
        rows = list(zip(*columns))[:max_rows]
        widths = [
            max(len(n), *(len(str(r[i])) for r in rows)) if rows else len(n)
            for i, n in enumerate(names)
        ]
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        print(sep)
        print("|" + "|".join(f" {n:<{w}} " for n, w in zip(names, widths)) + "|")
        print(sep)
        for row in rows:
            print(
                "|"
                + "|".join(f" {str(v):<{w}} " for v, w in zip(row, widths))
                + "|"
            )
        print(sep)

    def create_temp_view(self, name: str) -> None:
        self._client.execute_command(
            proto.create_temp_view_command(name, self.relation)
        )

    createOrReplaceTempView = create_temp_view


class GroupedData:
    """Result of ``df.group_by(...)``; finish with ``agg``."""

    def __init__(self, df: DataFrame, groupings: list[dict[str, Any]]):
        self._df = df
        self._groupings = groupings

    def agg(self, *aggregates: Column) -> DataFrame:
        outputs = list(self._groupings) + [a.expr for a in aggregates]
        return self._df._derive(
            proto.aggregate(self._df.relation, self._groupings, outputs)
        )

    def count(self) -> DataFrame:
        return self.agg(Column(proto.alias(proto.agg("count", None), "count")))


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class SparkConnectClient:
    """A remote Spark session speaking the Connect protocol over a channel."""

    def __init__(
        self,
        channel: Channel,
        user: str,
        client_version: int = proto.PROTOCOL_VERSION,
        config: dict[str, str] | None = None,
    ):
        self._channel = channel
        self.user = user
        self.client_version = client_version
        response = self._call(
            "create_session",
            {
                "user": user,
                "client_version": client_version,
                "config": config or {},
            },
        )
        self.session_id = response["session_id"]
        self.server_version = response["server_version"]
        #: Trace id of the most recent execute_plan (for profile lookups).
        self.last_trace_id: str | None = None
        #: When set, every execute carries this per-query deadline (another
        #: protocol extension field; old servers ignore it). The workload
        #: manager rejects up front if the admission queue alone would
        #: exceed it.
        self.deadline_seconds: float | None = None

    # -- plumbing ---------------------------------------------------------------

    def _call(self, method: str, request: dict[str, Any]) -> dict[str, Any]:
        response = self._channel.call(method, request)
        raise_from_message(response)
        return response

    def _base_request(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "user": self.user,
            "client_version": self.client_version,
        }

    def _execute_stream(self, plan: dict[str, Any]) -> list[dict[str, Any]]:
        """Run execute_plan, transparently reattaching on transport faults."""
        operation_id = f"op-{uuid.uuid4().hex[:12]}"
        # Client-generated trace id, sent as a protocol extension field so the
        # server-side trace tree is addressable from the client.
        trace_id = f"trace-{uuid.uuid4().hex[:16]}"
        self.last_trace_id = trace_id
        request = {
            **self._base_request(),
            "plan": plan,
            "operation_id": operation_id,
            "trace_id": trace_id,
        }
        if self.deadline_seconds is not None:
            request["deadline_seconds"] = self.deadline_seconds
        received: list[dict[str, Any]] = []
        attempts = 0
        stream = self._channel.call_stream("execute_plan", request)
        while True:
            try:
                for item in stream:
                    raise_from_message(item)
                    received.append(item)
                    if item.get("@type") == "result_complete":
                        self._call(
                            "release_execute",
                            {**self._base_request(), "operation_id": operation_id},
                        )
                        return received
                # Stream ended without completion marker.
                raise ProtocolError("result stream ended prematurely")
            except TransportError:
                attempts += 1
                if attempts > MAX_REATTACHES:
                    raise
                stream = self._channel.call_stream(
                    "reattach_execute",
                    {
                        **self._base_request(),
                        "operation_id": operation_id,
                        "last_index": len(received) - 1,
                    },
                )

    def execute_relation(
        self, relation: dict[str, Any]
    ) -> tuple[list[dict[str, str]], list[list[Any]]]:
        """Execute and reassemble the streamed batches into columns."""
        items = self._execute_stream(relation)
        schema: list[dict[str, str]] = []
        columns: list[list[Any]] = []
        for item in items:
            kind = item.get("@type")
            if kind == "schema":
                schema = item["schema"]
                columns = [[] for _ in schema]
            elif kind == "arrow_batch":
                chunks = (
                    _decode_frame(item["data"], len(columns))
                    if "data" in item
                    else item["columns"]
                )
                for i, chunk in enumerate(chunks):
                    columns[i].extend(chunk)
        return schema, columns

    def execute_command(self, command: dict[str, Any]) -> dict[str, Any]:
        items = self._execute_stream(command)
        for item in items:
            if item.get("@type") == "command_result":
                return item.get("payload", {})
        return {}

    def analyze_relation(self, relation: dict[str, Any]) -> list[dict[str, str]]:
        response = self._call(
            "analyze_plan", {**self._base_request(), "plan": relation}
        )
        return response["schema"]

    # -- session surface -----------------------------------------------------------

    def table(self, name: str) -> DataFrame:
        return DataFrame(self, proto.read_table(name))

    def sql(self, query: str) -> DataFrame | dict[str, Any]:
        """Run SQL. SELECT queries return a DataFrame; DDL/DML executes now."""
        stripped = query.lstrip().lower()
        if stripped.startswith("select"):
            return DataFrame(self, proto.sql_relation(query))
        return self.execute_command(proto.sql_command(query))

    def range(self, start: int, end: int | None = None, step: int = 1) -> DataFrame:
        if end is None:
            start, end = 0, start
        return DataFrame(self, proto.range_relation(start, end, step))

    def create_data_frame(
        self, data: dict[str, list[Any]], types: dict[str, str] | None = None
    ) -> DataFrame:
        """Build a DataFrame from local columns (``createDataFrame``)."""
        schema = [
            {"name": name, "type": (types or {}).get(name, _infer_type(values))}
            for name, values in data.items()
        ]
        return DataFrame(
            self, proto.local_relation(schema, [list(v) for v in data.values()])
        )

    def register_udf(self, udf_obj: "ConnectUDF") -> None:
        """Register a temporary UDF under its name for this session's SQL.

        After registration, SQL text may call it: ``SELECT my_udf(v) FROM t``.
        The code runs in this user's trust-domain sandbox like any other UDF.
        """
        self.execute_command(
            proto.register_function_command(
                udf_obj.name,
                udf_obj.return_type,
                udf_obj._blob,
                udf_obj.deterministic,
            )
        )

    def set_config(self, **values: str) -> None:
        self._call("config", {**self._base_request(), "set": values})

    def get_config(self, *keys: str) -> dict[str, str | None]:
        response = self._call("config", {**self._base_request(), "get": list(keys)})
        return response["values"]

    def interrupt(self, operation_id: str) -> None:
        self._call(
            "interrupt", {**self._base_request(), "operation_id": operation_id}
        )

    def close(self) -> None:
        try:
            self._call("close_session", self._base_request())
        except LakeguardError:
            pass

    def __enter__(self) -> "SparkConnectClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _decode_frame(data: Any, width: int) -> list[list[Any]]:
    """One binary result frame -> its ``width`` columns, decoded as data.

    The frame is the column-chunked layout keyed by column position; any
    malformed frame (or one naming a global) is a :class:`ProtocolError`.
    """
    if not isinstance(data, bytes):
        raise ProtocolError(f"result frame must be bytes, got {type(data).__name__}")
    decoded = decode_data_file(data, None, "result frame", ProtocolError)
    if list(decoded) != [str(i) for i in range(width)]:
        raise ProtocolError(
            f"result frame columns {list(decoded)} do not match a {width}-column schema"
        )
    return list(decoded.values())


def _infer_type(values: list[Any]) -> str:
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, int):
            return "int"
        if isinstance(value, float):
            return "float"
        if isinstance(value, (bytes, bytearray)):
            return "binary"
        return "string"
    return "string"
