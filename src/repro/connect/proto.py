"""The Spark Connect wire format: JSON envelope + binary column frames; version-gated.

Messages are dict trees with an ``@type`` discriminator, encoded to bytes by
the C ``json`` encoder in one call; binary values travel as
``{"@bytes": <base64>}`` (the encoder's ``default`` hook wraps them, the
decoder's ``object_hook`` unwraps them, and a malformed wrapper is a
:class:`~repro.errors.ProtocolError`). No Python function runs per value.

Result batches (``arrow_batch``, the Arrow IPC stand-in) carry their rows in
one binary ``data`` field: a frame in the column-chunked layout data files
use (:mod:`repro.common.datacodec`), keyed by column position, decoded by
the client with the data-only unpickler. Clients older than
:data:`RESULT_FRAME_VERSION` get the rows as JSON ``columns`` instead; the
server decides per session, from the version the client announced.

Two protobuf properties the paper's versionless story (§6.3) depends on are
preserved:

- **forward compatibility** — decoders access known keys and ignore unknown
  ones, so an older server tolerates messages with newer optional fields;
- **version negotiation** — every request carries ``client_version``; a
  server accepts any client at or below its own ``PROTOCOL_VERSION``.

Extension points (§3.2.2): ``relation.extension`` / ``command.extension``
carry a namespaced name plus an opaque payload; servers dispatch them through
a registry, so plugins (e.g. a Delta extension) extend the protocol without
modifying it.
"""

from __future__ import annotations

import base64
import binascii
import json
import re
from collections import OrderedDict
from typing import Any, Callable, Container, NamedTuple

from repro.errors import LakeguardError, ProtocolError, VersionIncompatibleError

#: Current protocol version of this library build.
PROTOCOL_VERSION = 5

#: Oldest client version the server still understands.
MIN_SUPPORTED_CLIENT_VERSION = 1

#: First client version whose result batches arrive as binary ``data``
#: frames; older sessions get JSON ``columns``.
RESULT_FRAME_VERSION = 5


# ---------------------------------------------------------------------------
# Byte-level encoding
# ---------------------------------------------------------------------------


def _wrap_bytes(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {"@bytes": base64.b64encode(value).decode("ascii")}
    raise TypeError(f"{type(value).__name__} is not wire-serializable")


def _unwrap_bytes(obj: dict[str, Any]) -> Any:
    if len(obj) != 1 or "@bytes" not in obj:
        return obj
    text = obj["@bytes"]
    if not isinstance(text, str):
        raise ProtocolError(f"'@bytes' must be a base64 string, got {type(text).__name__}")
    try:
        return base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ProtocolError(f"'@bytes' is not valid base64: {exc}") from None


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize a message tree to wire bytes."""
    try:
        return json.dumps(message, default=_wrap_bytes).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not wire-serializable: {exc}") from exc


def decode_message(data: bytes) -> dict[str, Any]:
    """Deserialize wire bytes into a message tree."""
    try:
        decoded = json.loads(data.decode("utf-8"), object_hook=_unwrap_bytes)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed wire message: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ProtocolError("wire message must be an object")
    return decoded


def check_client_version(client_version: int, server_version: int = PROTOCOL_VERSION) -> None:
    """Enforce backward (not forward) compatibility."""
    if client_version > server_version:
        raise VersionIncompatibleError(
            f"client protocol version {client_version} is newer than the "
            f"server's {server_version}"
        )
    if client_version < MIN_SUPPORTED_CLIENT_VERSION:
        raise VersionIncompatibleError(
            f"client protocol version {client_version} is no longer supported "
            f"(minimum {MIN_SUPPORTED_CLIENT_VERSION})"
        )


def message_type(message: dict[str, Any]) -> str:
    try:
        return message["@type"]
    except (KeyError, TypeError):
        raise ProtocolError(f"message lacks '@type': {message!r}") from None


def is_command(plan: dict[str, Any]) -> bool:
    return message_type(plan).startswith("command.")


def references_system_tables(obj: Any) -> bool:
    """True if any string in the wire plan *mentions* ``system.`` — a
    deliberately over-broad substring scan (it matches inside SQL string
    literals too).

    Only safe for the plan cache's conservative bypass: system tables
    materialize at resolve time, so cached secure plans would freeze them,
    and a false positive merely skips caching one plan. Never use this for
    admission/privilege decisions — use :func:`referenced_tables`, which
    resolves table references structurally and cannot be spoofed by data.
    """
    if isinstance(obj, dict):
        return any(references_system_tables(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(references_system_tables(v) for v in obj)
    return isinstance(obj, str) and _SYSTEM_REF.search(obj) is not None


#: ``system.`` as a qualified-name head: either the whole string is a table
#: name (``system.access.x``) or it appears inside SQL text (``FROM
#: system.access.x``). The look-behind excludes longer identifiers
#: (``ecosystem.x``) and deeper qualifications (``cat.system.x``).
_SYSTEM_REF = re.compile(r"(?:^|[^\w.])system\.")


#: SQL templates whose resolved references one session remembers.
REFERENCE_MEMO_ENTRIES = 64

#: ``(sql text, out) -> resolvable``: adds the text's tables to ``out``.
_SqlTables = Callable[[Any, "set[str]"], bool]

#: What classifies a table name as a system table: the catalog's
#: :class:`~repro.catalog.system_tables.SystemTableRegistry` (``name in``).
SystemTables = Container[str]


class PlanReferences(NamedTuple):
    """One operation's structural table references, resolved once.

    The Connect service builds this per operation and hands it (on the
    operation's :class:`~repro.common.context.QueryContext`) to both the
    admission-lane classifier and the plan-cache bypass, so neither parses
    the plan's SQL again.
    """

    #: The wire plan these references were resolved from.
    plan: dict[str, Any]
    #: Table names, or ``None`` when the plan resists structural resolution.
    tables: frozenset[str] | None
    #: SQL text -> the AST parsed (``lifted``: predicate literals are
    #: parameters) while resolving it. The decoder *takes* an entry instead
    #: of re-parsing; the mutable AST never outlives the operation (the
    #: per-session memo holds only the immutable names).
    statements: dict[str, Any]
    #: SQL text -> its ``lift_literals`` template and values, computed once
    #: per operation for the memo key and reused by the plan cache.
    sql_lifts: dict[str, tuple]

    def all_system_tables(self, system_tables: SystemTables) -> bool:
        """Provably an introspection read: every reference is a system table."""
        return bool(self.tables) and all(t in system_tables for t in self.tables)

    def targets_system_tables(self, system_tables: SystemTables) -> bool:
        """Does the plan read any system table — structurally when possible.

        The plan cache uses this to decide the caching bypass (system tables
        materialize at resolve time; caching would freeze their rows and their
        per-user admin gating). Classification matches the admission lane's:
        the actual table references are looked up in the catalog's registry,
        so neither a ``system.`` substring inside a string literal nor an
        ordinary table an admin created under a ``system`` catalog is treated
        as introspection. Only when the plan resists structural resolution
        does the over-broad :func:`references_system_tables` substring scan
        decide — the conservative direction for a cache bypass.
        """
        if self.tables is not None:
            return any(t in system_tables for t in self.tables)
        return references_system_tables(self.plan)


def resolve_references(
    plan: dict[str, Any], memo: OrderedDict[tuple, frozenset[str] | None] | None = None
) -> PlanReferences:
    """Resolve ``plan``'s references, keeping the ASTs parsed on the way."""
    statements: dict[str, Any] = {}
    sql_lifts: dict[str, tuple] = {}
    tables = referenced_tables(plan, memo, statements, sql_lifts)
    return PlanReferences(plan, tables, statements, sql_lifts)


def referenced_tables(
    plan: dict[str, Any],
    memo: OrderedDict[tuple, frozenset[str] | None] | None = None,
    statements: dict[str, Any] | None = None,
    sql_lifts: dict[str, tuple] | None = None,
) -> frozenset[str] | None:
    """The table names a wire plan structurally references, or ``None``.

    Collects ``relation.read``/``command.write_table`` targets and parses
    SQL text (``relation.sql``/``command.sql``) into its AST to take the
    FROM/JOIN/INSERT table names — string *literals* are never inspected,
    so embedding a table name in data cannot forge a reference. Returns
    ``None`` whenever any part of the plan resists structural resolution
    (opaque extension payloads, raw ``expr.sql`` fragments, unparseable or
    non-query SQL): callers must treat ``None`` as "unknown", not "none".

    The workload manager's lane detection keys off this: only a plan whose
    references are provably all registered system tables rides the
    always-admitted system lane.

    ``memo`` (one session's, never shared across principals) remembers the
    outcome per SQL *template* (``lift_literals``): table names come only
    from identifier tokens, so a text that differs from a remembered one in
    its literals alone is not parsed at all. ``statements`` receives the
    (lifted) AST of every text that was, ``sql_lifts`` every text's template.
    """
    # Imported lazily: the SQL front-end sits above this wire module.
    from repro.sql.lexer import lift_literals

    def sql_tables(text: Any, out: set[str]) -> bool:
        """Add the tables ``text`` references to ``out``; False = unresolvable."""
        if not isinstance(text, str):
            return False
        try:
            lifted = lift_literals(text)
        except LakeguardError:
            return False
        if sql_lifts is not None:
            sql_lifts[text] = lifted
        template = lifted[0]
        if memo is not None and template in memo:
            names = memo[template]
        else:
            names = parse(text)
            if memo is not None:
                memo[template] = names
                if len(memo) > REFERENCE_MEMO_ENTRIES:
                    memo.popitem(last=False)
        out.update(names or ())
        return names is not None

    def parse(text: str) -> frozenset[str] | None:
        from repro.sql.parser import parse_statement

        try:
            statement = parse_statement(text, True)
        except LakeguardError:
            return None
        if statements is not None:
            statements[text] = statement
        found: set[str] = set()
        resolved = _collect_statement_tables(statement, found, sql_tables)
        return frozenset(found) if resolved else None

    tables: set[str] = set()
    return frozenset(tables) if _collect_tables(plan, tables, sql_tables) else None


def _collect_tables(obj: Any, out: set[str], sql_tables: _SqlTables) -> bool:
    """Walk a wire tree collecting table names; False = unresolvable."""
    if isinstance(obj, dict):
        mtype = obj.get("@type")
        if mtype in ("relation.read", "command.write_table"):
            name = obj.get("table")
            if not isinstance(name, str):
                return False
            out.add(name)
            return True
        if mtype in ("relation.sql", "command.sql"):
            return sql_tables(obj.get("query" if mtype == "relation.sql" else "sql"), out)
        if mtype in ("relation.extension", "command.extension", "expr.sql"):
            return False
        return all(_collect_tables(v, out, sql_tables) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_collect_tables(v, out, sql_tables) for v in obj)
    return True  # scalars — including string literals — reference nothing


def _collect_statement_tables(statement: Any, out: set[str], sql_tables: _SqlTables) -> bool:
    from repro.sql import ast_nodes as ast

    if isinstance(statement, ast.UnionStatement):
        return all(_collect_statement_tables(s, out, sql_tables) for s in statement.inputs)
    if isinstance(statement, ast.SelectStatement):
        sources = [j.source for j in statement.joins]
        if statement.source is not None:
            sources.append(statement.source)
        for source in sources:
            if isinstance(source, ast.TableSource):
                out.add(source.name)
            elif isinstance(source, ast.SubquerySource):
                if not _collect_statement_tables(source.query, out, sql_tables):
                    return False
            else:
                return False
        return True
    if isinstance(statement, ast.InsertStatement):
        out.add(statement.table)
        if statement.query_sql is not None:
            return sql_tables(statement.query_sql, out)
        return True
    if isinstance(statement, (ast.UpdateStatement, ast.DeleteStatement)):
        out.add(statement.table)
        return True
    if isinstance(statement, ast.MergeStatement):
        out.add(statement.target)
        out.add(statement.source)
        return True
    # DDL/DCL/introspection statements: not structurally resolvable here,
    # and never candidates for the system lane anyway.
    return False


def is_relation(plan: dict[str, Any]) -> bool:
    return message_type(plan).startswith("relation.")


# ---------------------------------------------------------------------------
# Relation constructors (shared by client and tests; the server only reads)
# ---------------------------------------------------------------------------


def read_table(name: str) -> dict[str, Any]:
    return {"@type": "relation.read", "table": name}


def sql_relation(query: str) -> dict[str, Any]:
    return {"@type": "relation.sql", "query": query}


def local_relation(schema: list[dict[str, str]], columns: list[list[Any]]) -> dict[str, Any]:
    return {"@type": "relation.local", "schema": schema, "columns": columns}


def range_relation(start: int, end: int, step: int = 1) -> dict[str, Any]:
    return {"@type": "relation.range", "start": start, "end": end, "step": step}


def project(input_rel: dict, expressions: list[dict]) -> dict[str, Any]:
    return {"@type": "relation.project", "input": input_rel, "expressions": expressions}


def filter_relation(input_rel: dict, condition: dict) -> dict[str, Any]:
    return {"@type": "relation.filter", "input": input_rel, "condition": condition}


def join(left: dict, right: dict, how: str, condition: dict | None) -> dict[str, Any]:
    """Join relation; ``condition`` is None only for cross joins."""
    return {
        "@type": "relation.join",
        "left": left,
        "right": right,
        "how": how,
        "condition": condition,
    }


def aggregate(input_rel: dict, groupings: list[dict], aggregates: list[dict]) -> dict[str, Any]:
    return {
        "@type": "relation.aggregate",
        "input": input_rel,
        "groupings": groupings,
        "aggregates": aggregates,
    }


def sort(input_rel: dict, orders: list[dict]) -> dict[str, Any]:
    return {"@type": "relation.sort", "input": input_rel, "orders": orders}


def limit(input_rel: dict, n: int, offset: int = 0) -> dict[str, Any]:
    return {"@type": "relation.limit", "input": input_rel, "limit": n, "offset": offset}


def distinct(input_rel: dict) -> dict[str, Any]:
    return {"@type": "relation.distinct", "input": input_rel}


def union(inputs: list[dict]) -> dict[str, Any]:
    return {"@type": "relation.union", "inputs": inputs}


def subquery_alias(input_rel: dict, alias: str) -> dict[str, Any]:
    return {"@type": "relation.subquery_alias", "input": input_rel, "alias": alias}


def relation_extension(name: str, payload: dict[str, Any]) -> dict[str, Any]:
    return {"@type": "relation.extension", "name": name, "payload": payload}


# ---------------------------------------------------------------------------
# Expression constructors
# ---------------------------------------------------------------------------


def literal(value: Any) -> dict[str, Any]:
    return {"@type": "expr.literal", "value": value}


def column(name: str) -> dict[str, Any]:
    return {"@type": "expr.column", "name": name}


def star(qualifier: str | None = None) -> dict[str, Any]:
    return {"@type": "expr.star", "qualifier": qualifier}


def alias(child: dict, name: str) -> dict[str, Any]:
    return {"@type": "expr.alias", "child": child, "name": name}


def binary(op: str, left: dict, right: dict) -> dict[str, Any]:
    return {"@type": "expr.binary", "op": op, "left": left, "right": right}


def not_(child: dict) -> dict[str, Any]:
    return {"@type": "expr.not", "child": child}


def isnull(child: dict, negated: bool = False) -> dict[str, Any]:
    return {"@type": "expr.isnull", "child": child, "negated": negated}


def in_list(child: dict, values: list[Any], negated: bool = False) -> dict[str, Any]:
    return {"@type": "expr.in", "child": child, "values": values, "negated": negated}


def like(child: dict, pattern: str, negated: bool = False) -> dict[str, Any]:
    return {"@type": "expr.like", "child": child, "pattern": pattern, "negated": negated}


def case_when(branches: list[tuple[dict, dict]], otherwise: dict | None) -> dict[str, Any]:
    return {
        "@type": "expr.case",
        "branches": [[c, v] for c, v in branches],
        "otherwise": otherwise,
    }


def cast(child: dict, to: str) -> dict[str, Any]:
    return {"@type": "expr.cast", "child": child, "to": to}


def func(name: str, args: list[dict]) -> dict[str, Any]:
    return {"@type": "expr.func", "name": name, "args": args}


def agg(name: str, child: dict | None, distinct_: bool = False) -> dict[str, Any]:
    return {"@type": "expr.agg", "name": name, "child": child, "distinct": distinct_}


def current_user() -> dict[str, Any]:
    return {"@type": "expr.current_user"}


def group_member(group: str) -> dict[str, Any]:
    return {"@type": "expr.group_member", "group": group}


def sql_expr(text: str) -> dict[str, Any]:
    return {"@type": "expr.sql", "text": text}


def python_udf(
    name: str,
    return_type: str,
    func_blob: bytes,
    args: list[dict],
    deterministic: bool = True,
) -> dict[str, Any]:
    """An *ephemeral* UDF: the client ships the pickled function itself."""
    return {
        "@type": "expr.python_udf",
        "name": name,
        "return_type": return_type,
        "func_blob": func_blob,
        "args": args,
        "deterministic": deterministic,
    }


def catalog_function(name: str, args: list[dict]) -> dict[str, Any]:
    """A call to a Unity-Catalog function, resolved and checked server-side."""
    return {"@type": "expr.catalog_function", "name": name, "args": args}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def sql_command(sql: str) -> dict[str, Any]:
    return {"@type": "command.sql", "sql": sql}


def write_table_command(
    table: str, columns: dict[str, list[Any]], overwrite: bool = False
) -> dict[str, Any]:
    """Write local column data into a governed table (INSERT path)."""
    return {
        "@type": "command.write_table",
        "table": table,
        "columns": columns,
        "overwrite": overwrite,
    }


def create_temp_view_command(name: str, relation: dict[str, Any]) -> dict[str, Any]:
    return {"@type": "command.create_temp_view", "name": name, "relation": relation}


def register_function_command(
    name: str, return_type: str, func_blob: bytes, deterministic: bool = True
) -> dict[str, Any]:
    """Register a session-temporary UDF so SQL text can call it by name."""
    return {
        "@type": "command.register_function",
        "name": name,
        "return_type": return_type,
        "func_blob": func_blob,
        "deterministic": deterministic,
    }


def command_extension(name: str, payload: dict[str, Any]) -> dict[str, Any]:
    return {"@type": "command.extension", "name": name, "payload": payload}
