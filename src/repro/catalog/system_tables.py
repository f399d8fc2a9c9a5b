"""The ``system.access.*`` registry: introspection declared as data.

Every system table is one :class:`SystemTable` entry in :data:`TABLES` —
name, schema, visibility and row source — so resolving one is a lookup and
*one* shared gate (:meth:`SystemTableRegistry.read`) instead of a resolver
method per table, each re-deriving who counts as an admin. Adding a table
is adding an entry.

Visibility is one of:

- :data:`ADMIN` — metastore admins only; a non-admin, and an admin whose
  context is down-scoped to a group, gets ``PermissionDenied``;
- :data:`USER_SCOPED` — everyone may read, but non-admins only receive
  their own rows.

Six of the tables share one ``(key, metric, value)`` shape and are fed by
the providers components register per scope (a cluster's plan cache, the
transaction manager, one attack scenario, …) through
:meth:`SystemTableRegistry.register_stats_provider`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.catalog.privileges import MANAGE, UserContext
from repro.engine.types import BOOL, FLOAT, STRING, Field, Schema
from repro.errors import PermissionDenied

if TYPE_CHECKING:
    from repro.catalog.metastore import UnityCatalog

ADMIN = "admin"
USER_SCOPED = "user-scoped"

#: The queryable audit log, like UC's system tables.
AUDIT = "system.access.audit"
#: Per-query span profiles; non-admins see only their own queries.
QUERY_PROFILE = "system.access.query_profile"
#: Hit/miss/size counters of every enforcement cache.
CACHE_STATS = "system.access.cache_stats"
#: Live admission-queue depths, wait times, shed counts and circuit-breaker
#: states.
WORKLOAD_STATS = "system.access.workload_stats"
#: Injected-fault trigger counts and recovery counters from the chaos engine
#: and every cluster's recovery layer.
FAULT_STATS = "system.access.fault_stats"
#: Persistence-tier counters — per-tier hits/misses/bytes, result-cache hits.
STORE_STATS = "system.access.store_stats"
#: Adversarial-gauntlet counters — per attack scenario, how often it ran and
#: whether the stack contained it or leaked. Any non-zero ``leaks`` row is a
#: broken security invariant, not a flaky test.
ATTACK_STATS = "system.access.attack_stats"
#: Transaction-tier counters — begun/committed/aborted, commit conflicts,
#: absorbed retries, crash-recovery repairs.
TXN_STATS = "system.access.txn_stats"

#: One statistics source: a flat ``metric -> value`` snapshot.
StatsProvider = Callable[[], dict[str, Any]]


@dataclass(frozen=True)
class SystemTable:
    """One declared ``system.access.*`` table."""

    name: str
    schema: Schema
    visibility: str
    #: ``rows(catalog, viewer)``: ``viewer`` is ``None`` for an admin (every
    #: row) or the user whose rows alone may be returned.
    rows: Callable[["UnityCatalog", "str | None"], list[tuple]]


def _audit_rows(catalog: "UnityCatalog", viewer: str | None) -> list[tuple]:
    return [
        (e.timestamp, e.principal, e.action, e.resource, e.allowed, str(e.details))
        for e in catalog.audit
    ]


def _query_profile_rows(catalog: "UnityCatalog", viewer: str | None) -> list[tuple]:
    return [
        (
            s.trace_id,
            s.span_id,
            s.parent_id or "",
            s.name,
            s.kind,
            s.user,
            s.start,
            s.duration * 1000.0,
            s.status,
            json.dumps(s.attributes, default=str, sort_keys=True),
        )
        for s in catalog.telemetry.spans(user=viewer)
    ]


def _stats_table(name: str, key_column: str) -> SystemTable:
    """An admin-only ``(key_column, metric, value)`` table over providers."""

    def rows(catalog: "UnityCatalog", viewer: str | None) -> list[tuple]:
        out: list[tuple] = []
        for scope, stats in catalog.system_tables.stats(name).items():
            for metric, value in sorted(stats.items()):
                try:
                    out.append((scope, metric, float(value)))
                except (TypeError, ValueError):
                    continue  # non-numeric provider fields are not metrics
        return out

    schema = Schema(
        (Field(key_column, STRING), Field("metric", STRING), Field("value", FLOAT))
    )
    return SystemTable(name, schema, ADMIN, rows)


#: Every ``system.access.*`` table: the single source of truth for the
#: resolver, the plan-cache / admission-lane bypass tests and README's
#: listing (diffed against this in tests/test_documentation.py).
TABLES: tuple[SystemTable, ...] = (
    SystemTable(
        AUDIT,
        Schema(
            (
                Field("event_time", FLOAT),
                Field("principal", STRING),
                Field("action", STRING),
                Field("resource", STRING),
                Field("allowed", BOOL),
                Field("details", STRING),
            )
        ),
        ADMIN,
        _audit_rows,
    ),
    SystemTable(
        QUERY_PROFILE,
        Schema(
            (
                Field("trace_id", STRING),
                Field("span_id", STRING),
                Field("parent_id", STRING),
                Field("name", STRING),
                Field("kind", STRING),
                Field("user", STRING),
                Field("start", FLOAT),
                Field("duration_ms", FLOAT),
                Field("status", STRING),
                Field("attributes", STRING),
            )
        ),
        USER_SCOPED,
        _query_profile_rows,
    ),
    _stats_table(CACHE_STATS, "cache"),
    _stats_table(WORKLOAD_STATS, "scope"),
    _stats_table(FAULT_STATS, "scope"),
    _stats_table(STORE_STATS, "scope"),
    _stats_table(ATTACK_STATS, "scenario"),
    _stats_table(TXN_STATS, "scope"),
)


class SystemTableRegistry:
    """One catalog's system tables: the declared entries, the stats
    providers registered against them, and the gate every read passes."""

    def __init__(self, catalog: "UnityCatalog"):
        self._catalog = catalog
        self._tables = {table.name: table for table in TABLES}
        #: table name -> scope -> provider (empty for non-stats tables).
        self._providers: dict[str, dict[str, StatsProvider]] = {
            name: {} for name in self._tables
        }

    def __iter__(self) -> Iterator[SystemTable]:
        return iter(self._tables.values())

    def get(self, name: str) -> SystemTable | None:
        return self._tables.get(name)

    def register_stats_provider(
        self, table: str, scope: str, provider: StatsProvider
    ) -> None:
        """Expose one component's counters as ``scope`` rows of ``table``."""
        self._providers[table][scope] = provider

    def unregister_stats_provider(
        self, table: str, scope: str, provider: StatsProvider
    ) -> None:
        """Drop ``scope`` from ``table`` — unless a newer component has since
        taken the scope over, in which case its provider stays."""
        if self._providers[table].get(scope) == provider:
            del self._providers[table][scope]

    def stats(self, table: str) -> dict[str, dict[str, Any]]:
        """Snapshot of every provider registered for ``table``, by scope."""
        return {
            scope: dict(provider())
            for scope, provider in sorted(self._providers[table].items())
        }

    def read(
        self, table: SystemTable, ctx: UserContext
    ) -> tuple[Schema, list[list[Any]]]:
        """The one gate: authorize ``ctx`` for ``table``, return its columns."""
        is_admin = self._catalog.is_admin(ctx)
        if table.visibility == ADMIN and not is_admin:
            raise PermissionDenied(ctx.user, MANAGE, table.name)
        rows = table.rows(self._catalog, None if is_admin else ctx.user)
        columns = [[row[i] for row in rows] for i in range(len(table.schema))]
        return table.schema, columns
