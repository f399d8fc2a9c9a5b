"""The governed relation resolver: where FGAC is injected (§3.4, Fig. 8).

When the analyzer resolves a relation name, this resolver:

1. authorizes the access against Unity Catalog (SELECT plus namespace
   privileges) under the *acting* context — the querying user at the top
   level, the view **owner** inside view bodies (definer rights);
2. for tables, injects the row filter (``Filter``) and column masks
   (``Project``) beneath a :class:`~repro.engine.logical.SecureView`
   barrier, so no unsafe expression can later be pushed below the policy;
3. for views, parses the definition, resolves it recursively with the
   owner's privileges, and wraps it in a ``SecureView``;
4. for relations annotated ``requires_external_fgac`` (privileged compute),
   emits a :class:`~repro.engine.logical.RemoteScan` leaf instead — the
   compute never receives policy details or storage credentials.

``system.access.*`` names never reach those steps: they resolve through the
catalog's :mod:`~repro.catalog.system_tables` registry and its one gate.

``CURRENT_USER()`` / ``IS_ACCOUNT_GROUP_MEMBER()`` inside policies and view
bodies still evaluate against the *querying* session at run time; only
privilege checks use definer rights. That is exactly Unity Catalog's
dynamic-view semantics.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.catalog.metastore import RelationMetadata, UnityCatalog
from repro.catalog.privileges import UserContext
from repro.catalog.scopes import (
    ANNOTATION_REQUIRES_EXTERNAL_FGAC,
    ComputeCapabilities,
)
from repro.common.context import current_context
from repro.engine.analyzer import Analyzer
from repro.engine.expressions import Alias, UnresolvedColumn
from repro.engine.logical import (
    Filter,
    LocalRelation,
    LogicalPlan,
    Project,
    RemoteScan,
    Scan,
    SecureView,
    TableRef,
)
from repro.engine.types import Schema
from repro.engine.udf import PythonUDF
from repro.errors import AnalysisError, SecurableNotFound
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement
from repro.sql.to_plan import PlanBuilder

#: Resolves a relation's output schema via the remote endpoint when the
#: local compute is not allowed to know anything beyond "it exists".
RemoteSchemaResolver = Callable[[str, UserContext], Schema]


class GovernedResolver:
    """RelationResolver implementation enforcing Unity Catalog governance."""

    def __init__(
        self,
        catalog: UnityCatalog,
        user_ctx: UserContext,
        caps: ComputeCapabilities,
        remote_schema_resolver: RemoteSchemaResolver | None = None,
        version_pin: Callable[[str], int | None] | None = None,
    ):
        self._catalog = catalog
        self._caps = caps
        self._remote_schema_resolver = remote_schema_resolver
        #: Snapshot-isolation hook: when an open transaction is bound to the
        #: session, this maps a table name to the version its reads must
        #: resolve at (``None`` for unpinnable relations). Explicit time
        #: travel (``options["version"]``) wins over the pin.
        self._version_pin = version_pin
        #: Acting-context stack: top is used for privilege checks. View
        #: expansion pushes the view owner (definer rights).
        self._acting: list[UserContext] = [user_ctx]

    @property
    def session_ctx(self) -> UserContext:
        return self._acting[0]

    @property
    def acting_ctx(self) -> UserContext:
        return self._acting[-1]

    # ------------------------------------------------------------------
    # RelationResolver interface
    # ------------------------------------------------------------------

    def resolve_relation(
        self, name: str, options: dict | None = None
    ) -> LogicalPlan:
        options = options or {}
        system_table = self._catalog.system_tables.get(name)
        if system_table is not None:
            # Visibility is decided for the *session* user: a view body
            # never lends its definer's admin rights to a system table.
            return LocalRelation(
                *self._catalog.system_tables.read(system_table, self.session_ctx)
            )
        metadata = self._catalog.relation_metadata(
            name, self.acting_ctx, self._caps
        )
        if ANNOTATION_REQUIRES_EXTERNAL_FGAC in metadata.annotations:
            return self._resolve_remote(name, metadata, options)
        if metadata.kind == "TABLE":
            return self._resolve_table(metadata, options)
        if options.get("version") is not None:
            raise AnalysisError(
                f"time travel is only supported on tables, not on '{name}' "
                f"({metadata.kind})"
            )
        if metadata.kind == "MATERIALIZED_VIEW":
            return self._resolve_materialized_view(metadata)
        if metadata.kind == "VIEW":
            return self._resolve_view(metadata)
        raise SecurableNotFound(f"'{name}' is not a readable relation")

    # ------------------------------------------------------------------
    # Tables: row filter + column masks under a SecureView
    # ------------------------------------------------------------------

    def _resolve_table(
        self, metadata: RelationMetadata, options: dict | None = None
    ) -> LogicalPlan:
        options = options or {}
        table_ref = self._catalog.table_ref(metadata)
        if len(self._acting) > 1:
            # Inside a view body: runtime credentials use the definer's
            # rights (the analysis already authorized this acting context).
            table_ref = replace(table_ref, auth_delegate=self.acting_ctx.user)
        version = options.get("version")
        if version is None and self._version_pin is not None:
            # Open transaction: reads resolve at the snapshot pinned when
            # the transaction first touched this table (snapshot
            # isolation). Explicit time travel overrides the pin.
            version = self._version_pin(metadata.full_name)
        if version is not None:
            # Delta time travel: pin the scan, policies still apply below.
            table_ref = replace(table_ref, snapshot_version=int(version))
        plan: LogicalPlan = Scan(table_ref)
        qctx = current_context()

        if metadata.row_filter is not None:
            plan = Filter(plan, metadata.row_filter.condition, policy=True)
            if qctx is not None:
                qctx.event(
                    "row-filter-injected",
                    table=metadata.full_name,
                    policy_owner=metadata.owner,
                )

        if metadata.column_masks:
            masks = {m.column: m.mask for m in metadata.column_masks}
            exprs = []
            for field in metadata.schema:
                if field.name in masks:
                    exprs.append(Alias(masks[field.name], field.name))
                else:
                    exprs.append(UnresolvedColumn(field.name))
            plan = Project(plan, exprs)
            if qctx is not None:
                qctx.event(
                    "column-masks-applied",
                    table=metadata.full_name,
                    columns=sorted(masks),
                )

        if metadata.has_policies:
            plan = SecureView(plan, metadata.full_name, metadata.owner)
        return plan

    # ------------------------------------------------------------------
    # Views: definer-rights expansion
    # ------------------------------------------------------------------

    def _parse_view_body(self, metadata: RelationMetadata) -> LogicalPlan:
        stmt = parse_statement(metadata.view_text)
        if not isinstance(stmt, (ast.SelectStatement, ast.UnionStatement)):
            raise AnalysisError(
                f"view '{metadata.full_name}' definition is not a query"
            )
        builder = PlanBuilder(self._owner_function_lookup(metadata.owner))
        return builder.build(stmt)

    def _resolve_view(self, metadata: RelationMetadata) -> LogicalPlan:
        body = self._parse_view_body(metadata)
        owner_ctx = self._owner_context(metadata.owner)
        qctx = current_context()
        if qctx is not None:
            qctx.event(
                "view-expanded-definer-rights",
                view=metadata.full_name,
                definer=metadata.owner,
            )
        self._acting.append(owner_ctx)
        try:
            analyzed = Analyzer(self).analyze(body)
        finally:
            self._acting.pop()
        return SecureView(analyzed, metadata.full_name, metadata.owner)

    def _resolve_materialized_view(self, metadata: RelationMetadata) -> LogicalPlan:
        if not metadata.materialized_stale and metadata.schema is not None:
            table_ref = TableRef(
                full_name=metadata.full_name,
                schema=metadata.schema,
                storage_root=metadata.materialized_root,
                owner=metadata.owner,
                auth_delegate=(
                    self.acting_ctx.user if len(self._acting) > 1 else None
                ),
            )
            return SecureView(
                Scan(table_ref), metadata.full_name, metadata.owner
            )
        # Stale (or never refreshed): fall back to live expansion.
        return self._resolve_view(metadata)

    def _owner_context(self, owner: str) -> UserContext:
        if self._catalog.principals.is_user(owner):
            return self._catalog.principals.context_for(owner)
        # Owners may be groups or service principals not in the directory.
        return UserContext(user=owner)

    def _owner_function_lookup(self, owner: str):
        """Catalog functions inside view bodies resolve with owner rights."""

        def lookup(name: str) -> PythonUDF | None:
            if name.count(".") != 2:
                return None
            try:
                return self._catalog.get_function(name, self._owner_context(owner))
            except SecurableNotFound:
                return None

        return lookup

    # ------------------------------------------------------------------
    # Remote (eFGAC) relations
    # ------------------------------------------------------------------

    def _resolve_remote(
        self, name: str, metadata: RelationMetadata, options: dict | None = None
    ) -> LogicalPlan:
        options = options or {}
        schema = metadata.schema
        if schema is None:
            if self._remote_schema_resolver is None:
                raise AnalysisError(
                    f"'{name}' must be processed externally but no remote "
                    "endpoint is configured for this compute"
                )
            schema = self._remote_schema_resolver(name, self.session_ctx)
        payload: dict[str, Any] = {"@type": "relation.read", "table": name}
        if options.get("version") is not None:
            payload["options"] = {"version": int(options["version"])}
        qctx = current_context()
        if qctx is not None:
            qctx.event("remote-scan-inserted", table=name)
        return RemoteScan(
            payload=payload,
            schema=schema,
            source_tables=(name,),
        )
