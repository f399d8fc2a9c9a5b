"""The Unity Catalog facade.

One object owns the governance state of the whole platform: namespace,
principals, grants, policies, and the credential vendor. Every decision is
audited. Compute talks to the catalog through two entry points:

- :meth:`relation_metadata` — resolve a name for a given user *and compute
  capability*; policy details are only disclosed to compute that can enforce
  them, otherwise the metadata is annotated ``requires_external_fgac``.
- :meth:`vend_credential` — exchange (identity, table, operation) for a
  temporary storage credential, refused outright when the compute must not
  touch the raw bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.catalog.abac import TagStore
from repro.catalog.policies import ColumnMask, RowFilter
from repro.catalog.privileges import (
    MANAGE,
    MODIFY,
    PrincipalDirectory,
    PrivilegeStore,
    SELECT,
    USE_CATALOG,
    USE_SCHEMA,
    UserContext,
)
from repro.catalog.scopes import (
    ANNOTATION_REQUIRES_EXTERNAL_FGAC,
    ComputeCapabilities,
    requires_external_fgac,
)
from repro.catalog.securables import (
    CatalogObject,
    FunctionObject,
    MaterializedViewObject,
    SchemaObject,
    Securable,
    TableObject,
    ViewObject,
    VolumeObject,
    split_name,
)
from repro.catalog.system_tables import (
    ATTACK_STATS,
    CACHE_STATS,
    FAULT_STATS,
    STORE_STATS,
    SystemTableRegistry,
    TXN_STATS,
    WORKLOAD_STATS,
)
from repro.common.audit import AuditLog
from repro.common.faults import FaultInjector
from repro.common.telemetry import Telemetry
from repro.common.clock import Clock, SystemClock
from repro.engine.logical import TableRef
from repro.engine.types import Schema
from repro.engine.udf import PythonUDF
from repro.errors import (
    PermissionDenied,
    SecurableAlreadyExists,
    SecurableNotFound,
)
from repro.storage.credentials import (
    CredentialVendor,
    DELETE,
    InstanceProfileCredential,
    LIST,
    READ,
    TemporaryCredential,
    WRITE,
)
from repro.storage.object_store import ObjectStore
from repro.storage.table_format import LakeTableStorage, TableSnapshot

#: Root prefix under which managed tables live.
MANAGED_ROOT = "s3://unity-managed"


@dataclass
class RelationMetadata:
    """What the catalog discloses about a relation to a given compute."""

    kind: str
    full_name: str
    owner: str
    schema: Schema | None = None
    storage_root: str | None = None
    view_text: str | None = None
    annotations: frozenset[str] = frozenset()
    row_filter: RowFilter | None = None
    column_masks: tuple[ColumnMask, ...] = ()
    #: Materialized views: where the refreshed data lives.
    materialized_root: str | None = None
    materialized_stale: bool = False

    @property
    def has_policies(self) -> bool:
        return self.row_filter is not None or bool(self.column_masks)


class UnityCatalog:
    """In-memory Unity Catalog with storage-backed managed tables."""

    def __init__(
        self,
        store: ObjectStore | None = None,
        clock: Clock | None = None,
        audit: AuditLog | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.clock = clock or SystemClock()
        self.audit = audit or AuditLog()
        #: Tracing/metrics spine shared by every component of this deployment.
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(clock=self.clock)
        )
        #: The deployment-wide chaos engine. Storage, credential vending,
        #: sandboxes, channels and the serverless gateway all consult this
        #: one injector, so a test (or the CI chaos job, via the
        #: ``LAKEGUARD_CHAOS_*`` environment variables) arms faults in one
        #: place and every layer's recovery machinery gets exercised.
        self.faults = FaultInjector(clock=self.clock, telemetry=self.telemetry)
        self.faults.arm_from_env()
        self.store = store or ObjectStore(clock=self.clock, audit=None)
        self.store.faults = self.faults
        self.vendor = CredentialVendor(clock=self.clock, telemetry=self.telemetry)
        self.vendor.faults = self.faults
        # Storage checks liveness with the issuing vendor on every access:
        # revoking a credential (or an identity) takes effect immediately,
        # even for an attacker replaying a previously captured credential.
        self.store.vendor = self.vendor
        self.principals = PrincipalDirectory()
        self.grants = PrivilegeStore()
        self._catalogs: dict[str, CatalogObject] = {}
        self._row_filters: dict[str, RowFilter] = {}
        self._column_masks: dict[str, dict[str, ColumnMask]] = {}
        #: Monotonic governance version: any change that could alter what a
        #: user may see (grants, policies, view definitions, ABAC) bumps it.
        #: Enforcement caches key on this epoch, so a stale epoch is a hard
        #: miss — a policy change can never serve a stale cached artifact.
        self._policy_epoch = 0
        #: Monotonic *data* version: every governed write (append/overwrite,
        #: MV refresh, table create/drop) bumps it. The persistent result
        #: cache keys on (policy epoch, data epoch) so cached result bytes
        #: can survive neither a governance change nor a table mutation.
        self._data_epoch = 0
        self._epoch_lock = threading.Lock()
        #: Every ``system.access.*`` table and the stats providers behind them.
        self.system_tables = SystemTableRegistry(self)
        #: The catalog-wide transaction manager, created lazily by the
        #: :attr:`txn_manager` property (the txn tier imports catalog types).
        self._txn_manager: Any = None
        self.system_tables.register_stats_provider(
            FAULT_STATS, "faults[catalog]", self.faults.stats_snapshot
        )
        #: Attribute-based access control: tags + tag policies (§2.3 ABAC).
        self.tags = TagStore()
        self.tags.on_change = lambda: self.bump_policy_epoch("abac-update")
        #: The catalog service's own storage identity: it manages the managed
        #: root on behalf of users (users never hold this credential).
        self._service_credential = InstanceProfileCredential(
            token="unity-catalog-service",
            cluster_id="unity-catalog",
            prefixes=(MANAGED_ROOT,),
        )

    # ------------------------------------------------------------------
    # Policy epoch: invalidation token for every enforcement cache
    # ------------------------------------------------------------------

    @property
    def policy_epoch(self) -> int:
        """Current governance version; caches must key on this value."""
        return self._policy_epoch

    def bump_policy_epoch(self, reason: str = "") -> int:
        """Advance the epoch (any grant/policy/view/ABAC change calls this)."""
        with self._epoch_lock:
            self._policy_epoch += 1
            epoch = self._policy_epoch
        self.telemetry.counter("catalog.policy_epoch_bumps").inc()
        return epoch

    @property
    def data_epoch(self) -> int:
        """Current data version; the result cache keys on this value."""
        return self._data_epoch

    def bump_data_epoch(self, reason: str = "") -> int:
        """Advance the data epoch (every governed write path calls this)."""
        with self._epoch_lock:
            self._data_epoch += 1
            epoch = self._data_epoch
        self.telemetry.counter("catalog.data_epoch_bumps").inc()
        return epoch

    # ------------------------------------------------------------------
    # Stats snapshots by scope (rows of the ``system.access.*_stats`` tables)
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every registered cache's statistics, by cache name."""
        return self.system_tables.stats(CACHE_STATS)

    def workload_stats(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every registered scheduler's statistics, by scope."""
        return self.system_tables.stats(WORKLOAD_STATS)

    def fault_stats(self) -> dict[str, dict[str, Any]]:
        """Snapshot of injected-fault triggers and recovery counters, by scope."""
        return self.system_tables.stats(FAULT_STATS)

    def store_stats(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every registered store's statistics, by scope."""
        return self.system_tables.stats(STORE_STATS)

    def attack_stats(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every registered gauntlet's counters, by scope."""
        return self.system_tables.stats(ATTACK_STATS)

    def txn_stats(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every registered transaction tier's counters."""
        return self.system_tables.stats(TXN_STATS)

    @property
    def txn_manager(self) -> Any:
        """The catalog-wide transaction manager (created on first use).

        Lazy so the catalog module does not import the transaction tier at
        definition time (the tier imports catalog types); the first SQL
        write statement or explicit BEGIN materializes it.
        """
        if self._txn_manager is None:
            from repro.txn import TransactionManager

            self._txn_manager = TransactionManager(self)
        return self._txn_manager

    # ------------------------------------------------------------------
    # Auditing helper
    # ------------------------------------------------------------------

    def _audit(self, ctx: UserContext, action: str, resource: str, allowed: bool,
               **details: Any) -> None:
        self.audit.record(
            timestamp=self.clock.now(),
            principal=ctx.user,
            action=action,
            resource=resource,
            allowed=allowed,
            **details,
        )

    # ------------------------------------------------------------------
    # Namespace CRUD
    # ------------------------------------------------------------------

    def create_catalog(self, name: str, owner: str) -> CatalogObject:
        """Create a top-level catalog owned by ``owner``."""
        if name in self._catalogs:
            raise SecurableAlreadyExists(f"catalog '{name}' already exists")
        catalog = CatalogObject(name=name, owner=owner)
        self._catalogs[name] = catalog
        return catalog

    def create_schema(self, full_name: str, owner: str) -> SchemaObject:
        """Create a schema (``catalog.schema``) owned by ``owner``."""
        parts = full_name.split(".")
        if len(parts) != 2:
            raise SecurableNotFound(f"'{full_name}' is not 'catalog.schema'")
        catalog = self._catalog(parts[0])
        if parts[1] in catalog.schemas:
            raise SecurableAlreadyExists(f"schema '{full_name}' already exists")
        schema = SchemaObject(full_name=full_name, owner=owner)
        catalog.schemas[parts[1]] = schema
        return schema

    def _catalog(self, name: str) -> CatalogObject:
        try:
            return self._catalogs[name]
        except KeyError:
            raise SecurableNotFound(f"catalog '{name}' does not exist") from None

    def _schema(self, catalog_name: str, schema_name: str) -> SchemaObject:
        catalog = self._catalog(catalog_name)
        try:
            return catalog.schemas[schema_name]
        except KeyError:
            raise SecurableNotFound(
                f"schema '{catalog_name}.{schema_name}' does not exist"
            ) from None

    def _register(self, obj: Securable) -> None:
        cat, sch, name = split_name(obj.full_name)
        schema = self._schema(cat, sch)
        if name in schema.objects:
            raise SecurableAlreadyExists(f"'{obj.full_name}' already exists")
        schema.objects[name] = obj

    def transfer_ownership(
        self, full_name: str, new_owner: str, ctx: UserContext
    ) -> None:
        """Transfer a securable to a new owner (current owner/admin only)."""
        obj = self.get_object(full_name)
        self._require_owner_or_admin(ctx, obj.owner, full_name, "transfer_ownership")
        if not (
            self.principals.is_user(new_owner) or self.principals.is_group(new_owner)
        ):
            raise SecurableNotFound(f"principal '{new_owner}' does not exist")
        obj.owner = new_owner
        self.bump_policy_epoch("transfer-ownership")

    def drop_object(self, full_name: str, ctx: UserContext) -> None:
        """Drop a securable (owner/admin only); its policies go with it."""
        obj = self.get_object(full_name)
        self._require_owner_or_admin(ctx, obj.owner, full_name, "drop")
        cat, sch, name = split_name(full_name)
        del self._schema(cat, sch).objects[name]
        self._row_filters.pop(full_name, None)
        self._column_masks.pop(full_name, None)
        self.bump_data_epoch("drop-object")
        self.bump_policy_epoch("drop-object")

    def get_object(self, full_name: str) -> Securable:
        cat, sch, name = split_name(full_name)
        schema = self._schema(cat, sch)
        try:
            return schema.objects[name]
        except KeyError:
            raise SecurableNotFound(f"'{full_name}' does not exist") from None

    def object_exists(self, full_name: str) -> bool:
        try:
            self.get_object(full_name)
            return True
        except SecurableNotFound:
            return False

    def list_objects(self, schema_full_name: str) -> list[str]:
        cat, sch = schema_full_name.split(".", 1)
        schema = self._schema(cat, sch)
        return sorted(schema.objects)

    # -- tables --------------------------------------------------------------

    def create_table(
        self,
        full_name: str,
        schema: Schema,
        owner: str,
        comment: str = "",
    ) -> TableObject:
        """Create a managed table: metadata plus empty versioned storage."""
        cat, sch, name = split_name(full_name)
        root = f"{MANAGED_ROOT}/{cat}/{sch}/{name}"
        table = TableObject(
            full_name=full_name,
            schema=schema,
            storage_root=root,
            owner=owner,
            comment=comment,
        )
        self._register(table)
        LakeTableStorage(self.store, root).create(
            schema.names, self._service_credential
        )
        self.bump_data_epoch("create-table")
        return table

    def get_table(self, full_name: str) -> TableObject:
        obj = self.get_object(full_name)
        if not isinstance(obj, TableObject):
            raise SecurableNotFound(f"'{full_name}' is not a table ({obj.kind})")
        return obj

    def table_storage(self, table: TableObject) -> LakeTableStorage:
        return LakeTableStorage(self.store, table.storage_root)

    def current_table_snapshot(self, full_name: str) -> TableSnapshot:
        """Latest *durable* snapshot of a managed table.

        Resolved through :meth:`~repro.storage.table_format.LakeTableStorage
        .snapshot` with the catalog's service identity, so a torn tip left
        by a crashed writer is skipped — transactions pin their snapshot
        here and must never pin an unreadable version.
        """
        table = self.get_table(full_name)
        return self.table_storage(table).snapshot(self._service_credential)

    def current_table_version(self, full_name: str) -> int:
        """Version of :meth:`current_table_snapshot`."""
        return self.current_table_snapshot(full_name).version

    def write_table(
        self,
        full_name: str,
        columns: dict[str, list[Any]],
        ctx: UserContext,
        overwrite: bool = False,
    ) -> None:
        """Governed write path: requires MODIFY, uses a vended credential."""
        table = self.get_table(full_name)
        self.check_privilege(ctx, MODIFY, full_name)
        # DELETE rides along so a writer that trips over a torn tip (a
        # crashed commit occupying the next version) can roll it back.
        credential = self.vendor.issue(
            identity=ctx.user,
            prefixes=[table.storage_root],
            operations={READ, WRITE, LIST, DELETE},
        )
        storage = self.table_storage(table)
        if overwrite:
            storage.overwrite(columns, credential)
        else:
            storage.append(columns, credential)
        self.vendor.revoke(credential.token)
        self.bump_data_epoch("write-table")

    # -- views / functions / volumes --------------------------------------------

    def create_view(self, full_name: str, sql_text: str, owner: str,
                    comment: str = "") -> ViewObject:
        view = ViewObject(full_name=full_name, sql_text=sql_text, owner=owner,
                          comment=comment)
        self._register(view)
        self.bump_policy_epoch("view-definition")
        return view

    def create_materialized_view(
        self, full_name: str, sql_text: str, owner: str, comment: str = ""
    ) -> MaterializedViewObject:
        """Create a materialized view (stale until its first refresh)."""
        cat, sch, name = split_name(full_name)
        root = f"{MANAGED_ROOT}/{cat}/{sch}/__mv__{name}"
        view = MaterializedViewObject(
            full_name=full_name,
            sql_text=sql_text,
            owner=owner,
            materialized_root=root,
            comment=comment,
        )
        self._register(view)
        self.bump_policy_epoch("view-definition")
        return view

    def store_materialization(
        self,
        full_name: str,
        schema: Schema,
        columns: dict[str, list[Any]],
    ) -> None:
        """Persist refreshed materialized-view data (trusted refresh path)."""
        view = self.get_object(full_name)
        if not isinstance(view, MaterializedViewObject):
            raise SecurableNotFound(f"'{full_name}' is not a materialized view")
        storage = LakeTableStorage(self.store, view.materialized_root)
        if storage.latest_version(self._service_credential) < 0:
            storage.create(schema.names, self._service_credential)
            storage.append(columns, self._service_credential)
        else:
            storage.overwrite(columns, self._service_credential)
        view.schema = schema
        view.stale = False
        self.bump_data_epoch("mv-refresh")
        # Freshness flips resolution from live expansion to materialized
        # scan, so plans cached before the refresh must not survive it.
        self.bump_policy_epoch("mv-refresh")

    def create_function(
        self, full_name: str, udf: PythonUDF, owner: str, comment: str = ""
    ) -> FunctionObject:
        """Catalog a UDF; its owner becomes the code's trust domain."""
        function = FunctionObject(
            full_name=full_name, udf=udf, owner=owner, comment=comment
        )
        self._register(function)
        return function

    def get_function(self, full_name: str, ctx: UserContext) -> PythonUDF:
        """EXECUTE-checked lookup of a cataloged UDF, stamped with its owner."""
        obj = self.get_object(full_name)
        if not isinstance(obj, FunctionObject):
            raise SecurableNotFound(f"'{full_name}' is not a function ({obj.kind})")
        self.check_privilege(ctx, "EXECUTE", full_name)
        return obj.resolved_udf()

    def create_volume(self, full_name: str, owner: str,
                      storage_root: str | None = None) -> VolumeObject:
        cat, sch, name = split_name(full_name)
        root = storage_root or f"{MANAGED_ROOT}/{cat}/{sch}/__vol__{name}"
        volume = VolumeObject(full_name=full_name, storage_root=root, owner=owner)
        self._register(volume)
        return volume

    # ------------------------------------------------------------------
    # Privileges
    # ------------------------------------------------------------------

    def grant(self, privilege: str, securable: str, principal: str) -> None:
        self.grants.grant(privilege, securable, principal)
        self.bump_policy_epoch("grant")

    def revoke(self, privilege: str, securable: str, principal: str) -> None:
        self.grants.revoke(privilege, securable, principal)
        self.bump_policy_epoch("revoke")

    def grant_checked(
        self, ctx: UserContext, privilege: str, securable: str, principal: str
    ) -> None:
        """GRANT executed by a user: requires ownership, MANAGE, or admin."""
        self._require_manage(ctx, securable, "grant")
        self.grant(privilege, securable, principal)

    def revoke_checked(
        self, ctx: UserContext, privilege: str, securable: str, principal: str
    ) -> None:
        self._require_manage(ctx, securable, "revoke")
        self.revoke(privilege, securable, principal)

    def _require_manage(self, ctx: UserContext, securable: str, action: str) -> None:
        principals = ctx.principals()
        owner = self._owner_of(securable)
        allowed = (
            (owner is not None and owner in principals)
            or self.is_admin(ctx)
            or self.grants.has(MANAGE, securable, principals)
        )
        self._audit(ctx, f"catalog.{action}", securable, allowed)
        if not allowed:
            raise PermissionDenied(ctx.user, MANAGE, securable)

    def _owner_of(self, full_name: str) -> str | None:
        parts = full_name.split(".")
        try:
            if len(parts) == 1:
                return self._catalog(parts[0]).owner
            if len(parts) == 2:
                return self._schema(parts[0], parts[1]).owner
            return self.get_object(full_name).owner
        except SecurableNotFound:
            return None

    def is_admin(self, ctx: UserContext) -> bool:
        """Metastore-admin bypass — never under group down-scoping (§4.2)."""
        return not ctx.is_down_scoped and self.principals.is_admin(ctx.user)

    def has_privilege(self, ctx: UserContext, privilege: str, full_name: str) -> bool:
        """Non-raising check, including hierarchy and ownership rules."""
        principals = ctx.principals()
        if self.is_admin(ctx):
            return True
        owner = self._owner_of(full_name)
        if owner is not None and owner in principals:
            return True
        parts = full_name.split(".")
        if len(parts) >= 2:
            if not self._has_or_owns(principals, USE_CATALOG, parts[0]):
                return False
        if len(parts) >= 3:
            if not self._has_or_owns(principals, USE_SCHEMA, f"{parts[0]}.{parts[1]}"):
                return False
        return self.grants.has(privilege, full_name, principals)

    def _has_or_owns(self, principals: frozenset[str], privilege: str,
                     securable: str) -> bool:
        owner = self._owner_of(securable)
        if owner is not None and owner in principals:
            return True
        return self.grants.has(privilege, securable, principals)

    def check_privilege(self, ctx: UserContext, privilege: str, full_name: str) -> None:
        allowed = self.has_privilege(ctx, privilege, full_name)
        self._audit(ctx, f"catalog.check.{privilege.lower()}", full_name, allowed,
                    down_scoped=ctx.is_down_scoped)
        if not allowed:
            raise PermissionDenied(ctx.user, privilege, full_name)

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------

    def set_row_filter(self, full_name: str, rf: RowFilter, ctx: UserContext) -> None:
        table = self.get_table(full_name)
        self._require_owner_or_admin(ctx, table.owner, full_name, "set row filter")
        rf.validate(table.schema)
        self._row_filters[full_name] = rf
        self.bump_policy_epoch("row-filter")

    def drop_row_filter(self, full_name: str, ctx: UserContext) -> None:
        table = self.get_table(full_name)
        self._require_owner_or_admin(ctx, table.owner, full_name, "drop row filter")
        self._row_filters.pop(full_name, None)
        self.bump_policy_epoch("row-filter")

    def set_column_mask(self, full_name: str, mask: ColumnMask, ctx: UserContext) -> None:
        table = self.get_table(full_name)
        self._require_owner_or_admin(ctx, table.owner, full_name, "set column mask")
        mask.validate(table.schema)
        self._column_masks.setdefault(full_name, {})[mask.column] = mask
        self.bump_policy_epoch("column-mask")

    def drop_column_mask(self, full_name: str, column: str, ctx: UserContext) -> None:
        table = self.get_table(full_name)
        self._require_owner_or_admin(ctx, table.owner, full_name, "drop column mask")
        self._column_masks.get(full_name, {}).pop(column, None)
        self.bump_policy_epoch("column-mask")

    def _require_owner_or_admin(self, ctx: UserContext, owner: str,
                                full_name: str, action: str) -> None:
        allowed = owner in ctx.principals() or self.is_admin(ctx)
        self._audit(ctx, f"catalog.{action.replace(' ', '_')}", full_name, allowed)
        if not allowed:
            raise PermissionDenied(ctx.user, "OWNERSHIP", full_name)

    def row_filter_of(self, full_name: str) -> RowFilter | None:
        """Effective row filter: explicit ANDed with ABAC tag policies."""
        explicit = self._row_filters.get(full_name)
        tag_conditions = self.tags.row_filters_for(full_name)
        conditions = ([explicit.condition] if explicit else []) + tag_conditions
        if not conditions:
            return None
        combined = conditions[0]
        for condition in conditions[1:]:
            from repro.engine.expressions import BooleanOp

            combined = BooleanOp("AND", combined, condition)
        created_by = explicit.created_by if explicit else "<abac>"
        return RowFilter(full_name, combined, created_by)

    def column_masks_of(self, full_name: str) -> tuple[ColumnMask, ...]:
        """Effective masks: explicit masks win per column, ABAC fills in."""
        explicit = dict(self._column_masks.get(full_name, {}))
        try:
            columns = self.get_table(full_name).schema.names
        except SecurableNotFound:
            columns = []
        for column, mask_expr in self.tags.masks_for(full_name, columns).items():
            if column not in explicit:
                explicit[column] = ColumnMask(
                    full_name, column, mask_expr, created_by="<abac>"
                )
        return tuple(explicit.values())

    def has_policies(self, full_name: str) -> bool:
        """Does the table carry any FGAC policy (explicit or ABAC-derived)?"""
        if full_name in self._row_filters or self._column_masks.get(full_name):
            return True
        try:
            columns = self.get_table(full_name).schema.names
        except SecurableNotFound:
            return False
        return self.tags.has_policies_for(full_name, columns)

    # ------------------------------------------------------------------
    # Relation resolution for compute
    # ------------------------------------------------------------------

    def relation_metadata(
        self, full_name: str, ctx: UserContext, caps: ComputeCapabilities
    ) -> RelationMetadata:
        """Resolve and authorize a relation for (user, compute).

        Privilege scope rule (§3.4): compute that cannot enforce FGAC locally
        receives only *basic* metadata for policy-bearing relations and all
        views — annotated so the planner routes them to external FGAC.
        """
        obj = self.get_object(full_name)
        self.check_privilege(ctx, SELECT, full_name)

        if isinstance(obj, TableObject):
            needs_external = requires_external_fgac(
                self.has_policies(full_name), caps
            )
            if needs_external:
                return RelationMetadata(
                    kind=obj.kind,
                    full_name=full_name,
                    owner=obj.owner,
                    schema=obj.schema,
                    annotations=frozenset({ANNOTATION_REQUIRES_EXTERNAL_FGAC}),
                )
            return RelationMetadata(
                kind=obj.kind,
                full_name=full_name,
                owner=obj.owner,
                schema=obj.schema,
                storage_root=obj.storage_root,
                row_filter=self.row_filter_of(full_name),
                column_masks=self.column_masks_of(full_name),
            )

        if isinstance(obj, MaterializedViewObject):
            if not caps.can_enforce_fgac_locally:
                return RelationMetadata(
                    kind=obj.kind,
                    full_name=full_name,
                    owner=obj.owner,
                    schema=obj.schema,
                    annotations=frozenset({ANNOTATION_REQUIRES_EXTERNAL_FGAC}),
                )
            return RelationMetadata(
                kind=obj.kind,
                full_name=full_name,
                owner=obj.owner,
                schema=obj.schema,
                view_text=obj.sql_text,
                materialized_root=obj.materialized_root,
                materialized_stale=obj.stale,
            )

        if isinstance(obj, ViewObject):
            if not caps.can_enforce_fgac_locally:
                # View *text* may reference tables the user cannot see;
                # privileged compute never receives it.
                return RelationMetadata(
                    kind=obj.kind,
                    full_name=full_name,
                    owner=obj.owner,
                    annotations=frozenset({ANNOTATION_REQUIRES_EXTERNAL_FGAC}),
                )
            return RelationMetadata(
                kind=obj.kind,
                full_name=full_name,
                owner=obj.owner,
                view_text=obj.sql_text,
            )

        raise SecurableNotFound(f"'{full_name}' is not a readable relation")

    def table_ref(self, metadata: RelationMetadata) -> TableRef:
        """Engine-facing handle for a resolved table."""
        if metadata.schema is None:
            raise SecurableNotFound(
                f"'{metadata.full_name}' has no schema visible to this compute"
            )
        return TableRef(
            full_name=metadata.full_name,
            schema=metadata.schema,
            storage_root=metadata.storage_root,
            owner=metadata.owner,
            annotations=metadata.annotations,
        )

    # ------------------------------------------------------------------
    # Credential vending
    # ------------------------------------------------------------------

    def vend_credential(
        self,
        ctx: UserContext,
        full_name: str,
        operations: set[str],
        caps: ComputeCapabilities,
        on_behalf_of: str | None = None,
    ) -> TemporaryCredential:
        """Exchange identity + privilege for a temporary storage credential.

        Refused when the target has FGAC policies and the compute cannot
        enforce them — that compute must use eFGAC and never sees raw bytes.
        """
        obj = self.get_object(full_name)
        if isinstance(obj, TableObject):
            storage_root = obj.storage_root
        elif isinstance(obj, MaterializedViewObject):
            storage_root = obj.materialized_root
        else:
            raise SecurableNotFound(f"'{full_name}' has no direct storage")
        privilege = MODIFY if WRITE in operations else SELECT
        self.check_privilege(ctx, privilege, full_name)

        needs_external = requires_external_fgac(self.has_policies(full_name), caps)
        if isinstance(obj, MaterializedViewObject):
            # MV data embeds the view's own governance; the raw bytes are
            # only safe on compute that isolates user code.
            needs_external = needs_external or not caps.can_enforce_fgac_locally
        if needs_external:
            self._audit(
                ctx, "catalog.vend_credential", full_name, False,
                reason="requires_external_fgac", compute=caps.compute_id,
            )
            raise PermissionDenied(ctx.user, "DIRECT_ACCESS", full_name)

        credential = self.vendor.issue(
            identity=ctx.user,
            prefixes=[storage_root],
            operations=operations,
            compute_id=caps.compute_id,
        )
        self._audit(
            ctx, "catalog.vend_credential", full_name, True,
            compute=caps.compute_id, token=credential.token,
            on_behalf_of=on_behalf_of,
        )
        return credential

    def vend_path_credential(
        self,
        ctx: UserContext,
        volume_name: str,
        operations: set[str],
        caps: ComputeCapabilities,
    ) -> TemporaryCredential:
        """Path-based access through a governed volume."""
        volume = self.get_object(volume_name)
        if not isinstance(volume, VolumeObject):
            raise SecurableNotFound(f"'{volume_name}' is not a volume")
        privilege = "WRITE_VOLUME" if WRITE in operations else "READ_VOLUME"
        self.check_privilege(ctx, privilege, volume_name)
        credential = self.vendor.issue(
            identity=ctx.user,
            prefixes=[volume.storage_root],
            operations=operations,
            compute_id=caps.compute_id,
        )
        self._audit(ctx, "catalog.vend_path_credential", volume_name, True,
                    compute=caps.compute_id)
        return credential
