"""LakeguardCluster: the governed execution backend for every compute type.

One instance is the trusted driver-side half of a cluster (Fig. 7/9). It
implements the Spark Connect :class:`~repro.connect.service.ExecutionBackend`
and assembles, per session:

- a :class:`~repro.core.enforcement.GovernedResolver` (privileges, views,
  row filters, column masks, eFGAC routing),
- a :class:`~repro.core.datasource.GovernedDataSource` (per-user credential
  vending on every scan),
- a UDF runtime: sandboxed via the Dispatcher on compute that isolates user
  code (Standard/Serverless), inline on privileged compute (Dedicated) —
  which is precisely why Dedicated compute gets eFGAC instead of policies.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.catalog.metastore import UnityCatalog
from repro.catalog.policies import ColumnMask, RowFilter
from repro.catalog.privileges import CREATE_TABLE, UserContext
from repro.catalog.scopes import COMPUTE_STANDARD, ComputeCapabilities
from repro.catalog.system_tables import (
    CACHE_STATS,
    FAULT_STATS,
    STORE_STATS,
    WORKLOAD_STATS,
)
from repro.common.clock import Clock, SystemClock
from repro.common.context import QueryContext, current_context
from repro.common.ids import new_id
from repro.connect.sessions import SessionState
from repro.core.datasource import GovernedDataSource
from repro.core.efgac import RemoteQueryExecutor, RemoteSubmit, efgac_rules
from repro.core.enforcement import GovernedResolver
from repro.core.pipeline import PipelineState, build_enforcement_pipeline
from repro.core.plan_cache import SecurePlanCache
from repro.core.plan_codec import PlanDecoder
from repro.engine.compile import KernelCache, KernelCompiler
from repro.engine.executor import (
    ExecutionConfig,
    QueryEngine,
    QueryResult,
    default_fuse_operators,
    default_worker_backend,
)
from repro.engine.workers import WorkerPool
from repro.engine.expressions import UDFRuntime
from repro.engine.logical import LogicalPlan
from repro.engine.optimizer import OptimizerConfig
from repro.engine.types import Field, Schema, type_from_name
from repro.engine.udf import PythonUDF
from repro.errors import (
    AnalysisError,
    SecurableNotFound,
    UnsupportedOperationError,
)
from repro.sandbox.cluster_manager import Backend, ClusterManager
from repro.sandbox.dispatcher import Dispatcher, SandboxedUDFRuntime
from repro.sandbox.policy import SandboxPolicy
from repro.scheduler.workload import TenantPolicy, WorkloadManager
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement


def schema_to_message(schema: Schema) -> list[dict[str, str]]:
    return [{"name": f.qualified_name(), "type": f.dtype.name} for f in schema]


def message_to_schema(message: list[dict[str, str]]) -> Schema:
    return Schema(
        tuple(Field(f["name"], type_from_name(f["type"])) for f in message)
    )


#: Optional hook transforming the authenticated context (e.g. group
#: down-scoping on shared dedicated clusters, §4.2).
ContextTransform = Callable[[UserContext], UserContext]


class LakeguardCluster:
    """Trusted driver-side state of one governed cluster."""

    def __init__(
        self,
        catalog: UnityCatalog,
        compute_type: str = COMPUTE_STANDARD,
        cluster_id: str | None = None,
        clock: Clock | None = None,
        sandbox_backend: Backend = "inprocess",
        sandbox_policy: SandboxPolicy | None = None,
        optimizer_config: OptimizerConfig | None = None,
        num_executors: int = 2,
        batch_size: int = 4096,
        remote_submit: RemoteSubmit | None = None,
        remote_analyze: Callable[[str, dict[str, Any]], list[dict[str, str]]] | None = None,
        provision_seconds: float = 0.0,
        interpreter_start_seconds: float = 0.0,
        context_transform: ContextTransform | None = None,
        engine_compile: bool = True,
        enable_plan_cache: bool = True,
        enable_credential_cache: bool = True,
        sandbox_min_pool_size: int = 0,
        enable_workload_manager: bool = True,
        workload_slots: int = 16,
        workload_fair_share: bool = True,
        workload_default_policy: TenantPolicy | None = None,
        scan_retries: int = 2,
        udf_invoke_retry: bool = True,
        worker_backend: str | None = None,
        worker_pool_size: int | None = None,
        engine_fuse_operators: bool | None = None,
        store_backend: str = "memory",
        store_dir: str | None = None,
        result_cache_enabled: bool = False,
    ):
        self.catalog = catalog
        self.clock = clock or SystemClock()
        self.cluster_id = cluster_id or new_id("cluster")
        self.caps = ComputeCapabilities(self.cluster_id, compute_type)
        #: Shared tracing/metrics registry (one per catalog deployment).
        self.telemetry = catalog.telemetry
        self.optimizer_config = optimizer_config or OptimizerConfig()
        self.num_executors = num_executors
        self.batch_size = batch_size
        self._context_transform = context_transform
        #: ``(table, scope, provider)`` of every stats provider this cluster
        #: registered with the catalog; :meth:`shutdown` unregisters them.
        self._stats_registrations: list[tuple[str, str, Any]] = []

        #: One safe replay of a UDF invoke whose sandbox died before the
        #: request was delivered (at-most-once is preserved either way).
        self.udf_invoke_retry = udf_invoke_retry

        self.cluster_manager = ClusterManager(
            backend=sandbox_backend,
            clock=self.clock,
            default_policy=sandbox_policy or SandboxPolicy(),
            provision_seconds=provision_seconds,
            interpreter_start_seconds=interpreter_start_seconds,
            faults=catalog.faults,
        )

        #: Admission control: every Connect query passes through this before
        #: executing (None when disabled — every query runs immediately).
        self.workload_manager: WorkloadManager | None = None
        if enable_workload_manager:
            self.workload_manager = WorkloadManager(
                name=self.cluster_id,
                clock=self.clock,
                telemetry=self.telemetry,
                total_slots=workload_slots,
                fair_share=workload_fair_share,
                default_policy=workload_default_policy,
            )
            self._expose_stats(
                WORKLOAD_STATS, "workload", self.workload_manager.stats_snapshot
            )

        self.dispatcher = Dispatcher(
            self.cluster_manager,
            min_pool_size=sandbox_min_pool_size,
            workload_manager=self.workload_manager,
        )
        self._expose_stats(
            CACHE_STATS, "sandbox_pool", self.dispatcher.stats_snapshot
        )

        #: Governed persistence tier (PAPER §cache): a tiered KV ladder under
        #: the kernel/plan/credential caches plus the governed result cache.
        #: ``store_backend`` picks the ladder: ``memory`` (default — process
        #: lifetime only), ``disk`` (memory → spill dir, survives restarts),
        #: or ``none`` (no store at all).
        self.artifact_store: Any = None
        self.result_cache: Any = None
        self._build_store(store_backend, store_dir, result_cache_enabled)
        #: Persistent read/write-through hook for kernel/plan caches. Only
        #: wired when a tier actually outlives this process — duplicating
        #: every entry into a same-lifetime memory ladder is pure overhead.
        store_persistent = (
            self.artifact_store
            if self.artifact_store is not None and self.artifact_store.has_persistent
            else None
        )

        #: Expression compilation: one cluster-wide kernel cache so every
        #: session (and every plan-cache entry) reuses generated kernels for
        #: structurally congruent expressions (None when disabled).
        self.engine_compile = engine_compile
        #: Whole-operator fusion (None defers to LAKEGUARD_FUSE_OPERATORS).
        self.engine_fuse_operators = (
            engine_fuse_operators
            if engine_fuse_operators is not None
            else default_fuse_operators()
        )
        self.kernel_cache: KernelCache | None = None
        self._kernel_compiler: KernelCompiler | None = None
        if engine_compile:
            self.kernel_cache = KernelCache(
                telemetry=self.telemetry, persistent=store_persistent
            )
            self._kernel_compiler = KernelCompiler(cache=self.kernel_cache)
            self._expose_stats(
                CACHE_STATS, "kernel_cache", self.kernel_cache.stats_snapshot
            )

        #: Secure-plan cache: memoizes parse→resolve→rewrite→optimize output,
        #: invalidated by the catalog policy epoch (None when disabled).
        self.plan_cache: SecurePlanCache | None = None
        if enable_plan_cache:
            self.plan_cache = SecurePlanCache(
                telemetry=self.telemetry, persistent=store_persistent
            )
            self._expose_stats(
                CACHE_STATS, "plan_cache", self.plan_cache.stats_snapshot
            )

        self.data_source = GovernedDataSource(
            catalog,
            self.caps,
            num_executors,
            enable_credential_cache=enable_credential_cache,
            scan_retries=scan_retries,
            # Always wired (not just when persistent): the store pins
            # credentials to its memory tier, proving secret material can
            # ride the same ladder without ever reaching disk.
            artifact_store=self.artifact_store,
        )
        if self.data_source.credential_cache is not None:
            self._expose_stats(
                CACHE_STATS,
                "credential_cache",
                self.data_source.credential_cache.stats_snapshot,
            )
        self._expose_stats(FAULT_STATS, "recovery", self._recovery_stats_snapshot)

        #: Execution backend: one cluster-wide process pool shared by every
        #: session engine (``None`` on the thread backend). Prewarmed here,
        #: while the driver is still single-threaded — forking later, mid
        #: multi-user execution, risks inheriting another thread's held
        #: locks. The pool ships the catalog's armed fault schedules into
        #: each worker, so chaos runs behave identically on both backends.
        self.worker_backend = worker_backend or default_worker_backend()
        self.worker_pool_size = worker_pool_size
        self.worker_pool: WorkerPool | None = None
        if self.worker_backend == "process":
            self.worker_pool = WorkerPool(
                worker_pool_size or num_executors,
                faults=catalog.faults,
                cluster_id=self.cluster_id,
                telemetry=self.telemetry,
            )
            self.worker_pool.prewarm()
            self._expose_stats(
                CACHE_STATS, "worker_pool", self.worker_pool.stats_snapshot
            )
        self._remote_analyze = remote_analyze
        self.remote_executor: RemoteQueryExecutor | None = None
        if remote_submit is not None:
            self.remote_executor = RemoteQueryExecutor(remote_submit, catalog)

        from repro.core.extensions import default_registry

        #: Spark Connect protocol extensions installed on this server
        #: (Delta plugin by default; §3.2.2).
        self.extensions = default_registry()

        #: Most recent QueryResult (plans + metrics), for tests/benchmarks.
        self.last_result: QueryResult | None = None

    def _expose_stats(self, table: str, family: str, provider: Any) -> None:
        """Publish ``provider`` as the ``family[cluster_id]`` scope of a
        ``system.access.*_stats`` table, until :meth:`shutdown`."""
        scope = f"{family}[{self.cluster_id}]"
        self.catalog.system_tables.register_stats_provider(table, scope, provider)
        self._stats_registrations.append((table, scope, provider))

    def _build_store(
        self,
        store_backend: str,
        store_dir: str | None,
        result_cache_enabled: bool,
    ) -> None:
        """Assemble the tiered store ladder + artifact/result facades."""
        from repro.store import (
            ArtifactStore,
            DiskTier,
            GovernedResultCache,
            MemoryTier,
            TieredStore,
        )

        backend = store_backend
        if backend == "memory" and store_dir is not None:
            # A spill dir only makes sense with a disk tier: treat the
            # combination as asking for one.
            backend = "disk"
        if backend == "none":
            if result_cache_enabled:
                raise ValueError(
                    "result_cache_enabled requires a store backend"
                )
            return
        tiers: list[Any] = [MemoryTier()]
        if backend == "disk":
            if store_dir is None:
                raise ValueError("store_backend='disk' requires store_dir")
            tiers.append(DiskTier(store_dir))
        elif backend != "memory":
            raise ValueError(
                f"unknown store_backend '{store_backend}' "
                "(expected memory|disk|none)"
            )
        tiered = TieredStore(
            tiers, faults=self.catalog.faults, telemetry=self.telemetry
        )
        self.artifact_store = ArtifactStore(
            tiered, cluster_id=self.cluster_id, telemetry=self.telemetry
        )
        self._expose_stats(
            STORE_STATS, "store", self.artifact_store.stats_snapshot
        )
        if result_cache_enabled:
            self.result_cache = GovernedResultCache(
                self.artifact_store, telemetry=self.telemetry
            )
            self._expose_stats(
                STORE_STATS, "result_cache", self.result_cache.stats_snapshot
            )

    def _recovery_stats_snapshot(self) -> dict[str, float]:
        """Scan + sandbox recovery counters for ``system.access.fault_stats``."""
        out = self.data_source.recovery_stats_snapshot()
        out["udf_retries"] = float(self.dispatcher.stats.udf_retries)
        out["sandbox_dead_evicted"] = float(self.dispatcher.stats.dead_evicted)
        out["sandbox_spares_evicted"] = float(
            self.dispatcher.stats.spares_evicted
        )
        out["sandbox_liveness_probes"] = float(
            self.dispatcher.stats.liveness_probes
        )
        return out

    # ------------------------------------------------------------------
    # ExecutionBackend interface
    # ------------------------------------------------------------------

    def authenticate(self, user: str) -> UserContext:
        try:
            ctx = self.catalog.principals.context_for(user)
        except SecurableNotFound as exc:
            from repro.errors import ClusterAttachDenied

            raise ClusterAttachDenied(str(exc)) from exc
        if self._context_transform is not None:
            ctx = self._context_transform(ctx)
        return ctx

    def on_session_closed(self, session: SessionState) -> None:
        self.dispatcher.release_session(session.session_id)

    # -- per-session machinery ----------------------------------------------------

    def _function_lookup(self, session: SessionState):
        def lookup(name: str) -> PythonUDF | None:
            temp = session.temp_udfs.get(name)
            if temp is not None:
                # Ephemeral code runs in the session user's trust domain.
                return temp.with_owner(session.user_ctx.user)
            if name.count(".") == 2:
                try:
                    return self.catalog.get_function(name, session.user_ctx)
                except SecurableNotFound:
                    return None
            return None

        return lookup

    def _decoder(self, session: SessionState) -> PlanDecoder:
        return PlanDecoder(
            session_user=session.user_ctx.user,
            function_lookup=self._function_lookup(session),
            temp_views=session.temp_views,
            extensions=self.extensions,
        )

    def _remote_schema_resolver(self):
        if self._remote_analyze is None:
            return None

        def resolve(name: str, ctx: UserContext) -> Schema:
            message = self._remote_analyze(
                ctx.user, {"@type": "relation.read", "table": name}
            )
            return message_to_schema(message)

        return resolve

    def _udf_runtime(self, session: SessionState) -> UDFRuntime:
        if self.caps.isolates_user_code:
            # The session's pinned workload environment is loaded inside the
            # sandbox (§6.3) — sandboxes never mix environment versions.
            return SandboxedUDFRuntime(
                self.dispatcher,
                session.session_id,
                environment=session.config.get("workload_env"),
                retry_dead_sandbox=self.udf_invoke_retry,
            )
        # Privileged compute: legacy inline execution inside the engine.
        return UDFRuntime()

    def engine_for(self, session: SessionState) -> QueryEngine:
        """Assemble the governed query engine for one session."""
        txn = session.active_txn
        resolver = GovernedResolver(
            self.catalog,
            session.user_ctx,
            self.caps,
            remote_schema_resolver=self._remote_schema_resolver(),
            # Open transaction: every table read resolves at the snapshot
            # the transaction pinned (snapshot isolation for reads).
            version_pin=txn.pin_for_read if txn is not None else None,
        )
        extra_rules = () if self.caps.can_enforce_fgac_locally else tuple(efgac_rules())
        return QueryEngine(
            resolver=resolver,
            data_source=self.data_source,
            config=ExecutionConfig(
                batch_size=self.batch_size,
                num_executors=self.num_executors,
                compile_enabled=self.engine_compile,
                worker_backend=self.worker_backend,
                worker_pool_size=self.worker_pool_size,
                fuse_operators=self.engine_fuse_operators,
            ),
            optimizer_config=self.optimizer_config,
            extra_rules=extra_rules,
            udf_runtime=self._udf_runtime(session),
            remote_executor=self.remote_executor,
            kernel_compiler=self._kernel_compiler,
            worker_pool=self.worker_pool,
        )

    def shutdown(self) -> None:
        """Release cluster-owned executor resources (idempotent).

        Tears down the scan thread pool, the process worker pool (and its
        shared-memory segments) and the cluster manager's autoscaler, and
        withdraws this cluster's scopes from the ``system.access.*_stats``
        tables — a dead cluster must neither keep reporting rows nor stay
        pinned by the catalog through its providers. Safe to call more than
        once; sessions created afterwards fall back to serial in-process
        execution.
        """
        for registration in self._stats_registrations:
            self.catalog.system_tables.unregister_stats_provider(*registration)
        self._stats_registrations.clear()
        self.data_source.close()
        if self.worker_pool is not None:
            self.worker_pool.close()
        self.cluster_manager.shutdown()

    # -- relations --------------------------------------------------------------

    def _query_context(
        self, session: SessionState, query_ctx: QueryContext | None
    ) -> QueryContext:
        """Explicit context, else the ambient one, else a fresh root trace."""
        if query_ctx is not None:
            return query_ctx
        ambient = current_context()
        if ambient is not None:
            return ambient
        return QueryContext.create(
            user=session.user_ctx.user,
            telemetry=self.telemetry,
            clock=self.clock,
            session_id=session.session_id,
            cluster_id=self.cluster_id,
        )

    def pipeline_for(self, session: SessionState):
        """The staged enforcement pipeline for one session's engine."""
        return build_enforcement_pipeline(
            self.engine_for(session),
            self._decoder(session),
            plan_cache=self.plan_cache,
            policy_epoch=lambda: self.catalog.policy_epoch,
            compute_id=self.caps.compute_id,
            workload_manager=self.workload_manager,
            result_cache=self.result_cache,
            data_epoch=lambda: self.catalog.data_epoch,
        )

    def _run_pipeline(
        self,
        session: SessionState,
        query_ctx: QueryContext | None,
        *,
        relation: dict[str, Any] | None = None,
        plan: LogicalPlan | None = None,
    ) -> PipelineState:
        query_ctx = self._query_context(session, query_ctx)
        state = PipelineState(session=session, relation=relation, plan=plan)
        with query_ctx.activate():
            self.pipeline_for(session).run(query_ctx, state)
        self.last_result = state.result
        return state

    def execute_relation(
        self,
        session: SessionState,
        relation: dict[str, Any],
        query_ctx: QueryContext | None = None,
    ) -> tuple[list[dict[str, str]], list[list[Any]]]:
        state = self._run_pipeline(session, query_ctx, relation=relation)
        return state.schema_message, state.columns

    def _execute_plan(
        self,
        session: SessionState,
        plan: LogicalPlan,
        query_ctx: QueryContext | None = None,
    ) -> QueryResult:
        return self._run_pipeline(session, query_ctx, plan=plan).result

    def analyze_relation(
        self, session: SessionState, relation: dict[str, Any]
    ) -> list[dict[str, str]]:
        plan = self._decoder(session).relation(relation)
        analyzed = self.engine_for(session).analyze(plan)
        return schema_to_message(analyzed.schema)

    # ------------------------------------------------------------------
    # Commands (DDL / DML / DCL)
    # ------------------------------------------------------------------

    def execute_command(
        self, session: SessionState, command: dict[str, Any]
    ) -> dict[str, Any]:
        kind = command.get("@type")
        if kind == "command.sql":
            return self._execute_sql_command(session, command["sql"])
        if kind == "command.write_table":
            self.catalog.write_table(
                command["table"],
                command["columns"],
                session.user_ctx,
                overwrite=bool(command.get("overwrite")),
            )
            return {"status": "ok", "operation": "write_table"}
        if kind == "command.create_temp_view":
            session.temp_views[command["name"]] = command["relation"]
            session.bump_temp_state()
            return {"status": "ok", "operation": "create_temp_view"}
        if kind == "command.register_function":
            import cloudpickle

            from repro.errors import ProtocolError

            try:
                func = cloudpickle.loads(command["func_blob"])
            except Exception as exc:  # noqa: BLE001 - hostile blobs
                raise ProtocolError(
                    f"function '{command.get('name')}' has an undeserializable "
                    f"payload: {type(exc).__name__}"
                ) from exc
            udf_obj = PythonUDF(
                name=command["name"],
                func=func,
                return_type=type_from_name(command["return_type"]),
                owner=session.user_ctx.user,
                deterministic=bool(command.get("deterministic", True)),
            )
            session.temp_udfs[udf_obj.name] = udf_obj
            session.bump_temp_state()
            return {
                "status": "ok",
                "operation": "register_function",
                "name": udf_obj.name,
            }
        if kind == "command.extension":
            return self.extensions.execute_command(
                command.get("name", ""), command.get("payload", {}), session, self
            )
        raise UnsupportedOperationError(f"unknown command type '{kind}'")

    def _execute_sql_command(
        self, session: SessionState, sql: str
    ) -> dict[str, Any]:
        ctx = session.user_ctx
        stmt = parse_statement(sql)

        if isinstance(stmt, ast.CreateTableStatement):
            schema_name = stmt.name.rsplit(".", 1)[0]
            self.catalog.check_privilege(ctx, CREATE_TABLE, schema_name)
            fields = tuple(
                Field(name, type_from_name(type_name))
                for name, type_name in stmt.columns
            )
            self.catalog.create_table(stmt.name, Schema(fields), owner=ctx.user)
            return {"status": "ok", "operation": "create_table", "name": stmt.name}

        if isinstance(stmt, ast.CreateTableAsSelectStatement):
            schema_name = stmt.name.rsplit(".", 1)[0]
            self.catalog.check_privilege(ctx, CREATE_TABLE, schema_name)
            query = parse_statement(stmt.query_sql)
            from repro.sql.to_plan import PlanBuilder

            plan = PlanBuilder(self._function_lookup(session)).build(query)
            result = self._execute_plan(session, plan)
            bare = Schema(
                tuple(Field(f.name, f.dtype) for f in result.batch.schema)
            )
            self.catalog.create_table(stmt.name, bare, owner=ctx.user)
            columns = {
                f.name: col
                for f, col in zip(result.batch.schema, result.batch.columns)
            }
            self.catalog.write_table(stmt.name, columns, ctx)
            return {
                "status": "ok",
                "operation": "create_table_as_select",
                "name": stmt.name,
                "rows": result.batch.num_rows,
            }

        if isinstance(stmt, ast.DropObjectStatement):
            obj = self.catalog.get_object(stmt.name)
            if stmt.kind == "TABLE" and obj.kind != "TABLE":
                raise AnalysisError(f"'{stmt.name}' is not a table ({obj.kind})")
            if stmt.kind == "VIEW" and obj.kind not in ("VIEW", "MATERIALIZED_VIEW"):
                raise AnalysisError(f"'{stmt.name}' is not a view ({obj.kind})")
            self.catalog.drop_object(stmt.name, ctx)
            return {"status": "ok", "operation": "drop", "name": stmt.name}

        if isinstance(stmt, ast.ShowGrantsStatement):
            self.catalog._require_manage(ctx, stmt.securable, "show_grants")
            grants = [
                {"principal": g.principal, "privilege": g.privilege}
                for g in self.catalog.grants.grants_on(stmt.securable)
            ]
            return {
                "status": "ok",
                "operation": "show_grants",
                "securable": stmt.securable,
                "grants": grants,
            }

        if isinstance(stmt, ast.DescribeStatement):
            self.catalog.check_privilege(ctx, "SELECT", stmt.name)
            table = self.catalog.get_table(stmt.name)
            masked = {m.column for m in self.catalog.column_masks_of(stmt.name)}
            columns = [
                {
                    "name": f.name,
                    "type": f.dtype.name,
                    "masked": f.name in masked,
                    "tags": sorted(self.catalog.tags.column_tags(stmt.name, f.name)),
                }
                for f in table.schema
            ]
            return {
                "status": "ok",
                "operation": "describe",
                "name": stmt.name,
                "columns": columns,
                "row_filter": self.catalog.row_filter_of(stmt.name) is not None,
            }

        if isinstance(stmt, ast.CreateViewStatement):
            schema_name = stmt.name.rsplit(".", 1)[0]
            self.catalog.check_privilege(ctx, CREATE_TABLE, schema_name)
            if stmt.materialized:
                self.catalog.create_materialized_view(
                    stmt.name, stmt.query_sql, owner=ctx.user
                )
                self.refresh_materialized_view(stmt.name, session)
            else:
                self.catalog.create_view(stmt.name, stmt.query_sql, owner=ctx.user)
            return {"status": "ok", "operation": "create_view", "name": stmt.name}

        if isinstance(stmt, ast.InsertStatement):
            rows: list[tuple] = [tuple(r) for r in stmt.rows]
            if stmt.query_sql is not None:
                _, source_columns = self._materialize_query(
                    session, stmt.query_sql
                )
                rows = list(zip(*source_columns.values())) if source_columns else []
            return self._run_write(
                session, "insert", lambda txn: txn.insert(stmt.table, rows)
            )

        if isinstance(stmt, ast.UpdateStatement):
            return self._run_write(
                session,
                "update",
                lambda txn: txn.update(
                    stmt.table, dict(stmt.assignments), stmt.where
                ),
            )

        if isinstance(stmt, ast.DeleteStatement):
            return self._run_write(
                session,
                "delete",
                lambda txn: txn.delete(stmt.table, stmt.where),
            )

        if isinstance(stmt, ast.MergeStatement):
            # The source is read up front through the full governed pipeline
            # (its row filters / masks / privileges all apply), so the
            # transaction tier only has to govern the target side.
            source_schema, source_columns = self._materialize_query(
                session, f"SELECT * FROM {stmt.source}"
            )
            source_alias = stmt.source_alias or stmt.source.rpartition(".")[2]
            target_alias = stmt.target_alias or stmt.target.rpartition(".")[2]
            return self._run_write(
                session,
                "merge",
                lambda txn: txn.merge(
                    stmt.target,
                    target_alias,
                    source_schema,
                    source_columns,
                    source_alias,
                    stmt.on,
                    None if stmt.matched_assignments is None
                    else dict(stmt.matched_assignments),
                    stmt.matched_delete,
                    stmt.insert_values,
                ),
            )

        if isinstance(stmt, ast.BeginStatement):
            if session.active_txn is not None:
                raise AnalysisError(
                    "a transaction is already open in this session "
                    f"({session.active_txn.txn_id}); COMMIT or ROLLBACK first"
                )
            txn = self.catalog.txn_manager.begin(session.user_ctx)
            session.active_txn = txn
            # Plans compiled outside the transaction must not be reused
            # inside it (and vice versa): reads now resolve at pinned
            # snapshots.
            session.bump_temp_state()
            return {"status": "ok", "operation": "begin", "txn_id": txn.txn_id}

        if isinstance(stmt, ast.CommitStatement):
            txn = session.active_txn
            if txn is None:
                raise AnalysisError("COMMIT without an open transaction")
            session.active_txn = None
            session.bump_temp_state()
            txn.commit()
            return {"status": "ok", "operation": "commit", "txn_id": txn.txn_id}

        if isinstance(stmt, ast.RollbackStatement):
            txn = session.active_txn
            if txn is None:
                raise AnalysisError("ROLLBACK without an open transaction")
            session.active_txn = None
            session.bump_temp_state()
            txn.rollback()
            return {
                "status": "ok",
                "operation": "rollback",
                "txn_id": txn.txn_id,
            }

        if isinstance(stmt, ast.GrantStatement):
            self.catalog.grant_checked(
                ctx, stmt.privilege, stmt.securable, stmt.principal
            )
            return {"status": "ok", "operation": "grant"}

        if isinstance(stmt, ast.RevokeStatement):
            self.catalog.revoke_checked(
                ctx, stmt.privilege, stmt.securable, stmt.principal
            )
            return {"status": "ok", "operation": "revoke"}

        if isinstance(stmt, ast.SetRowFilterStatement):
            self.catalog.set_row_filter(
                stmt.table,
                RowFilter(stmt.table, stmt.condition, created_by=ctx.user),
                ctx,
            )
            return {"status": "ok", "operation": "set_row_filter"}

        if isinstance(stmt, ast.DropRowFilterStatement):
            self.catalog.drop_row_filter(stmt.table, ctx)
            return {"status": "ok", "operation": "drop_row_filter"}

        if isinstance(stmt, ast.SetColumnMaskStatement):
            self.catalog.set_column_mask(
                stmt.table,
                ColumnMask(stmt.table, stmt.column, stmt.mask, created_by=ctx.user),
                ctx,
            )
            return {"status": "ok", "operation": "set_column_mask"}

        if isinstance(stmt, ast.DropColumnMaskStatement):
            self.catalog.drop_column_mask(stmt.table, stmt.column, ctx)
            return {"status": "ok", "operation": "drop_column_mask"}

        raise UnsupportedOperationError(
            f"statement {type(stmt).__name__} is not an executable command"
        )

    def _run_write(
        self,
        session: SessionState,
        operation: str,
        body: Callable[[Any], Any],
    ) -> dict[str, Any]:
        """Stage ``body`` into the session's open transaction, or auto-commit.

        Outside BEGIN/COMMIT every write statement is its own transaction:
        staged, conflict-checked and committed (with conflict retry) before
        the command returns. Inside an open transaction the write only
        stages; nothing becomes visible until COMMIT.
        """
        txn = session.active_txn
        if txn is not None:
            staged_rows = body(txn)
            response: dict[str, Any] = {
                "status": "ok",
                "operation": operation,
                "staged": True,
                "txn_id": txn.txn_id,
            }
        else:
            staged_rows = self.catalog.txn_manager.run(session.user_ctx, body)
            response = {"status": "ok", "operation": operation}
        if isinstance(staged_rows, int):
            response["rows"] = staged_rows
        return response

    def _materialize_query(
        self, session: SessionState, sql: str
    ) -> tuple[Schema, dict[str, list[Any]]]:
        """Run a SELECT through the governed pipeline; return its bare output.

        Used by INSERT INTO ... SELECT and by MERGE source materialization:
        the source relation is read under the caller's full policy set (row
        filters, masks, privileges) before the transaction tier ever sees it.
        """
        query = parse_statement(sql)
        from repro.sql.to_plan import PlanBuilder

        plan = PlanBuilder(self._function_lookup(session)).build(query)
        result = self._execute_plan(session, plan)
        bare = Schema(
            tuple(Field(f.name, f.dtype) for f in result.batch.schema)
        )
        columns = {
            f.name: list(col)
            for f, col in zip(result.batch.schema, result.batch.columns)
        }
        return bare, columns

    # ------------------------------------------------------------------
    # Materialized views
    # ------------------------------------------------------------------

    def refresh_materialized_view(self, name: str, session: SessionState) -> None:
        """Recompute a materialized view's data as its owner."""
        obj = self.catalog.get_object(name)
        stmt = parse_statement(obj.sql_text)
        from repro.sql.to_plan import PlanBuilder

        plan = PlanBuilder(self._function_lookup(session)).build(stmt)
        result = self._execute_plan(session, plan)
        columns = {
            f.name: col for f, col in zip(result.batch.schema, result.batch.columns)
        }
        # Strip any qualifiers: materialized storage uses bare names.
        bare = Schema(tuple(Field(f.name, f.dtype) for f in result.batch.schema))
        self.catalog.store_materialization(name, bare, columns)

    # ------------------------------------------------------------------
    # Direct submission (used by the serverless pool for eFGAC subqueries)
    # ------------------------------------------------------------------

    def run_relation_for_user(
        self, user: str, relation: dict[str, Any]
    ) -> tuple[list[dict[str, str]], list[list[Any]]]:
        """Execute a relation for ``user`` without a Connect session.

        When called underneath an active query (the eFGAC path: a Dedicated
        cluster's RemoteScan routed through the gateway), the sub-plan runs
        in a *child* context of that query — same trace id, parented onto
        the caller's current span — so the remote work appears as a subtree
        of the originating query's trace.
        """
        session = self._ephemeral_session(user)
        parent = current_context()
        query_ctx = None
        if parent is not None:
            query_ctx = parent.child(
                user=user,
                session_id=session.session_id,
                cluster_id=self.cluster_id,
            )
        return self.execute_relation(session, relation, query_ctx=query_ctx)

    def analyze_relation_for_user(
        self, user: str, relation: dict[str, Any]
    ) -> list[dict[str, str]]:
        session = self._ephemeral_session(user)
        return self.analyze_relation(session, relation)

    def _ephemeral_session(self, user: str) -> SessionState:
        ctx = self.authenticate(user)
        return SessionState(
            session_id=new_id("session"),
            user_ctx=ctx,
            created_at=self.clock.now(),
            last_active=self.clock.now(),
        )
