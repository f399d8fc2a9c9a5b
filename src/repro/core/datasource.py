"""Governed data source: executor-side scans with credential vending (Fig. 2).

Every scan task exchanges the session identity for a temporary, table-scoped
credential before touching storage — data access is *user-bound*, never
cluster-bound. Files of a snapshot are distributed round-robin across
simulated executors; with ``num_executors > 1`` the tasks run concurrently on
a shared thread pool, each reading under the vended credential, so the audit
log still shows per-user, per-object access.

Two performance layers live here:

- a :class:`~repro.storage.credentials.CredentialCache` so a multi-file,
  multi-task or repeated scan vends once per (principal, table, operations)
  per policy epoch instead of once per query;
- parallel task execution. :class:`~repro.common.context.QueryContext`
  ambient propagation is ``contextvars``-based and therefore does **not**
  cross thread boundaries, so each worker receives an explicit per-task
  child context (same trace id, parented on the query's current span) —
  ``scan-task-*`` spans always join the originating query's trace.
"""

from __future__ import annotations

import random
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.catalog.metastore import UnityCatalog
from repro.common.context import QueryContext, QueryDeadlineExceeded, span_or_null
from repro.catalog.privileges import UserContext
from repro.catalog.scopes import ComputeCapabilities
from repro.engine.batch import ColumnBatch, chunk_batch
from repro.engine.expressions import EvalContext
from repro.engine.logical import TableRef
from repro.errors import (
    CredentialError,
    ExecutionError,
    RetryableError,
    StorageAccessDenied,
)
from repro.storage.credentials import (
    LIST,
    READ,
    CredentialCache,
    TemporaryCredential,
)
from repro.storage.table_format import DataFile, LakeTableStorage


#: First scan-retry backoff in seconds; doubles per attempt, with jitter.
SCAN_RETRY_BASE_DELAY = 0.02


@dataclass
class ScanStats:
    """Per-query scan counters: files, credentials, executor tasks."""

    files_read: int = 0
    credentials_vended: int = 0
    credential_cache_hits: int = 0
    executor_tasks: int = 0
    #: Scans that ran their tasks on the thread pool (vs. the serial path).
    parallel_scans: int = 0


@dataclass
class RecoveryStats:
    """Fault-recovery counters kept by one governed data source."""

    #: File reads replayed after a transient storage/credential failure.
    scan_retries: int = 0
    #: Credentials re-vended mid-query after auth expiry / revocation.
    credential_revends: int = 0


class _RetryJitter:
    """A scan task's seeded jitter stream, built on the task's first retry.

    Almost no task ever retries, so seeding a ``random.Random`` per task up
    front is pure overhead; deferring it keeps the stream (same seed, same
    draws) and with it every seeded chaos schedule.
    """

    __slots__ = ("_seed", "_rng")

    def __init__(self, task_index: int):
        self._seed = f"scan-retry:{task_index}"
        self._rng: random.Random | None = None

    def uniform(self, low: float, high: float) -> float:
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng.uniform(low, high)


class _SharedCredential:
    """One credential shared by a scan's tasks, re-vendable mid-query.

    When storage rejects the credential mid-scan (expiry, out-of-band
    revocation), the first task to notice re-vends under the holder's lock;
    racing tasks that held the same stale credential pick up the
    replacement instead of each paying its own vend.
    """

    def __init__(
        self,
        credential: TemporaryCredential,
        revend: Callable[[], TemporaryCredential],
    ):
        self._lock = threading.Lock()
        self._credential = credential
        self._revend = revend

    def current(self) -> TemporaryCredential:
        with self._lock:
            return self._credential

    def replace(self, stale: TemporaryCredential) -> TemporaryCredential:
        """Swap out ``stale``; no-op if another task already replaced it."""
        with self._lock:
            if self._credential is stale:
                self._credential = self._revend()
            return self._credential


def _drain_pool_cell(cell: list) -> None:
    """Shut down the lazily-created scan thread pool (finalizer-safe)."""
    pool = cell[0]
    cell[0] = None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


class GovernedDataSource:
    """DataSource implementation backed by Unity Catalog storage."""

    def __init__(
        self,
        catalog: UnityCatalog,
        caps: ComputeCapabilities,
        num_executors: int = 2,
        enable_credential_cache: bool = True,
        scan_retries: int = 2,
        artifact_store: "Any | None" = None,
    ):
        self._catalog = catalog
        self._caps = caps
        self._num_executors = max(1, num_executors)
        #: Bounded per-file retries for retryable storage/credential faults
        #: (0 disables recovery — the ablation baseline).
        self._scan_retries = max(0, scan_retries)
        self.stats = ScanStats()
        self.recovery_stats = RecoveryStats()
        self.credential_cache: CredentialCache | None = None
        if enable_credential_cache:
            self.credential_cache = CredentialCache(
                clock=catalog.clock,
                telemetry=catalog.telemetry,
                faults=catalog.faults,
                # Credentials ride the artifact store's memory-pinned tier
                # only — never the disk spill.
                persistent=artifact_store,
            )
        # The scan thread pool is created lazily and torn down by close()
        # (cluster shutdown) or, failing that, by the finalizer — worker
        # threads must not outlive the data source that spawned them. The
        # cell indirection keeps the finalizer from holding ``self`` alive.
        self._pool_cell: list[ThreadPoolExecutor | None] = [None]
        self._pool_lock = threading.Lock()
        self._pool_finalizer = weakref.finalize(
            self, _drain_pool_cell, self._pool_cell
        )

    def recovery_stats_snapshot(self) -> dict[str, float]:
        """Flat recovery counters for ``system.access.fault_stats``."""
        return {
            "scan_retries": float(self.recovery_stats.scan_retries),
            "credential_revends": float(self.recovery_stats.credential_revends),
        }

    def _task_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool_cell[0] is None:
                self._pool_cell[0] = ThreadPoolExecutor(
                    max_workers=self._num_executors,
                    thread_name_prefix="scan-exec",
                )
            return self._pool_cell[0]

    def close(self) -> None:
        """Release the scan thread pool (idempotent; wired to cluster shutdown).

        Drains the cell rather than invoking the (one-shot) finalizer, so a
        pool re-created by a later scan keeps its garbage-collection guard.
        """
        with self._pool_lock:
            _drain_pool_cell(self._pool_cell)

    def _delegate_context(self, delegate: str) -> UserContext:
        if self._catalog.principals.is_user(delegate):
            return self._catalog.principals.context_for(delegate)
        return UserContext(user=delegate)

    def _credential_for(self, table: TableRef, ctx: UserContext):
        """Vend (or reuse) the user-bound credential for one scan."""
        if table.auth_delegate is not None:
            # Definer-rights scan (view body): the credential is vended under
            # the definer's authority; the session user stays in the audit.
            vend_ctx = self._delegate_context(table.auth_delegate)
            on_behalf_of = ctx.user
        else:
            vend_ctx = ctx
            on_behalf_of = None

        def vend():
            return self._catalog.vend_credential(
                vend_ctx, table.full_name, {READ, LIST}, self._caps,
                on_behalf_of=on_behalf_of,
            )

        if self.credential_cache is None:
            self.stats.credentials_vended += 1
            return vend()
        credential, reused = self.credential_cache.get_or_vend(
            principal=vend_ctx.user,
            securable=table.full_name,
            operations=frozenset({READ, LIST}),
            on_behalf_of=on_behalf_of,
            policy_epoch=self._catalog.policy_epoch,
            vend=vend,
            validate=self._catalog.vendor.validate,
        )
        if reused:
            self.stats.credential_cache_hits += 1
        else:
            self.stats.credentials_vended += 1
        return credential

    def _scan_setup(
        self, table: TableRef, eval_ctx: EvalContext
    ) -> tuple[
        TemporaryCredential,
        _SharedCredential,
        LakeTableStorage,
        list[tuple[int, list[DataFile]]],
    ]:
        """Shared scan prologue: authenticate, vend, snapshot, assign tasks.

        Both execution backends start here; they differ only in *where* the
        bytes are deserialized and filtered afterwards.
        """
        ctx = eval_ctx.auth
        if not isinstance(ctx, UserContext):
            raise ExecutionError(
                f"scan of '{table.full_name}' has no authenticated user context"
            )
        if table.storage_root is None:
            raise ExecutionError(
                f"'{table.full_name}' has no storage visible to this compute"
            )
        credential = self._credential_for(table, ctx)
        vend_principal = (
            self._delegate_context(table.auth_delegate).user
            if table.auth_delegate is not None
            else ctx.user
        )

        def revend() -> TemporaryCredential:
            # Auth expired (or was revoked out of band) mid-query: drop the
            # cached entry so _credential_for re-runs the privilege check
            # and vends fresh, then count the recovery.
            if self.credential_cache is not None:
                self.credential_cache.invalidate_principal(vend_principal)
            fresh = self._credential_for(table, ctx)
            self.recovery_stats.credential_revends += 1
            self._catalog.faults.record_recovery("credential.revend")
            return fresh

        holder = _SharedCredential(credential, revend)
        storage = LakeTableStorage(self._catalog.store, table.storage_root)
        snapshot = storage.snapshot(credential, version=table.snapshot_version)

        # Distribute files over simulated executor tasks round-robin; each
        # task reads with the same user-bound credential.
        assignments: list[list[DataFile]] = [[] for _ in range(self._num_executors)]
        for i, data_file in enumerate(snapshot.files):
            assignments[i % self._num_executors].append(data_file)
        tasks = [(i, files) for i, files in enumerate(assignments) if files]
        return credential, holder, storage, tasks

    def scan(self, table: TableRef, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        credential, holder, storage, tasks = self._scan_setup(table, eval_ctx)
        batch_size = getattr(eval_ctx, "batch_size", 0)
        qctx: QueryContext | None = getattr(eval_ctx, "query_ctx", None)

        def read_with_recovery(
            data_file: DataFile,
            task_ctx: QueryContext | None,
            rng: "_RetryJitter",
        ) -> dict[str, list]:
            """One file read with bounded, deadline-aware retries.

            Transient storage faults are simply retried; a credential
            rejection additionally re-vends through the shared holder
            (at most once per stale credential across all tasks).
            """
            attempt = 0
            while True:
                cred = holder.current()
                try:
                    columns = storage.read_file(data_file, cred)
                    if attempt:
                        self._catalog.faults.record_recovery("scan.task_retry")
                    return columns
                except (StorageAccessDenied, CredentialError) as exc:
                    if attempt >= self._scan_retries:
                        raise
                    holder.replace(cred)
                    self._retry_backoff(attempt, task_ctx, rng, exc, data_file)
                    attempt += 1
                except RetryableError as exc:
                    if attempt >= self._scan_retries:
                        raise
                    self._retry_backoff(attempt, task_ctx, rng, exc, data_file)
                    attempt += 1

        def run_task(
            task_index: int,
            task_files: list[DataFile],
            task_ctx: QueryContext | None,
        ) -> list[ColumnBatch]:
            # Materialize the task's files inside its span so the span
            # measures the read, not downstream operator time.
            rng = _RetryJitter(task_index)
            with span_or_null(
                task_ctx,
                f"scan-task-{task_index}",
                "executor.task",
                table=table.full_name,
                task=task_index,
                files=len(task_files),
                credential_identity=credential.identity,
            ):
                batches = []
                for data_file in task_files:
                    columns = read_with_recovery(data_file, task_ctx, rng)
                    batches.append(ColumnBatch.from_dict(table.schema, columns))
                return batches

        produced = False
        if self._num_executors > 1 and len(tasks) > 1:
            # Parallel path: the ambient contextvar does not cross threads,
            # so each task gets an explicit child context created *here*
            # (while the query's span is current) to parent its span onto.
            self.stats.parallel_scans += 1
            pool = self._task_pool()
            futures = [
                (
                    task_files,
                    pool.submit(
                        run_task,
                        task_index,
                        task_files,
                        qctx.child() if qctx is not None else None,
                    ),
                )
                for task_index, task_files in tasks
            ]
            # Consume in submission order: deterministic output regardless
            # of which worker finishes first.
            for task_files, future in futures:
                batches = future.result()
                self.stats.executor_tasks += 1
                self.stats.files_read += len(task_files)
                for batch in batches:
                    for chunk in chunk_batch(batch, batch_size):
                        produced = True
                        yield chunk
        else:
            for task_index, task_files in tasks:
                batches = run_task(task_index, task_files, qctx)
                self.stats.executor_tasks += 1
                self.stats.files_read += len(task_files)
                for batch in batches:
                    for chunk in chunk_batch(batch, batch_size):
                        produced = True
                        yield chunk
        if not produced:
            yield ColumnBatch.empty(table.schema)

    def scan_pipeline(
        self,
        table: TableRef,
        eval_ctx: EvalContext,
        spec: dict,
        pool,
        on_rows: Callable[[int], None],
    ) -> Iterator[ColumnBatch]:
        """Process-backend scan: per-file blobs travel raw into worker
        processes over shared memory; deserialization, pushed filters,
        column pruning and an optional fused filter→project kernel run
        in-worker (``spec`` carries them, see ``PhysScan.pooled_scan``).

        The driver keeps everything governance- and recovery-critical from
        :meth:`scan`: credential vending (including mid-query revends through
        the shared holder), the actual storage reads (so the ``storage.get``
        chaos point, latency simulation and byte accounting are unchanged),
        bounded deadline-aware retries, and the
        ``scan-task-*`` executor spans. A *retryable* failure reported by a
        worker — corrupt blob, injected ``worker.task`` fault — is recovered
        here by re-reading the object and resubmitting, matching the thread
        path's re-read contract; ``on_rows`` receives each file's pre-filter
        row count so driver metrics agree across backends.
        """
        credential, holder, storage, tasks = self._scan_setup(table, eval_ctx)
        batch_size = getattr(eval_ctx, "batch_size", 0)
        qctx: QueryContext | None = getattr(eval_ctx, "query_ctx", None)
        out_schema = spec["out_schema"]

        filters_blob = None
        if spec["pushed_filters"]:
            import cloudpickle

            filters_blob = cloudpickle.dumps(tuple(spec["pushed_filters"]))
        kspec = None
        if spec["kernel"] is not None:
            kspec = pool.kernel_spec(
                spec["kernel"],
                spec["exprs"],
                spec.get("kernel_mode", "filter-project"),
            )

        def run_file(
            data_file: DataFile,
            task_ctx: QueryContext | None,
            rng: "_RetryJitter",
        ) -> tuple[ColumnBatch, int]:
            """Read one blob and run it through a worker, with recovery.

            One retry loop covers both failure domains — a storage/credential
            fault during the read and a retryable worker error afterwards —
            because the remedy is the same: (maybe re-vend,) re-read,
            resubmit.
            """
            attempt = 0
            while True:
                cred = holder.current()
                try:
                    blob = storage.read_raw(data_file, cred)
                    task = {
                        "op": "scan",
                        "table": table.full_name,
                        "schema": table.schema,
                        "blob_len": len(blob),
                        "filters_blob": filters_blob,
                        "required_indices": spec["required_columns"],
                        "kernel": kspec,
                        "user": eval_ctx.user,
                        "groups": tuple(eval_ctx.groups),
                        "trace_id": (
                            task_ctx.trace_id if task_ctx is not None else ""
                        ),
                        "session_id": (
                            task_ctx.session_id if task_ctx is not None else ""
                        ),
                        "cluster_id": (
                            task_ctx.cluster_id if task_ctx is not None else ""
                        ),
                    }
                    # retries=0 (the default): recovery decisions — re-vend?
                    # re-read? deadline? — belong to this layer, not the pool.
                    columns, num_rows, info = pool.submit(
                        task, blob, len(blob)
                    ).result()
                except (StorageAccessDenied, CredentialError) as exc:
                    if attempt >= self._scan_retries:
                        raise
                    holder.replace(cred)
                    self._retry_backoff(attempt, task_ctx, rng, exc, data_file)
                    attempt += 1
                except RetryableError as exc:
                    if attempt >= self._scan_retries:
                        raise
                    self._retry_backoff(attempt, task_ctx, rng, exc, data_file)
                    attempt += 1
                else:
                    if attempt:
                        self._catalog.faults.record_recovery("scan.task_retry")
                    return (
                        ColumnBatch(out_schema, columns),
                        info.get("rows_in", 0),
                    )

        def run_task(
            task_index: int,
            task_files: list[DataFile],
            task_ctx: QueryContext | None,
        ) -> list[tuple[ColumnBatch, int]]:
            rng = _RetryJitter(task_index)
            with span_or_null(
                task_ctx,
                f"scan-task-{task_index}",
                "executor.task",
                table=table.full_name,
                task=task_index,
                files=len(task_files),
                credential_identity=credential.identity,
                backend="process",
            ):
                return [run_file(f, task_ctx, rng) for f in task_files]

        produced = False
        if self._num_executors > 1 and len(tasks) > 1:
            self.stats.parallel_scans += 1
            tpool = self._task_pool()
            futures = [
                (
                    task_files,
                    tpool.submit(
                        run_task,
                        task_index,
                        task_files,
                        qctx.child() if qctx is not None else None,
                    ),
                )
                for task_index, task_files in tasks
            ]
            for task_files, future in futures:
                results = future.result()
                self.stats.executor_tasks += 1
                self.stats.files_read += len(task_files)
                for batch, rows_in in results:
                    # Driver-side callback (not from pool threads): metric
                    # increments stay single-threaded, as on the thread path.
                    on_rows(rows_in)
                    for chunk in chunk_batch(batch, batch_size):
                        produced = True
                        yield chunk
        else:
            for task_index, task_files in tasks:
                results = run_task(task_index, task_files, qctx)
                self.stats.executor_tasks += 1
                self.stats.files_read += len(task_files)
                for batch, rows_in in results:
                    on_rows(rows_in)
                    for chunk in chunk_batch(batch, batch_size):
                        produced = True
                        yield chunk
        if not produced:
            yield ColumnBatch.empty(out_schema)

    # -- recovery helpers ------------------------------------------------------

    def _retry_backoff(
        self,
        attempt: int,
        task_ctx: QueryContext | None,
        rng: "_RetryJitter",
        exc: Exception,
        data_file: DataFile,
    ) -> None:
        """Sleep before a scan-task retry; never sleeps past the deadline.

        The backoff grows exponentially with full jitter (task-seeded, so a
        run replays). When the task context carries a deadline the sleep is
        checked against it first — crossing it raises
        :class:`~repro.common.context.QueryDeadlineExceeded` chained to the
        transient failure instead of burning the remaining budget.
        """
        delay = SCAN_RETRY_BASE_DELAY * (2**attempt)
        delay *= 1.0 - rng.uniform(0.0, 0.5)
        if task_ctx is not None:
            remaining = task_ctx.remaining()
            if remaining is not None and delay >= remaining:
                raise QueryDeadlineExceeded(
                    f"query {task_ctx.trace_id}: retrying scan of "
                    f"'{data_file.path}' would cross the deadline "
                    f"({max(0.0, remaining):.3f}s left)"
                ) from exc
        self.recovery_stats.scan_retries += 1
        with span_or_null(
            task_ctx,
            f"scan-retry-{attempt}",
            "recovery.retry",
            file=data_file.path,
            attempt=attempt,
            error=type(exc).__name__,
            backoff_seconds=delay,
        ):
            self._catalog.clock.sleep(delay)
