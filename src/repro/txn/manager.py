"""Multi-statement transactions with snapshot isolation over governed tables.

The transaction tier sits between the SQL write statements and the table
format's atomic commit primitive:

- **Snapshot isolation.** A transaction pins each table's durable version at
  first touch (read or write); every read inside the transaction resolves at
  the pin, and commit-time conflict detection compares the pin against the
  live tip.
- **Optimistic concurrency.** Statements stage :mod:`~repro.txn.writes` ops
  without touching storage. At commit, each table's ops are materialized
  into new data files and published with one atomic
  :meth:`~repro.storage.table_format.LakeTableStorage.commit_version` call.
  A *read-dependent* transaction (UPDATE/DELETE/MERGE) whose table advanced
  past its pin aborts with :class:`~repro.errors.CommitConflictError`;
  blind inserts are position-independent and rebase onto the new tip.
- **Bounded conflict retry.** :meth:`TransactionManager.run` re-runs the
  whole transaction body under jittered exponential backoff when the commit
  loses a race — the caller's read-modify-write is re-executed against the
  new snapshot, which is the only sound way to retry a read-dependent
  transaction.
- **Chaos points.** ``txn.conflict_check`` / ``txn.write_file`` /
  ``txn.commit`` fire *before* their step touches state, so the bounded
  fault-absorbing retries around each step can re-run it safely; an
  injected fault never changes what commits.

Caches learn about transactional writes only at commit:
``bump_data_epoch`` is called once per committed transaction, never for
aborted ones — an abort is invisible to every cache tier.

Known gap (documented in DESIGN.md): a transaction touching several tables
commits them one at a time; atomicity is per table, as in Delta Lake.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, TYPE_CHECKING

from repro.catalog.privileges import MODIFY, UserContext
from repro.catalog.system_tables import TXN_STATS
from repro.common.ids import sequential_id
from repro.engine.compile import KernelCompiler
from repro.engine.expressions import Expression
from repro.engine.types import Schema
from repro.errors import (
    AnalysisError,
    CommitConflictError,
    FaultInjectedError,
    RetryableError,
    SecurableNotFound,
    StorageError,
    TransactionAbortedError,
    TransientStorageError,
)
from repro.scheduler.circuit_breaker import retry_with_backoff
from repro.storage.credentials import DELETE, LIST, READ, WRITE
from repro.txn.writes import (
    DeleteOp,
    InsertOp,
    MergeOp,
    StagedWrite,
    UpdateOp,
    apply_ops,
    bind_expression,
    bound_row_filter,
    check_write,
    combined_schema,
    eval_context_for,
    qualified_schema,
    referenced_columns,
)

if TYPE_CHECKING:
    from repro.catalog.metastore import UnityCatalog
    from repro.storage.table_format import LakeTableStorage, TableSnapshot

#: Bounded retries absorbing injected/transient faults around each commit
#: step (conflict check, file staging, the commit itself).
TXN_FAULT_RETRIES = 4

#: Bounded whole-transaction re-runs after a lost commit race
#: (:meth:`TransactionManager.run`).
TXN_CONFLICT_RETRIES = 6

#: Base backoff delay for both retry ladders (jittered, exponential).
TXN_RETRY_BASE = 0.01


class TransactionManager:
    """Factory and statistics hub for governed transactions."""

    def __init__(self, catalog: "UnityCatalog"):
        self._catalog = catalog
        #: Row filters, WHERE / ON predicates and SET lists of every commit
        #: run as generated kernels of the engine's compiler; literals bind
        #: through the kernel env, so a repeated statement shape is a hit.
        self.compiler = KernelCompiler()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {
            "begun": 0,
            "committed": 0,
            "aborted": 0,
            "conflicts": 0,
            "retries": 0,
            "files_staged": 0,
            "files_discarded": 0,
            "recovered_commits": 0,
            "orphans_swept": 0,
        }
        catalog.system_tables.register_stats_provider(
            TXN_STATS, "txn[manager]", self.stats_snapshot
        )

    # -- lifecycle ------------------------------------------------------------

    def begin(self, ctx: UserContext) -> "Transaction":
        """Open a transaction acting as ``ctx``."""
        self._count("begun")
        return Transaction(self, self._catalog, ctx)

    def run(
        self,
        ctx: UserContext,
        body: Callable[["Transaction"], Any],
        seed: int = 0,
        retries: int = TXN_CONFLICT_RETRIES,
    ) -> Any:
        """Run ``body(txn)`` in a fresh transaction, committing on return.

        On :class:`~repro.errors.CommitConflictError` the *whole body* is
        re-executed in a new transaction against the fresh snapshot, under
        jittered exponential backoff (``seed`` decorrelates concurrent
        agents). Any other exception rolls back and propagates.
        """

        def attempt() -> Any:
            txn = self.begin(ctx)
            try:
                result = body(txn)
            except BaseException:
                if txn.state == "open":
                    txn.rollback()
                raise
            if txn.state == "open":
                txn.commit()
            return result

        return retry_with_backoff(
            attempt,
            clock=self._catalog.clock,
            retries=retries,
            base_delay=TXN_RETRY_BASE,
            seed=seed,
            retry_on=(CommitConflictError,),
        )

    def recover_table(self, ctx: UserContext, full_name: str) -> dict[str, int]:
        """Roll back torn commits and sweep orphaned files of one table.

        Requires MODIFY (recovery rewrites the log). Bumps the data epoch
        when anything was repaired, since the visible tip may have moved.
        """
        table = self._catalog.get_table(full_name)
        self._catalog.check_privilege(ctx, MODIFY, full_name)
        credential = self._catalog.vendor.issue(
            identity=ctx.user,
            prefixes=[table.storage_root],
            operations={READ, WRITE, LIST, DELETE},
        )
        try:
            report = self._catalog.table_storage(table).recover(credential)
        finally:
            self._catalog.vendor.revoke(credential.token)
        self._count("recovered_commits", report["torn_commits_rolled_back"])
        self._count("orphans_swept", report["orphan_files_swept"])
        if any(report.values()):
            self._catalog.bump_data_epoch("txn-recover")
        return report

    # -- statistics -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if n:
            with self._lock:
                self._counters[name] = self._counters.get(name, 0) + n

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat counters for ``system.access.txn_stats``."""
        with self._lock:
            return dict(self._counters)


class Transaction:
    """One open multi-statement transaction (snapshot-isolated, optimistic)."""

    def __init__(
        self, manager: TransactionManager, catalog: "UnityCatalog", ctx: UserContext
    ):
        self._manager = manager
        self._catalog = catalog
        self.ctx = ctx
        self.txn_id = sequential_id("txn")
        self.state = "open"
        #: Table name -> durable snapshot pinned at first touch. Resolved
        #: once: reads resolve at its version, commit reads its files.
        self._pins: dict[str, "TableSnapshot"] = {}
        self._staged: dict[str, StagedWrite] = {}

    # -- snapshot pinning -----------------------------------------------------

    def pin_for_read(self, full_name: str) -> int | None:
        """Snapshot version reads of ``full_name`` must resolve at.

        Returns ``None`` for anything that is not a managed table (views
        and system tables have no version to pin). Used by the resolver's
        ``version_pin`` hook so SELECTs inside the transaction see the
        pinned snapshot — and so a later write conflict-checks against the
        version the reads actually saw.
        """
        if self.state != "open":
            return None
        try:
            self._catalog.get_table(full_name)
        except SecurableNotFound:
            return None
        return self._pin(full_name).version

    def _pin(self, full_name: str) -> "TableSnapshot":
        if full_name not in self._pins:
            self._pins[full_name] = self._catalog.current_table_snapshot(full_name)
        return self._pins[full_name]

    # -- statement staging ----------------------------------------------------

    def _require_open(self) -> None:
        if self.state != "open":
            raise TransactionAbortedError(
                f"transaction {self.txn_id} is {self.state}; "
                "begin a new transaction"
            )

    def _staged_for(self, full_name: str) -> StagedWrite:
        # Statements call this (and so pin) *before* their governance checks
        # run, so a conflict detected at commit reflects the version the
        # statement actually reasoned about.
        if full_name not in self._staged:
            table = self._catalog.get_table(full_name)
            self._staged[full_name] = StagedWrite(
                table=full_name,
                schema=table.schema,
                row_filter=bound_row_filter(self._catalog, full_name, table.schema),
            )
        self._pin(full_name)
        return self._staged[full_name]

    def insert(self, full_name: str, rows: list[tuple]) -> int:
        """Stage literal rows (in table column order) for appending."""
        self._require_open()
        check_write(self._catalog, self.ctx, full_name, reads_rows=False)
        staged = self._staged_for(full_name)
        width = len(staged.schema)
        for row in rows:
            if len(row) != width:
                raise AnalysisError(
                    f"INSERT into '{full_name}': row has {len(row)} values "
                    f"but the table has {width} columns"
                )
        staged.ops.append(InsertOp(rows=[tuple(r) for r in rows]))
        return len(rows)

    def update(
        self,
        full_name: str,
        assignments: dict[str, Expression],
        where: Expression | None,
    ) -> None:
        """Stage ``SET col = expr`` over visible rows matching ``where``."""
        self._require_open()
        staged = self._staged_for(full_name)
        schema = staged.schema
        assigned = self._validate_assignment_targets(full_name, schema, assignments)
        referenced: set[str] = referenced_columns(where, schema)
        for expr in assignments.values():
            referenced |= referenced_columns(expr, schema)
        check_write(
            self._catalog, self.ctx, full_name,
            reads_rows=True, assigned=assigned, referenced=referenced,
        )
        staged.ops.append(
            UpdateOp(
                assignments={
                    col: bind_expression(expr, schema)
                    for col, expr in assignments.items()
                },
                where=None if where is None else bind_expression(where, schema),
            )
        )

    def delete(self, full_name: str, where: Expression | None) -> None:
        """Stage removal of visible rows matching ``where``."""
        self._require_open()
        staged = self._staged_for(full_name)
        check_write(
            self._catalog, self.ctx, full_name,
            reads_rows=True,
            referenced=referenced_columns(where, staged.schema),
        )
        staged.ops.append(
            DeleteOp(
                where=None if where is None
                else bind_expression(where, staged.schema)
            )
        )

    def merge(
        self,
        full_name: str,
        target_alias: str | None,
        source_schema: Schema,
        source_columns: dict[str, list],
        source_alias: str | None,
        on: Expression,
        matched_assignments: dict[str, Expression] | None,
        matched_delete: bool,
        insert_values: list[Expression] | None,
    ) -> None:
        """Stage a MERGE of an already-materialized source relation.

        The source rows arrive pre-materialized through the governed read
        pipeline (full SELECT enforcement applied), so this only has to
        govern the *target* side. Mask checking is conservative: any
        expression in ON or a matched clause whose bare column name is a
        masked target column is refused, even if it syntactically
        referenced the source side.
        """
        self._require_open()
        staged = self._staged_for(full_name)
        schema = staged.schema
        assigned: set[str] = set()
        referenced = referenced_columns(on, schema)
        if matched_assignments is not None:
            assigned = self._validate_assignment_targets(
                full_name, schema, matched_assignments
            )
            for expr in matched_assignments.values():
                referenced |= referenced_columns(expr, schema)
        check_write(
            self._catalog, self.ctx, full_name,
            reads_rows=True, assigned=assigned, referenced=referenced,
        )
        if insert_values is not None and len(insert_values) != len(schema):
            raise AnalysisError(
                f"MERGE into '{full_name}': NOT MATCHED INSERT has "
                f"{len(insert_values)} values but the table has "
                f"{len(schema)} columns"
            )
        combined = combined_schema(
            qualified_schema(schema, target_alias),
            qualified_schema(source_schema, source_alias),
        )
        qualified_source = qualified_schema(source_schema, source_alias)
        staged.ops.append(
            MergeOp(
                source_schema=source_schema,
                source_columns=source_columns,
                on=bind_expression(on, combined),
                matched_assignments=None if matched_assignments is None else {
                    col: bind_expression(expr, combined)
                    for col, expr in matched_assignments.items()
                },
                matched_delete=matched_delete,
                insert_values=None if insert_values is None else [
                    bind_expression(expr, qualified_source)
                    for expr in insert_values
                ],
            )
        )

    @staticmethod
    def _validate_assignment_targets(
        full_name: str, schema: Schema, assignments: dict[str, Expression]
    ) -> set[str]:
        assigned: set[str] = set()
        for col in assignments:
            bare = col.rpartition(".")[2]
            if not schema.contains(bare):
                raise AnalysisError(
                    f"'{full_name}' has no column '{col}' to assign; "
                    f"columns: {schema.names}"
                )
            assigned.add(bare)
        return assigned

    # -- terminal states ------------------------------------------------------

    def rollback(self) -> None:
        """Discard every staged op; nothing was ever durable."""
        self._require_open()
        self.state = "aborted"
        self._staged.clear()
        self._manager._count("aborted")

    def commit(self) -> None:
        """Publish every staged table atomically (one commit per table).

        Raises :class:`~repro.errors.CommitConflictError` when a
        read-dependent table advanced past its pin (retryable — re-run the
        transaction body), or :class:`~repro.errors.TransactionAbortedError`
        for any other failure. Either way the transaction is closed and its
        staged files are garbage.
        """
        self._require_open()
        committed = 0
        try:
            for name in sorted(self._staged):
                staged = self._staged[name]
                if staged.ops:
                    self._commit_table(name, staged)
                    committed += 1
            self.state = "committed"
            self._manager._count("committed")
        except CommitConflictError:
            self.state = "aborted"
            self._manager._count("aborted")
            self._manager._count("conflicts")
            raise
        except TransactionAbortedError:
            self.state = "aborted"
            self._manager._count("aborted")
            raise
        except Exception as exc:
            self.state = "aborted"
            self._manager._count("aborted")
            raise TransactionAbortedError(
                f"transaction {self.txn_id} failed to commit: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            if committed:
                # Caches must learn about *any* table that committed, even
                # when a later table in the same transaction aborted.
                self._catalog.bump_data_epoch("txn-commit")

    # -- commit protocol ------------------------------------------------------

    def _commit_table(self, full_name: str, staged: StagedWrite) -> None:
        table = self._catalog.get_table(full_name)
        pin = self._pins[full_name]
        credential = self._catalog.vendor.issue(
            identity=self.ctx.user,
            prefixes=[table.storage_root],
            operations={READ, WRITE, LIST, DELETE},
        )
        storage = self._catalog.table_storage(table)
        staged_paths: list[str] = []
        try:
            if staged.read_dependent:
                self._commit_read_dependent(
                    storage, staged, pin, credential, staged_paths
                )
            else:
                self._commit_blind_insert(
                    storage, staged, credential, staged_paths
                )
        except BaseException:
            for path in staged_paths:
                try:
                    self._catalog.store.delete(path, credential)
                    self._manager._count("files_discarded")
                except StorageError:
                    pass  # best effort; recover() sweeps what remains
            raise
        finally:
            self._catalog.vendor.revoke(credential.token)

    def _commit_read_dependent(
        self,
        storage: "LakeTableStorage",
        staged: StagedWrite,
        pin: "TableSnapshot",
        credential: Any,
        staged_paths: list[str],
    ) -> None:
        base = self._absorb(
            lambda: storage.read_snapshot(pin, credential),
            retry_on=(RetryableError,),
        )
        data_file = self._stage_file(
            storage, self._materialize(base, staged), credential, staged_paths
        )

        def attempt() -> None:
            self._fire("txn.conflict_check")
            # Compare against the *durable* tip: a torn claimant left by a
            # crashed writer at pin+1 is not a committed version — the
            # commit below rolls it back inline rather than conflicting.
            latest = storage.snapshot(credential).version
            if latest != pin.version:
                raise CommitConflictError(
                    f"write-write conflict on '{staged.table}': transaction "
                    f"{self.txn_id} pinned version {pin.version} but the table "
                    f"is now at {latest}"
                )
            self._fire("txn.commit")
            actions = [{"remove": f.path} for f in pin.files]
            actions.append(
                {"add": data_file.path, "rows": data_file.num_rows,
                 "bytes": data_file.size_bytes}
            )
            storage.commit_version(
                pin.version + 1, actions, list(staged.schema.names), credential
            )

        # Injected faults are absorbed; a genuine conflict passes through
        # and aborts the transaction (only re-running the body can fix it).
        self._absorb(attempt)
        staged_paths.clear()

    def _commit_blind_insert(
        self,
        storage: "LakeTableStorage",
        staged: StagedWrite,
        credential: Any,
        staged_paths: list[str],
    ) -> None:
        names = list(staged.schema.names)
        data_file = self._stage_file(
            storage,
            self._materialize({name: [] for name in names}, staged),
            credential,
            staged_paths,
        )

        def attempt() -> None:
            self._fire("txn.conflict_check")
            # Durable tip, not the raw log listing: appending past a torn
            # claimant would bury unreadable garbage mid-log forever.
            latest = storage.snapshot(credential).version
            self._fire("txn.commit")
            storage.commit_version(
                latest + 1,
                [{"add": data_file.path, "rows": data_file.num_rows,
                  "bytes": data_file.size_bytes}],
                names,
                credential,
            )

        # Appends are position-independent: losing the race to version N
        # just means claiming N+1, so conflicts rebase here too.
        self._absorb(
            attempt,
            retry_on=(FaultInjectedError, TransientStorageError,
                      CommitConflictError),
        )
        staged_paths.clear()

    def _materialize(
        self, base: dict[str, list], staged: StagedWrite
    ) -> dict[str, list]:
        return apply_ops(
            base, staged, eval_context_for(self.ctx), self._manager.compiler
        )

    def _stage_file(
        self,
        storage: "LakeTableStorage",
        columns: dict[str, list],
        credential: Any,
        staged_paths: list[str],
    ) -> Any:
        def write() -> Any:
            self._fire("txn.write_file")
            return storage.stage_data_file(columns, credential)

        data_file = self._absorb(write)
        staged_paths.append(data_file.path)
        self._manager._count("files_staged")
        return data_file

    def _fire(self, point: str) -> None:
        faults = self._catalog.faults
        if faults is not None:
            faults.fire(point)

    def _absorb(
        self,
        fn: Callable[[], Any],
        retry_on: tuple[type[BaseException], ...] = (
            FaultInjectedError,
            TransientStorageError,
        ),
    ) -> Any:
        """Run one commit step, absorbing transient faults with backoff."""
        calls = {"n": 0}

        def wrapped() -> Any:
            calls["n"] += 1
            return fn()

        try:
            return retry_with_backoff(
                wrapped,
                clock=self._catalog.clock,
                retries=TXN_FAULT_RETRIES,
                base_delay=TXN_RETRY_BASE,
                retry_on=retry_on,
            )
        finally:
            if calls["n"] > 1:
                self._manager._count("retries", calls["n"] - 1)
