"""Multi-statement transactions with snapshot isolation over governed tables.

The transaction tier sits between the SQL write statements and the table
format's atomic commit primitive:

- **Snapshot isolation.** A transaction pins each table's durable version at
  first touch (read or write); every read inside the transaction resolves at
  the pin, and commit-time conflict detection compares the pin against the
  live tip.
- **Optimistic concurrency.** Statements stage :mod:`~repro.txn.writes` ops
  without touching storage. At commit, each table's ops are materialized
  into new data files — a read-dependent commit rewrites only the files
  holding a row some op touches (:func:`~repro.txn.writes.rewrite_files`)
  — and published with one atomic
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
from itertools import chain
from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.catalog.privileges import UserContext
from repro.catalog.scopes import ComputeCapabilities
from repro.catalog.system_tables import TXN_STATS
from repro.common.ids import sequential_id
from repro.engine.compile import KernelCompiler
from repro.engine.expressions import Expression, contains_user_code
from repro.engine.logical import Filter, Join, LogicalPlan
from repro.engine.physical import RowSelection
from repro.engine.types import INT, Schema
from repro.errors import (
    AnalysisError,
    CommitConflictError,
    FaultInjectedError,
    PermissionDenied,
    RetryableError,
    SecurableNotFound,
    StorageError,
    TransactionAbortedError,
    TransientStorageError,
    WriteDeniedError,
)
from repro.scheduler.circuit_breaker import retry_with_backoff
from repro.storage.credentials import DELETE, LIST, READ, WRITE
from repro.txn.writes import (
    DeleteOp,
    InsertOp,
    MergeOp,
    StagedWrite,
    UpdateOp,
    analyze,
    check_assigned,
    check_reads,
    check_values,
    check_write,
    eval_context_for,
    relation,
    rewrite_files,
)

if TYPE_CHECKING:
    from repro.catalog.metastore import UnityCatalog
    from repro.storage.object_store import RowPolicy
    from repro.storage.table_format import DataFile, LakeTableStorage, TableSnapshot

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
        #: (table, schema, policy epoch) -> ``[analyzed row filter (None:
        #: none), (compiler, its selection) once built]``; see :meth:`row_filter`.
        self._row_filters: dict[tuple[str, Schema, int], list] = {}
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {
            "begun": 0,
            "committed": 0,
            "aborted": 0,
            "conflicts": 0,
            "retries": 0,
            "files_staged": 0,
            "files_discarded": 0,
            "files_rewritten": 0,
            "files_kept": 0,
            "files_probed": 0,
            "files_skipped": 0,
            "recovered_commits": 0,
            "orphans_swept": 0,
        }
        catalog.system_tables.register_stats_provider(
            TXN_STATS, "txn[manager]", self.stats_snapshot
        )

    # -- lifecycle ------------------------------------------------------------

    def begin(self, ctx: UserContext, caps: ComputeCapabilities | None = None) -> "Transaction":
        """Open a transaction acting as ``ctx`` on the compute ``caps``
        describes (default: the catalog service, for catalog API writes)."""
        self._count("begun")
        return Transaction(self, self._catalog, ctx, caps or self._catalog.service_caps)

    def run(
        self,
        ctx: UserContext,
        body: Callable[["Transaction"], Any],
        seed: int = 0,
        retries: int = TXN_CONFLICT_RETRIES,
        caps: ComputeCapabilities | None = None,
    ) -> Any:
        """Run ``body(txn)`` in a fresh transaction, committing on return.

        On :class:`~repro.errors.CommitConflictError` the *whole body* is
        re-executed in a new transaction against the fresh snapshot, under
        jittered exponential backoff (``seed`` decorrelates concurrent
        agents). Any other exception rolls back and propagates.
        """

        def attempt() -> Any:
            txn = self.begin(ctx, caps)
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

        Requires MODIFY (recovery rewrites the log; its credential is vended
        as a commit's is). Bumps the data epoch when anything was repaired,
        since the visible tip may have moved.
        """
        table = self._catalog.get_table(full_name)
        credential = self._catalog.vend_credential(
            ctx, full_name, {READ, WRITE, LIST, DELETE}, self._catalog.service_caps
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

    def row_filter(self, full_name: str, schema: Schema) -> Expression | None:
        """``full_name``'s effective row filter, analyzed over its raw
        ``schema`` (as the read path binds it over the table's scan), once
        per policy epoch: every policy change bumps the epoch, read first
        here, so a kept filter is never stale."""
        return self._row_filter_entry(full_name, schema)[0]

    def row_selection(self, full_name: str, schema: Schema) -> RowSelection | None:
        """:meth:`row_filter` as one :class:`RowSelection` under
        :attr:`compiler`, kept with it: every commit of the epoch runs it."""
        entry = self._row_filter_entry(full_name, schema)
        if entry[0] is None:
            return None
        held = entry[1]
        if held is None or held[0] is not self.compiler:
            held = entry[1] = (self.compiler, RowSelection(entry[0], schema.fields, self.compiler))
        return held[1]

    def _row_filter_entry(self, full_name: str, schema: Schema) -> list:
        key = (full_name, schema, self._catalog.policy_epoch)
        entry = self._row_filters.get(key)
        if entry is None:
            rf = self._catalog.row_filter_of(full_name)
            if rf is not None and contains_user_code(rf.condition):
                # Policies are validated against this at creation; defend anyway.
                raise WriteDeniedError(
                    f"row filter of '{full_name}' contains user code; refusing "
                    "to evaluate it in the transaction tier"
                )
            if len(self._row_filters) >= 256:
                self._row_filters.clear()
            bound = None if rf is None else analyze(Filter(relation(schema), rf.condition))[1]
            entry = self._row_filters[key] = [bound, None]
        return entry

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
        self, manager: TransactionManager, catalog: "UnityCatalog", ctx: UserContext,
        caps: ComputeCapabilities,
    ):
        self._manager = manager
        self._catalog = catalog
        self.ctx = ctx
        #: The compute the writes come from, which each commit's credential is
        #: vended to (so one that cannot enforce FGAC gets none for a policy).
        self.caps = caps
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
                row_filter=self._manager.row_filter(full_name, table.schema),
                row_selection=self._manager.row_selection(full_name, table.schema),
            )
        self._pin(full_name)
        return self._staged[full_name]

    def insert(self, full_name: str, columns: Sequence[list]) -> int:
        """Stage rows for appending, given as columns in table column order;
        each value must fit its column's type (:func:`check_values`)."""
        self._require_open()
        check_write(self._catalog, self.ctx, full_name, reads_rows=False)
        staged = self._staged_for(full_name)
        if len(columns) != len(staged.schema):
            raise AnalysisError(
                f"INSERT into '{full_name}': {len(columns)} columns given "
                f"but the table has {len(staged.schema)}"
            )
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise AnalysisError(
                f"INSERT into '{full_name}': ragged columns of "
                f"{sorted(lengths)} rows"
            )
        check_values(full_name, staged.schema.fields, columns)
        staged.ops.append(InsertOp(columns=list(columns)))
        return lengths.pop()

    def update(
        self,
        full_name: str,
        assignments: dict[str, Expression],
        where: Expression | None,
    ) -> None:
        """Stage ``SET col = expr`` over visible rows matching ``where``."""
        staged, target = self._target(full_name, assignments)
        values, where = analyze(
            target if where is None else Filter(target, where), list(assignments.values())
        )
        assignments = self._checked(full_name, target, assignments, values, where)
        staged.ops.append(UpdateOp(assignments, where))

    def delete(self, full_name: str, where: Expression | None) -> None:
        """Stage removal of visible rows matching ``where``."""
        staged, target = self._target(full_name, {})
        if where is not None:
            where = analyze(Filter(target, where))[1]
            check_reads(self._catalog, self.ctx, full_name, [where])
        staged.ops.append(DeleteOp(where))

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
        govern the *target* side. ON and the matched clause bind over an
        inner join of the target (under ``target_alias``) and the source
        (under ``source_alias``), NOT MATCHED values over the source alone.
        Mask checking is conservative: any expression in ON or a matched
        clause whose bare column name is a masked target column is refused,
        even if it syntactically referenced the source side.
        """
        assignments = matched_assignments or {}
        staged, target = self._target(full_name, assignments, target_alias)
        width = len(staged.schema)
        if insert_values is not None and len(insert_values) != width:
            raise AnalysisError(
                f"MERGE into '{full_name}': NOT MATCHED INSERT has "
                f"{len(insert_values)} values but the table has {width} columns"
            )
        source = relation(source_schema, source_alias)
        values, on = analyze(Join(target, source, "inner", on), list(assignments.values()))
        assignments = self._checked(full_name, target, assignments, values, on)
        if insert_values is not None:
            insert_values = analyze(source, insert_values)[0]
            check_assigned(full_name, staged.schema.fields, insert_values)
        staged.ops.append(MergeOp(
            source_schema, source_columns, on,
            None if matched_assignments is None else assignments,
            matched_delete, insert_values,
        ))

    def _target(
        self, full_name: str, assignments: dict[str, Expression], alias: str | None = None
    ) -> tuple[StagedWrite, LogicalPlan]:
        """The table's staged write and its rows as the analyzer binds
        against them (under ``alias``, else the last part of its name), once
        privileges and assigned masks pass (:func:`check_write`): a statement
        is checked before it is analyzed, so an analysis error names the
        schema only to a writer."""
        self._require_open()
        staged = self._staged_for(full_name)
        check_write(
            self._catalog, self.ctx, full_name, reads_rows=True,
            assigned=[col.rpartition(".")[2] for col in assignments],
        )
        return staged, relation(staged.schema, alias or full_name.rpartition(".")[2])

    def _checked(
        self,
        full_name: str,
        target: LogicalPlan,
        assignments: dict[str, Expression],
        values: list[Expression],
        condition: Expression | None,
    ) -> dict[str, Expression]:
        """The bound ``values`` by the column each assigns (resolved over
        ``target`` as a column reference is), once the statement reads no
        masked column and each value fits its column's type."""
        check_reads(self._catalog, self.ctx, full_name, [*values, condition])
        fields = [target.schema[target.schema.field_index(col)] for col in assignments]
        check_assigned(full_name, fields, values)
        return {f.name: value for f, value in zip(fields, values)}

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
        except (TransactionAbortedError, PermissionDenied):
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
        credential = self._catalog.vend_credential(
            self.ctx, full_name, {READ, WRITE, LIST, DELETE}, self.caps
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
        def read(
            data_file: "DataFile",
            columns: Sequence[str] | None,
            policy: "RowPolicy | None" = None,
        ) -> dict[str, list]:
            return self._absorb(
                lambda: storage.read_file(data_file, credential, columns, policy),
                retry_on=(RetryableError,),
            )

        rewrite = rewrite_files(
            pin.files, read, staged, eval_context_for(self.ctx),
            self._manager.compiler, self._catalog.policy_epoch,
        )
        added = [
            self._stage_file(storage, staged.schema, chunk, credential, staged_paths)
            for chunk in rewrite.chunks
        ]

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
            actions = [{"remove": f.path} for f in rewrite.removed]
            actions += [f.add_action() for f in added]
            storage.commit_version(
                pin.version + 1, actions, staged.schema.names, credential
            )

        # Injected faults are absorbed; a genuine conflict passes through
        # and aborts the transaction (only re-running the body can fix it).
        self._absorb(attempt)
        staged_paths.clear()
        self._manager._count("files_rewritten", len(rewrite.removed))
        self._manager._count("files_kept", len(pin.files) - len(rewrite.removed))
        self._manager._count("files_probed", rewrite.probed)
        self._manager._count("files_skipped", rewrite.skipped)

    def _commit_blind_insert(
        self,
        storage: "LakeTableStorage",
        staged: StagedWrite,
        credential: Any,
        staged_paths: list[str],
    ) -> None:
        names = list(staged.schema.names)
        # Insert-only: the rows are the inserted columns, in op order.
        inserted = [op.columns for op in staged.ops]
        columns = inserted[0] if len(inserted) == 1 else [
            list(chain.from_iterable(parts)) for parts in zip(*inserted)
        ]
        data_file = self._stage_file(
            storage, staged.schema, dict(zip(names, columns)), credential, staged_paths
        )

        def attempt() -> None:
            self._fire("txn.conflict_check")
            # Durable tip, not the raw log listing: appending past a torn
            # claimant would bury unreadable garbage mid-log forever.
            latest = storage.snapshot(credential).version
            self._fire("txn.commit")
            storage.commit_version(
                latest + 1, [data_file.add_action()], names, credential
            )

        # Appends are position-independent: losing the race to version N
        # just means claiming N+1, so conflicts rebase here too.
        self._absorb(
            attempt,
            retry_on=(FaultInjectedError, TransientStorageError,
                      CommitConflictError),
        )
        staged_paths.clear()

    def _stage_file(
        self,
        storage: "LakeTableStorage",
        schema: Schema,
        columns: dict[str, list],
        credential: Any,
        staged_paths: list[str],
    ) -> Any:
        def write() -> Any:
            self._fire("txn.write_file")
            bounded = [f.name for f in schema.fields if f.dtype == INT]
            return storage.stage_data_file(columns, credential, bounded)

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
