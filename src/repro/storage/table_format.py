"""A Delta-like versioned table format on top of the object store.

Layout under a table root (e.g. ``s3://bucket/warehouse/sales``):

- ``<root>/_txn_log/<version>.json`` — one JSON commit per version, listing
  ``add`` / ``remove`` file actions and table metadata.
- ``<root>/data/<file-id>.part`` — immutable data files in the
  column-chunked layout.

This mirrors the two properties of Delta the paper relies on:

1. data files are plain cloud objects — anyone with a storage credential for
   the prefix can read *all* of their bytes (why FGAC needs a trusted engine);
2. the log gives snapshot isolation and time travel, which the replica
   baseline uses to quantify staleness.

**Data file layout.** Data files are column-chunked
(:mod:`repro.common.datacodec`, which owns the layout): a small fixed header
with a per-column directory, then one pickled-list chunk per column, decoded
by the data-only unpickler. The object is still fetched whole — cloud
storage authorises whole objects (Fig. 3) — but a scan pays decode only for
the columns its plan reads, and planted bytes can never run code in the
reader. Any failure is :class:`~repro.errors.CorruptObjectError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.common.datacodec import decode_data_file, encode_data_file
from repro.common.ids import sequential_id
from repro.errors import (
    CommitConflictError,
    CorruptObjectError,
    RetryableError,
    StorageError,
)
from repro.storage.object_store import ObjectStore, RowPolicy, StorageCredential

if TYPE_CHECKING:
    from repro.engine.physical import AccessPath

#: Bounded retries for transaction-log reads. The log is tiny JSON read on
#: every snapshot resolution — a transient GET flake here would fail whole
#: queries before any per-task recovery could engage, so the table format
#: absorbs it locally (deadline-aware via the ambient query context).
LOG_READ_RETRIES = 4
LOG_READ_RETRY_BASE = 0.01

#: Bounded rebase-and-recommit attempts after a lost commit race. An
#: overwrite is position-independent, so losing the race to version N just
#: means recommitting the same file at N+1.
COMMIT_RETRIES = 4

#: Extra confirming reads before a corrupt tip commit is classified as
#: *torn* (a crashed writer's partial commit) rather than a transient
#: corrupt GET. Injected corruption re-draws per read, so consecutive
#: corrupt reads of a durable commit are vanishingly unlikely; a torn
#: object is corrupt on every read.
TORN_CONFIRM_READS = 2

def _log_path(root: str, version: int) -> str:
    return f"{root}/_txn_log/{version:010d}.json"


@dataclass(frozen=True)
class DataFile:
    """One immutable data file: path plus cheap statistics."""

    path: str
    num_rows: int
    size_bytes: int
    #: INT column -> ``[min, max, NULL count]`` (:func:`column_bounds`); a
    #: column without one (or a file an older log added) is unbounded.
    bounds: dict[str, list] = field(default_factory=dict, compare=False)

    def add_action(self) -> dict:
        """The commit-log action that makes this file live."""
        action = {"add": self.path, "rows": self.num_rows, "bytes": self.size_bytes}
        if self.bounds:
            action["stats"] = self.bounds
        return action


def column_bounds(values: list) -> list:
    """``[min, max, NULL count]`` of one INT column (``None`` bounds when
    all are NULL): two C-level passes, as ``min`` raises on a NULL."""
    try:
        lo = min(values)
        if lo is not None:
            return [lo, max(values), 0]
    except TypeError:
        pass
    present = [v for v in values if v is not None]
    return [min(present, default=None), max(present, default=None), len(values) - len(present)]


@dataclass(frozen=True)
class TableSnapshot:
    """The set of live data files of a table at one version."""

    root: str
    version: int
    column_names: tuple[str, ...]
    files: tuple[DataFile, ...]

    @property
    def num_rows(self) -> int:
        return sum(f.num_rows for f in self.files)

    @property
    def size_bytes(self) -> int:
        return sum(f.size_bytes for f in self.files)


class LakeTableStorage:
    """Reader/writer for one versioned table rooted at an object-store prefix."""

    def __init__(self, store: ObjectStore, root: str):
        self._store = store
        self.root = root.rstrip("/")

    # -- commit log ----------------------------------------------------------

    def _with_log_retry(self, fn):
        """Run one log read, absorbing transient storage faults."""
        from repro.scheduler.circuit_breaker import retry_with_backoff

        return retry_with_backoff(
            fn,
            clock=self._store.clock,
            retries=LOG_READ_RETRIES,
            base_delay=LOG_READ_RETRY_BASE,
            retry_on=(RetryableError,),
        )

    def latest_version(self, credential: StorageCredential) -> int:
        """Highest committed version, or -1 if the table was never created."""
        tip = self._with_log_retry(
            lambda: self._store.last(f"{self.root}/_txn_log/", credential)
        )
        if tip is None:
            return -1
        return int(tip.rsplit("/", 1)[-1].split(".", 1)[0])

    def _read_commit(self, version: int, credential: StorageCredential) -> dict:
        raw = self._with_log_retry(
            lambda: self._store.get(_log_path(self.root, version), credential)
        )
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptObjectError(
                f"commit {version} of '{self.root}' is corrupt: "
                f"{type(exc).__name__}"
            ) from exc

    def commit_version(
        self,
        version: int,
        actions: list[dict],
        column_names: Sequence[str],
        credential: StorageCredential,
    ) -> None:
        """Atomically claim ``version`` in the log (the commit point).

        Routed through :meth:`~repro.storage.object_store.ObjectStore
        .put_if_absent`: of N writers racing for the same version, exactly
        one wins; the rest get :class:`~repro.errors.CommitConflictError`
        and must rebase onto the new tip instead of clobbering it. The
        transaction manager materializes its write set first, then calls
        this to publish it.
        """
        payload = json.dumps(
            {"version": version, "columns": list(column_names), "actions": actions}
        ).encode("utf-8")
        path = _log_path(self.root, version)
        try:
            self._store.put_if_absent(path, payload, credential)
        except CommitConflictError:
            # Usually a racing commit won the version. But if the claimant
            # is a *torn* entry from a crashed writer, the version never
            # became durable — roll it back and claim it for real (needs
            # DELETE; without it the conflict propagates and recovery is
            # left to an explicit ``recover()``).
            if not self._tip_is_torn(version, credential):
                raise
            try:
                self._delete_log_entry(version, credential)
            except StorageError:
                raise CommitConflictError(
                    f"version {version} of '{self.root}' is torn and this "
                    "credential cannot roll it back"
                ) from None
            self._store.put_if_absent(path, payload, credential)

    # -- writes ---------------------------------------------------------------

    def create(self, column_names: list[str], credential: StorageCredential) -> None:
        """Initialize an empty table at version 0."""
        if self.latest_version(credential) >= 0:
            raise StorageError(f"table already exists at '{self.root}'")
        if not column_names:
            raise StorageError("a table needs at least one column")
        self.commit_version(0, [], column_names, credential)

    def stage_data_file(
        self, columns: dict[str, list], credential: StorageCredential, bounded: Sequence[str] = ()
    ) -> DataFile:
        """Write one data file without committing it; its add action
        carries the :func:`column_bounds` of each ``bounded`` (INT) column.

        The file stays invisible until a later :meth:`commit_version` adds
        it; a crash or abort between the two leaves an orphan that
        :meth:`recover` garbage-collects.
        """
        blob = encode_data_file(columns)
        # Ordered ids keep snapshot file enumeration in commit order.
        path = f"{self.root}/data/{sequential_id('part')}.part"
        self._store.put(path, blob, credential)
        num_rows = len(next(iter(columns.values()), ()))
        bounds = {name: column_bounds(columns[name]) for name in bounded} if num_rows else {}
        return DataFile(path, num_rows, len(blob), bounds)

    def overwrite(
        self, columns: dict[str, list], credential: StorageCredential
    ) -> None:
        """Commit a version replacing all live files with one new file.

        The trusted materialized-view refresh path alone: it runs on the
        catalog's service credential and no principal's request reaches it.
        Every table write a principal makes is a transaction
        (:mod:`repro.txn`), where an overwrite replaces only the rows the
        writer may see. The remove set is recomputed against the fresh tip
        on every commit attempt, so a lost race never resurrects files
        another writer already replaced.
        """
        snapshot = self.snapshot(credential)
        if tuple(columns) != snapshot.column_names:
            raise StorageError(
                f"column mismatch: table has {list(snapshot.column_names)}, "
                f"write has {list(columns)}"
            )
        data_file = self.stage_data_file(columns, credential)

        def attempt() -> None:
            tip = self.snapshot(credential)
            actions = [{"remove": f.path} for f in tip.files]
            actions.append(data_file.add_action())
            self.commit_version(tip.version + 1, actions, tip.column_names, credential)

        from repro.scheduler.circuit_breaker import retry_with_backoff

        retry_with_backoff(
            attempt,
            clock=self._store.clock,
            retries=COMMIT_RETRIES,
            base_delay=LOG_READ_RETRY_BASE,
            retry_on=(CommitConflictError,),
        )

    # -- reads ----------------------------------------------------------------

    def snapshot(
        self, credential: StorageCredential, version: int | None = None
    ) -> TableSnapshot:
        """Resolve the live file set at ``version`` (default: latest).

        Every call lists the log and reads the target commit with the
        caller's credential — the listing is the authoritative tip and the
        read is the LIST/READ authorization, the ``storage.get`` fault point
        and the torn-tip probe. Only the commits *below* the target are
        folded from :attr:`ObjectStore.replayed_logs` when an earlier
        resolution already replayed them, so the cost is the number of
        commits since the last resolved version, not the length of the log.

        Crash recovery, reader half: a *torn tip* — the newest log entry is
        stably corrupt, i.e. a writer crashed mid-commit — is treated as if
        the commit never happened, and the snapshot resolves to the last
        durable version. Readers never see a partial commit. (The physical
        rollback — deleting the torn entry and sweeping its orphaned data
        files — needs write/delete rights and happens in :meth:`recover`.)
        """
        latest = self.latest_version(credential)
        if latest < 0:
            raise StorageError(f"no table at '{self.root}'")
        target = latest if version is None else version
        if target < 0 or target > latest:
            raise StorageError(
                f"version {target} out of range [0, {latest}] for '{self.root}'"
            )
        try:
            tip = self._read_commit(target, credential)
        except CorruptObjectError:
            if version is not None or not self._tip_is_torn(target, credential):
                raise
            target -= 1
            if target < 0:
                raise StorageError(
                    f"no durable commit at '{self.root}' (version 0 is torn)"
                ) from None
            tip = self._read_commit(target, credential)
        replayed = self._store.replayed_logs
        base: TableSnapshot | None = replayed.nearest(self.root, target)
        if base is not None and base.version == target:
            return base
        start, live = 0, {}
        if base is not None:
            start, live = base.version + 1, {f.path: f for f in base.files}
        for v in range(start, target):
            self._fold(self._read_commit(v, credential), live)
        column_names = self._fold(tip, live)
        snapshot = TableSnapshot(
            root=self.root,
            version=target,
            column_names=column_names,
            files=tuple(live[p] for p in sorted(live)),
        )
        replayed.remember(self.root, target, snapshot)
        return snapshot

    def _fold(self, commit: dict, live: dict[str, DataFile]) -> tuple[str, ...]:
        """Apply one commit's actions to ``live``; returns its column names.

        A removed file's decoded columns leave the store's memo here, in
        every principal's partition: the file is superseded, and keeping
        them would grow the memo by one table version per write."""
        for action in commit["actions"]:
            if "add" in action:
                live[action["add"]] = DataFile(
                    action["add"], action["rows"], action["bytes"], action.get("stats", {})
                )
            elif "remove" in action:
                live.pop(action["remove"], None)
                self._store.decoded.drop(action["remove"])
                self._store.governed.drop(action["remove"])
        return tuple(commit["columns"])

    def _delete_log_entry(self, version: int, credential: StorageCredential) -> None:
        """Roll a torn commit back. Its version number may be reused by a
        different commit, so everything replayed for this root is dropped."""
        self._store.delete(_log_path(self.root, version), credential)
        self._store.replayed_logs.drop(self.root)

    def _tip_is_torn(self, version: int, credential: StorageCredential) -> bool:
        """Confirm a corrupt tip read is a torn commit, not a flaky GET.

        Re-reads the entry :data:`TORN_CONFIRM_READS` more times; only a
        commit that is corrupt on *every* read is torn. Injected corruption
        is drawn independently per read, so this misclassifies a durable
        commit with probability ``rate^(1+TORN_CONFIRM_READS)``.
        """
        for _ in range(TORN_CONFIRM_READS):
            try:
                self._read_commit(version, credential)
            except CorruptObjectError:
                continue
            return False
        return True

    def recover(self, credential: StorageCredential) -> dict[str, int]:
        """Crash recovery, writer half: roll back torn tips, sweep orphans.

        Needs a credential with WRITE/DELETE on the table prefix. Deletes
        stably-corrupt tip commits (a crashed writer's partial publish),
        then garbage-collects every data file no surviving commit ever
        added — files staged by crashed or aborted transactions. Returns
        ``{"torn_commits_rolled_back": n, "orphan_files_swept": m}``.

        Invoked explicitly (table repair / reopening a table after a crash)
        rather than on every commit: a concurrent writer that has staged
        data files but not yet committed would look exactly like a crash.
        """
        report = {"torn_commits_rolled_back": 0, "orphan_files_swept": 0}
        latest = self.latest_version(credential)
        while latest >= 0:
            try:
                self._read_commit(latest, credential)
                break
            except CorruptObjectError:
                if not self._tip_is_torn(latest, credential):
                    break  # transient corrupt read of a durable commit
                self._delete_log_entry(latest, credential)
                report["torn_commits_rolled_back"] += 1
                latest -= 1
        referenced: set[str] = set()
        for v in range(latest + 1):
            commit = self._read_commit(v, credential)
            for action in commit["actions"]:
                if "add" in action:
                    referenced.add(action["add"])
        data_files = self._with_log_retry(
            lambda: self._store.list(f"{self.root}/data/", credential)
        )
        for path in data_files:
            if path not in referenced:
                self._store.delete(path, credential)
                report["orphan_files_swept"] += 1
        return report

    def read_file(
        self,
        data_file: DataFile,
        credential: StorageCredential,
        columns: Sequence[str] | None = None,
        policy: RowPolicy | None = None,
        access: AccessPath | None = None,
    ) -> Any:
        """Fetch one data file whole (object-level access: all bytes or
        none) and decode ``columns`` of it (default: every column).

        The GET always runs, with ``credential``; named columns then come
        from the store's per-principal memo (:class:`~repro.storage
        .object_store.DecodedColumns`) when it decoded these very bytes for
        this identity before; with a row ``policy``, only the rows it
        admits, from the store's ``governed`` memo. Whole-file reads
        (``columns=None``: a commit about to supersede the file) bypass both.
        With an ``access`` path (named columns only), ``(columns, runs)``:
        the memo entry's slice or runs where it has them
        (:meth:`~repro.storage.object_store.DecodedColumns.columns`).

        A blob that fails to decode raises
        :class:`~repro.errors.CorruptObjectError` — retryable, because a
        corrupt read models a mangled response, not mangled storage; the
        scan-task recovery path re-reads it.
        """
        blob = self.read_raw(data_file, credential)
        if columns is None:
            return decode_data_file(blob, None, f"data file '{data_file.path}'")
        memo = self._store.decoded if policy is None else self._store.governed
        return memo.columns(credential.identity, data_file.path, blob, columns, policy, access)

    def read_raw(
        self, data_file: DataFile, credential: StorageCredential
    ) -> bytes:
        """The credential-checked GET of one data file: its bytes, undecoded."""
        # A method of its own because benchmarks/e2e/probes.py pins this name.
        return self._store.get(data_file.path, credential)

    def read_all(
        self, credential: StorageCredential, version: int | None = None
    ) -> dict[str, list]:
        """Resolve ``version`` and concatenate its live files (test helper)."""
        snapshot = self.snapshot(credential, version)
        out: dict[str, list] = {name: [] for name in snapshot.column_names}
        for data_file in snapshot.files:
            chunk = self.read_file(data_file, credential)
            for name in snapshot.column_names:
                out[name].extend(chunk[name])
        return out
