"""A Delta-like versioned table format on top of the object store.

Layout under a table root (e.g. ``s3://bucket/warehouse/sales``):

- ``<root>/_txn_log/<version>.json`` — one JSON commit per version, listing
  ``add`` / ``remove`` file actions and table metadata.
- ``<root>/data/<file-id>.part`` — immutable data files; each is a pickled
  ``dict[column_name, list_of_values]`` chunk.

This mirrors the two properties of Delta the paper relies on:

1. data files are plain cloud objects — anyone with a storage credential for
   the prefix can read *all* of their bytes (why FGAC needs a trusted engine);
2. the log gives snapshot isolation and time travel, which the replica
   baseline uses to quantify staleness.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass

from repro.common.ids import sequential_id
from repro.errors import (
    CommitConflictError,
    CorruptObjectError,
    RetryableError,
    StorageError,
)
from repro.storage.object_store import ObjectStore, StorageCredential

#: Bounded retries for transaction-log reads. The log is tiny JSON read on
#: every snapshot resolution — a transient GET flake here would fail whole
#: queries before any per-task recovery could engage, so the table format
#: absorbs it locally (deadline-aware via the ambient query context).
LOG_READ_RETRIES = 4
LOG_READ_RETRY_BASE = 0.01

#: Bounded rebase-and-recommit attempts after a lost commit race. Blind
#: appends/overwrites are position-independent, so losing the race to
#: version N just means recommitting the same file set at N+1.
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
        entries = self._with_log_retry(
            lambda: self._store.list(f"{self.root}/_txn_log/", credential)
        )
        if not entries:
            return -1
        last = entries[-1].rsplit("/", 1)[-1]
        return int(last.split(".", 1)[0])

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

    def _commit(
        self,
        version: int,
        actions: list[dict],
        column_names: list[str],
        credential: StorageCredential,
    ) -> None:
        """Atomically claim ``version`` in the log (the commit point).

        Routed through :meth:`~repro.storage.object_store.ObjectStore
        .put_if_absent`: of N writers racing for the same version, exactly
        one wins; the rest get :class:`~repro.errors.CommitConflictError`
        and must rebase onto the new tip instead of clobbering it.
        """
        payload = json.dumps(
            {"version": version, "columns": column_names, "actions": actions}
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

    def commit_version(
        self,
        version: int,
        actions: list[dict],
        column_names: list[str],
        credential: StorageCredential,
    ) -> None:
        """Public atomic commit at an explicit version (transaction tier).

        The transaction manager materializes its write set first, then
        calls this to publish it; a :class:`~repro.errors
        .CommitConflictError` means another commit claimed the version and
        the transaction must conflict-check against the new tip.
        """
        self._commit(version, actions, list(column_names), credential)

    def _with_commit_retry(self, fn):
        """Run one commit attempt, rebasing onto the new tip on a lost race."""
        from repro.scheduler.circuit_breaker import retry_with_backoff

        return retry_with_backoff(
            fn,
            clock=self._store.clock,
            retries=COMMIT_RETRIES,
            base_delay=LOG_READ_RETRY_BASE,
            retry_on=(CommitConflictError,),
        )

    # -- writes ---------------------------------------------------------------

    def create(self, column_names: list[str], credential: StorageCredential) -> None:
        """Initialize an empty table at version 0."""
        if self.latest_version(credential) >= 0:
            raise StorageError(f"table already exists at '{self.root}'")
        if not column_names:
            raise StorageError("a table needs at least one column")
        self._commit(0, [], list(column_names), credential)

    def _write_data_file(
        self, columns: dict[str, list], credential: StorageCredential
    ) -> DataFile:
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise StorageError(f"ragged columns: lengths {sorted(lengths)}")
        num_rows = lengths.pop() if lengths else 0
        # Ordered ids keep snapshot file enumeration in commit order.
        path = f"{self.root}/data/{sequential_id('part')}.part"
        blob = pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL)
        self._store.put(path, blob, credential)
        return DataFile(path=path, num_rows=num_rows, size_bytes=len(blob))

    def stage_data_file(
        self, columns: dict[str, list], credential: StorageCredential
    ) -> DataFile:
        """Write one data file without committing it (transaction tier).

        The file stays invisible until a later :meth:`commit_version` adds
        it; a crash or abort between the two leaves an orphan that
        :meth:`recover` garbage-collects.
        """
        return self._write_data_file(columns, credential)

    def append(
        self, columns: dict[str, list], credential: StorageCredential
    ) -> TableSnapshot:
        """Commit a new version adding one data file with ``columns``.

        Concurrency-safe: the data file is written once, then the commit
        rebases onto whatever tip it finds — an append is position-
        independent, so losing the race to version N just means claiming
        N+1 instead (bounded by :data:`COMMIT_RETRIES`).
        """
        snapshot = self.snapshot(credential)
        self._validate_columns(columns, snapshot.column_names)
        data_file = self._write_data_file(columns, credential)

        def attempt() -> None:
            tip = self.snapshot(credential)
            self._commit(
                tip.version + 1,
                [self._add_action(data_file)],
                list(tip.column_names),
                credential,
            )

        self._with_commit_retry(attempt)
        return self.snapshot(credential)

    def overwrite(
        self, columns: dict[str, list], credential: StorageCredential
    ) -> TableSnapshot:
        """Commit a version replacing all live files with one new file.

        The remove set is recomputed against the fresh tip on every commit
        attempt, so a lost race never resurrects files another writer
        already replaced.
        """
        snapshot = self.snapshot(credential)
        self._validate_columns(columns, snapshot.column_names)
        data_file = self._write_data_file(columns, credential)

        def attempt() -> None:
            tip = self.snapshot(credential)
            actions = [{"remove": f.path} for f in tip.files]
            actions.append(self._add_action(data_file))
            self._commit(
                tip.version + 1, actions, list(tip.column_names), credential
            )

        self._with_commit_retry(attempt)
        return self.snapshot(credential)

    @staticmethod
    def _add_action(data_file: DataFile) -> dict:
        return {
            "add": data_file.path,
            "rows": data_file.num_rows,
            "bytes": data_file.size_bytes,
        }

    @staticmethod
    def _validate_columns(
        columns: dict[str, list], expected: tuple[str, ...]
    ) -> None:
        if tuple(columns.keys()) != expected:
            raise StorageError(
                f"column mismatch: table has {list(expected)}, "
                f"write has {list(columns.keys())}"
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

    @staticmethod
    def _fold(commit: dict, live: dict[str, DataFile]) -> tuple[str, ...]:
        """Apply one commit's actions to ``live``; returns its column names."""
        for action in commit["actions"]:
            if "add" in action:
                live[action["add"]] = DataFile(
                    path=action["add"],
                    num_rows=action["rows"],
                    size_bytes=action["bytes"],
                )
            elif "remove" in action:
                live.pop(action["remove"], None)
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
        self, data_file: DataFile, credential: StorageCredential
    ) -> dict[str, list]:
        """Read one data file fully (object-level access: all bytes or none).

        A blob that fails to unpickle raises
        :class:`~repro.errors.CorruptObjectError` — retryable, because a
        corrupt read models a mangled response, not mangled storage; the
        scan-task recovery path re-reads it.
        """
        blob = self._store.get(data_file.path, credential)
        try:
            return pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 - any unpickle failure
            raise CorruptObjectError(
                f"data file '{data_file.path}' is corrupt: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def read_raw(
        self, data_file: DataFile, credential: StorageCredential
    ) -> bytes:
        """Read one data file's raw bytes without deserializing.

        The process execution backend ships the blob into a worker through
        shared memory and unpickles it *there*; credential checks, injected
        storage faults and byte accounting still happen in this (driver)
        process, exactly as with :meth:`read_file`.
        """
        return self._store.get(data_file.path, credential)

    def read_all(
        self, credential: StorageCredential, version: int | None = None
    ) -> dict[str, list]:
        """Resolve ``version`` and read it whole (test helper)."""
        return self.read_snapshot(self.snapshot(credential, version), credential)

    def read_snapshot(
        self, snapshot: TableSnapshot, credential: StorageCredential
    ) -> dict[str, list]:
        """Concatenate every live file of ``snapshot`` into one column dict."""
        out: dict[str, list] = {name: [] for name in snapshot.column_names}
        for data_file in snapshot.files:
            chunk = self.read_file(data_file, credential)
            for name in snapshot.column_names:
                out[name].extend(chunk[name])
        return out
