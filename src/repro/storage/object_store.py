"""A credential-gated cloud object store.

Every operation requires a credential object exposing
``authorizes(path, operation, now) -> bool`` (either a
:class:`~repro.storage.credentials.TemporaryCredential` or an
:class:`~repro.storage.credentials.InstanceProfileCredential`).

The store keeps byte counters so benchmarks can measure *data movement* —
e.g. how many bytes an eFGAC pushdown saves, or the storage amplification of
the data-replica governance baseline.

A key property the paper leans on (Fig. 3): cloud storage authorizes at the
*object* level. There is no way to grant a subset of the bytes of one object;
fine-grained policies therefore must be enforced by a trusted engine after
reading the full object.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

from repro.common.audit import AuditLog
from repro.common.clock import Clock, SystemClock
from repro.errors import (
    CommitConflictError,
    CredentialError,
    StorageAccessDenied,
    StorageError,
)
from repro.storage.credentials import DELETE, LIST, READ, WRITE, TemporaryCredential

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector
    from repro.storage.credentials import CredentialVendor


class StorageCredential(Protocol):
    """Anything that can authorize a storage operation."""

    identity: str

    def authorizes(self, path: str, operation: str, now: float) -> bool: ...


#: Re-exported operation names so callers can say ``StorageOp.READ``.
class StorageOp:
    """Operation-name constants re-exported for call-site readability."""

    READ = READ
    WRITE = WRITE
    LIST = LIST
    DELETE = DELETE


@dataclass
class StorageStats:
    """Cumulative data-movement counters."""

    bytes_read: int = 0
    bytes_written: int = 0
    objects_read: int = 0
    objects_written: int = 0
    denied_ops: int = 0

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.objects_read = 0
        self.objects_written = 0
        self.denied_ops = 0


class ReplayedLogs:
    """Bounded memo of state replayed from append-only logs in one store.

    Every client of a store shares its instance (the table format keeps the
    live-file set it folded out of a table's commit log here, so resolving a
    snapshot costs the commits since the last resolved version instead of
    the whole log). Keyed by log root, then by version; the
    ``versions_per_root`` most recently used versions of the ``max_roots``
    most recently used roots are kept.

    Never authoritative and never an authorization shortcut: a caller must
    still list the log and read its tip through the store — with its own
    credential — before trusting an entry, and must :meth:`drop` a root
    whenever it deletes one of that root's log entries (a rolled-back
    version number can be reused by a different commit).
    """

    def __init__(self, max_roots: int = 256, versions_per_root: int = 8):
        self._max_roots = max_roots
        self._versions_per_root = versions_per_root
        self._lock = threading.Lock()
        self._roots: OrderedDict[str, OrderedDict[int, Any]] = OrderedDict()

    def nearest(self, root: str, version: int) -> Any | None:
        """The state memoized for the greatest version ``<= version``."""
        with self._lock:
            versions = self._roots.get(root)
            if not versions:
                return None
            self._roots.move_to_end(root)
            best = max((v for v in versions if v <= version), default=None)
            if best is None:
                return None
            versions.move_to_end(best)
            return versions[best]

    def remember(self, root: str, version: int, state: Any) -> None:
        """Memoize ``state`` as ``root`` replayed through ``version``."""
        with self._lock:
            versions = self._roots.setdefault(root, OrderedDict())
            self._roots.move_to_end(root)
            versions[version] = state
            versions.move_to_end(version)
            if len(versions) > self._versions_per_root:
                versions.popitem(last=False)
            if len(self._roots) > self._max_roots:
                self._roots.popitem(last=False)

    def drop(self, root: str) -> None:
        """Forget everything replayed for ``root``."""
        with self._lock:
            self._roots.pop(root, None)


class ObjectStore:
    """In-memory blob store with per-operation credential checks."""

    def __init__(
        self,
        clock: Clock | None = None,
        audit: AuditLog | None = None,
        read_latency_seconds: float = 0.0,
    ):
        self._clock = clock or SystemClock()
        self._audit = audit
        self._objects: dict[str, bytes] = {}
        #: Serializes conditional writes: ``put_if_absent`` must observe and
        #: claim a path atomically, or two racing commits could both win.
        self._mutex = threading.Lock()
        #: Modelled per-object fetch latency (cloud stores are remote; a GET
        #: is a network round-trip). A real ``time.sleep`` — it releases the
        #: GIL, so concurrent scan tasks genuinely overlap their reads, the
        #: way threads overlap network I/O against S3/ADLS/GCS.
        self.read_latency_seconds = read_latency_seconds
        #: Chaos engine hook (set by the owning catalog): ``storage.get`` /
        #: ``storage.put`` / ``storage.list`` fault points fire here. The
        #: ``raise`` faults fire *before* the object is touched — a network
        #: flake happens on the wire — so byte/object counters only move on
        #: attempts that actually reach the data.
        self.faults: "FaultInjector | None" = None
        #: Issuing vendor (set by the owning catalog). When present, every
        #: temporary-credential operation is validated against the vendor's
        #: live set, so revocation takes effect immediately — a captured
        #: credential *object* cannot be replayed after ``revoke``. Stores
        #: constructed stand-alone (no vendor) keep pure capability
        #: semantics: the credential's own prefix/op/expiry checks decide.
        self.vendor: "CredentialVendor | None" = None
        self.stats = StorageStats()
        #: Replayed commit-log state shared by every table-format client.
        self.replayed_logs = ReplayedLogs()

    @property
    def clock(self) -> Clock:
        """The clock storage latency and credential checks run on."""
        return self._clock

    # -- internal -----------------------------------------------------------

    def _check(self, credential: StorageCredential, path: str, op: str) -> None:
        now = self._clock.now()
        allowed = credential.authorizes(path, op, now)
        revoked: CredentialError | None = None
        if (
            allowed
            and self.vendor is not None
            and isinstance(credential, TemporaryCredential)
        ):
            try:
                self.vendor.validate(credential)
            except CredentialError as exc:
                allowed = False
                revoked = exc
        if self._audit is not None:
            self._audit.record(
                timestamp=now,
                principal=credential.identity,
                action=f"storage.{op.lower()}",
                resource=path,
                allowed=allowed,
            )
        if not allowed:
            self.stats.denied_ops += 1
            if revoked is not None:
                raise revoked
            raise StorageAccessDenied(
                f"{credential.identity}: {op} denied on '{path}'"
            )

    # -- public API ---------------------------------------------------------

    def put(self, path: str, data: bytes, credential: StorageCredential) -> None:
        """Write a whole object (cloud stores have no partial writes)."""
        if not isinstance(data, bytes):
            raise StorageError(f"object data must be bytes, got {type(data).__name__}")
        if self.faults is not None:
            self.faults.fire("storage.put")
        self._check(credential, path, StorageOp.WRITE)
        self._objects[path] = data
        self.stats.bytes_written += len(data)
        self.stats.objects_written += 1

    def put_if_absent(
        self, path: str, data: bytes, credential: StorageCredential
    ) -> None:
        """Write an object only if ``path`` is unclaimed (atomic).

        The conditional-write primitive real object stores expose (S3
        ``If-None-Match: *``, ADLS/GCS preconditions) and the foundation of
        the table format's atomic commit protocol: exactly one of N racing
        writers claims a log version; the losers get a typed
        :class:`~repro.errors.CommitConflictError` and rebase. Faults fire
        *before* the object is touched, so a raised injection never leaves
        a half-claimed path.
        """
        if not isinstance(data, bytes):
            raise StorageError(f"object data must be bytes, got {type(data).__name__}")
        if self.faults is not None:
            self.faults.fire("storage.put")
        self._check(credential, path, StorageOp.WRITE)
        with self._mutex:
            if path in self._objects:
                raise CommitConflictError(
                    f"object already exists at '{path}': commit lost the race"
                )
            self._objects[path] = data
        self.stats.bytes_written += len(data)
        self.stats.objects_written += 1

    def get(self, path: str, credential: StorageCredential) -> bytes:
        """Read a whole object. Object-level granularity: all bytes or none."""
        decision = None
        if self.faults is not None:
            decision = self.faults.fire("storage.get")
        self._check(credential, path, StorageOp.READ)
        try:
            data = self._objects[path]
        except KeyError:
            raise StorageError(f"no such object: '{path}'") from None
        if self.read_latency_seconds > 0:
            time.sleep(self.read_latency_seconds)
        self.stats.bytes_read += len(data)
        self.stats.objects_read += 1
        if decision is not None:
            data = decision.apply(data)
        return data

    def exists(self, path: str, credential: StorageCredential) -> bool:
        self._check(credential, path, StorageOp.LIST)
        return path in self._objects

    def list(self, prefix: str, credential: StorageCredential) -> list[str]:
        """All object paths under ``prefix``, sorted."""
        if self.faults is not None:
            self.faults.fire("storage.list")
        self._check(credential, prefix, StorageOp.LIST)
        # ``list(dict)`` is one atomic step; iterating the live dict while
        # another thread commits raises "dictionary changed size".
        return sorted(p for p in list(self._objects) if p.startswith(prefix))

    def delete(self, path: str, credential: StorageCredential) -> None:
        self._check(credential, path, StorageOp.DELETE)
        self._objects.pop(path, None)

    def size_of(self, path: str, credential: StorageCredential) -> int:
        self._check(credential, path, StorageOp.LIST)
        try:
            return len(self._objects[path])
        except KeyError:
            raise StorageError(f"no such object: '{path}'") from None

    def total_bytes(self, prefix: str = "") -> int:
        """Unauthenticated administrative size accounting (for cost models)."""
        return sum(len(d) for p, d in self._objects.items() if p.startswith(prefix))

    def object_count(self, prefix: str = "") -> int:
        """Unauthenticated administrative object count (for cost models)."""
        return sum(1 for p in self._objects if p.startswith(prefix))
