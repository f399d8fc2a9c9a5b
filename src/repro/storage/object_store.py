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
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Protocol, Sequence

from repro.common.audit import AuditLog
from repro.common.clock import Clock, SystemClock
from repro.common.datacodec import decode_data_file
from repro.errors import (
    CommitConflictError,
    CredentialError,
    StorageAccessDenied,
    StorageError,
)
from repro.storage.credentials import DELETE, LIST, READ, WRITE, TemporaryCredential

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector
    from repro.engine.physical import AccessPath
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


#: Most decoded values (list cells, summed over every partition) the memo
#: of decoded columns holds before evicting least recently used entries. A
#: cell is one small Python object, so this bounds the memo near 30–40 MB;
#: the largest per-principal working set of the end-to-end workloads is
#: ≈ 372 k cells.
DECODED_CELLS_CAP = 1 << 20

#: Entries under this many rows never build an access path (their loop is
#: short already); nor does one on its first probe of a column, only on its
#: second (:class:`DecodedColumns`).
PATH_MIN_ROWS = 1024


#: Runs with fewer rows than this on average are not worth a partition.
_MIN_RUN_ROWS = 16


def _build_index(values: list) -> tuple[list, array] | None:
    """``values``' non-NULL numbers ascending, and their positions (ties in
    position order); ``None`` for a column holding a NaN or a non-number."""
    if not set(map(type, values)) <= {int, float, type(None)}:
        return None
    order = sorted((i for i, v in enumerate(values) if v is not None), key=values.__getitem__)
    ranked = list(map(values.__getitem__, order))
    if any(v != v for v in ranked):
        return None  # NaN orders with nothing
    return ranked, array("q", order)


def _build_runs(values: list) -> list[array] | None:
    """Positions of each distinct value of ``values``, by first occurrence
    (the dict a GROUP BY keys on decides what is distinct); ``None`` when
    the runs would be too short to pay."""
    runs: dict[Any, list[int]] = {}
    most = len(values) // _MIN_RUN_ROWS
    get = runs.get
    for i, v in enumerate(values):
        run = get(v)
        if run is None:
            if len(runs) == most:
                return None
            runs[v] = [i]
        else:
            run.append(i)
    return [array("q", run) for run in runs.values()]


def _slice(index: tuple[list, array], access: AccessPath) -> array:
    """Positions of the rows ``access.bounds`` pass, and of a top-k only the
    ``k + offset`` it prefers plus every row tied with the last of them."""
    ranked, positions = index
    lo, hi = 0, len(ranked)
    for op, value in access.bounds:
        if op in ("=", ">="):
            lo = max(lo, bisect_left(ranked, value))
        elif op == ">":
            lo = max(lo, bisect_right(ranked, value))
        if op in ("=", "<="):
            hi = min(hi, bisect_right(ranked, value))
        elif op == "<":
            hi = min(hi, bisect_left(ranked, value))
    if access.top is not None and hi - lo > access.top[0]:
        need, descending = access.top
        if descending:
            lo = bisect_left(ranked, ranked[hi - need], lo, hi)
        else:
            hi = bisect_right(ranked, ranked[lo + need - 1], lo, hi)
    return positions[lo:max(lo, hi)]


class _Paths:
    """One entry's access paths: probe counts until the second probe of a
    path builds it (``None`` when it cannot be built), and their cells."""

    __slots__ = ("probes", "built", "gathered", "cells")

    def __init__(self) -> None:
        self.probes: dict[tuple[str, str], int] = {}
        #: ("index", column) -> (values ascending, their positions) | None;
        #: ("runs", column) -> positions per run | None.
        self.built: dict[tuple[str, str], Any] = {}
        #: Runs column -> {column: its values per run}, gathered lazily.
        self.gathered: dict[str, dict[str, list[list]]] = {}
        self.cells = 0


class RowPolicy(NamedTuple):
    """One governed read's row filter, as :class:`DecodedColumns` runs it."""

    #: (user, groups, policy epoch, value-exact predicate digest).
    key: tuple
    #: The columns ``admit`` reads, in order; it returns admitted positions.
    columns: tuple[str, ...]
    admit: Callable[[list[list]], list[int]]

    @classmethod
    def bind(cls, policy: Any, ctx: Any, epoch: int) -> "RowPolicy":
        """A :class:`~repro.engine.physical.RowSelection` run under ``ctx``."""
        key = (ctx.user, ctx.groups, epoch, policy.digest)
        return cls(key, policy.columns, lambda columns: policy.admitted(columns, ctx))


class DecodedColumns:
    """Bounded memo of columns decoded from data files, per principal.

    Data files are immutable, so a scan that reads one again would decode
    the same bytes again. Every read still fetches the object through
    :meth:`ObjectStore.get` with the caller's own credential first
    (authorization, audit, byte accounting and fault injection unchanged);
    only then is the memo consulted, and only to skip work:

    - an entry holds the very ``bytes`` object it was decoded from, and
      serves only a GET that returned that same object. An overwrite of the
      path, or an injected corrupt read, returns other bytes and misses;
    - entries are partitioned by the credential's identity, so another
      principal's warm entry never makes a first read faster;
    - a read with a row ``policy`` (the ``governed`` instance) is keyed by
      its key too, and holds only the admitted positions and each column
      compacted to them: a fill runs the policy once, nothing raw stays.
      Masks run after the scan either way, as they do on a miss.

    Columns decode lazily (a hit on some columns decodes only the missing
    ones) and outside the lock; of two racing decodes the first insert wins.
    An entry of at least :data:`PATH_MIN_ROWS` rows also builds, on its
    second probe of one, access paths from the rows it holds: a sorted index
    of a numeric column, and runs of a GROUP BY column (:meth:`_serve`).
    They die with the entry and their cells count against the cap.
    The lists are handed out as they are — batches are immutable to
    operators. Entries are dropped when a snapshot folds their file's
    ``remove`` (:meth:`drop`), and evicted LRU past :data:`DECODED_CELLS_CAP`.
    """

    def __init__(self, max_cells: int = DECODED_CELLS_CAP):
        self._max_cells = max_cells
        self._lock = threading.Lock()
        #: (identity, *policy key, path) -> (blob, positions, {column: values}).
        self._entries: OrderedDict[tuple, tuple[bytes, list[int] | None, dict[str, list]]] = (
            OrderedDict()
        )
        #: path -> keys of its entries (what :meth:`drop` visits).
        self._keys_of: dict[str, set[tuple]] = {}
        #: Entry key -> its access paths (they die with the entry).
        self._paths: dict[tuple, _Paths] = {}
        self.cells = 0
        self.hits = 0
        self.misses = 0
        #: Entries filled, and the rows they admitted (all, without a policy)
        #: and rejected.
        self.fills = 0
        self.rows_admitted = 0
        self.rows_rejected = 0
        self.drops = 0
        self.evictions = 0
        #: Access paths built, and the reads a slice or runs served.
        self.index_builds = 0
        self.run_builds = 0
        self.slices_read = 0
        self.runs_read = 0
        self.path_cells = 0

    def columns(
        self, identity: str, path: str, blob: bytes, columns: Sequence[str],
        policy: RowPolicy | None = None, access: AccessPath | None = None,
    ) -> Any:
        """``columns`` of ``blob``, the object just read from ``path`` with
        ``identity``'s credential, doing only what the memo lacks. With an
        ``access`` path, ``(columns, runs)`` as :meth:`_serve` gives them."""
        key = (identity, path) if policy is None else (identity, *policy.key, path)
        out = self._columns(key, path, blob, columns, policy) if columns else {}
        return out if access is None else self._serve(key, blob, out, columns, access)

    def _columns(
        self, key: tuple, path: str, blob: bytes, columns: Sequence[str],
        policy: RowPolicy | None,
    ) -> dict[str, list]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is not blob:
                entry = None
            cached = {} if entry is None else entry[2]
            missing = [name for name in dict.fromkeys(columns) if name not in cached]
            if not missing:
                self._entries.move_to_end(key)
                self.hits += 1
                return {name: cached[name] for name in columns}
            self.misses += 1
        names = missing
        if entry is None and policy is not None:
            names = [*dict.fromkeys((*policy.columns, *missing))]
        decoded = decode_data_file(blob, names, f"data file '{path}'")
        rows = len(decoded[names[0]])
        positions = None if entry is None else entry[1]
        if entry is None and policy is not None:
            positions = policy.admit([decoded[name] for name in policy.columns])
        if positions is not None:  # keep only the admitted rows
            decoded = {n: list(map(decoded[n].__getitem__, positions)) for n in missing}
        with self._lock:
            if entry is None:  # a fill: a file version this key had not read
                admitted = rows if positions is None else len(positions)
                self.fills += 1
                self.rows_admitted += admitted
                self.rows_rejected += rows - admitted
            current = self._entries.get(key)
            if current is None or current[0] is not blob:
                self._forget(key)
                current = (blob, positions, {})
                self._entries[key] = current
                self._keys_of.setdefault(path, set()).add(key)
                self.cells += len(positions or ())
            self._entries.move_to_end(key)
            held = current[2]
            for name, values in (*cached.items(), *decoded.items()):
                if name not in held:
                    held[name] = values
                    self.cells += len(values)
            out = {name: held[name] for name in columns}
            self._evict()
            return out

    def _serve(
        self, key: tuple, blob: bytes, out: dict[str, list], columns: Sequence[str],
        access: AccessPath,
    ) -> tuple[dict[str, list], list[tuple] | None]:
        """The entry's ``columns`` (``out``) as ``access`` reads them: gathered
        at the rows of a slice, in entry order, when it holds at most a
        quarter of the entry; else with the runs of ``access.group``, each
        ``(*its values of each column, its positions)``, in the order of
        their keys' first rows; else as they are, without runs."""
        rows = len(out[columns[0]]) if columns else 0
        if rows < PATH_MIN_ROWS:
            return out, None
        if access.column is not None:
            values = out[access.column]
            index = self._path(key, blob, ("index", access.column), lambda: _build_index(values))
            if index is not None:
                picked = _slice(index, access)
                if len(picked) * 4 <= rows:
                    picked = sorted(picked)
                    with self._lock:
                        self.slices_read += 1
                    return {n: list(map(out[n].__getitem__, picked)) for n in columns}, None
        if access.group is None:
            return out, None
        keys = out[access.group]
        runs = self._path(key, blob, ("runs", access.group), lambda: _build_runs(keys))
        if runs is None:
            return out, None
        gathered = self._gathered(key, access.group, runs, out, columns, rows)
        with self._lock:
            self.runs_read += 1
        return out, [(*(gathered[n][r] for n in columns), at) for r, at in enumerate(runs)]

    def _path(self, key: tuple, blob: bytes, kind: tuple[str, str], build: Callable[[], Any]) -> Any:
        """The entry's access path ``kind``, built (outside the lock; the
        first insert wins) on its second probe; ``None`` before, or when it
        cannot be built."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] is not blob:
                return None
            paths = self._paths.setdefault(key, _Paths())
            if kind in paths.built:
                return paths.built[kind]
            paths.probes[kind] = seen = paths.probes.get(kind, 0) + 1
            if seen < 2:
                return None
        built = build()
        with self._lock:
            if self._paths.get(key) is not paths:
                return built  # the entry left meanwhile: serve, keep nothing
            if kind in paths.built:
                return paths.built[kind]
            paths.built[kind] = built
            if built is not None:
                # An index holds its values and their positions; runs, their
                # positions.
                if kind[0] == "index":
                    self.index_builds += 1
                    self._add_path_cells(paths, 2 * len(built[0]))
                else:
                    self.run_builds += 1
                    self._add_path_cells(paths, sum(map(len, built)))
            return built

    def _gathered(
        self, key: tuple, group: str, runs: list[array], out: dict[str, list],
        columns: Sequence[str], rows: int,
    ) -> dict[str, list[list]]:
        """``columns`` of the entry gathered run by run, each once."""
        with self._lock:
            paths = self._paths.get(key)
            held = {} if paths is None else paths.gathered.setdefault(group, {})
            missing = [n for n in columns if n not in held]
        fresh = {n: [list(map(out[n].__getitem__, at)) for at in runs] for n in missing}
        with self._lock:
            for name, values in fresh.items():
                if name not in held:
                    held[name] = values
                    if paths is not None and self._paths.get(key) is paths:
                        self._add_path_cells(paths, rows)
            return {n: held[n] for n in columns}

    def _add_path_cells(self, paths: _Paths, cells: int) -> None:
        paths.cells += cells
        self.path_cells += cells
        self.cells += cells
        self._evict()

    def _evict(self) -> None:
        while self.cells > self._max_cells and self._entries:
            self._forget(next(iter(self._entries)))
            self.evictions += 1

    def drop(self, path: str) -> None:
        """Forget ``path`` in every partition (its file left the table)."""
        with self._lock:
            for key in tuple(self._keys_of.get(path, ())):
                self._forget(key)
                self.drops += 1

    def _forget(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.cells -= len(entry[1] or ()) + sum(map(len, entry[2].values()))
        paths = self._paths.pop(key, None)
        if paths is not None:
            self.cells -= paths.cells
            self.path_cells -= paths.cells
        keys = self._keys_of[key[-1]]
        keys.discard(key)
        if not keys:
            del self._keys_of[key[-1]]

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters + size for ``system.access.cache_stats`` (admin-only:
        the counts reveal who read what recently)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "fills": self.fills,
                "rows_admitted": self.rows_admitted,
                "rows_rejected": self.rows_rejected,
                "drops": self.drops,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "cells": self.cells,
            }

    def path_stats(self) -> dict[str, int]:
        """The access paths' counters, for ``system.access.cache_stats``
        (admin-only, as :meth:`stats_snapshot`)."""
        with self._lock:
            return {
                "index_builds": self.index_builds,
                "run_builds": self.run_builds,
                "slices_read": self.slices_read,
                "runs_read": self.runs_read,
                "path_cells": self.path_cells,
            }


def _successor(prefix: str) -> str:
    """The least string above every string that starts with ``prefix``."""
    return prefix[:-1] + chr(ord(prefix[-1]) + 1)


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
        #: Every path in ``_objects``, sorted: a prefix listing is two bisects.
        self._paths: list[str] = []
        #: Serializes writes: ``put_if_absent`` must observe and claim a path
        #: atomically, or two racing commits could both win, and the path
        #: index must change with the objects.
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
        #: Columns decoded from data files, per principal (table-format reads).
        self.decoded = DecodedColumns()
        #: The same, for reads under a row filter: admitted rows only.
        self.governed = DecodedColumns()

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
        with self._mutex:
            if path not in self._objects:
                insort(self._paths, path)
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
            insort(self._paths, path)
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
        return self._under(prefix)

    def last(self, prefix: str, credential: StorageCredential) -> str | None:
        """The greatest object path under ``prefix`` (``list(prefix)[-1]``),
        or ``None``: one bisect, with the same authorization, audit record
        and ``storage.list`` fault point as a listing."""
        if self.faults is not None:
            self.faults.fire("storage.list")
        self._check(credential, prefix, StorageOp.LIST)
        with self._mutex:
            end = bisect_left(self._paths, _successor(prefix)) if prefix else len(self._paths)
            if end and self._paths[end - 1].startswith(prefix):
                return self._paths[end - 1]
            return None

    def _under(self, prefix: str) -> list[str]:
        """The sorted paths from ``prefix`` up to its last character bumped."""
        with self._mutex:
            if not prefix:
                return list(self._paths)
            start = bisect_left(self._paths, prefix)
            return self._paths[start:bisect_left(self._paths, _successor(prefix), start)]

    def delete(self, path: str, credential: StorageCredential) -> None:
        self._check(credential, path, StorageOp.DELETE)
        with self._mutex:
            if self._objects.pop(path, None) is not None:
                del self._paths[bisect_left(self._paths, path)]

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
