"""The tiered key-value substrate of the governed persistence layer.

A :class:`TieredStore` is a ladder of tiers, fastest first::

    MemoryTier  ->  DiskTier (spill directory)

Reads walk the ladder top-down and *promote* a hit into every faster tier;
writes go through every tier (unless pinned ``memory_only`` — the
credential rule). Every payload is framed with a sha256 checksum before it
enters any tier and verified on the way out, so a corrupted entry —
whether from the chaos engine's ``store.get`` corrupt faults or a truncated
spill file — is *rejected and deleted*, never served. A rejected or faulted
read degrades to a miss: the caller recomputes, which is always safe.

Fault points consulted on the shared chaos engine: ``store.get``,
``store.put``, ``store.evict``. A ``raise`` fault is absorbed (miss / skipped
write); a ``corrupt`` fault mangles the framed payload and is then caught by
the checksum on the next read.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.common.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector

#: Frame header: magic + 32-byte sha256 of the payload.
_FRAME_MAGIC = b"LGS1"
_DIGEST_LEN = 32

#: Disk-file header: magic + 4-byte big-endian key length + key utf-8.
_FILE_MAGIC = b"LGSF"

#: Chaos-engine fault points every store operation consults.
FAULT_POINT_GET = "store.get"
FAULT_POINT_PUT = "store.put"
FAULT_POINT_EVICT = "store.evict"


def frame_payload(payload: bytes) -> bytes:
    """Prefix ``payload`` with magic + its sha256 (the integrity frame)."""
    return _FRAME_MAGIC + hashlib.sha256(payload).digest() + payload


def unframe_payload(raw: bytes) -> bytes | None:
    """Verify and strip the integrity frame; ``None`` if anything is off."""
    if not isinstance(raw, (bytes, bytearray)):
        return None
    head = len(_FRAME_MAGIC) + _DIGEST_LEN
    if len(raw) < head or bytes(raw[: len(_FRAME_MAGIC)]) != _FRAME_MAGIC:
        return None
    digest = bytes(raw[len(_FRAME_MAGIC) : head])
    payload = bytes(raw[head:])
    if hashlib.sha256(payload).digest() != digest:
        return None
    return payload


@dataclass
class TierStats:
    """Per-tier operation counters (framed bytes, not logical payloads)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    deletes: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class MemoryTier:
    """The fastest tier: a bounded in-process LRU of framed payloads.

    Also the *only* tier credentials may occupy (``memory_only`` writes stop
    here), so secret material never outlives the process or crosses onto a
    spill directory.
    """

    #: Entries here die with the process.
    persistent = False

    def __init__(self, capacity: int = 1024, name: str = "memory"):
        self.name = name
        self.capacity = max(1, capacity)
        self._entries: dict[str, bytes] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self.stats = TierStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> bytes | None:
        """Return the framed payload for ``key`` or None."""
        with self._lock:
            raw = self._entries.get(key)
            if raw is None:
                self.stats.misses += 1
                return None
            # LRU touch (list discipline is fine at tier capacities).
            self._order.remove(key)
            self._order.append(key)
            self.stats.hits += 1
            self.stats.bytes_read += len(raw)
            return raw

    def put(self, key: str, raw: bytes) -> None:
        """Insert/replace ``key``, evicting least-recently-used overflow."""
        with self._lock:
            if key in self._entries:
                self._order.remove(key)
            self._entries[key] = raw
            self._order.append(key)
            self.stats.puts += 1
            self.stats.bytes_written += len(raw)
            while len(self._order) > self.capacity:
                victim = self._order.pop(0)
                self._entries.pop(victim, None)
                self.stats.evictions += 1

    def delete(self, key: str) -> bool:
        """Remove ``key``; True when it existed."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self._order.remove(key)
                self.stats.deletes += 1
                return True
            return False

    def keys(self) -> list[str]:
        """Snapshot of every stored key."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self._entries.clear()
            self._order.clear()

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat counters for ``system.access.store_stats``."""
        with self._lock:
            return {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "puts": self.stats.puts,
                "evictions": self.stats.evictions,
                "bytes_read": self.stats.bytes_read,
                "bytes_written": self.stats.bytes_written,
                "size": len(self._entries),
            }


class DiskTier:
    """Spill-directory tier: one file per key, atomic replace on write.

    File layout is ``LGSF + len(key) + key + framed payload`` — the key is
    stored inside the file so :meth:`keys` (and the security test's spill
    scan) can enumerate the directory without a side index, and a
    hash-collision read can verify it got the right entry. Survives process
    restarts: a fresh cluster pointed at the same directory rehydrates.
    """

    persistent = True

    def __init__(self, directory: str | Path, name: str = "disk"):
        self.name = name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.stats = TierStats()

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.directory / f"{digest}.lgs"

    @staticmethod
    def _parse(blob: bytes) -> tuple[str, bytes] | None:
        """Split one spill file into ``(key, framed payload)``; None if bad."""
        head = len(_FILE_MAGIC) + 4
        if len(blob) < head or blob[: len(_FILE_MAGIC)] != _FILE_MAGIC:
            return None
        key_len = int.from_bytes(blob[len(_FILE_MAGIC) : head], "big")
        if len(blob) < head + key_len:
            return None
        key = blob[head : head + key_len].decode("utf-8", errors="replace")
        return key, blob[head + key_len :]

    def get(self, key: str) -> bytes | None:
        """Read one spill file; miss on absence, wrong key, or bad header."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        parsed = self._parse(blob)
        with self._lock:
            if parsed is None or parsed[0] != key:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.bytes_read += len(parsed[1])
        return parsed[1]

    def put(self, key: str, raw: bytes) -> None:
        """Write one spill file atomically (tmp + rename); best effort."""
        path = self._path(key)
        key_bytes = key.encode("utf-8")
        blob = _FILE_MAGIC + len(key_bytes).to_bytes(4, "big") + key_bytes + raw
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return
        with self._lock:
            self.stats.puts += 1
            self.stats.bytes_written += len(raw)

    def delete(self, key: str) -> bool:
        """Unlink one spill file; True when it existed."""
        try:
            self._path(key).unlink()
        except OSError:
            return False
        with self._lock:
            self.stats.deletes += 1
        return True

    def keys(self) -> list[str]:
        """Enumerate stored keys by reading every spill-file header."""
        found: list[str] = []
        for path in self.directory.glob("*.lgs"):
            try:
                parsed = self._parse(path.read_bytes())
            except OSError:
                continue
            if parsed is not None:
                found.append(parsed[0])
        return found

    def clear(self) -> None:
        """Remove every spill file (the directory itself stays)."""
        for path in self.directory.glob("*.lgs"):
            path.unlink(missing_ok=True)

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat counters for ``system.access.store_stats``."""
        with self._lock:
            return {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "puts": self.stats.puts,
                "bytes_read": self.stats.bytes_read,
                "bytes_written": self.stats.bytes_written,
                "size": sum(1 for _ in self.directory.glob("*.lgs")),
            }


@dataclass
class StoreStats:
    """Ladder-level counters (on top of each tier's own)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Entries whose checksum failed on read (chaos corruption, torn file).
    corruption_rejected: int = 0
    #: Operations absorbed because a ``store.*`` raise-fault triggered.
    fault_drops: int = 0
    #: Hits served below the memory tier and copied up the ladder.
    promotions: int = 0


class TieredStore:
    """The read-through / write-through ladder over a list of tiers.

    Tier order is fastest-first and ``tiers[0]`` must be the
    :class:`MemoryTier` — ``memory_only`` operations (the credential pin)
    address exactly that tier. All values are checksum-framed on ``put`` and
    verified on ``get``; a frame that fails verification is deleted from the
    tier that served it and the read falls through to the next tier, so a
    corrupt entry can only ever cost a recompute, never wrong bytes.
    """

    def __init__(
        self,
        tiers: Sequence[Any],
        faults: "FaultInjector | None" = None,
        telemetry: Telemetry | None = None,
        name: str = "store",
    ):
        if not tiers:
            raise ValueError("TieredStore needs at least one tier")
        self.tiers = tuple(tiers)
        self.name = name
        self._faults = faults
        self._telemetry = telemetry
        self.stats = StoreStats()
        self._lock = threading.Lock()

    @property
    def has_persistent(self) -> bool:
        """True when any tier outlives the process."""
        return any(tier.persistent for tier in self.tiers)

    def _count(self, metric: str) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(f"store.{metric}").inc()

    def _fire(self, point: str) -> Any | None:
        """Consult a ``store.*`` fault point; None means 'drop this op'.

        Any raised fault (the chaos engine's raise-kind, or a custom error
        factory) is absorbed here: the store degrades to a miss or a skipped
        write, both of which the caller recomputes through.
        """
        if self._faults is None:
            return _NO_FAULT
        try:
            return self._faults.fire(point)
        except Exception:  # noqa: BLE001 - injected faults degrade to misses
            with self._lock:
                self.stats.fault_drops += 1
            self._count("fault_drops")
            return None

    def get(self, key: str, memory_only: bool = False) -> bytes | None:
        """Walk the ladder for ``key``; verify, promote, and return a hit."""
        decision = self._fire(FAULT_POINT_GET)
        if decision is None:
            return None
        corrupt_pending = decision.triggered and decision.kind == "corrupt"
        ladder = self.tiers[:1] if memory_only else self.tiers
        for i, tier in enumerate(ladder):
            raw = tier.get(key)
            if raw is None:
                continue
            if corrupt_pending:
                raw = decision.apply(raw)
                corrupt_pending = False
            payload = unframe_payload(raw)
            if payload is None:
                # Never serve unverifiable bytes: drop the bad copy and keep
                # walking — a lower tier may still hold a good one.
                tier.delete(key)
                with self._lock:
                    self.stats.corruption_rejected += 1
                self._count("corruption_rejected")
                continue
            for upper in self.tiers[:i]:
                upper.put(key, raw)
            with self._lock:
                self.stats.hits += 1
                if i > 0:
                    self.stats.promotions += 1
            self._count("get.hits")
            return payload
        with self._lock:
            self.stats.misses += 1
        self._count("get.misses")
        return None

    def put(self, key: str, payload: bytes, memory_only: bool = False) -> bool:
        """Frame and write ``payload`` through the ladder; False if dropped."""
        decision = self._fire(FAULT_POINT_PUT)
        if decision is None:
            return False
        raw = decision.apply(frame_payload(payload))
        for tier in self.tiers[:1] if memory_only else self.tiers:
            tier.put(key, raw)
        with self._lock:
            self.stats.puts += 1
        self._count("put.writes")
        return True

    def evict(self, key: str) -> int:
        """Delete ``key`` from every tier; returns copies removed."""
        if self._fire(FAULT_POINT_EVICT) is None:
            return 0
        removed = sum(1 for tier in self.tiers if tier.delete(key))
        if removed:
            with self._lock:
                self.stats.evictions += removed
            self._count("evictions")
        return removed

    def evict_prefix(self, prefix: str) -> int:
        """Delete every key starting with ``prefix`` across all tiers."""
        removed = 0
        for tier in self.tiers:
            for key in tier.keys():
                if key.startswith(prefix) and tier.delete(key):
                    removed += 1
        if removed:
            with self._lock:
                self.stats.evictions += removed
        return removed

    def keys(self) -> list[str]:
        """Union of keys across every tier."""
        seen: set[str] = set()
        for tier in self.tiers:
            seen.update(tier.keys())
        return sorted(seen)

    def clear(self) -> None:
        """Drop every entry in every tier."""
        for tier in self.tiers:
            tier.clear()

    def stats_snapshot(self) -> dict[str, Any]:
        """Ladder counters plus per-tier counters, flattened by tier name."""
        with self._lock:
            out: dict[str, Any] = {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "puts": self.stats.puts,
                "evictions": self.stats.evictions,
                "corruption_rejected": self.stats.corruption_rejected,
                "fault_drops": self.stats.fault_drops,
                "promotions": self.stats.promotions,
                "tiers": len(self.tiers),
                "persistent": float(self.has_persistent),
            }
        for tier in self.tiers:
            for metric, value in tier.stats_snapshot().items():
                out[f"{tier.name}.{metric}"] = value
        return out


class _NoFault:
    """Stand-in decision when no injector is wired (never triggers)."""

    triggered = False
    kind = ""

    @staticmethod
    def apply(payload: Any) -> Any:
        """Pass the payload through unchanged."""
        return payload


_NO_FAULT = _NoFault()
