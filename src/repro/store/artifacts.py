"""The typed artifact facade over one cluster's :class:`TieredStore`.

Each artifact class gets its own namespace, key schema and serializer::

    kernel/<expression fingerprint>                      JSON source record
    plan/<relation fingerprint>/e<epoch>/<identity hash> cloudpickled plans
    result/<relation fingerprint>/e<epoch>.d<data>/<id>  encoded ColumnBatch
    cred/<identity hash>                                 pickled, MEMORY ONLY

Keys always embed the catalog **policy epoch** (except kernels, which are
content-addressed by structural fingerprint and therefore can never go
stale): an epoch bump changes every key, so stale governance state is a
hard miss in *every* tier at once — the same single-invalidation spine the
in-memory caches already ride. The identity hash covers user, effective
principal set, compute id and session temp-state version, so one
principal's artifacts are unreachable through another principal's keys.

Credentials are pinned ``memory_only``: secret material never reaches the
disk tier (a security test scans the spill directory to enforce this).

Serialization failures are counted and swallowed — persistence is strictly
an optimization; anything that will not round-trip simply is not persisted.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.telemetry import Telemetry
from repro.store.tiers import TieredStore

if TYPE_CHECKING:
    from repro.core.plan_cache import PlanCacheKey
    from repro.storage.credentials import TemporaryCredential

NS_KERNEL = "kernel"
NS_PLAN = "plan"
NS_RESULT = "result"
NS_CRED = "cred"


def _digest(*parts: Any) -> str:
    """Stable sha256 over a tuple of key components."""
    joined = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def identity_digest(key: "PlanCacheKey") -> str:
    """Hash of who/where a plan-cache key binds to (everything non-epoch)."""
    return _digest(
        key.fingerprint,
        key.user,
        ",".join(sorted(key.principals)),
        key.compute_id,
        key.temp_state_version,
    )


@dataclass
class ArtifactStoreStats:
    """Per-namespace persistence counters."""

    kernel_hits: int = 0
    kernel_puts: int = 0
    plan_hits: int = 0
    plan_puts: int = 0
    result_hits: int = 0
    result_puts: int = 0
    cred_hits: int = 0
    cred_puts: int = 0
    #: Artifacts that failed to (de)serialize and were skipped.
    codec_errors: int = 0


class ArtifactStore:
    """Typed get/put per artifact class, over one tiered KV ladder."""

    def __init__(
        self,
        store: TieredStore,
        cluster_id: str = "",
        telemetry: Telemetry | None = None,
    ):
        self.store = store
        self.cluster_id = cluster_id
        self._telemetry = telemetry
        self.stats = ArtifactStoreStats()

    @property
    def has_persistent(self) -> bool:
        """True when artifacts outlive this process (a disk tier)."""
        return self.store.has_persistent

    def _codec_error(self) -> None:
        self.stats.codec_errors += 1
        if self._telemetry is not None:
            self._telemetry.counter("store.codec_errors").inc()

    # -- kernels ---------------------------------------------------------------

    def get_kernel_payload(self, fingerprint: str) -> dict[str, Any] | None:
        """The persisted source record for one kernel fingerprint, if any.

        Returns the raw JSON record — rehydration (``exec`` of the generated
        source) lives next to the code generator in ``engine/compile.py``.
        """
        raw = self.store.get(f"{NS_KERNEL}/{fingerprint}")
        if raw is None:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._codec_error()
            return None
        self.stats.kernel_hits += 1
        return payload

    def put_kernel_payload(self, fingerprint: str, payload: dict[str, Any]) -> None:
        """Persist one kernel's source record (best effort)."""
        try:
            raw = json.dumps(payload, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError):
            self._codec_error()
            return
        if self.store.put(f"{NS_KERNEL}/{fingerprint}", raw):
            self.stats.kernel_puts += 1

    # -- secure plans ----------------------------------------------------------

    @staticmethod
    def _plan_key(key: "PlanCacheKey") -> str:
        return (
            f"{NS_PLAN}/{key.fingerprint}/e{key.policy_epoch}/"
            f"{identity_digest(key)}"
        )

    def get_plan(self, key: "PlanCacheKey") -> tuple | None:
        """``(relation, analyzed, optimized)`` for one plan-cache key.

        The caller must verify the returned relation equals the live one
        (the same hash-then-compare rule the in-memory cache applies).
        """
        raw = self.store.get(self._plan_key(key))
        if raw is None:
            return None
        try:
            record = pickle.loads(raw)
        except Exception:  # noqa: BLE001 - any undecodable record is a miss
            self._codec_error()
            return None
        if not isinstance(record, tuple) or len(record) != 3:
            self._codec_error()
            return None
        self.stats.plan_hits += 1
        return record

    def put_plan(
        self, key: "PlanCacheKey", relation: dict[str, Any],
        analyzed: Any, optimized: Any,
    ) -> None:
        """Persist one secure plan (cloudpickle; skipped if it won't dump).

        The *physical* operator tree is deliberately not persisted — it
        binds live runtime objects; a rehydrated plan re-runs physical
        planning (and kernel binding) against this process.
        """
        try:
            import cloudpickle

            raw = cloudpickle.dumps((relation, analyzed, optimized))
        except Exception:  # noqa: BLE001 - unpicklable plans just skip
            self._codec_error()
            return
        if self.store.put(self._plan_key(key), raw):
            self.stats.plan_puts += 1

    # -- credentials (memory-pinned) -------------------------------------------

    @staticmethod
    def _cred_key(cache_key: tuple, policy_epoch: int) -> str:
        return f"{NS_CRED}/{_digest(*cache_key, policy_epoch)}"

    def get_credential(
        self, cache_key: tuple, policy_epoch: int
    ) -> "TemporaryCredential | None":
        """A memory-tier-only credential for one vend key, if cached."""
        raw = self.store.get(
            self._cred_key(cache_key, policy_epoch), memory_only=True
        )
        if raw is None:
            return None
        try:
            credential = pickle.loads(raw)
        except Exception:  # noqa: BLE001 - treat as a miss
            self._codec_error()
            return None
        self.stats.cred_hits += 1
        return credential

    def put_credential(
        self, cache_key: tuple, policy_epoch: int,
        credential: "TemporaryCredential",
    ) -> None:
        """Cache one credential — pinned to the memory tier, never spilled."""
        try:
            raw = pickle.dumps(credential)
        except Exception:  # noqa: BLE001
            self._codec_error()
            return
        if self.store.put(
            self._cred_key(cache_key, policy_epoch), raw, memory_only=True
        ):
            self.stats.cred_puts += 1

    # -- results ---------------------------------------------------------------

    @staticmethod
    def result_prefix(fingerprint: str) -> str:
        """Every result key for one query fingerprint starts with this."""
        return f"{NS_RESULT}/{fingerprint}/"

    @staticmethod
    def result_key(key: "PlanCacheKey", data_epoch: int) -> str:
        """Full result-cache key: fingerprint + both epochs + identity."""
        return (
            f"{NS_RESULT}/{key.fingerprint}/"
            f"e{key.policy_epoch}.d{data_epoch}/{identity_digest(key)}"
        )

    def get_result(self, result_key: str) -> bytes | None:
        """The encoded result payload under one full result key."""
        raw = self.store.get(result_key)
        if raw is not None:
            self.stats.result_hits += 1
        return raw

    def put_result(self, result_key: str, payload: bytes) -> None:
        """Persist one encoded result payload through every tier."""
        if self.store.put(result_key, payload):
            self.stats.result_puts += 1

    def evict_stale_results(self, fingerprint: str, current_segment: str) -> int:
        """Physically remove result entries for superseded epochs.

        Correctness never depends on this (stale epochs are unreachable by
        key construction); it keeps tiers from accumulating dead governed
        bytes and gives 'epoch bump invalidates every tier' a observable
        effect the tests assert on.
        """
        prefix = self.result_prefix(fingerprint)
        removed = 0
        for key in self.store.keys():
            if key.startswith(prefix) and not key.startswith(current_segment):
                removed += self.store.evict(key)
        return removed

    # -- stats -----------------------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        """Namespace counters + the underlying ladder/tier counters."""
        out: dict[str, Any] = {
            "kernel_hits": self.stats.kernel_hits,
            "kernel_puts": self.stats.kernel_puts,
            "plan_hits": self.stats.plan_hits,
            "plan_puts": self.stats.plan_puts,
            "result_hits": self.stats.result_hits,
            "result_puts": self.stats.result_puts,
            "cred_hits": self.stats.cred_hits,
            "cred_puts": self.stats.cred_puts,
            "codec_errors": self.stats.codec_errors,
        }
        out.update(self.store.stats_snapshot())
        return out
