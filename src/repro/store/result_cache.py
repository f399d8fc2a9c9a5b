"""The governed result cache: serve repeated governed queries from bytes.

This is the layer the bursty agent / dashboard workload wants: the same
principal set re-running the same governed query under the same governance
state should not re-plan, re-vend, re-scan or re-filter anything — it
should get the *same bytes* back from the store. Correctness is carried
entirely by the key (see :func:`ArtifactStore.result_key`)::

    result/<template fingerprint>/e<policy epoch>.d<data epoch>/<identity>/<params>

- the **policy epoch** makes any grant/revoke/mask/filter/view change a
  hard miss in every tier at once — the single invalidation;
- the **data epoch** (bumped by every governed write / MV refresh) keeps
  cached results from surviving table mutations;
- the **identity digest** covers user + effective principals + compute id
  + session temp state, so one principal's rows are unreachable through
  another principal's key;
- the **parameter vector** — every literal the plan cache lifted out of the
  query — keeps one template's results apart: ``WHERE id = 5`` and
  ``WHERE id = 7`` share a plan, never a result.

Non-deterministic plans are excluded *by construction*, not by policy:
:func:`plan_is_cacheable` refuses any plan containing user code (UDFs), a
non-deterministic expression, the process-salted ``hash`` builtin, or an
eFGAC :class:`~repro.engine.logical.RemoteScan` (remote execution state is
not covered by the local fingerprint).

A payload is the schema as plain JSON (name, dtype, nullability,
qualifier per field) followed by one frame in the column-chunked layout
data files and Connect result batches use (:mod:`repro.common.datacodec`),
keyed by column position::

    schema length u32 | schema JSON | frame

Decoding is data-only: anyone who can write the spill directory controls
these bytes, so a frame naming a global (or any malformed payload) is a
counted ``decode_errors`` miss and the query recomputes. Plain lists round
trip exactly, so a cached replay is byte-identical to fresh execution.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.datacodec import decode_data_file, encode_data_file
from repro.common.telemetry import Telemetry
from repro.engine.batch import ColumnBatch
from repro.engine.expressions import is_pure
from repro.engine.logical import LogicalPlan, RemoteScan
from repro.engine.types import Field, Schema, type_from_name
from repro.store.artifacts import ArtifactStore

if TYPE_CHECKING:
    from repro.core.plan_cache import PlanCacheKey


#: A payload's prefix: the byte length of the schema JSON after it.
_SCHEMA_LEN = struct.Struct("<I")


def encode_payload(batch: ColumnBatch) -> bytes:
    """One result batch as a cache payload (module docstring)."""
    schema = json.dumps(
        [[f.name, f.dtype.name, f.nullable, f.qualifier] for f in batch.schema]
    ).encode("utf-8")
    frame = encode_data_file({str(i): col for i, col in enumerate(batch.columns)})
    return _SCHEMA_LEN.pack(len(schema)) + schema + frame


def decode_payload(payload: bytes) -> ColumnBatch:
    """Decode a cache payload as data only; raises on anything malformed."""
    (length,) = _SCHEMA_LEN.unpack_from(payload, 0)
    end = _SCHEMA_LEN.size + length
    schema = Schema(tuple(
        Field(name, type_from_name(dtype), nullable, qualifier)
        for name, dtype, nullable, qualifier in json.loads(payload[_SCHEMA_LEN.size : end])
    ))
    keys = [str(i) for i in range(len(schema))]
    frame = decode_data_file(payload[end:], keys, "result-cache payload")
    return ColumnBatch(schema, [frame[key] for key in keys])


def plan_is_cacheable(plan: LogicalPlan) -> bool:
    """True when a (logical) plan's result is a pure function of its key."""
    for node in plan.walk():
        if isinstance(node, RemoteScan):
            return False
        # ``hash`` is process-salted: a persisted result would replay a
        # *different* process's answer.
        if not all(is_pure(expr) for expr in node.expressions()):
            return False
    return True


@dataclass
class ResultCacheStats:
    """Hit/miss/eligibility counters for the governed result cache."""

    hits: int = 0
    misses: int = 0
    #: Queries refused by :func:`plan_is_cacheable` (UDFs, hash(), eFGAC).
    ineligible: int = 0
    stored: int = 0
    #: Payloads that failed to decode (corruption is already rejected below
    #: this layer; this counts malformed or planted payloads, e.g. a frame
    #: naming a global) — treated as misses.
    decode_errors: int = 0
    #: Superseded-epoch entries physically evicted from all tiers.
    stale_evicted: int = 0


class GovernedResultCache:
    """Encode/decode governed results against the artifact store."""

    def __init__(
        self, artifacts: ArtifactStore, telemetry: Telemetry | None = None
    ):
        self._artifacts = artifacts
        self._telemetry = telemetry
        self.stats = ResultCacheStats()

    def _count(self, metric: str) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(f"store.result.{metric}").inc()

    # -- keying ----------------------------------------------------------------

    def key_for(
        self, cache_key: "PlanCacheKey", data_epoch: int, params: tuple[Any, ...]
    ) -> str:
        """Full store key for one (query, identity, governance, data) state."""
        return ArtifactStore.result_key(cache_key, data_epoch, params)

    def note_ineligible(self) -> None:
        """Count one query excluded by construction."""
        self.stats.ineligible += 1
        self._count("ineligible")

    # -- read / write ----------------------------------------------------------

    def lookup(self, result_key: str) -> ColumnBatch | None:
        """Decode the cached batch under ``result_key``, or None."""
        payload = self._artifacts.get_result(result_key)
        if payload is None:
            self.stats.misses += 1
            self._count("misses")
            return None
        try:
            batch = decode_payload(payload)
        except Exception:  # noqa: BLE001 - undecodable payload is a miss
            self.stats.decode_errors += 1
            self.stats.misses += 1
            self._count("decode_errors")
            self._artifacts.store.evict(result_key)
            return None
        self.stats.hits += 1
        self._count("hits")
        return batch

    def store(
        self, result_key: str, cache_key: "PlanCacheKey",
        data_epoch: int, batch: ColumnBatch,
    ) -> bool:
        """Encode and persist one freshly computed batch.

        Also sweeps superseded-epoch entries for the same fingerprint out of
        every tier: by-key invalidation already makes them unreachable, this
        reclaims the bytes (and is what 'epoch bump invalidates all tiers
        everywhere' looks like physically).
        """
        try:
            payload = encode_payload(batch)
        except Exception:  # noqa: BLE001 - unencodable result: skip caching
            self.stats.decode_errors += 1
            self._count("decode_errors")
            return False
        self._artifacts.put_result(result_key, payload)
        self.stats.stored += 1
        self._count("stored")
        current_segment = (
            f"{ArtifactStore.result_prefix(cache_key.fingerprint)}"
            f"e{cache_key.policy_epoch}.d{data_epoch}/"
        )
        self.stats.stale_evicted += self._artifacts.evict_stale_results(
            cache_key.fingerprint, current_segment
        )
        return True

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters + derived hit ratio for ``system.access.store_stats``."""
        probes = self.stats.hits + self.stats.misses
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "ineligible": self.stats.ineligible,
            "stored": self.stats.stored,
            "decode_errors": self.stats.decode_errors,
            "stale_evicted": self.stats.stale_evicted,
            "hit_ratio": (self.stats.hits / probes) if probes else 0.0,
        }
