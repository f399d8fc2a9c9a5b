"""Governed persistence tier: tiered artifact store + policy-epoch caches.

Everything warmed in this repo used to die with the Python process; this
package is where warmed state survives. See :mod:`repro.store.tiers` for
the KV ladder (memory → disk spill),
:mod:`repro.store.artifacts` for the typed facade and key schema, and
:mod:`repro.store.result_cache` for the governed result cache.
"""

from repro.store.artifacts import ArtifactStore, identity_digest
from repro.store.result_cache import GovernedResultCache, plan_is_cacheable
from repro.store.tiers import (
    DiskTier,
    MemoryTier,
    TieredStore,
    frame_payload,
    unframe_payload,
)

__all__ = [
    "ArtifactStore",
    "DiskTier",
    "GovernedResultCache",
    "MemoryTier",
    "TieredStore",
    "frame_payload",
    "identity_digest",
    "plan_is_cacheable",
    "unframe_payload",
]
