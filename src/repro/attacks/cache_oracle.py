"""Cache-oracle probes against the plan and governed-result caches.

Caching layers are classic FGAC bypass surfaces: a cache keyed too
coarsely serves one principal's bytes to another, and a cache keyed by
hash alone accepts forged entries on fingerprint collisions. These
scenarios warm the caches as one principal and then probe them as
another, after revocation, and with deliberately colliding plans, using
the cache hit counters themselves as the oracle. Span retention is the same
kind of surface — one structure holding every principal's traces — so the
profile-flooding probe lives here too.
"""

from __future__ import annotations

from typing import Any

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, contained, judge, leaked
from repro.common.telemetry import SPANS_PER_USER
from repro.connect import proto
from repro.core.plan_cache import fingerprint_relation
from repro.errors import LakeguardError, PermissionDenied


def _plan_hits(gauntlet: Any) -> int:
    return int(gauntlet.cluster.backend.plan_cache.stats_snapshot()["hits"])


def _result_stats(gauntlet: Any) -> dict[str, Any]:
    return gauntlet.cluster.backend.result_cache.stats_snapshot()


@attack_scenario(
    name="cache-plan-cross-principal-denied",
    layer="store",
    technique="cache-oracle",
    expected_containment="the plan-cache key includes user, principal "
    "closure and policy epoch: another principal's identical plan misses "
    "the cache and authorization still runs (PermissionDenied)",
)
def cache_plan_cross_principal_denied(gauntlet: Any) -> AttackResult:
    """Mallory replays alice's exact warmed plan, hunting a cached grant."""
    relation = proto.read_table(h.ORDERS)
    gauntlet.collect("alice", relation)
    gauntlet.collect("alice", relation)  # warmed: second run may hit
    hits_before = _plan_hits(gauntlet)
    try:
        rows = gauntlet.collect("mallory", relation)
        return leaked(
            f"mallory rode alice's cached plan to {len(rows)} rows",
            rows=len(rows),
        )
    except PermissionDenied as exc:
        if _plan_hits(gauntlet) != hits_before:
            return leaked("mallory's request hit alice's plan-cache entry")
        return judge(exc, gauntlet.forbidden_tokens(), "cross-principal miss + denial")


@attack_scenario(
    name="cache-result-cross-principal-isolation",
    layer="store",
    technique="cache-oracle",
    expected_containment="result-cache keys bind the requesting user: an "
    "identical query from another analyst cannot be served alice's bytes",
)
def cache_result_cross_principal_isolation(gauntlet: Any) -> AttackResult:
    """Carol replays alice's warmed query; the hit counter is the oracle."""
    relation = proto.read_table(h.ORDERS)
    gauntlet.collect("alice", relation)
    gauntlet.collect("alice", relation)  # alice's own rerun may hit
    hits_before = int(_result_stats(gauntlet)["hits"])
    rows = gauntlet.collect("carol", relation)
    hits_after = int(_result_stats(gauntlet)["hits"])
    if hits_after != hits_before:
        return leaked("carol's first-ever run was served from alice's entry")
    if set(rows) != set(gauntlet.VISIBLE_ORDERS):
        return leaked(f"carol saw unexpected rows {sorted(rows)}", rows=len(rows))
    return judge(rows, gauntlet.forbidden_tokens(), "carol missed and recomputed")


@attack_scenario(
    name="cache-result-stale-after-revoke",
    layer="store",
    technique="cache-oracle",
    expected_containment="revocation bumps the policy epoch, which is part "
    "of every cache key: warm result bytes become unreachable and the "
    "query re-authorizes to PermissionDenied",
)
def cache_result_stale_after_revoke(gauntlet: Any) -> AttackResult:
    """Alice replays her own warmed query after her grant is revoked."""
    relation = proto.read_table(h.ORDERS)
    admin = gauntlet.client_for("admin")
    gauntlet.collect("alice", relation)
    gauntlet.collect("alice", relation)  # bytes for this query are now warm
    admin.sql(f"REVOKE SELECT ON {h.ORDERS} FROM analysts")
    try:
        try:
            rows = gauntlet.collect("alice", relation)
            return leaked(
                f"revoked analyst was served {len(rows)} warm cached rows",
                rows=len(rows),
            )
        except PermissionDenied as exc:
            leak = judge(exc, gauntlet.forbidden_tokens(), "")
            if not leak.contained:
                return leak
    finally:
        admin.sql(f"GRANT SELECT ON {h.ORDERS} TO analysts")
    rows = gauntlet.collect("alice", relation)
    if set(rows) != set(gauntlet.VISIBLE_ORDERS):
        return leaked(f"post-regrant rows wrong: {sorted(rows)}")
    return contained("warm cache unreachable after revoke; re-grant restores")


@attack_scenario(
    name="cache-fingerprint-collision-forgery",
    layer="store",
    technique="cache-oracle",
    expected_containment="the plan cache compares the full relation on "
    "lookup (hash-then-compare), so canonicalization collisions "
    "(bytes b'x' vs the string \"b'x'\") cannot forge a hit",
)
def cache_fingerprint_collision_forgery(gauntlet: Any) -> AttackResult:
    """Two distinct plans with *identical* fingerprints race for one slot.

    ``fingerprint_relation`` serializes non-JSON leaves via ``str``, so a
    ``bytes`` payload and its ``repr`` string canonicalize identically.
    The decoder ignores unknown relation keys, which lets the colliding
    payloads ride an inert ``hint`` key without changing semantics.
    """
    base = proto.read_table(h.ORDERS)
    plan_bytes = dict(base, hint=b"probe")
    plan_str = dict(base, hint="b'probe'")
    if fingerprint_relation(plan_bytes) != fingerprint_relation(plan_str):
        return contained(
            "canonicalization no longer collides bytes with their repr; "
            "the forgery precondition is gone"
        )
    try:
        gauntlet.collect("alice", plan_bytes)
        gauntlet.collect("alice", plan_bytes)
    except LakeguardError as exc:
        return judge(exc, gauntlet.forbidden_tokens(), "colliding plan refused")
    hits_before = _plan_hits(gauntlet)
    gauntlet.collect("alice", plan_bytes)  # genuine replay: hit allowed
    sane_hits = _plan_hits(gauntlet)
    rows = gauntlet.collect("alice", plan_str)  # forged twin: must miss
    if _plan_hits(gauntlet) > sane_hits:
        return leaked("forged twin plan was served from the colliding entry")
    if sane_hits == hits_before:
        return contained(
            "plan cache never hit (result cache short-circuits replays); "
            "no forged entry was served either"
        )
    leak = judge(rows, gauntlet.forbidden_tokens(), "")
    if not leak.contained:
        return leak
    return contained("identical replay hit, colliding twin missed")


@attack_scenario(
    name="profile-ring-eviction",
    layer="store",
    technique="cache-oracle",
    expected_containment="retained spans live in one bounded ring per "
    "principal and a non-admin profile read is served from the viewer's "
    "ring alone: flooding fills only the attacker's own ring",
)
def profile_ring_eviction(gauntlet: Any) -> AttackResult:
    """Mallory floods the span store to erase — or scoop up — alice's profile."""
    profile = proto.sql_relation("SELECT * FROM system.access.query_profile")
    gauntlet.collect("alice", proto.read_table(h.ORDERS))
    victim_trace = gauntlet.client_for("alice").last_trace_id
    # Every op records at least eight spans (the operation plus seven
    # pipeline stages), so this is well over twice mallory's ring.
    for _ in range(SPANS_PER_USER // 3):
        gauntlet.collect("mallory", proto.range_relation(0, 1))
    rows = gauntlet.collect("mallory", profile)
    users = {row[5] for row in rows}
    if users != {"mallory"} or any(row[0] == victim_trace for row in rows):
        return leaked(f"mallory's profile read returned spans of {sorted(users)}", rows=len(rows))
    if len(rows) > SPANS_PER_USER:
        return leaked(f"mallory retains {len(rows)} spans, past the per-principal bound")
    kept = {row[0] for row in gauntlet.collect("alice", profile)}
    if victim_trace not in kept:
        return leaked("mallory's flood evicted alice's trace from her profile")
    return judge(rows, gauntlet.forbidden_tokens(), "flood stayed in mallory's own ring")
