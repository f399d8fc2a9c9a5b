"""Cache-oracle probes against the secure-plan cache and the span rings.

Caching layers are classic FGAC bypass surfaces: a cache keyed too
coarsely serves one principal's bytes to another, and a cache keyed by
hash alone accepts forged entries on fingerprint collisions. These
scenarios warm the caches as one principal and then probe them as
another, after revocation, and with deliberately colliding plans, using
the cache hit counters themselves as the oracle. Plans are cached per
*template* with the user's literals lifted out, so three probes go after
the lifting itself: a parameter aimed at a policy literal, one template
shared across principals or governance epochs, and the hit-vs-miss outcome
as an oracle on another tenant's queries (each reads the ``plan_cache``
reason the query's ``stage:parse`` span records); a fourth forges the slot
marker an eFGAC payload carries a parameter in until submit. Span retention
is the same kind of surface — one structure holding every principal's
traces — so the profile-flooding probe lives here too.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, contained, judge, leaked
from repro.common.telemetry import SPANS_PER_USER
from repro.connect import proto
from repro.core.plan_cache import HIT, MISS_COLD, MISS_STALE_EPOCH, fingerprint_relation
from repro.core.plan_codec import PARAMETER_MARKER
from repro.engine.expressions import Parameter
from repro.engine.logical import SecureView, plan_expressions
from repro.errors import LakeguardError, PermissionDenied

#: Makes every run's template texts new (the gauntlet runs a scenario more
#: than once per harness): "first run of a template" must stay true.
_RUNS = itertools.count()


def _plan_hits(gauntlet: Any) -> int:
    return int(gauntlet.cluster.backend.plan_cache.stats_snapshot()["hits"])


def _plan_cache_reason(gauntlet: Any, user: str) -> str:
    """Why ``user``'s last query did or did not reuse a cached plan."""
    trace = gauntlet.client_for(user).last_trace_id
    for span in gauntlet.catalog.telemetry.spans(trace_id=trace, name="stage:parse"):
        return str(span.attributes.get("plan_cache", ""))
    return ""


def _policy_parameters(plan: Any) -> int:
    """Parameters inside policy territory (below a ``SecureView``)."""
    return sum(
        isinstance(node, Parameter)
        for view in plan.walk()
        if isinstance(view, SecureView)
        for expr in plan_expressions(view.child)
        for node in expr.walk()
    )


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
    name="cache-result-stale-after-revoke",
    layer="store",
    technique="cache-oracle",
    expected_containment="revocation bumps the policy epoch, which is part "
    "of every plan-cache key: the warm secure plan becomes unreachable and "
    "the query re-authorizes to PermissionDenied",
)
def cache_result_stale_after_revoke(gauntlet: Any) -> AttackResult:
    """Alice replays her own warmed query after her grant is revoked."""
    relation = proto.read_table(h.ORDERS)
    admin = gauntlet.client_for("admin")
    gauntlet.collect("alice", relation)
    gauntlet.collect("alice", relation)  # the plan for this query is now warm
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
        return leaked(
            "an identical replay never hit the plan cache, so the collision "
            "check was not exercised"
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


@attack_scenario(
    name="template-parameter-smuggling",
    layer="enforcement",
    technique="cache-oracle",
    expected_containment="policy literals are injected by the analyzer "
    "after lifting and stay literals of the epoch-keyed template; lifting "
    "rebuilds every literal node, so a forged slot marker binds nothing: a "
    "parameter only ever reaches the user's own predicate",
)
def template_parameter_smuggling(gauntlet: Any) -> AttackResult:
    """Alice binds her parameter to the row filter's literal, then rebinds it
    and forges slot markers, hunting for the policy's own slot."""
    text = f"SELECT id, region FROM {h.ORDERS} WHERE region = '{{}}'"
    observed: list[Any] = []
    for value in ("US", "US", "EU", "APAC"):
        rows = gauntlet.collect("alice", proto.sql_relation(text.format(value)))
        observed.append(rows)
        if value != "US" and rows:
            return leaked(f"rebinding the parameter to {value!r} returned {rows}", rows=len(rows))
        analyzed = gauntlet.cluster.backend.last_result.analyzed_plan
        if _policy_parameters(analyzed):
            return leaked("a parameter sits inside the row filter's SecureView")
    # Forged markers: a slot-shaped literal, and one also carrying a value.
    for literal in (
        {"@type": "expr.literal", "slot": 0, "dtype": "str"},
        {"@type": "expr.literal", "slot": 0, "dtype": "str", "value": "EU"},
    ):
        forged = proto.filter_relation(
            proto.read_table(h.ORDERS),
            proto.binary("=", proto.column("region"), literal),
        )
        try:
            rows = gauntlet.collect("alice", forged)
        except LakeguardError as exc:
            observed.append(exc)
            continue
        observed.append(rows)
        if any(row[1] != "US" for row in rows):
            return leaked(f"forged slot marker reached hidden rows {rows}", rows=len(rows))
    return judge(observed, gauntlet.forbidden_tokens(), "parameters stayed in the user predicate")


@attack_scenario(
    name="efgac-param-forgery",
    layer="enforcement",
    technique="cache-oracle",
    expected_containment="an eFGAC payload carries a pushed predicate's "
    "parameters as slot markers that the submit binds only where the encoder "
    "wrote them: the decoder refuses a marker on the wire, the analyzer a "
    "literal holding one, and one inside SQL text stays that string",
)
def efgac_param_forgery(gauntlet: Any) -> AttackResult:
    """On a dedicated cluster, alice plants the eFGAC slot marker as a filter
    expression, inside a literal and inside SQL text, hunting for a binding
    to her other slot's value."""
    marker = {"@type": PARAMETER_MARKER, "slot": 0}
    text = json.dumps(marker)

    def above(value: float) -> dict[str, Any]:
        return proto.binary(">", proto.column("amount"), proto.literal(value))

    probes = {
        "filter expression": lambda v: proto.filter_relation(
            proto.read_table(h.ORDERS),
            proto.binary("AND", above(v), proto.binary("=", proto.column("region"), marker)),
        ),
        "literal": lambda v: proto.project(
            proto.filter_relation(proto.read_table(h.ORDERS), above(v)),
            [proto.column("id"), proto.alias(proto.literal(marker), "m")],
        ),
        "SQL text": lambda v: proto.sql_relation(
            f"SELECT id, '{text}' AS m FROM {h.ORDERS} "
            f"WHERE buyer <> '{text}' AND amount > {v}"
        ),
    }
    cluster = gauntlet.workspace.create_dedicated_cluster(
        assigned_user="alice", name=f"gauntlet-efgac-{next(_RUNS)}"
    )
    observed: list[Any] = []
    try:
        client = cluster.connect("alice")
        for where, build in probes.items():
            for value in (5.5, 15.5):  # the second run of a template is a hit
                try:
                    _, columns = client.execute_relation(build(value))
                except LakeguardError as exc:
                    observed.append(exc)
                    continue
                rows = list(zip(*columns)) if columns else []
                observed.append(rows)
                if where == "filter expression" or any(
                    row[0] not in (1, 3) or row[-1] not in (marker, text) for row in rows
                ):
                    return leaked(f"marker planted as a {where} answered {rows}", rows=len(rows))
    finally:
        cluster.shutdown()
    return judge(observed, gauntlet.forbidden_tokens(), "forged markers bound nothing")


@attack_scenario(
    name="template-cross-principal",
    layer="enforcement",
    technique="cache-oracle",
    expected_containment="the template key still holds user, principal "
    "closure and policy epoch: another analyst's identical text misses, and "
    "after a grant change the owner's own template misses as stale",
)
def template_cross_principal(gauntlet: Any) -> AttackResult:
    """Carol replays alice's warmed template; a grant change lands and alice
    replays her own."""
    text = f"SELECT id, buyer AS tcp_{next(_RUNS)} FROM {h.ORDERS} WHERE amount > {{}}"
    gauntlet.collect("alice", proto.sql_relation(text.format(5.0)))
    gauntlet.collect("alice", proto.sql_relation(text.format(15.0)))
    if _plan_cache_reason(gauntlet, "alice") != HIT:
        return contained("template never hit for its owner; nothing to share")
    rows = gauntlet.collect("carol", proto.sql_relation(text.format(25.0)))
    reason = _plan_cache_reason(gauntlet, "carol")
    if reason != MISS_COLD:
        return leaked(f"carol's first run of alice's template was {reason!r}")
    admin = gauntlet.client_for("admin")
    admin.sql(f"GRANT SELECT ON {h.ORDERS} TO mallory")
    try:
        gauntlet.collect("alice", proto.sql_relation(text.format(35.0)))
        reason = _plan_cache_reason(gauntlet, "alice")
    finally:
        admin.sql(f"REVOKE SELECT ON {h.ORDERS} FROM mallory")
    if reason != MISS_STALE_EPOCH:
        return leaked(f"alice's template survived a grant change ({reason!r})")
    return judge(rows, gauntlet.forbidden_tokens(), "per-principal, per-epoch entries")


@attack_scenario(
    name="template-timing-oracle",
    layer="enforcement",
    technique="cache-oracle",
    expected_containment="entries are per (user, principals): carol's first "
    "run of a template alice has warmed is a cold miss, exactly like a "
    "template nobody ran, so hit-vs-miss timing says nothing about alice",
)
def template_timing_oracle(gauntlet: Any) -> AttackResult:
    """Carol times her first run of a template alice just warmed against a
    template nobody has run."""
    run = next(_RUNS)
    warmed = f"SELECT id AS tto_{run} FROM {h.ORDERS} WHERE amount < {{}}"
    fresh = f"SELECT id AS tto_fresh_{run} FROM {h.ORDERS} WHERE amount < {{}}"
    for value in (100.0, 200.0):
        gauntlet.collect("alice", proto.sql_relation(warmed.format(value)))
    observed = []
    reasons = []
    for text in (warmed, fresh):
        observed.append(gauntlet.collect("carol", proto.sql_relation(text.format(100.0))))
        reasons.append(_plan_cache_reason(gauntlet, "carol"))
    if reasons != [MISS_COLD, MISS_COLD]:
        return leaked(f"carol's first runs differ by alice's activity: {reasons}")
    return judge(observed, gauntlet.forbidden_tokens(), "both first runs were cold misses")
