"""Credential theft and replay against the vended-credential model.

Lakeguard's storage access rides short-lived vended credentials. These
scenarios steal real credential objects (the harness plays the omniscient
attacker) and replay them: after revocation, across storage prefixes, after
expiry, and from compute that is never allowed raw bytes at all. The one
replay the model does *not* stop — a live token reused within its TTL from
inside the same trust boundary — is a documented known gap (DESIGN.md §12),
exactly as bearer tokens behave against real object stores.
"""

from __future__ import annotations

from typing import Any

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, contained, judge, leaked
from repro.errors import CredentialError, PermissionDenied, StorageAccessDenied
from repro.storage.credentials import LIST, READ


def _steal_live_credential(gauntlet: Any, identity: str) -> Any:
    """Force a vend for ``identity`` and capture the credential object."""
    gauntlet.client_for(identity).table(h.ORDERS).collect()
    live = gauntlet.catalog.vendor.live_credentials(identity)
    if not live:
        raise AssertionError(f"no live credential to steal for {identity}")
    return live[-1]


@attack_scenario(
    name="credential-replay-after-revoke",
    layer="storage",
    technique="credential-replay",
    expected_containment="the object store validates liveness with the "
    "issuing vendor on every access: a revoked credential object replays "
    "to CredentialError, immediately",
)
def credential_replay_after_revoke(gauntlet: Any) -> AttackResult:
    """A stolen credential is replayed after the admin revokes the identity."""
    stolen = _steal_live_credential(gauntlet, "alice")
    store = gauntlet.catalog.store
    prefix = stolen.prefixes[0]
    # Recon while still live: the capability genuinely worked before revoke.
    paths = store.list(prefix, stolen)
    gauntlet.catalog.vendor.revoke_identity("alice")
    try:
        for operation in ("list", "get"):
            try:
                if operation == "list":
                    store.list(prefix, stolen)
                else:
                    store.get(paths[0], stolen)
                return leaked(f"revoked credential still authorized {operation}")
            except CredentialError as exc:
                leak = judge(exc, gauntlet.static_secrets, "")
                if not leak.contained:
                    return leak
        return contained("revoked credential refused for list and get")
    finally:
        # Later queries re-vend transparently; nothing to restore.
        pass


@attack_scenario(
    name="credential-replay-expired",
    layer="storage",
    technique="credential-replay",
    expected_containment="credential expiry is checked on every storage "
    "operation; an expired capability replays to StorageAccessDenied",
)
def credential_replay_expired(gauntlet: Any) -> AttackResult:
    """A credential captured long ago (TTL elapsed) is replayed verbatim."""
    table = gauntlet.catalog.get_table(h.ORDERS)
    expired = gauntlet.catalog.vendor.issue(
        identity="mallory",
        prefixes=[table.storage_root],
        operations={READ, LIST},
        ttl_seconds=0.0,
    )
    store = gauntlet.catalog.store
    try:
        paths = store.list(table.storage_root, expired)
        return leaked(f"expired credential listed {len(paths)} objects")
    except (StorageAccessDenied, CredentialError) as exc:
        return judge(exc, gauntlet.static_secrets, "expired credential refused")


@attack_scenario(
    name="credential-cross-prefix-escalation",
    layer="storage",
    technique="credential-replay",
    expected_containment="credentials are prefix-scoped capabilities: a "
    "credential vended for one table cannot touch another table's storage "
    "root (StorageAccessDenied)",
)
def credential_cross_prefix_escalation(gauntlet: Any) -> AttackResult:
    """Alice's orders credential is aimed at the admin-only salaries prefix."""
    stolen = _steal_live_credential(gauntlet, "alice")
    salaries_root = gauntlet.catalog.get_table(h.SALARIES).storage_root
    store = gauntlet.catalog.store
    try:
        paths = store.list(salaries_root, stolen)
        return leaked(f"cross-prefix list returned {len(paths)} objects")
    except StorageAccessDenied as exc:
        return judge(exc, gauntlet.static_secrets, "cross-prefix use refused")


@attack_scenario(
    name="credential-vend-refusal-efgac",
    layer="storage",
    technique="credential-replay",
    expected_containment="vending refuses compute that cannot enforce FGAC "
    "locally: privileged compute never receives a raw-bytes capability "
    "for a governed table (PermissionDenied)",
)
def credential_vend_refusal_efgac(gauntlet: Any) -> AttackResult:
    """Privileged (dedicated-style) compute requests the governed bytes."""
    from repro.catalog.scopes import COMPUTE_DEDICATED, ComputeCapabilities

    rogue_caps = ComputeCapabilities(
        compute_id="rogue-dedicated", compute_type=COMPUTE_DEDICATED
    )
    ctx = gauntlet.catalog.principals.context_for("alice")
    try:
        credential = gauntlet.catalog.vend_credential(
            ctx, h.ORDERS, {READ, LIST}, rogue_caps
        )
        return leaked(
            f"privileged compute was vended raw access ({credential.token})"
        )
    except PermissionDenied as exc:
        return judge(exc, gauntlet.static_secrets, "cross-trust-domain vend refused")


@attack_scenario(
    name="dedicated-write-raw-credential",
    layer="storage",
    technique="credential-replay",
    expected_containment="a commit's read-write credential is vended like a "
    "read's, to the compute the write comes from: compute that cannot "
    "enforce FGAC locally is refused one for a governed table "
    "(PermissionDenied), and the table's version never advances",
)
def dedicated_write_raw_credential(gauntlet: Any) -> AttackResult:
    """Alice (SELECT + MODIFY) updates the governed table from a dedicated
    cluster, which is refused a read credential for it, betting the commit
    path hands her compute raw read-write access anyway."""
    admin = gauntlet.client_for("admin")
    admin.sql(f"GRANT MODIFY ON {h.ORDERS} TO analysts")
    catalog = gauntlet.catalog
    before = catalog.current_table_version(h.ORDERS)
    cluster = gauntlet.workspace.create_dedicated_cluster(
        assigned_user="alice", name="gauntlet-dedicated-write"
    )
    issued = catalog.vendor.issued_count
    try:
        cluster.connect("alice").sql(f"UPDATE {h.ORDERS} SET amount = amount + 1.0 WHERE id = 1")
    except PermissionDenied as exc:
        audited = any(
            e.details.get("compute") == cluster.backend.caps.compute_id
            for e in catalog.audit.events(action="catalog.vend_credential", allowed=False)
        )
        if catalog.current_table_version(h.ORDERS) != before or (
                catalog.vendor.issued_count != issued or not audited):
            return leaked("the refused write committed, got a credential or went unaudited")
        return judge(exc, gauntlet.forbidden_tokens(), "write credential refused")
    finally:
        cluster.shutdown()
        admin.sql(f"REVOKE MODIFY ON {h.ORDERS} FROM analysts")
    if catalog.current_table_version(h.ORDERS) != before:
        admin.sql(f"UPDATE {h.ORDERS} SET amount = amount - 1.0 WHERE id = 1")
        return leaked("dedicated compute committed a governed write with a raw credential")
    return leaked("the write neither committed nor was refused")
