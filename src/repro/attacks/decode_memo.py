"""Cache-oracle probes against the store's memos of decoded columns.

:class:`~repro.storage.object_store.DecodedColumns` keeps the columns a
principal decoded from a data file (under a row filter, only the rows it
admitted), so their next scan of the same bytes skips the decode and the
filter. A memo like that is an auxiliary surface add-on enforcement leaks
through (Queen's Guard, PAPERS.md) unless it can only ever skip work the
caller was just authorized to do. These scenarios check the conditions
that make that so: the memo is consulted only after the credential-checked
GET (a revoked credential never reaches it), a hit needs the very bytes the
entry was decoded from (an overwrite at the same path misses), entries are
per principal (another tenant's warm entry is not a hit — judged by the
memo's own counters, not by timing), and admitted rows are per group set,
policy and querying user (the ``governed-memo-*`` scenarios).
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from typing import Any

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, contained, judge, leaked
from repro.attacks.storage_tamper import _judge_planted_read, _planted_objects, _put
from repro.errors import LakeguardError, PermissionDenied, RetryableError, SecurableNotFound
from repro.storage.credentials import LIST, READ, WRITE
from repro.storage.table_format import LakeTableStorage

#: Makes every run's query texts new, so no plan-cache template from an
#: earlier run is reused.
_RUNS = itertools.count(1)

#: A small table only the cross-principal probe writes, rewritten on every
#: run so its one data file is one nobody has read yet.
_PROBE = "main.sales.memo_probe"

#: Attempts at a warming query (the chaos leg may fail one outright).
_WARM_ATTEMPTS = 4


def _memo_stats(gauntlet: Any) -> dict[str, Any]:
    return gauntlet.catalog.store.decoded.stats_snapshot()


def _warm(client: Any, text: str) -> list[tuple]:
    """Run ``text`` on ``client``, retrying through injected faults."""
    for attempt in range(_WARM_ATTEMPTS):
        try:
            return client.sql(text).collect()
        except RetryableError:
            if attempt == _WARM_ATTEMPTS - 1:
                raise
    return []


@attack_scenario(
    name="decode-memo-after-revoke",
    layer="storage",
    technique="cache-oracle",
    expected_containment="every read runs the credential-checked GET before "
    "the memo is consulted: after a REVOKE the rescan is PermissionDenied at "
    "resolution, and a revoked credential replayed through read_file is a "
    "CredentialError before any memoized column is reachable",
)
def decode_memo_after_revoke(gauntlet: Any) -> AttackResult:
    """Alice warms the memo, then loses SELECT — and, separately, her live
    credential — and rescans and replays the captured credential."""
    run = next(_RUNS)
    table = gauntlet.catalog.get_table(h.ORDERS)
    store = gauntlet.catalog.store
    admin, alice = gauntlet.client_for("admin"), gauntlet.client_for("alice")
    _warm(alice, f"SELECT id, amount FROM {h.ORDERS} WHERE amount > -{run}.125")
    now = store.clock.now()
    probe = f"{table.storage_root}/data/"
    captured = [
        c for c in gauntlet.catalog.vendor.live_credentials("alice")
        if c.authorizes(probe, READ, now) and c.authorizes(probe, LIST, now)
    ]
    if not captured:
        return leaked("alice's scan left no live credential to check")
    files = LakeTableStorage(store, table.storage_root).snapshot(captured[-1]).files
    observed: list[Any] = []
    admin.sql(f"REVOKE SELECT ON {h.ORDERS} FROM analysts")
    try:
        text = f"SELECT id, amount FROM {h.ORDERS} WHERE amount > -{run}.375"
        rows = alice.sql(text).collect()
        return leaked(f"revoked analyst rescanned {len(rows)} rows", rows=len(rows))
    except PermissionDenied as exc:
        observed.append(exc)
    finally:
        admin.sql(f"GRANT SELECT ON {h.ORDERS} TO analysts")
    for credential in captured:
        gauntlet.catalog.vendor.revoke(credential.token)
    reader = LakeTableStorage(store, table.storage_root)
    for data_file in files:
        try:
            columns = reader.read_file(data_file, captured[-1], ("id",))
            rows = len(columns["id"])
            return leaked(f"a revoked credential read {rows} memoized rows", rows=rows)
        except LakeguardError as exc:
            observed.append(exc)
    return judge(observed, gauntlet.forbidden_tokens(), "revoked reads never reached the memo")


@attack_scenario(
    name="decode-memo-planted-overwrite",
    layer="storage",
    technique="cache-oracle",
    expected_containment="a memo hit needs the very bytes object the entry "
    "was decoded from: a gadget file put at the same .part path is other "
    "bytes, so the scan decodes it (data-only) and fails as a retryable "
    "CorruptObjectError; the stale decoded rows are never served",
)
def decode_memo_planted_overwrite(gauntlet: Any) -> AttackResult:
    """After alice's warm read, an attacker with bucket write puts a file
    holding a ``__reduce__`` gadget at the same path, and alice rescans."""
    run = next(_RUNS)
    table = gauntlet.catalog.get_table(h.ORDERS)
    store = gauntlet.catalog.store
    stolen = gauntlet.catalog.vendor.issue(
        identity="mallory",
        prefixes=[table.storage_root],
        operations={READ, WRITE, LIST},
    )
    storage = LakeTableStorage(store, table.storage_root)
    target = storage.snapshot(stolen).files[0]
    original = store.get(target.path, stolen)
    columns = storage.read_file(target, stolen)
    workdir = tempfile.mkdtemp(prefix="decode-memo-")
    marker = os.path.join(workdir, "ran")
    alice = gauntlet.client_for("alice")
    try:
        _warm(alice, f"SELECT id, amount FROM {h.ORDERS} WHERE amount > -{run}.0625")
        _put(store, target.path, _planted_objects(columns, marker)[1], stolen)
        text = f"SELECT id, amount FROM {h.ORDERS} WHERE amount > -{run}.5625"
        return _judge_planted_read(
            gauntlet, marker, lambda: alice.sql(text).collect(), "data file"
        )
    finally:
        _put(store, target.path, original, stolen)
        gauntlet.catalog.vendor.revoke(stolen.token)
        shutil.rmtree(workdir, ignore_errors=True)


def _fresh_file(gauntlet: Any, name: str, ddl: str, data: dict, *setup: str) -> None:
    """(Re)write table ``name`` as one new data file holding ``data``; on
    first use create it (``ddl``), grant analysts SELECT, run ``setup``."""
    catalog = gauntlet.catalog
    admin_ctx = catalog.principals.context_for("admin")
    try:
        catalog.get_table(name)
        fresh = False
        # An overwrite replaces only the rows its writer sees: lift the
        # filter a previous run left so every old row goes.
        catalog.drop_row_filter(name, admin_ctx)
    except SecurableNotFound:
        admin = gauntlet.client_for("admin")
        admin.sql(f"CREATE TABLE {name} {ddl}")
        admin.sql(f"GRANT SELECT ON {name} TO analysts")
        for statement in setup:
            admin.sql(statement)
        fresh = True
    catalog.write_table(name, data, admin_ctx, overwrite=not fresh)


@attack_scenario(
    name="decode-memo-cross-principal",
    layer="storage",
    technique="cache-oracle",
    expected_containment="memo entries are keyed by (credential identity, "
    "path): carol's first scan of a file alice just warmed is a memo miss "
    "(counter delta, not timing), so the memo says nothing about who read "
    "what recently",
)
def decode_memo_cross_principal(gauntlet: Any) -> AttackResult:
    """Carol scans a file alice has just read twice, watching the memo's
    hit counter for alice's warm entry."""
    run = next(_RUNS)
    data = {"id": list(range(64)), "note": [f"n{i}" for i in range(64)]}
    _fresh_file(gauntlet, _PROBE, "(id int, note string)", data)
    alice = gauntlet.client_for("alice")
    for value in (run, run + 0.5):
        _warm(alice, f"SELECT id, note FROM {_PROBE} WHERE id > -{value}")
    before = _memo_stats(gauntlet)
    _warm(alice, f"SELECT id, note FROM {_PROBE} WHERE id > -{run}.25")
    after = _memo_stats(gauntlet)
    if after["hits"] == before["hits"]:
        return contained("alice's rescan never hit the memo (scans decode elsewhere)")
    text = f"SELECT id, note FROM {_PROBE} WHERE id > -{run}.75"
    try:
        rows = gauntlet.client_for("carol").sql(text).collect()
    except LakeguardError as exc:
        return judge(exc, gauntlet.forbidden_tokens(), "carol's probe failed typed")
    probed = _memo_stats(gauntlet)
    if probed["hits"] != after["hits"]:
        return leaked("carol's first scan hit alice's memo entry")
    if probed["misses"] == after["misses"]:
        return leaked("carol's first scan neither hit nor missed the memo")
    return judge(rows, gauntlet.forbidden_tokens(), "carol's first scan missed the memo")


# -- the governed memo: admitted rows per groups, policy and querying user --

#: US rows for every analyst, EU rows only for ``emea`` (alice alone), and an
#: admin-owned view over them (scanned with the admin's credential).
_REGIONS = "main.sales.memo_regions"
_VIEW = "main.sales.memo_regions_view"
_EMEA_EU = "region = 'US' OR (region = 'EU' AND is_account_group_member('emea'))"


def _fresh_regions(gauntlet: Any, row_filter: str) -> None:
    """(Re)write the target as one new data file under ``row_filter``."""
    gauntlet.workspace.add_group("emea", ["alice"])  # creates it, or re-adds alice
    data = {"id": list(range(32)), "region": ["US", "EU"] * 16}
    _fresh_file(
        gauntlet, _REGIONS, "(id int, region string)", data,
        f"CREATE VIEW {_VIEW} AS SELECT id, region FROM {_REGIONS}",
        f"GRANT SELECT ON {_VIEW} TO analysts",
    )
    gauntlet.client_for("admin").sql(f"ALTER TABLE {_REGIONS} SET ROW FILTER ({row_filter})")


def _eu_rows(client: Any, relation: str) -> int:
    text = f"SELECT id, region FROM {relation} WHERE id > -{next(_RUNS)}"
    return sum(row[1] == "EU" for row in _warm(client, text))


def _rescan(gauntlet: Any, client: Any, relation: str, what: str) -> AttackResult:
    """Any EU row in ``client``'s rescan of ``relation`` is a leak."""
    try:
        hidden = _eu_rows(client, relation)
    except LakeguardError as exc:
        return judge(exc, gauntlet.forbidden_tokens(), "the rescan failed typed")
    return leaked(f"{hidden} {what}", rows=hidden) if hidden else contained(f"no {what}")


@attack_scenario(
    name="governed-memo-membership-change",
    layer="storage",
    technique="cache-oracle",
    expected_containment="governed memo entries are keyed by the evaluating "
    "principal's groups: a session opened after alice leaves emea misses",
)
def governed_memo_membership_change(gauntlet: Any) -> AttackResult:
    """Alice fills the governed memo in emea, leaves emea, and rescans."""
    _fresh_regions(gauntlet, _EMEA_EU)
    if not _eu_rows(gauntlet.cluster.connect("alice"), _REGIONS):
        return contained("alice's warm scan never saw the emea rows")
    gauntlet.catalog.principals.remove_member("emea", "alice")
    try:
        return _rescan(gauntlet, gauntlet.cluster.connect("alice"), _REGIONS, "emea rows")
    finally:
        gauntlet.catalog.principals.add_member("emea", "alice")


@attack_scenario(
    name="governed-memo-policy-change",
    layer="storage",
    technique="cache-oracle",
    expected_containment="governed memo entries are keyed by the policy epoch "
    "and a value-exact filter digest: a one-literal SET ROW FILTER misses",
)
def governed_memo_policy_change(gauntlet: Any) -> AttackResult:
    """Alice fills the governed memo; the owner hides EU rows by changing one
    literal of the row filter; alice rescans."""
    _fresh_regions(gauntlet, "region <> 'APAC'")
    alice = gauntlet.client_for("alice")
    if not _eu_rows(alice, _REGIONS):
        return contained("alice's warm scan never saw the EU rows")
    gauntlet.client_for("admin").sql(f"ALTER TABLE {_REGIONS} SET ROW FILTER (region <> 'EU')")
    return _rescan(gauntlet, alice, _REGIONS, "EU rows the new filter hides")


@attack_scenario(
    name="governed-memo-definer-rights",
    layer="storage",
    technique="cache-oracle",
    expected_containment="a definer-rights view scans with its owner's "
    "credential, but governed memo entries are keyed by the querying user",
)
def governed_memo_definer_rights(gauntlet: Any) -> AttackResult:
    """Alice (emea), then carol, read one admin-owned view of the table."""
    _fresh_regions(gauntlet, _EMEA_EU)
    if not _eu_rows(gauntlet.client_for("alice"), _VIEW):
        return contained("alice's warm read of the view never saw the emea rows")
    return _rescan(gauntlet, gauntlet.client_for("carol"), _VIEW, "emea rows via the view")
