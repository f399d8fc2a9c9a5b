"""Write-path attacks against the governed transaction tier (PR-10).

The ACID write path is a new enforcement surface: every INSERT / UPDATE /
DELETE / MERGE flows through :mod:`repro.txn`, which re-checks MODIFY,
re-evaluates the target's row filter against current data, and refuses any
statement that assigns to — or whose expressions read — a masked column.
These scenarios probe each of those checks from the attacker's side: a
principal writing without MODIFY, a writer trying to reach rows their row
filter hides, a MERGE that smuggles a masked-column read into its matched
clause, and write expressions built to raise on a hidden row's value. Containment means the write is refused (or silently
constrained to visible rows) and no hidden value ever surfaces, not even
inside an error message.
"""

from __future__ import annotations

from typing import Any

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, judge, leaked
from repro.errors import PermissionDenied, WriteDeniedError

#: The hidden (non-US) rows as they must remain in storage: the row filter
#: makes them untouchable, so any write that alters them escaped the filter.
_HIDDEN_ROWS = (
    (2, "EU", 20.0, "SECRET-EU-BUYER-2"),
    (4, "APAC", 40.0, "SECRET-APAC-BUYER-4"),
)


def _storage_truth(
    gauntlet: Any, table: str = h.ORDERS, row_filter: str = "region = 'US'"
) -> list[tuple]:
    """Read ``table`` unfiltered, as the metastore admin would.

    The harness's row filter has no admin escape hatch, so ground truth
    comes from briefly dropping the filter; the ``finally`` in the caller
    restores it before any other scenario runs.
    """
    admin = gauntlet.client_for("admin")
    admin.sql(f"ALTER TABLE {table} DROP ROW FILTER")
    try:
        schema, columns = admin.execute_relation(
            {"@type": "relation.read", "table": table}
        )
        return sorted(zip(*columns)) if columns else []
    finally:
        admin.sql(f"ALTER TABLE {table} SET ROW FILTER ({row_filter})")


@attack_scenario(
    name="write-insert-without-modify",
    layer="enforcement",
    technique="write-denial",
    expected_containment="the transaction tier re-checks MODIFY on every "
    "staged write before any file is staged: SELECT alone yields "
    "PermissionDenied and the table's version never advances",
)
def write_insert_without_modify(gauntlet: Any) -> AttackResult:
    """Alice (SELECT-only) INSERTs a row, betting reads imply writes."""
    alice = gauntlet.client_for("alice")
    before = _storage_truth(gauntlet)
    try:
        alice.sql(
            f"INSERT INTO {h.ORDERS} VALUES (99, 'US', 1.0, 'forged-buyer')"
        )
        return leaked("SELECT-only principal committed an INSERT", rows=1)
    except PermissionDenied as exc:
        after = _storage_truth(gauntlet)
        if after != before:
            return leaked("denied INSERT still mutated storage")
        return judge(
            exc, gauntlet.forbidden_tokens(), "INSERT denied, storage intact"
        )


@attack_scenario(
    name="write-update-rowfilter-escape",
    layer="enforcement",
    technique="write-denial",
    expected_containment="the row filter is re-evaluated inside the "
    "transaction against current data: an unqualified UPDATE rewriting the "
    "filter column only ever touches the writer's visible rows; hidden "
    "rows stay byte-identical in storage",
)
def write_update_rowfilter_escape(gauntlet: Any) -> AttackResult:
    """Alice rewrites ``region`` to 'US' everywhere to unhide EU/APAC rows."""
    admin = gauntlet.client_for("admin")
    alice = gauntlet.client_for("alice")
    admin.sql(f"GRANT MODIFY ON {h.ORDERS} TO analysts")
    try:
        # No WHERE clause: if the filter were only applied at read time,
        # this would rewrite every row's filter column and unhide them all.
        # (Her visible rows are already 'US', so a contained run is a no-op.)
        response = alice.sql(f"UPDATE {h.ORDERS} SET region = 'US'")
        truth = _storage_truth(gauntlet)
        hidden = tuple(row for row in truth if row[0] in (2, 4))
        if hidden != _HIDDEN_ROWS:
            return leaked(
                f"filter-hidden rows were rewritten: {list(hidden)}",
                rows=len(hidden),
            )
        return judge(
            response,
            gauntlet.forbidden_tokens(),
            "hidden rows untouched by unqualified UPDATE",
        )
    finally:
        admin.sql(f"REVOKE MODIFY ON {h.ORDERS} FROM analysts")


@attack_scenario(
    name="write-merge-masked-read",
    layer="enforcement",
    technique="write-denial",
    expected_containment="MERGE refuses any ON / matched-clause expression "
    "that references a masked target column (WriteDeniedError), so the "
    "matched set cannot become an oracle over raw masked values",
)
def write_merge_masked_read(gauntlet: Any) -> AttackResult:
    """Alice joins on the masked ``buyer`` column to probe its raw values."""
    admin = gauntlet.client_for("admin")
    alice = gauntlet.client_for("alice")
    admin.sql(f"GRANT MODIFY ON {h.ORDERS} TO analysts")
    before = _storage_truth(gauntlet)
    try:
        # If ON saw raw buyer values, rows whose amount changes would tell
        # alice which hidden buyer strings collide with her probe strings.
        alice.sql(
            f"MERGE INTO {h.ORDERS} AS t USING {h.ORDERS} AS s "
            "ON t.buyer = s.buyer "
            "WHEN MATCHED THEN UPDATE SET amount = t.amount + 1000.0"
        )
        return leaked("MERGE joined on a masked column and committed")
    except WriteDeniedError as exc:
        after = _storage_truth(gauntlet)
        if after != before:
            return leaked("refused MERGE still mutated storage")
        return judge(
            exc, gauntlet.forbidden_tokens(), "masked-column MERGE refused"
        )
    finally:
        admin.sql(f"REVOKE MODIFY ON {h.ORDERS} FROM analysts")


@attack_scenario(
    name="write-predicate-error-oracle",
    layer="enforcement",
    technique="write-denial",
    expected_containment="commit materialization evaluates the row filter "
    "first and WHERE / SET / MERGE ON only over the rows it admits, so an "
    "expression that raises on a hidden row's value never sees that row: "
    "the statement succeeds on the visible rows and no error text exists "
    "to carry the value out",
)
def write_predicate_error_oracle(gauntlet: Any) -> AttackResult:
    """Alice casts a column whose hidden row holds an uncastable secret,
    hoping the failure message quotes it (the read path's error oracle,
    tried through UPDATE / DELETE / SET / MERGE ON)."""
    admin = gauntlet.client_for("admin")
    alice = gauntlet.client_for("alice")
    admin.sql(f"GRANT MODIFY ON {h.LEDGER} TO analysts")
    hidden = next(
        row for row in _storage_truth(gauntlet, h.LEDGER, "tenant = 'mine'")
        if row[0] == 3
    )
    probes = (
        f"UPDATE {h.LEDGER} SET v = 7 WHERE CAST(code AS INT) = 1",
        f"UPDATE {h.LEDGER} SET v = CAST(code AS INT)",
        f"MERGE INTO {h.LEDGER} AS t USING {h.LEDGER} AS s "
        "ON CAST(t.code AS INT) = s.id WHEN MATCHED THEN UPDATE SET v = s.id",
        f"DELETE FROM {h.LEDGER} WHERE CAST(code AS INT) = 99",
    )
    observed: list[Any] = []
    try:
        for probe in probes:
            try:
                observed.append(alice.sql(probe))
            except Exception as exc:  # noqa: BLE001 - the oracle is any error text
                observed.append(exc)
        truth = _storage_truth(gauntlet, h.LEDGER, "tenant = 'mine'")
        if [row for row in truth if row[0] == 3] != [hidden]:
            return leaked(f"the hidden ledger row was rewritten: {truth}", rows=1)
        return judge(
            observed,
            gauntlet.forbidden_tokens(),
            "write expressions never evaluated the hidden row",
        )
    finally:
        admin.sql(f"REVOKE MODIFY ON {h.LEDGER} FROM analysts")
