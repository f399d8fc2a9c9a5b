"""Write-path attacks against the governed transaction tier (PR-10).

The ACID write path is a new enforcement surface: every INSERT / UPDATE /
DELETE / MERGE flows through :mod:`repro.txn`, which re-checks MODIFY,
re-evaluates the target's row filter against current data, and refuses any
statement that assigns to — or whose expressions read — a masked column.
These scenarios probe each of those checks from the attacker's side: a
principal writing without MODIFY, a writer trying to reach rows their row
filter hides (through SQL, or through the raw ``command.write_table``
message), a MERGE that smuggles a masked-column read into its matched
clause, and write expressions built to raise on a hidden row's value.
Containment means the write is refused (or silently constrained to visible
rows) and no hidden value ever surfaces, not even inside an error message.
"""

from __future__ import annotations

import json
from typing import Any

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, judge, leaked
from repro.connect import proto
from repro.errors import AnalysisError, PermissionDenied, WriteDeniedError

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
    name="write-table-overwrite-hidden-rows",
    layer="enforcement",
    technique="write-denial",
    expected_containment="command.write_table commits through the "
    "transaction tier: an overwrite is DELETE of the writer's visible rows "
    "plus INSERT, so rows the row filter hides survive byte-identical",
)
def write_table_overwrite_hidden_rows(gauntlet: Any) -> AttackResult:
    """Alice (MODIFY) overwrites the table with a raw write_table message.

    She bets the bulk-load message skips the row filter SQL DELETE obeys."""
    admin = gauntlet.client_for("admin")
    alice = gauntlet.client_for("alice")
    admin.sql(f"GRANT MODIFY ON {h.ORDERS} TO analysts")
    before = _storage_truth(gauntlet)
    try:
        response = alice.execute_command(
            proto.write_table_command(
                h.ORDERS,
                {"id": [9], "region": ["US"], "amount": [90.0], "buyer": ["forged"]},
                overwrite=True,
            )
        )
        hidden = tuple(row for row in _storage_truth(gauntlet) if row[0] in (2, 4))
        if hidden != _HIDDEN_ROWS:
            return leaked(
                f"overwrite destroyed filter-hidden rows: {list(hidden)} left",
                rows=len(_HIDDEN_ROWS) - len(hidden),
            )
        return judge(
            response,
            gauntlet.forbidden_tokens(),
            "hidden rows survived the raw overwrite",
        )
    finally:
        admin.sql(f"REVOKE MODIFY ON {h.ORDERS} FROM analysts")
        _restore(gauntlet, before)


def _restore(gauntlet: Any, rows: list[tuple]) -> None:
    """Put ``rows`` back as the whole of ORDERS (admin, filter lifted)."""
    admin = gauntlet.client_for("admin")
    admin.sql(f"ALTER TABLE {h.ORDERS} DROP ROW FILTER")
    try:
        names = gauntlet.catalog.get_table(h.ORDERS).schema.names
        gauntlet.catalog.write_table(
            h.ORDERS,
            {name: list(values) for name, values in zip(names, zip(*rows))},
            gauntlet.catalog.principals.context_for("admin"),
            overwrite=True,
        )
    finally:
        admin.sql(f"ALTER TABLE {h.ORDERS} SET ROW FILTER (region = 'US')")


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


@attack_scenario(
    name="write-type-confusion",
    layer="enforcement",
    technique="write-denial",
    expected_containment="a write statement is analyzed at staging like a "
    "read: a SET value whose type its column does not accept is an "
    "AnalysisError before anything is staged, so no other principal's "
    "governed aggregate ever reads a value of the wrong type",
)
def write_type_confusion(gauntlet: Any) -> AttackResult:
    """Alice (MODIFY) sets a string into the FLOAT ``amount`` column that
    carol's governed ``sum()`` reads, betting one bad value breaks every
    reader of the shared table."""
    admin = gauntlet.client_for("admin")
    alice = gauntlet.client_for("alice")
    carol = gauntlet.client_for("carol")
    total = f"SELECT sum(amount) FROM {h.ORDERS}"
    answer = carol.sql(total).collect()
    admin.sql(f"GRANT MODIFY ON {h.ORDERS} TO analysts")
    before = _storage_truth(gauntlet)
    try:
        try:
            alice.sql(f"UPDATE {h.ORDERS} SET amount = 'x' WHERE id = 1")
        except AnalysisError as exc:
            refusal: Any = exc
        else:
            refusal = None
        try:
            after = carol.sql(total).collect()
        except Exception as exc:  # noqa: BLE001 - a broken reader is the leak
            return leaked(f"another principal's sum() now fails: {exc!r}")
        if refusal is None or after != answer:
            return leaked(f"mis-typed SET committed; sum() {answer} -> {after}")
        return judge(refusal, gauntlet.forbidden_tokens(), "mis-typed SET refused")
    finally:
        admin.sql(f"REVOKE MODIFY ON {h.ORDERS} FROM analysts")
        if _storage_truth(gauntlet) != before:
            _restore(gauntlet, before)


def _profile(gauntlet: Any, trace_id: str) -> list[tuple]:
    """alice's ``query_profile`` rows of one trace, less the ids and times
    that differ between any two runs."""
    rows = gauntlet.collect("alice", proto.sql_relation(
        "SELECT name, kind, status, attributes FROM system.access.query_profile "
        f"WHERE trace_id = '{trace_id}'"
    ))
    return [(*row[:3], {k: v for k, v in json.loads(row[3]).items() if not k.endswith("_id")})
            for row in rows]


@attack_scenario(
    name="write-probe-range-oracle",
    layer="enforcement",
    technique="write-denial",
    expected_containment="a commit skips a file by key bounds that cover "
    "hidden rows too, but the skip shows in no span, ack, error or table "
    "row the writer can read: DELETE of a hidden row's key and of a key "
    "no row has answer identically (only wall time differs)",
)
def write_probe_range_oracle(gauntlet: Any) -> AttackResult:
    """Alice deletes by the key of a row her filter hides, then by a key no
    row has, and diffs the two answers for a sign of which key exists."""
    admin = gauntlet.client_for("admin")
    alice = gauntlet.client_for("alice")
    admin.sql(f"GRANT MODIFY ON {h.ORDERS} TO analysts")
    before = _storage_truth(gauntlet)
    hidden = next(row[0] for row in before if row[1] != "US")
    absent = max(row[0] for row in before) + 1000
    seen: list[Any] = []
    try:
        # The first run of the shape compiles its kernels (kernel-compile
        # spans, whichever key it probes); the two compared runs reuse them.
        for key in (absent, hidden, absent):
            try:
                answer: Any = alice.sql(f"DELETE FROM {h.ORDERS} WHERE id = {key}")
            except Exception as exc:  # noqa: BLE001 - any error text is observed
                answer = f"{type(exc).__name__}: {exc}"
            seen.append((answer, _profile(gauntlet, alice.last_trace_id)))
        if _storage_truth(gauntlet) != before:
            return leaked("a DELETE of a hidden row's key removed it", rows=1)
        if seen[1] != seen[2]:
            return leaked(f"hidden key and absent key answered differently: {seen}")
        return judge(seen, gauntlet.forbidden_tokens(), "both keys answered alike")
    finally:
        admin.sql(f"REVOKE MODIFY ON {h.ORDERS} FROM analysts")
