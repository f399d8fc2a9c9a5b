"""Non-interference of the memo's access paths (the index-selectivity oracle).

A memo entry's sorted index and run partition are built from, and sized
by, the rows its principal was admitted. Were a path built before
admission, or sized by the raw file, rows a principal cannot see would
change what it observes: answers, errors, its own spans, or the counters an
admin reads about its entries. Two worlds that differ only in such rows
must look the same.
"""

from __future__ import annotations

import json
import random
from typing import Any

from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, contained, leaked
from repro.platform import Workspace

#: Rows alice sees per file: one table whose entries build paths, and one
#: just under the size floor, which only a raw-row count would push over.
_TABLES = {"main.s.big": 1500, "main.s.edge": 1000}
_FILES = 2
#: Rows hidden from alice per file, by world (none, then many with other
#: values: far larger amounts, new buckets).
_HIDDEN = {"quiet": 0, "busy": 700}


def _rows(table: str, file: int, hidden: int, world: str) -> dict[str, list]:
    """One file: alice's rows (the same in every world) with ``hidden`` EU
    rows scattered among them by the world's own seed."""
    seen = random.Random(f"paths:{table}:{file}")
    rows = [
        (file * 10_000 + i, "US", round(seen.uniform(0, 500), 3), seen.randrange(6))
        for i in range(_TABLES[table])
    ]
    noise = random.Random(f"paths:{table}:{file}:{world}")
    for i in range(hidden):
        at = noise.randrange(len(rows) + 1)
        rows.insert(at, (900_000 + i, "EU", noise.uniform(480, 5000), 6 + noise.randrange(40)))
    return {name: [r[j] for r in rows] for j, name in enumerate(("id", "region", "amount", "bucket"))}


#: An indexed range, a top-k by the indexed column, a grouped aggregate,
#: and one that fails.
_QUERIES = (
    "SELECT id, amount FROM {} WHERE amount > 480",
    "SELECT id, amount FROM {} WHERE amount < 300 ORDER BY amount DESC LIMIT 5",
    "SELECT bucket, count(*), sum(amount) FROM {} WHERE amount > 10 GROUP BY bucket",
    "SELECT id FROM {} WHERE amount > 'x'",
)


def _observe(world: str) -> dict[str, Any]:
    """Everything alice sees of her queries in ``world``, and the path
    counters an admin reads for the governed memo."""
    ws = Workspace(name=f"paths-{world}")
    # Fault-free: a retry's spans would tell the worlds apart, not the rows.
    ws.catalog.faults.clear()
    try:
        ws.add_user("admin", admin=True)
        ws.add_user("alice")
        ws.add_group("analysts", ["alice"])
        ws.catalog.create_catalog("main", owner="admin")
        ws.catalog.create_schema("main.s", owner="admin")
        cluster = ws.create_standard_cluster(name="paths")
        admin, alice = cluster.connect("admin"), cluster.connect("alice")
        ctx = ws.catalog.principals.context_for("admin")
        admin.sql("GRANT USE CATALOG ON main TO analysts")
        admin.sql("GRANT USE SCHEMA ON main.s TO analysts")
        for table in _TABLES:
            admin.sql(f"CREATE TABLE {table} (id int, region string, amount float, bucket int)")
            for file in range(_FILES):
                ws.catalog.write_table(table, _rows(table, file, _HIDDEN[world], world), ctx)
            admin.sql(f"GRANT SELECT ON {table} TO analysts")
            admin.sql(f"ALTER TABLE {table} SET ROW FILTER (region = 'US')")
        answers = []
        texts = [q.format(t) for t in _TABLES for q in _QUERIES for _ in range(3)]
        # Three runs each: a path's first probe, its build, a read; then a
        # read alice may not make.
        for text in texts + ["SELECT * FROM system.access.cache_stats"]:
            try:
                answers.append(alice.sql(text).collect())
            except Exception as exc:  # noqa: BLE001 - the error is observed
                answers.append(f"{type(exc).__name__}: {exc}")
        spans = [
            (name, kind, user, status, sorted(json.loads(attributes or "{}")))
            for _, _, _, name, kind, user, _, _, status, attributes in alice.sql(
                "SELECT * FROM system.access.query_profile"
            ).collect()
        ]
        counters = {
            metric: value
            for scope, metric, value in admin.sql(
                "SELECT * FROM system.access.cache_stats"
            ).collect()
            # Rejected rows are the hidden ones: the one count that may move.
            if scope in ("governed_rows[store]", "governed_paths[store]")
            and metric != "rows_rejected"
        }
        return {"answers": answers, "spans": spans, "counters": counters}
    finally:
        ws.shutdown()


@attack_scenario(
    name="index-selectivity-oracle",
    layer="storage",
    technique="cache-oracle",
    expected_containment="a memo entry's sorted index and run partition are "
    "built from its admitted rows and sized by them (the size floor too): two "
    "worlds that differ only in rows alice cannot see give her identical "
    "answers, errors and spans, and identical index and run counters",
)
def index_selectivity_oracle(gauntlet: Any) -> AttackResult:
    """Alice runs an indexed range, a top-k and a grouped aggregate in two
    worlds that differ only in the rows her row filter hides."""
    quiet, busy = _observe("quiet"), _observe("busy")
    differ = [part for part in quiet if quiet[part] != busy[part]]
    if differ:
        return leaked(f"hidden rows changed what alice observes: {differ}", rows=len(differ))
    return contained(f"both worlds look the same to alice (counters: {quiet['counters']})")
