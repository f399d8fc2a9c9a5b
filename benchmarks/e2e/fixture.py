"""Seeded data and the governed workspace every e2e workload is built on.

Everything here is a pure function of the seed: the same seed gives the
same rows, the same principals and the same policies, so the oracle can
recompute any answer from the generated columns alone. The workspace is
built through the public surface only (``Workspace``, the admin's Connect
client for DDL, ``catalog.write_table`` for bulk loads).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.platform import Workspace

COLUMNS = ("id", "region", "amount", "a", "b", "note")
TABLE_DDL = "(id int, region string, amount float, a int, b int, note string)"
REGIONS = ("EU", "US", "APAC", "LATAM")
A_RANGE = 97
B_RANGE = 31
NOTE_RANGE = 1000
AMOUNT_MAX = 500.0
NULL_SHARE = 0.02
MASKED_NOTE = "***"

ADMIN = "admin"
USERS = tuple(f"u{i}" for i in range(8))
GROUPS = {
    "emea": USERS[:4],
    "amer": USERS[4:],
    "analysts": USERS,
    "pii": USERS[:2],
}
GROUP_REGIONS = {"emea": frozenset({"EU", "APAC"}), "amer": frozenset({"US", "LATAM"})}

ROW_FILTER = (
    "(region IN ('EU','APAC') AND is_account_group_member('emea')) OR "
    "(region IN ('US','LATAM') AND is_account_group_member('amer'))"
)
NOTE_MASK = f"CASE WHEN is_account_group_member('pii') THEN note ELSE '{MASKED_NOTE}' END"


@dataclass(frozen=True)
class Principal:
    """What the policies let one session see (the oracle's view of a user)."""

    user: str
    #: Regions the row filter admits; ``None`` means every row (no filter).
    regions: frozenset[str] | None
    #: Whether ``note`` comes back in the clear.
    sees_notes: bool

    def admits(self, region: str) -> bool:
        """Whether a row in ``region`` is visible to this principal."""
        return self.regions is None or region in self.regions


def principal_for(user: str, governed: bool = True) -> Principal:
    """The principal a session of ``user`` acts as.

    ``governed=False`` is the ungoverned twin: the tables carry no policy,
    so every row and every note is visible.
    """
    if not governed:
        return Principal(user, None, True)
    regions: set[str] = set()
    for group, members in GROUPS.items():
        if user in members:
            regions |= GROUP_REGIONS.get(group, frozenset())
    return Principal(user, frozenset(regions), user in GROUPS["pii"])


def generate_rows(rng: random.Random, count: int, first_id: int = 0) -> dict[str, list[Any]]:
    """``count`` seeded rows in column-major form, ids ``first_id..``."""
    return {
        "id": list(range(first_id, first_id + count)),
        "region": [rng.choice(REGIONS) for _ in range(count)],
        "amount": [
            None if rng.random() < NULL_SHARE else rng.random() * AMOUNT_MAX
            for _ in range(count)
        ],
        "a": [rng.randrange(A_RANGE) for _ in range(count)],
        "b": [rng.randrange(B_RANGE) for _ in range(count)],
        "note": [f"n{rng.randrange(NOTE_RANGE)}" for _ in range(count)],
    }


@dataclass(frozen=True)
class TableSpec:
    """One benchmark table: its size and how many data files hold it."""

    name: str
    rows: int
    files: int
    writable: bool = False


@dataclass
class Fixture:
    """A built workspace plus the generated data the oracle checks against."""

    workspace: Workspace
    cluster: Any
    admin: Any
    #: Generated columns per table, exactly as loaded.
    data: dict[str, dict[str, list[Any]]] = field(default_factory=dict)


def generate_tables(seed: int, specs: tuple[TableSpec, ...]) -> dict[str, dict[str, list[Any]]]:
    """The generated columns of every table in ``specs`` (pure in ``seed``)."""
    rng = random.Random(f"e2e-data:{seed}")
    return {spec.name: generate_rows(rng, spec.rows) for spec in specs}


def build_fixture(
    seed: int,
    specs: tuple[TableSpec, ...],
    governed: bool = True,
    sandbox_backend: str = "inprocess",
) -> Fixture:
    """Build the workspace, principals, tables, grants and policies.

    Cluster configuration is whatever ``Workspace()`` and
    ``create_standard_cluster()`` give by default; ``sandbox_backend`` is
    the one knob a workload (``sandbox_udf``) may set.
    """
    ws = Workspace(sandbox_backend=sandbox_backend)
    ws.add_user(ADMIN, admin=True)
    for user in USERS:
        ws.add_user(user)
    for group, members in GROUPS.items():
        ws.add_group(group, list(members))
    ws.catalog.create_catalog("main", owner=ADMIN)
    ws.catalog.create_schema("main.b", owner=ADMIN)
    cluster = ws.create_standard_cluster()
    admin = cluster.connect(ADMIN)
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.b TO analysts")
    fixture = Fixture(ws, cluster, admin, generate_tables(seed, specs))
    admin_ctx = ws.catalog.principals.context_for(ADMIN)
    for spec in specs:
        columns = fixture.data[spec.name]
        admin.sql(f"CREATE TABLE {spec.name} {TABLE_DDL}")
        per_file = spec.rows // spec.files
        for part in range(spec.files):
            lo = part * per_file
            hi = spec.rows if part == spec.files - 1 else lo + per_file
            ws.catalog.write_table(
                spec.name, {c: columns[c][lo:hi] for c in COLUMNS}, admin_ctx
            )
        admin.sql(f"GRANT SELECT ON {spec.name} TO analysts")
        if spec.writable:
            admin.sql(f"GRANT MODIFY ON {spec.name} TO analysts")
        if governed:
            admin.sql(f"ALTER TABLE {spec.name} SET ROW FILTER ({ROW_FILTER})")
            admin.sql(f"ALTER TABLE {spec.name} ALTER COLUMN note SET MASK ({NOTE_MASK})")
    return fixture
