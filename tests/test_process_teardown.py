"""Nothing the engine starts outlives ``Workspace.shutdown()``.

Scans and kernels run on the driver's threads; the only child processes are
subprocess sandboxes. Two guards hold that shape: no module under ``src/``
imports ``multiprocessing`` (so ``repro.common.shmbuf.live_segment_names()``
is empty by construction), and a workspace that has used every kind of
compute — standard, dedicated with eFGAC, and the serverless gateway —
leaves no child process behind once it is shut down.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.connect.client import col, udf
from repro.platform import Workspace
from tests.test_failure_injection import live_child_pids

SRC = Path(__file__).parent.parent / "src"


def _imported_modules(tree: ast.AST) -> list[str]:
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return names


def test_no_source_module_imports_multiprocessing():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text()))
        if name == "multiprocessing" or name.startswith("multiprocessing.")
    ]
    assert offenders == []


def test_no_child_process_outlives_workspace_shutdown():
    before = set(live_child_pids())
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    standard = ws.create_standard_cluster()
    admin = standard.connect("admin")
    admin.sql("CREATE TABLE main.s.t (id int, region string, amount float)")
    admin.sql(
        "INSERT INTO main.s.t VALUES (1,'US',1.0),(2,'EU',2.0),(3,'US',3.0)"
    )
    for grant in (
        "GRANT USE CATALOG ON main TO analysts",
        "GRANT USE SCHEMA ON main.s TO analysts",
        "GRANT SELECT ON main.s.t TO analysts",
    ):
        admin.sql(grant)
    admin.sql("ALTER TABLE main.s.t SET ROW FILTER (region = 'US')")

    @udf("float")
    def doubled(amount):
        return amount * 2

    alice = standard.connect("alice")
    rows = alice.table("main.s.t").select(doubled(col("amount"))).collect()
    assert sorted(rows) == [(2.0,), (6.0,)]
    assert set(live_child_pids()) - before, "the UDF ran in a subprocess sandbox"

    dedicated = ws.create_dedicated_cluster(assigned_user="alice")
    remote = dedicated.connect("alice").sql("SELECT id FROM main.s.t").collect()
    assert sorted(remote) == [(1,), (3,)]
    assert dedicated.backend.remote_executor.stats.subqueries >= 1
    # A UDF on the serverless endpoint puts a sandbox on a gateway cluster.
    serverless = ws.connect_serverless("alice")
    rows = serverless.table("main.s.t").select(doubled(col("amount"))).collect()
    assert sorted(rows) == [(2.0,), (6.0,)]

    ws.shutdown()
    assert set(live_child_pids()) - before == set()
    # Shutdown is not fatal: a later scan re-creates the thread pool, and a
    # second shutdown releases it again.
    rows = admin.sql("SELECT id FROM main.s.t").collect()
    assert sorted(rows) == [(1,), (3,)]
    ws.shutdown()
