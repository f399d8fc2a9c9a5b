"""SQL write statements (INSERT/UPDATE/DELETE/MERGE) under full FGAC.

Parser coverage for the PR-10 grammar, end-to-end governance of each write
statement (MODIFY checks, row filters constraining the touchable rows,
masked columns unwritable and unreadable from write expressions), and
backend equivalence: the same write workload must produce identical final
table state on the thread and process worker backends.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    AnalysisError,
    ParseError,
    PermissionDenied,
    WriteDeniedError,
)
from repro.platform import Workspace
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement

ORDERS = "main.sales.orders"


class TestWriteStatementParsing:
    def test_update_with_where(self):
        stmt = parse_statement(
            "UPDATE t SET amount = amount + 1, region = 'US' WHERE id = 3"
        )
        assert isinstance(stmt, ast.UpdateStatement)
        assert stmt.table == "t"
        assert [col for col, _ in stmt.assignments] == ["amount", "region"]
        assert stmt.where is not None

    def test_update_without_where(self):
        stmt = parse_statement("UPDATE a.b.c SET x = 1")
        assert isinstance(stmt, ast.UpdateStatement)
        assert stmt.where is None

    def test_delete_with_where(self):
        stmt = parse_statement("DELETE FROM a.b.c WHERE id = 1")
        assert isinstance(stmt, ast.DeleteStatement)
        assert stmt.table == "a.b.c"
        assert stmt.where is not None

    def test_delete_all(self):
        stmt = parse_statement("DELETE FROM t")
        assert stmt.where is None

    def test_merge_full_form(self):
        stmt = parse_statement(
            "MERGE INTO tgt AS t USING src AS s ON t.id = s.id "
            "WHEN MATCHED THEN UPDATE SET amount = s.amount "
            "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.amount)"
        )
        assert isinstance(stmt, ast.MergeStatement)
        assert stmt.target == "tgt" and stmt.source == "src"
        assert stmt.target_alias == "t" and stmt.source_alias == "s"
        assert stmt.matched_assignments is not None
        assert stmt.insert_values is not None and len(stmt.insert_values) == 2

    def test_merge_matched_delete(self):
        stmt = parse_statement(
            "MERGE INTO tgt USING src ON tgt.id = src.id "
            "WHEN MATCHED THEN DELETE"
        )
        assert stmt.matched_delete is True
        assert stmt.matched_assignments is None

    def test_merge_requires_a_when_clause(self):
        with pytest.raises(ParseError):
            parse_statement("MERGE INTO tgt USING src ON tgt.id = src.id")

    def test_merge_rejects_duplicate_matched_clause(self):
        with pytest.raises(ParseError):
            parse_statement(
                "MERGE INTO t USING s ON t.id = s.id "
                "WHEN MATCHED THEN DELETE WHEN MATCHED THEN DELETE"
            )

    def test_insert_select_captures_query(self):
        stmt = parse_statement("INSERT INTO t SELECT id, amount FROM u")
        assert isinstance(stmt, ast.InsertStatement)
        assert stmt.rows == []
        assert stmt.query_sql.startswith("SELECT")

    def test_begin_commit_rollback(self):
        assert isinstance(parse_statement("BEGIN"), ast.BeginStatement)
        assert isinstance(
            parse_statement("BEGIN TRANSACTION"), ast.BeginStatement
        )
        assert isinstance(parse_statement("COMMIT"), ast.CommitStatement)
        assert isinstance(parse_statement("ROLLBACK"), ast.RollbackStatement)

    def test_collect_statement_tables_covers_writes(self):
        from repro.connect import proto

        def tables_of(sql):
            return proto.referenced_tables(proto.sql_command(sql))

        assert tables_of("UPDATE a.b.c SET x = 1") == {"a.b.c"}
        assert tables_of("DELETE FROM a.b.c") == {"a.b.c"}
        assert tables_of(
            "MERGE INTO a.b.t USING a.b.s ON t.id = s.id "
            "WHEN MATCHED THEN DELETE"
        ) == {"a.b.t", "a.b.s"}
        assert tables_of("INSERT INTO a.b.c SELECT * FROM a.b.d") == {
            "a.b.c",
            "a.b.d",
        }


@pytest.fixture
def workspace():
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    cat = ws.catalog
    cat.create_catalog("main", owner="admin")
    cat.create_schema("main.sales", owner="admin")
    yield ws
    ws.shutdown()


@pytest.fixture
def cluster(workspace):
    return workspace.create_standard_cluster()


@pytest.fixture
def admin(cluster):
    client = cluster.connect("admin")
    client.sql(
        f"CREATE TABLE {ORDERS} "
        "(id int, region string, amount float, buyer string)"
    )
    client.sql(
        f"INSERT INTO {ORDERS} VALUES "
        "(1,'US',10.0,'p1'),(2,'EU',20.0,'p2'),(3,'US',30.0,'p3')"
    )
    client.sql("GRANT USE CATALOG ON main TO analysts")
    client.sql("GRANT USE SCHEMA ON main.sales TO analysts")
    client.sql(f"GRANT SELECT ON {ORDERS} TO analysts")
    return client


@pytest.fixture
def alice(cluster, admin):
    return cluster.connect("alice")


def rows(client, sql):
    return sorted(client.sql(sql).collect())


class TestWriteGovernance:
    def test_insert_requires_modify(self, admin, alice):
        with pytest.raises(PermissionDenied):
            alice.sql(f"INSERT INTO {ORDERS} VALUES (9,'US',1.0,'x')")

    def test_update_requires_modify(self, admin, alice):
        with pytest.raises(PermissionDenied):
            alice.sql(f"UPDATE {ORDERS} SET amount = 0.0")

    def test_delete_requires_modify(self, admin, alice):
        with pytest.raises(PermissionDenied):
            alice.sql(f"DELETE FROM {ORDERS}")

    def test_update_confined_to_row_filter(self, workspace, admin, alice):
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        admin.sql(f"ALTER TABLE {ORDERS} SET ROW FILTER (region = 'US')")
        alice.sql(f"UPDATE {ORDERS} SET amount = amount + 100.0")
        admin.sql(f"ALTER TABLE {ORDERS} DROP ROW FILTER")
        truth = rows(admin, f"SELECT id, amount FROM {ORDERS}")
        assert truth == [(1, 110.0), (2, 20.0), (3, 130.0)]

    def test_delete_confined_to_row_filter(self, workspace, admin, alice):
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        admin.sql(f"ALTER TABLE {ORDERS} SET ROW FILTER (region = 'US')")
        alice.sql(f"DELETE FROM {ORDERS}")  # only her visible rows die
        admin.sql(f"ALTER TABLE {ORDERS} DROP ROW FILTER")
        assert rows(admin, f"SELECT id FROM {ORDERS}") == [(2,)]

    def test_masked_column_unassignable(self, workspace, admin, alice):
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        admin.sql(
            f"ALTER TABLE {ORDERS} ALTER COLUMN buyer SET MASK ('***')"
        )
        with pytest.raises(WriteDeniedError):
            alice.sql(f"UPDATE {ORDERS} SET buyer = 'evil'")

    def test_masked_column_unreadable_in_where(self, workspace, admin, alice):
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        admin.sql(
            f"ALTER TABLE {ORDERS} ALTER COLUMN buyer SET MASK ('***')"
        )
        with pytest.raises(WriteDeniedError):
            alice.sql(f"DELETE FROM {ORDERS} WHERE buyer = 'p1'")

    def test_merge_matched_clause_masked_read_refused(
        self, workspace, admin, alice
    ):
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        admin.sql(
            f"ALTER TABLE {ORDERS} ALTER COLUMN buyer SET MASK ('***')"
        )
        with pytest.raises(WriteDeniedError):
            alice.sql(
                f"MERGE INTO {ORDERS} AS t USING {ORDERS} AS s "
                "ON t.buyer = s.buyer "
                "WHEN MATCHED THEN UPDATE SET amount = 0.0"
            )

    def test_mask_write_block_applies_to_every_principal(
        self, workspace, admin
    ):
        # The refusal is conservative and principal-blind: the mask
        # expression encodes any exemption (e.g. an hr CASE branch), which
        # a write cannot partially evaluate — so even admins must drop the
        # mask before repairing masked data.
        admin.sql(
            f"ALTER TABLE {ORDERS} ALTER COLUMN buyer SET MASK ('***')"
        )
        with pytest.raises(WriteDeniedError):
            admin.sql(f"UPDATE {ORDERS} SET buyer = 'fixed' WHERE id = 1")
        admin.sql(f"ALTER TABLE {ORDERS} ALTER COLUMN buyer DROP MASK")
        admin.sql(f"UPDATE {ORDERS} SET buyer = 'fixed' WHERE id = 1")
        assert (1, "fixed") in rows(admin, f"SELECT id, buyer FROM {ORDERS}")

    def test_insert_select_enforces_source_policies(
        self, workspace, admin, alice
    ):
        admin.sql(
            "CREATE TABLE main.sales.sink "
            "(id int, region string, amount float, buyer string)"
        )
        admin.sql("GRANT SELECT ON main.sales.sink TO analysts")
        admin.sql("GRANT MODIFY ON main.sales.sink TO analysts")
        admin.sql(f"ALTER TABLE {ORDERS} SET ROW FILTER (region = 'US')")
        admin.sql(
            f"ALTER TABLE {ORDERS} ALTER COLUMN buyer SET MASK ('***')"
        )
        alice.sql(f"INSERT INTO main.sales.sink SELECT * FROM {ORDERS}")
        sunk = rows(alice, "SELECT id, buyer FROM main.sales.sink")
        # Row filter dropped the EU row; the mask replaced raw buyers.
        assert sunk == [(1, "***"), (3, "***")]

    def test_update_arity_and_unknown_column_rejected(self, admin):
        with pytest.raises(AnalysisError):
            admin.sql(f"UPDATE {ORDERS} SET nope = 1")
        with pytest.raises(AnalysisError):
            admin.sql(f"INSERT INTO {ORDERS} VALUES (1, 'US')")


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_write_workload_identical_final_state(self, backend):
        ws = Workspace()
        ws.add_user("admin", admin=True)
        cat = ws.catalog
        cat.create_catalog("main", owner="admin")
        cat.create_schema("main.sales", owner="admin")
        cluster = ws.create_standard_cluster(worker_backend=backend)
        try:
            client = cluster.connect("admin")
            client.sql(
                f"CREATE TABLE {ORDERS} (id int, region string, amount float)"
            )
            client.sql(
                f"INSERT INTO {ORDERS} VALUES "
                "(1,'US',10.0),(2,'EU',20.0),(3,'US',30.0)"
            )
            client.sql(
                f"UPDATE {ORDERS} SET amount = amount * 2.0 "
                "WHERE region = 'US'"
            )
            client.sql(f"DELETE FROM {ORDERS} WHERE id = 2")
            client.sql("BEGIN")
            client.sql(f"INSERT INTO {ORDERS} VALUES (4,'APAC',40.0)")
            client.sql("COMMIT")
            final = rows(client, f"SELECT id, region, amount FROM {ORDERS}")
            assert final == [
                (1, "US", 20.0),
                (3, "US", 60.0),
                (4, "APAC", 40.0),
            ]
        finally:
            ws.shutdown()


CODES = "main.sales.codes"
HIDDEN_CODE = "SECRET-x9"


class TestWritePredicateErrorOracle:
    """Write expressions are evaluated only over rows the writer's row
    filter admits (row filter -> WHERE/ON -> SET), so an expression that
    would raise on a hidden row's value neither fails the statement nor
    carries that value out in an error message."""

    @pytest.fixture
    def codes(self, admin, alice):
        admin.sql(f"CREATE TABLE {CODES} (id int, tenant string, code string, v int)")
        admin.sql(
            f"INSERT INTO {CODES} VALUES (1,'mine','1',0),(2,'mine','2',0),"
            f"(3,'other','{HIDDEN_CODE}',0)"
        )
        admin.sql("CREATE TABLE main.sales.src (k int, val int)")
        admin.sql("INSERT INTO main.sales.src VALUES (1, 41), (9, 49)")
        for table in (CODES, "main.sales.src"):
            admin.sql(f"GRANT SELECT ON {table} TO analysts")
        admin.sql(f"GRANT MODIFY ON {CODES} TO analysts")
        admin.sql(f"ALTER TABLE {CODES} SET ROW FILTER (tenant = 'mine')")

        def truth():
            admin.sql(f"ALTER TABLE {CODES} DROP ROW FILTER")
            try:
                return rows(admin, f"SELECT id, code, v FROM {CODES}")
            finally:
                admin.sql(f"ALTER TABLE {CODES} SET ROW FILTER (tenant = 'mine')")

        return truth

    @pytest.mark.parametrize(
        "statement, expected",
        [
            (
                f"UPDATE {CODES} SET v = 7 WHERE CAST(code AS INT) = 1",
                [(1, "1", 7), (2, "2", 0), (3, HIDDEN_CODE, 0)],
            ),
            (
                f"DELETE FROM {CODES} WHERE CAST(code AS INT) = 2",
                [(1, "1", 0), (3, HIDDEN_CODE, 0)],
            ),
            (
                f"UPDATE {CODES} SET v = CAST(code AS INT)",
                [(1, "1", 1), (2, "2", 2), (3, HIDDEN_CODE, 0)],
            ),
            (
                f"MERGE INTO {CODES} AS t USING main.sales.src AS s "
                "ON CAST(t.code AS INT) = s.k "
                "WHEN MATCHED THEN UPDATE SET v = s.val",
                [(1, "1", 41), (2, "2", 0), (3, HIDDEN_CODE, 0)],
            ),
            (
                # Non-equi ON: the nested-loop fallback is gated the same way.
                f"MERGE INTO {CODES} AS t USING main.sales.src AS s "
                "ON CAST(t.code AS INT) + 7 < s.k "
                "WHEN MATCHED THEN DELETE",
                [(2, "2", 0), (3, HIDDEN_CODE, 0)],
            ),
        ],
        ids=["update-where", "delete-where", "update-set", "merge-on", "merge-on-loop"],
    )
    def test_hidden_value_never_reaches_a_write_expression(
        self, codes, alice, statement, expected
    ):
        alice.sql(statement)
        assert codes() == expected

    def test_error_on_a_visible_row_still_aborts_without_hidden_text(
        self, codes, admin, alice
    ):
        admin.sql(f"INSERT INTO {CODES} VALUES (4,'mine','oops',0)")
        before = codes()
        with pytest.raises(Exception) as excinfo:
            alice.sql(f"UPDATE {CODES} SET v = 7 WHERE CAST(code AS INT) = 1")
        assert "oops" in str(excinfo.value)
        assert HIDDEN_CODE not in str(excinfo.value)
        assert codes() == before
