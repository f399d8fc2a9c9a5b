"""SQL write statements (INSERT/UPDATE/DELETE/MERGE) under full FGAC.

Parser coverage for the PR-10 grammar, end-to-end governance of each write
statement (MODIFY checks, row filters constraining the touchable rows,
masked columns unwritable and unreadable from write expressions), and
backend equivalence: the same write workload must produce identical final
table state on the thread and process worker backends. The Connect
``command.write_table`` message is governed the same way: each bulk load is
one transaction, and an overwrite replaces only the writer's visible rows.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.connect import proto
from repro.errors import (
    AnalysisError,
    ParseError,
    PermissionDenied,
    WriteDeniedError,
)
from repro.platform import Workspace
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement
from repro.storage.table_format import LakeTableStorage

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


def write_command(client, columns, overwrite=False):
    """Send one raw ``command.write_table`` message into ORDERS."""
    return client.execute_command(
        proto.write_table_command(ORDERS, columns, overwrite=overwrite)
    )


def committed(workspace):
    return workspace.catalog.txn_stats()["txn[manager]"]["committed"]


ONE_ROW = {"id": [9], "region": ["US"], "amount": [90.0], "buyer": ["p9"]}


class TestWriteTableCommand:
    """``command.write_table`` is a transaction: an INSERT, or for an
    overwrite a DELETE of the writer's visible rows plus the INSERT."""

    def test_overwrite_under_a_row_filter_keeps_the_hidden_rows(
        self, admin, alice
    ):
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        admin.sql(f"ALTER TABLE {ORDERS} SET ROW FILTER (region = 'US')")
        write_command(alice, ONE_ROW, overwrite=True)
        assert rows(alice, f"SELECT id FROM {ORDERS}") == [(9,)]
        admin.sql(f"ALTER TABLE {ORDERS} DROP ROW FILTER")
        assert rows(admin, f"SELECT * FROM {ORDERS}") == [
            (2, "EU", 20.0, "p2"), (9, "US", 90.0, "p9"),
        ]

    @pytest.mark.parametrize("columns", [
        {"id": [9], "region": ["US"], "amount": [90.0], "who": ["p9"]},
        {"region": ["US"], "id": [9], "amount": [90.0], "buyer": ["p9"]},
        {"id": [9, 10], "region": ["US"], "amount": [90.0], "buyer": ["p9"]},
        {"id": [9], "region": ["US"], "amount": [90.0]},
    ], ids=["misnamed", "reordered", "ragged", "narrow"])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_malformed_columns_are_refused_and_commit_nothing(
        self, workspace, admin, columns, overwrite
    ):
        version = workspace.catalog.current_table_version(ORDERS)
        with pytest.raises(AnalysisError):
            write_command(admin, columns, overwrite)
        assert workspace.catalog.current_table_version(ORDERS) == version
        assert len(rows(admin, f"SELECT id FROM {ORDERS}")) == 3

    def test_a_refusal_names_the_schema_only_to_a_writer(self, admin, alice):
        with pytest.raises(PermissionDenied):
            write_command(alice, {"x": [1]})

    def test_overwrite_needs_select_and_append_does_not(
        self, workspace, admin, alice
    ):
        admin.sql(f"REVOKE SELECT ON {ORDERS} FROM analysts")
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        with pytest.raises(PermissionDenied):
            write_command(alice, ONE_ROW, overwrite=True)
        write_command(alice, ONE_ROW)
        assert len(rows(admin, f"SELECT id FROM {ORDERS}")) == 4

    def test_an_unconfined_overwrite_reads_no_old_data_file(
        self, workspace, admin, monkeypatch
    ):
        reads = []
        read_file = LakeTableStorage.read_file

        def counted(storage, data_file, *args, **kwargs):
            reads.append(data_file)
            return read_file(storage, data_file, *args, **kwargs)

        monkeypatch.setattr(LakeTableStorage, "read_file", counted)
        write_command(admin, ONE_ROW, overwrite=True)
        assert reads == []
        assert rows(admin, f"SELECT id FROM {ORDERS}") == [(9,)]

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_one_bulk_load_is_one_commit(self, workspace, admin, overwrite):
        before = committed(workspace)
        write_command(admin, ONE_ROW, overwrite)
        assert committed(workspace) == before + 1

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_a_write_inside_begin_is_undone_by_rollback(self, admin, overwrite):
        before = rows(admin, f"SELECT * FROM {ORDERS}")
        admin.sql("BEGIN")
        response = write_command(admin, ONE_ROW, overwrite)
        admin.sql("ROLLBACK")
        assert rows(admin, f"SELECT * FROM {ORDERS}") == before
        assert response["staged"] is True

    def test_a_write_inside_begin_commits_with_its_transaction(self, workspace, admin):
        before = committed(workspace)
        admin.sql("BEGIN")
        write_command(admin, ONE_ROW)
        admin.sql(f"INSERT INTO {ORDERS} VALUES (10, 'US', 1.0, 'p10')")
        assert committed(workspace) == before
        admin.sql("COMMIT")
        assert committed(workspace) == before + 1
        assert {(9,), (10,)} <= set(rows(admin, f"SELECT id FROM {ORDERS}"))

    def test_racing_first_bulk_loads_are_all_counted(self, workspace, cluster):
        """Eight threads' first writes to a fresh catalog commit through one
        manager, so ``txn_stats`` counts every one of them."""
        cluster.connect("admin").sql(f"CREATE TABLE {ORDERS} (id int)")
        ctx = workspace.catalog.principals.context_for("admin")
        start, errors = threading.Barrier(8, timeout=10), []

        def load(i):
            try:
                start.wait()
                workspace.catalog.write_table(ORDERS, {"id": [i]}, ctx)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=load, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert committed(workspace) == 8
        assert workspace.catalog.current_table_snapshot(ORDERS).num_rows == 8


class TestWriteWorkload:
    def test_write_workload_final_state(self):
        ws = Workspace()
        ws.add_user("admin", admin=True)
        cat = ws.catalog
        cat.create_catalog("main", owner="admin")
        cat.create_schema("main.sales", owner="admin")
        cluster = ws.create_standard_cluster()
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
                # Non-equi ON: the probe on the constant TRUE key is gated
                # the same way.
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


class TestWritesAreAnalyzedLikeReads:
    """UPDATE / DELETE / MERGE expressions go through the read path's
    analyzer at staging: a statement the analyzer refuses is refused by the
    statement itself, nothing is staged, and an open transaction stays
    open."""

    @pytest.fixture
    def writer(self, admin, alice):
        admin.sql(f"GRANT MODIFY ON {ORDERS} TO analysts")
        admin.sql("CREATE TABLE main.sales.src (id int, amount float)")
        admin.sql("INSERT INTO main.sales.src VALUES (1, 1.5), (7, 7.5)")
        admin.sql("GRANT SELECT ON main.sales.src TO analysts")
        return alice

    @pytest.mark.parametrize("statement", [
        f"DELETE FROM {ORDERS} WHERE amount",
        f"UPDATE {ORDERS} SET amount = 0.0 WHERE amount",
        f"MERGE INTO {ORDERS} AS t USING main.sales.src AS s ON t.amount "
        "WHEN MATCHED THEN DELETE",
        f"MERGE INTO {ORDERS} AS t USING main.sales.src AS s ON s.id + t.id "
        "WHEN MATCHED THEN UPDATE SET amount = s.amount",
    ], ids=["delete", "update", "merge", "merge-arithmetic"])
    def test_a_non_boolean_condition_is_refused(self, workspace, admin, writer, statement):
        with pytest.raises(AnalysisError, match="must be boolean"):
            writer.sql(f"SELECT id FROM {ORDERS} WHERE amount").collect()
        version = workspace.catalog.current_table_version(ORDERS)
        with pytest.raises(AnalysisError, match="must be boolean"):
            writer.sql(statement)
        assert workspace.catalog.current_table_version(ORDERS) == version
        assert rows(admin, f"SELECT id FROM {ORDERS}") == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("statement", [
        f"UPDATE {ORDERS} SET amount = 'x' WHERE id = 1",
        f"UPDATE {ORDERS} SET id = TRUE",
        f"UPDATE {ORDERS} SET region = amount",
        f"MERGE INTO {ORDERS} AS t USING main.sales.src AS s ON t.id = s.id "
        "WHEN MATCHED THEN UPDATE SET amount = 'x'",
        f"MERGE INTO {ORDERS} AS t USING main.sales.src AS s ON t.id = s.id "
        "WHEN NOT MATCHED THEN INSERT VALUES (s.id, 'US', 'x', 'b')",
        f"INSERT INTO {ORDERS} VALUES (9, 'US', 'x', 'b')",
        f"INSERT INTO {ORDERS} SELECT id, 'US', 'x', 'b' FROM main.sales.src",
    ], ids=[
        "update-string", "update-bool-into-int", "update-float-into-string",
        "merge-set", "merge-insert", "insert-values", "insert-select",
    ])
    def test_a_value_its_column_does_not_accept_is_refused(
        self, workspace, cluster, admin, writer, statement
    ):
        reader = cluster.connect("admin")
        total = rows(reader, f"SELECT sum(amount) FROM {ORDERS}")
        version = workspace.catalog.current_table_version(ORDERS)
        with pytest.raises(AnalysisError, match="does not fit"):
            writer.sql(statement)
        assert workspace.catalog.current_table_version(ORDERS) == version
        assert rows(reader, f"SELECT sum(amount) FROM {ORDERS}") == total

    def test_a_mistyped_bulk_load_is_refused(self, workspace, admin):
        version = workspace.catalog.current_table_version(ORDERS)
        with pytest.raises(AnalysisError, match="a str value does not fit float"):
            write_command(admin, {**ONE_ROW, "amount": ["x"]})
        with pytest.raises(AnalysisError, match="a bool value does not fit int"):
            write_command(admin, {**ONE_ROW, "id": [True]})
        assert workspace.catalog.current_table_version(ORDERS) == version

    def test_int_null_and_a_bare_null_fit_a_float_column(self, admin, writer):
        writer.sql(f"UPDATE {ORDERS} SET amount = 5 WHERE id = 1")
        writer.sql(f"UPDATE {ORDERS} SET amount = NULL WHERE id = 2")
        writer.sql(f"INSERT INTO {ORDERS} VALUES (4, 'US', 4, NULL)")
        write_command(writer, {**ONE_ROW, "amount": [None]})
        assert rows(admin, f"SELECT id, amount FROM {ORDERS}")[:2] == [(1, 5), (2, None)]
        assert rows(admin, f"SELECT sum(amount) FROM {ORDERS}") == [(39.0,)]

    @pytest.mark.parametrize("call", ["nosuch(amount)", "bump(amount)"], ids=["unknown", "udf"])
    def test_a_refused_function_leaves_the_transaction_open(self, admin, writer, call):
        from repro.connect.client import udf

        @udf("float")
        def bump(x):
            return x + 1.0

        writer.register_udf(bump)
        writer.sql("BEGIN")
        writer.sql(f"INSERT INTO {ORDERS} VALUES (4, 'US', 40.0, 'p4')")
        match = "unknown function" if call.startswith("nosuch") else "user code"
        with pytest.raises(AnalysisError, match=match):
            writer.sql(f"UPDATE {ORDERS} SET amount = {call} WHERE id = 1")
        writer.sql("COMMIT")
        assert rows(admin, f"SELECT id, amount FROM {ORDERS}") == [
            (1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0),
        ]

    def test_qualified_names_and_merge_aliases_bind(self, admin, writer):
        writer.sql(f"UPDATE {ORDERS} SET amount = orders.amount + 1.0 WHERE orders.id = 1")
        writer.sql(f"DELETE FROM {ORDERS} WHERE orders.id = 2")
        writer.sql(
            f"MERGE INTO {ORDERS} AS t USING main.sales.src AS s ON t.id = s.id "
            "WHEN MATCHED THEN UPDATE SET amount = t.amount + s.amount "
            "WHEN NOT MATCHED THEN INSERT VALUES (s.id, 'US', s.amount, NULL)"
        )
        writer.sql(
            f"MERGE INTO {ORDERS} USING main.sales.src ON orders.id = src.id + 2 "
            "WHEN MATCHED THEN DELETE"
        )
        assert rows(admin, f"SELECT id, amount FROM {ORDERS}") == [
            (1, 12.5), (7, 7.5),
        ]

    def test_a_fully_qualified_column_resolves_nowhere(self, admin, writer):
        # As in SELECT: the table binds under the last part of its name.
        with pytest.raises(AnalysisError, match="not found"):
            writer.sql(f"SELECT {ORDERS}.id FROM {ORDERS}").collect()
        with pytest.raises(AnalysisError, match="not found"):
            writer.sql(f"DELETE FROM {ORDERS} WHERE {ORDERS}.id = 1")
