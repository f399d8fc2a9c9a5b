"""ACID write-path tests: atomic commits, conflicts, snapshot isolation.

Covers the PR-10 transaction tier from the storage primitive up to the SQL
surface: ``put_if_absent`` as the commit point, the lost-update regression
the old blind append/overwrite path allowed, optimistic conflict detection
and retry, snapshot isolation for reads inside BEGIN/COMMIT, abort
invisibility to the caches, the ``system.access.txn_stats`` table, and the
wire codec round-trip of the three new error classes.
"""

from __future__ import annotations

import json

import pytest

from repro.common.clock import VirtualClock
from repro.common.datacodec import decode_data_file
from repro.connect.service import error_to_message, raise_from_message
from repro.errors import (
    AnalysisError,
    CommitConflictError,
    TransactionAbortedError,
    WriteDeniedError,
)
from repro.engine.expressions import EvalContext
from repro.platform import Workspace
from repro.storage import CredentialVendor, ObjectStore
from repro.storage.credentials import DELETE, LIST, READ, WRITE
from repro.storage.table_format import LakeTableStorage
from repro.txn.writes import TARGET_FILE_ROWS, InsertOp, StagedWrite, apply_ops

ORDERS = "main.sales.orders"


@pytest.fixture
def workspace():
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("bob")
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
        f"CREATE TABLE {ORDERS} (id int, region string, amount float)"
    )
    client.sql(
        f"INSERT INTO {ORDERS} VALUES "
        "(1,'US',10.0),(2,'EU',20.0),(3,'US',30.0)"
    )
    return client


def rows(client, sql):
    return sorted(client.sql(sql).collect())


class TestPutIfAbsent:
    def test_first_writer_wins(self):
        clock = VirtualClock()
        store = ObjectStore(clock=clock)
        vendor = CredentialVendor(clock=clock, ttl_seconds=60.0)
        cred = vendor.issue("root", ["s3://b"], {READ, WRITE, LIST, DELETE})
        store.put_if_absent("s3://b/x", b"one", cred)
        with pytest.raises(CommitConflictError):
            store.put_if_absent("s3://b/x", b"two", cred)
        assert store.get("s3://b/x", cred) == b"one"

    def test_conflict_is_retryable_typed(self):
        from repro.errors import RetryableError, StorageError

        assert issubclass(CommitConflictError, StorageError)
        assert issubclass(CommitConflictError, RetryableError)


class TestLostUpdateRegression:
    def test_racing_appends_both_survive(self, workspace, admin):
        """Two writers appending concurrently must both land (no blind put).

        Before the atomic commit protocol, the second append's metadata
        write clobbered the first: last-writer-wins on the log object. Now
        the loser of the version race rebases and re-commits, so both
        appends survive in the final snapshot.
        """
        catalog = workspace.catalog
        table = catalog.get_table(ORDERS)
        storage = catalog.table_storage(table)
        cred = catalog._service_credential
        base = storage.snapshot(cred).version

        # Interleave at the storage layer: both writers observed ``base``;
        # writer A commits first; writer B must not overwrite A's commit.
        file_a = storage.stage_data_file({"id": [10], "region": ["US"],
                                          "amount": [1.0]}, cred)
        file_b = storage.stage_data_file({"id": [11], "region": ["EU"],
                                          "amount": [2.0]}, cred)
        names = list(table.schema.names)

        def add(data_file):
            return {
                "add": data_file.path,
                "rows": data_file.num_rows,
                "bytes": data_file.size_bytes,
            }

        storage.commit_version(base + 1, [add(file_a)], names, cred)
        with pytest.raises(CommitConflictError):
            storage.commit_version(base + 1, [add(file_b)], names, cred)
        # Writer B rebases onto the new tip instead of clobbering it.
        storage.commit_version(base + 2, [add(file_b)], names, cred)
        snap = storage.snapshot(cred)
        data = storage.read_all(cred)
        assert snap.version == base + 2
        assert sorted(data["id"]) == [1, 2, 3, 10, 11]

    def test_sql_level_concurrent_inserts_all_land(self, workspace, admin):
        import threading

        cluster2 = workspace.create_standard_cluster(name="second")
        other = cluster2.connect("admin")
        errors: list[Exception] = []

        def insert(client, offset):
            try:
                for i in range(5):
                    client.sql(
                        f"INSERT INTO {ORDERS} VALUES "
                        f"({offset + i},'US',1.0)"
                    )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=insert, args=(admin, 100)),
            threading.Thread(target=insert, args=(other, 200)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        ids = [r[0] for r in rows(admin, f"SELECT id FROM {ORDERS}")]
        assert set(range(100, 105)) <= set(ids)
        assert set(range(200, 205)) <= set(ids)


class TestConflictDetection:
    def test_read_dependent_commit_conflicts_when_pin_stale(
        self, workspace, admin
    ):
        catalog = workspace.catalog
        ctx = catalog.principals.context_for("admin")
        txn = catalog.txn_manager.begin(ctx)
        txn.update(ORDERS, {"amount": _lit(99.0)}, None)
        # Another writer advances the table past the transaction's pin.
        admin.sql(f"INSERT INTO {ORDERS} VALUES (50,'US',5.0)")
        with pytest.raises(CommitConflictError):
            txn.commit()
        assert txn.state == "aborted"

    def test_run_retries_conflicts_to_success(self, workspace, admin):
        catalog = workspace.catalog
        ctx = catalog.principals.context_for("admin")
        interfered = []

        def body(txn):
            txn.update(ORDERS, {"amount": _lit(99.0)}, None)
            if not interfered:
                interfered.append(True)
                admin.sql(f"INSERT INTO {ORDERS} VALUES (60,'US',6.0)")

        catalog.txn_manager.run(ctx, body)
        amounts = {
            r[1] for r in rows(admin, f"SELECT id, amount FROM {ORDERS}")
        }
        assert amounts == {99.0}
        stats = catalog.txn_manager.stats_snapshot()
        assert stats["conflicts"] >= 1
        assert stats["committed"] >= 1

    def test_blind_inserts_do_not_conflict(self, workspace, admin):
        catalog = workspace.catalog
        ctx = catalog.principals.context_for("admin")
        txn = catalog.txn_manager.begin(ctx)
        txn.insert(ORDERS, [[70], ["US"], [7.0]])
        admin.sql(f"INSERT INTO {ORDERS} VALUES (71,'US',7.0)")
        txn.commit()  # append rebases; no conflict surfaces
        ids = [r[0] for r in rows(admin, f"SELECT id FROM {ORDERS}")]
        assert 70 in ids and 71 in ids


class TestSnapshotIsolation:
    def test_reads_pin_at_begin(self, workspace, cluster, admin):
        admin.sql("BEGIN")
        before = rows(admin, f"SELECT id FROM {ORDERS}")
        # A different session commits mid-transaction.
        other = workspace.create_standard_cluster(name="other").connect(
            "admin"
        )
        other.sql(f"INSERT INTO {ORDERS} VALUES (80,'US',8.0)")
        during = rows(admin, f"SELECT id FROM {ORDERS}")
        assert during == before  # pinned snapshot: new row invisible
        admin.sql("COMMIT")
        after = rows(admin, f"SELECT id FROM {ORDERS}")
        assert (80,) in after

    def test_staged_writes_invisible_until_commit(self, workspace, admin):
        admin.sql("BEGIN")
        admin.sql(f"INSERT INTO {ORDERS} VALUES (90,'US',9.0)")
        assert (90,) not in rows(admin, f"SELECT id FROM {ORDERS}")
        admin.sql("COMMIT")
        assert (90,) in rows(admin, f"SELECT id FROM {ORDERS}")

    def test_rollback_discards_staged_writes(self, workspace, admin):
        admin.sql("BEGIN TRANSACTION")
        admin.sql(f"DELETE FROM {ORDERS}")
        admin.sql("ROLLBACK")
        assert len(rows(admin, f"SELECT id FROM {ORDERS}")) == 3

    def test_nested_begin_rejected(self, workspace, admin):
        admin.sql("BEGIN")
        with pytest.raises(AnalysisError):
            admin.sql("BEGIN")
        admin.sql("ROLLBACK")

    def test_commit_without_begin_rejected(self, workspace, admin):
        with pytest.raises(AnalysisError):
            admin.sql("COMMIT")
        with pytest.raises(AnalysisError):
            admin.sql("ROLLBACK")


class TestAbortCacheInvisibility:
    def test_abort_does_not_bump_data_epoch(self, workspace, admin):
        catalog = workspace.catalog
        admin.sql("BEGIN")
        admin.sql(f"INSERT INTO {ORDERS} VALUES (95,'US',9.5)")
        epoch = catalog.data_epoch
        admin.sql("ROLLBACK")
        assert catalog.data_epoch == epoch

    def test_commit_bumps_data_epoch_once(self, workspace, admin):
        catalog = workspace.catalog
        admin.sql("BEGIN")
        admin.sql(f"INSERT INTO {ORDERS} VALUES (96,'US',9.6)")
        admin.sql(f"INSERT INTO {ORDERS} VALUES (97,'US',9.7)")
        epoch = catalog.data_epoch
        admin.sql("COMMIT")
        assert catalog.data_epoch == epoch + 1

    def test_aborted_write_invisible_to_a_warm_read(self, workspace, admin):
        query = f"SELECT id FROM {ORDERS}"
        rows(admin, query)
        warm = rows(admin, query)  # the second run reuses the cached plan
        admin.sql("BEGIN")
        admin.sql(f"INSERT INTO {ORDERS} VALUES (98,'EU',9.8)")
        admin.sql("ROLLBACK")
        after = rows(admin, query)
        assert after == warm and (98,) not in after


class TestTxnStatsTable:
    def test_admin_sees_counters(self, workspace, admin):
        admin.sql("BEGIN")
        admin.sql(f"INSERT INTO {ORDERS} VALUES (5,'US',5.0)")
        admin.sql("COMMIT")
        stats = {
            (r[0], r[1]): r[2]
            for r in admin.sql(
                "SELECT * FROM system.access.txn_stats"
            ).collect()
        }
        assert stats[("txn[manager]", "begun")] >= 1.0
        assert stats[("txn[manager]", "committed")] >= 1.0
        assert stats[("txn[manager]", "files_staged")] >= 1.0
        # Both live files are under the fold size: the UPDATE rewrites them.
        admin.sql(f"UPDATE {ORDERS} SET amount = 6.0 WHERE id = 5")
        stats = {
            (r[0], r[1]): r[2]
            for r in admin.sql(
                "SELECT * FROM system.access.txn_stats"
            ).collect()
        }
        assert stats[("txn[manager]", "files_rewritten")] == 2.0
        assert stats[("txn[manager]", "files_kept")] == 0.0

    def test_non_admin_denied(self, workspace, cluster, admin):
        from repro.errors import PermissionDenied

        admin.sql("GRANT USE CATALOG ON main TO analysts")
        admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
        admin.sql(f"GRANT SELECT ON {ORDERS} TO analysts")
        alice = cluster.connect("alice")
        with pytest.raises(PermissionDenied):
            alice.sql("SELECT * FROM system.access.txn_stats").collect()


class TestFileGranularCommits:
    def test_update_matching_only_hidden_rows_rewrites_no_file(
        self, workspace, cluster, admin
    ):
        catalog = workspace.catalog
        size = TARGET_FILE_ROWS + 100
        catalog.write_table(ORDERS, {
            "id": list(range(100, 100 + size)),
            "region": ["US", "EU"] * (size // 2),
            "amount": [1.0] * size,
        }, catalog.principals.context_for("admin"))
        for grant in (
            "USE CATALOG ON main", "USE SCHEMA ON main.sales",
            f"SELECT ON {ORDERS}", f"MODIFY ON {ORDERS}",
        ):
            admin.sql(f"GRANT {grant} TO analysts")
        admin.sql(f"ALTER TABLE {ORDERS} SET ROW FILTER (region = 'US')")
        table = catalog.get_table(ORDERS)
        storage = catalog.table_storage(table)
        cred = catalog._service_credential
        before = storage.snapshot(cred)
        staged = catalog.txn_manager.stats_snapshot()["files_staged"]

        cluster.connect("alice").sql(
            f"UPDATE {ORDERS} SET amount = 0.0 WHERE region = 'EU'"
        )
        after = storage.snapshot(cred)
        assert after.version == before.version + 1  # still one commit
        commit = json.loads(catalog.store.get(
            f"{table.storage_root}/_txn_log/{after.version:010d}.json", cred
        ))
        assert commit["actions"] == []
        assert after.files == before.files
        stats = catalog.txn_manager.stats_snapshot()
        assert stats["files_staged"] == staged
        assert stats["files_rewritten"] == 0
        assert stats["files_kept"] == len(before.files) == 2

        # A visible match rewrites only its own file, in bounded files of
        # its own, and folds the small one beside it into a file apart.
        cluster.connect("alice").sql(
            f"UPDATE {ORDERS} SET amount = 2.0 WHERE id = 100"
        )
        final = storage.snapshot(cred)
        commit = json.loads(catalog.store.get(
            f"{table.storage_root}/_txn_log/{final.version:010d}.json", cred
        ))
        assert {a["remove"] for a in commit["actions"] if "remove" in a} == {
            f.path for f in before.files
        }
        assert [a["rows"] for a in commit["actions"] if "add" in a] == [
            TARGET_FILE_ROWS, size - TARGET_FILE_ROWS, 3
        ]

    def test_compiles_per_commit_not_per_probed_file(
        self, workspace, cluster, admin, monkeypatch
    ):
        """The row filter and the WHERE are compiled once per commit: one
        ``UPDATE … WHERE id = k`` over 12 probed files asks the compiler for
        exactly the kernels it asks for over 2."""
        from repro.engine.compile import KernelCompiler

        catalog = workspace.catalog
        calls = []
        original = KernelCompiler.compile_pipeline_spec

        def spying(self, spec):
            calls.append(spec.mode_string())
            return original(self, spec)

        monkeypatch.setattr(KernelCompiler, "compile_pipeline_spec", spying)

        for grant in ("USE CATALOG ON main", "USE SCHEMA ON main.sales"):
            admin.sql(f"GRANT {grant} TO analysts")
        size = TARGET_FILE_ROWS // 2 + 76  # above the fold: every file probed
        counts = {}
        for files in (2, 12):
            table = f"main.sales.t{files}"
            admin.sql(f"CREATE TABLE {table} (id int, region string, amount float)")
            for n in range(files):
                catalog.write_table(table, {
                    "id": list(range(n * size, (n + 1) * size)),
                    "region": ["US", "EU"] * (size // 2),
                    "amount": [1.0] * size,
                }, catalog.principals.context_for("admin"))
            for grant in ("SELECT", "MODIFY"):
                admin.sql(f"GRANT {grant} ON {table} TO analysts")
            admin.sql(f"ALTER TABLE {table} SET ROW FILTER (region = 'US')")
            kept = catalog.txn_manager.stats_snapshot()["files_kept"]
            calls.clear()
            cluster.connect("alice").sql(
                f"UPDATE {table} SET amount = amount + 1.0 WHERE id = {size}"
            )
            counts[files] = len(calls)
            assert catalog.txn_manager.stats_snapshot()["files_kept"] == kept + files - 1
        assert counts[2] == counts[12] > 0, counts


class TestBlindInsertFiles:
    """An insert-only commit encodes its inserted columns directly: the
    staged file decodes to what folding the inserts over an empty table
    (``apply_ops``) gives."""

    @pytest.fixture
    def staged_files(self, workspace, admin, monkeypatch):
        catalog, decoded = workspace.catalog, []
        stage = LakeTableStorage.stage_data_file

        def recording(storage, columns, credential, *bounded):
            data_file = stage(storage, columns, credential, *bounded)
            decoded.append(decode_data_file(catalog.store.get(data_file.path, credential)))
            return data_file

        monkeypatch.setattr(LakeTableStorage, "stage_data_file", recording)
        return decoded

    @staticmethod
    def _insert_all(workspace, inserts):
        def body(txn):
            for columns in inserts:
                txn.insert(ORDERS, columns)

        ctx = workspace.catalog.principals.context_for("admin")
        workspace.catalog.txn_manager.run(ctx, body)

    @pytest.mark.parametrize("inserts", [
        [[[7], ["EU"], [1.5]]],
        [[[7, 8], ["EU", None], [1.5, -0.0]], [[], [], []], [[9], ["US"], [None]]],
    ], ids=["append", "multi-insert"])
    def test_the_staged_file_decodes_to_the_folded_columns(
        self, workspace, staged_files, inserts
    ):
        schema = workspace.catalog.get_table(ORDERS).schema
        folded = apply_ops(
            {name: [] for name in schema.names},
            StagedWrite(ORDERS, schema, None, [InsertOp(list(c)) for c in inserts]),
            EvalContext(user="admin"),
        )
        self._insert_all(workspace, inserts)
        # ``repr`` tells -0.0 from 0.0.
        assert [repr(f) for f in staged_files] == [repr(folded)]

    def test_a_ragged_insert_is_still_refused(self, workspace, staged_files):
        version = workspace.catalog.current_table_version(ORDERS)
        with pytest.raises(AnalysisError):
            self._insert_all(workspace, [[[1, 2], ["US"], [1.0]]])
        assert staged_files == []
        assert workspace.catalog.current_table_version(ORDERS) == version


class TestErrorCodecRoundTrip:
    @pytest.mark.parametrize(
        "exc",
        [
            CommitConflictError("version 7 lost the race", retry_after=0.25),
            TransactionAbortedError("txn-00001 failed to commit"),
            WriteDeniedError("cannot write to masked column(s) ['buyer']"),
        ],
    )
    def test_round_trip_preserves_class_and_text(self, exc):
        message = error_to_message(exc)
        assert message["error_class"] == type(exc).__name__
        with pytest.raises(type(exc)) as info:
            raise_from_message(message)
        assert str(exc) in str(info.value)

    def test_conflict_retry_after_survives(self):
        message = error_to_message(
            CommitConflictError("lost race", retry_after=0.75)
        )
        with pytest.raises(CommitConflictError) as info:
            raise_from_message(message)
        assert info.value.retry_after == 0.75


def _lit(value):
    from repro.engine.expressions import Literal

    return Literal(value)
