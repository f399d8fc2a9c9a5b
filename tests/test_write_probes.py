"""Writes pay for what they change.

- Every add action records the min, max and NULL count of its file's INT
  columns, and they equal what the file decodes to.
- A commit reads no live file whose key range no row-reading op's WHERE
  can match; every other file is probed as before, and every answer equals
  the unskipped one.
- A read-dependent commit writes the rows of touched large files apart from
  touched small files' rows and inserted rows.
- Plans survive COMMIT; a commit's credential is vended to the cluster the
  write comes from; MERGE and INSERT … SELECT check MODIFY before reading
  their source; and the object store answers a prefix by bisect.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.datacodec import decode_data_file
from repro.errors import PermissionDenied
from repro.platform import Workspace
from repro.storage.credentials import CredentialVendor, DELETE, LIST, READ, WRITE
from repro.storage.object_store import ObjectStore
from repro.storage.table_format import LakeTableStorage

T = "main.s.t"
SRC = "main.s.src"
BLOCK = 1100  # rows per loaded file: above half the target, below the bound


@pytest.fixture
def ws():
    workspace = Workspace()
    workspace.add_user("admin", admin=True)
    workspace.add_user("alice")
    workspace.add_group("analysts", ["alice"])
    catalog = workspace.catalog
    catalog.create_catalog("main", owner="admin")
    catalog.create_schema("main.s", owner="admin")
    yield workspace
    workspace.shutdown()


@pytest.fixture
def cluster(ws):
    return ws.create_standard_cluster()


def _load(ws, cluster, blocks, governed=True, grant_modify=True):
    """``T`` as one file per id block ``[lo, hi)``; every row is visible to
    alice except ids divisible by 7 (region EU) under the row filter."""
    admin = cluster.connect("admin")
    admin.sql(f"CREATE TABLE {T} (id int, region string, v int)")
    ctx = ws.catalog.principals.context_for("admin")
    for lo, hi in blocks:
        ids = list(range(lo, hi))
        ws.catalog.write_table(T, {
            "id": ids,
            "region": ["EU" if i % 7 == 0 else "US" for i in ids],
            "v": [None if i % 5 == 0 else i % 11 for i in ids],
        }, ctx)
    grants = ["USE CATALOG ON main", "USE SCHEMA ON main.s", f"SELECT ON {T}"]
    if grant_modify:
        grants.append(f"MODIFY ON {T}")
    for grant in grants:
        admin.sql(f"GRANT {grant} TO analysts")
    if governed:
        admin.sql(f"ALTER TABLE {T} SET ROW FILTER (region = 'US')")
    return admin


def _storage(ws):
    return ws.catalog.table_storage(ws.catalog.get_table(T))


def _files(ws):
    return _storage(ws).snapshot(ws.catalog._service_credential).files


def _rows(ws):
    """Every stored row, the filter notwithstanding, sorted."""
    storage, cred = _storage(ws), ws.catalog._service_credential
    return sorted(
        row for f in _files(ws) for row in zip(*storage.read_file(f, cred).values())
    )


def _expected_bounds(values):
    present = [v for v in values if v is not None]
    nulls = len(values) - len(present)
    return [min(present), max(present), nulls] if present else [None, None, nulls]


def _assert_bounds_match(ws):
    cred = ws.catalog._service_credential
    for f in _files(ws):
        decoded = decode_data_file(ws.catalog.store.get(f.path, cred))
        assert set(f.bounds) == {"id", "v"}, f.bounds
        for name in ("id", "v"):
            assert f.bounds[name] == _expected_bounds(decoded[name]), (f.path, name)


@pytest.fixture
def data_gets(monkeypatch):
    """Paths of every data-file GET, in order."""
    paths = []
    get = ObjectStore.get

    def recording(store, path, credential):
        if "/data/" in path:
            paths.append(path)
        return get(store, path, credential)

    monkeypatch.setattr(ObjectStore, "get", recording)
    return paths


class TestFileBounds:
    def test_every_live_file_records_its_int_columns(self, ws, cluster):
        _load(ws, cluster, [(0, BLOCK), (BLOCK, 2 * BLOCK)])
        admin = cluster.connect("admin")
        alice = cluster.connect("alice")
        _assert_bounds_match(ws)
        alice.sql(f"INSERT INTO {T} VALUES (5000, 'US', NULL), (5001, 'US', 3)")
        _assert_bounds_match(ws)
        alice.sql(f"UPDATE {T} SET id = id + 9000 WHERE id = 3")  # a key moves
        _assert_bounds_match(ws)
        alice.sql(f"DELETE FROM {T} WHERE id = {BLOCK + 1}")
        _assert_bounds_match(ws)
        admin.sql(f"CREATE TABLE {SRC} (id int, v int)")
        ws.catalog.write_table(
            SRC, {"id": [4, 7777], "v": [None, 1]},
            ws.catalog.principals.context_for("admin"),
        )
        admin.sql(
            f"MERGE INTO {T} AS t USING {SRC} AS s ON t.id = s.id "
            "WHEN MATCHED THEN UPDATE SET v = s.v "
            "WHEN NOT MATCHED THEN INSERT VALUES (s.id, 'US', s.v)"
        )
        _assert_bounds_match(ws)
        assert 9003 in {row[0] for row in _rows(ws)}

    def test_an_add_action_without_stats_is_unbounded(self, ws):
        live = {}
        storage = LakeTableStorage(ws.catalog.store, "s3://bucket/legacy")
        storage._fold(
            {"columns": ["id"], "actions": [{"add": "p", "rows": 3, "bytes": 9}]}, live
        )
        assert live["p"].bounds == {}


class TestKeyRangeSkips:
    @pytest.mark.parametrize("governed", [True, False])
    def test_a_commit_reads_only_the_file_that_can_hold_its_key(
        self, ws, cluster, data_gets, governed
    ):
        _load(ws, cluster, [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK)], governed)
        middle = _files(ws)[1]
        stats = ws.catalog.txn_manager.stats_snapshot
        probed, skipped = stats()["files_probed"], stats()["files_skipped"]
        data_gets.clear()
        cluster.connect("alice").sql(f"DELETE FROM {T} WHERE id = {BLOCK + 1}")
        assert set(data_gets) == {middle.path}
        assert stats()["files_probed"] == probed + 1
        assert stats()["files_skipped"] == skipped + 2
        assert BLOCK + 1 not in {row[0] for row in _rows(ws)}

    def test_a_key_outside_every_range_reads_no_data_file(self, ws, cluster, data_gets):
        _load(ws, cluster, [(0, BLOCK), (BLOCK, 2 * BLOCK)])
        before = _files(ws)
        data_gets.clear()
        cluster.connect("alice").sql(f"UPDATE {T} SET v = 1 WHERE id > {5 * BLOCK}")
        assert data_gets == []
        assert _files(ws) == before

    @pytest.mark.parametrize("predicate, matches", [
        (f"id = {BLOCK - 1}", lambda i: i == BLOCK - 1),
        (f"id = {BLOCK}", lambda i: i == BLOCK),
        (f"{BLOCK} = id", lambda i: i == BLOCK),
        (f"id < {BLOCK}", lambda i: i < BLOCK),
        (f"id <= {BLOCK - 1}", lambda i: i <= BLOCK - 1),
        (f"{BLOCK} > id", lambda i: i < BLOCK),
        (f"id > {BLOCK - 1}", lambda i: i > BLOCK - 1),
        (f"id >= {2 * BLOCK - 1}", lambda i: i >= 2 * BLOCK - 1),
        (f"{2 * BLOCK - 1} <= id", lambda i: i >= 2 * BLOCK - 1),
        (f"id BETWEEN {BLOCK - 1} AND {BLOCK}", lambda i: BLOCK - 1 <= i <= BLOCK),
        (f"id = {BLOCK - 0.5}", lambda i: False),
        (f"id < 0.5", lambda i: i < 0.5),
        (f"id > {BLOCK - 1.5} AND region = 'US'", lambda i: i > BLOCK - 1.5),
        (f"id = {BLOCK} OR id = 3", lambda i: i in (BLOCK, 3)),
    ])
    def test_range_edges_delete_what_the_predicate_matches(
        self, ws, cluster, predicate, matches
    ):
        _load(ws, cluster, [(0, BLOCK), (BLOCK, 2 * BLOCK)])
        before = _rows(ws)
        cluster.connect("alice").sql(f"DELETE FROM {T} WHERE {predicate}")
        # Alice's filter hides ids divisible by 7: those rows stay.
        assert _rows(ws) == [
            row for row in before if not (matches(row[0]) and row[0] % 7)
        ]

    def test_every_op_of_a_transaction_decides_the_skip(self, ws, cluster):
        _load(ws, cluster, [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK)])
        alice = cluster.connect("alice")
        for statement in (
            "BEGIN",
            f"UPDATE {T} SET id = 90000 WHERE id = 10",
            f"DELETE FROM {T} WHERE id = {2 * BLOCK + 6}",
            f"UPDATE {T} SET v = 99 WHERE id = 90000",
            "COMMIT",
        ):
            alice.sql(statement)
        ids = {row[0]: row for row in _rows(ws)}
        assert 10 not in ids and 2 * BLOCK + 6 not in ids
        assert ids[90000][2] == 99

    def test_a_touched_small_file_gets_the_ops(self, ws, cluster):
        _load(ws, cluster, [(0, BLOCK)])
        alice = cluster.connect("alice")
        alice.sql(f"INSERT INTO {T} VALUES " + ", ".join(
            f"({i}, 'US', 0)" for i in range(5000, 5020)
        ))
        alice.sql(f"INSERT INTO {T} VALUES (6000, 'US', 0)")  # an untouched small file
        alice.sql(f"UPDATE {T} SET v = 42 WHERE id = 5007")
        rows = {row[0]: row for row in _rows(ws)}
        assert rows[5007][2] == 42 and rows[6000][2] == 0
        alice.sql(f"DELETE FROM {T} WHERE id = 5003")
        assert 5003 not in {row[0] for row in _rows(ws)}


class TestInsertedRowsFirst:
    def test_inserted_keys_stay_out_of_a_rewritten_large_file(self, ws, cluster):
        _load(ws, cluster, [(0, BLOCK), (BLOCK, 2 * BLOCK)])
        alice = cluster.connect("alice")
        for statement in (
            "BEGIN",
            f"INSERT INTO {T} VALUES (1000000, 'US', 1), (1000001, 'US', 2)",
            f"DELETE FROM {T} WHERE id = 8",
            "COMMIT",
        ):
            alice.sql(statement)
        files = _files(ws)
        # The untouched block is kept; the touched one is rewritten alone;
        # the inserted rows land in a file of their own.
        assert [f.bounds["id"][:2] for f in files] == [
            [BLOCK, 2 * BLOCK - 1], [0, BLOCK - 1], [1000000, 1000001]
        ]
        assert [f.num_rows for f in files] == [BLOCK, BLOCK - 1, 2]

    def test_untouched_small_files_are_copied_beside_the_inserted_rows(self, ws, cluster):
        _load(ws, cluster, [(0, BLOCK)])
        alice = cluster.connect("alice")
        alice.sql(f"INSERT INTO {T} VALUES (5000, 'US', 1)")
        alice.sql(f"INSERT INTO {T} VALUES (5001, 'US', NULL)")
        before = _rows(ws)
        alice.sql(f"DELETE FROM {T} WHERE id = 2")
        files = _files(ws)
        assert [f.num_rows for f in files] == [BLOCK - 1, 2]
        assert files[1].bounds == {"id": [5000, 5001, 0], "v": [1, 1, 1]}
        assert _rows(ws) == [row for row in before if row[0] != 2]


class TestPlansSurviveCommit:
    def test_the_read_after_a_commit_hits(self, ws, cluster):
        _load(ws, cluster, [(0, 50)])
        alice = cluster.connect("alice")
        read = f"SELECT count(*) FROM {T} WHERE v = 3"
        telemetry = ws.catalog.telemetry

        def reason():
            span = telemetry.spans(trace_id=alice.last_trace_id, name="stage:parse")[0]
            return span.attributes["plan_cache"]

        first = alice.sql(read).collect()
        for statement in ("BEGIN", f"INSERT INTO {T} VALUES (900, 'US', 3)", "COMMIT"):
            alice.sql(statement)
        assert alice.sql(read).collect() == [(first[0][0] + 1,)]
        assert reason() == "hit"

    def test_a_read_inside_a_transaction_still_bypasses_at_its_pin(self, ws, cluster):
        _load(ws, cluster, [(0, 50)])
        alice = cluster.connect("alice")
        read = f"SELECT count(*) FROM {T}"
        telemetry = ws.catalog.telemetry
        count = alice.sql(read).collect()
        alice.sql("BEGIN")
        assert alice.sql(read).collect() == count  # pins the snapshot
        cluster.connect("admin").sql(f"INSERT INTO {T} VALUES (901, 'US', 1)")
        assert alice.sql(read).collect() == count
        span = telemetry.spans(trace_id=alice.last_trace_id, name="stage:parse")[0]
        assert span.attributes["plan_cache"] == "bypass:txn"
        alice.sql("COMMIT")
        assert alice.sql(read).collect() == [(count[0][0] + 1,)]


class TestWriteCredentials:
    def _vends(self, ws, allowed):
        return [
            e for e in ws.catalog.audit.events(action="catalog.vend_credential", allowed=allowed)
            if e.resource == T
        ]

    def test_a_standard_cluster_commit_vends_and_audits_its_credential(self, ws, cluster):
        _load(ws, cluster, [(0, 50)])
        before = len(self._vends(ws, True))
        cluster.connect("alice").sql(f"DELETE FROM {T} WHERE id = 1")
        vends = self._vends(ws, True)
        assert len(vends) == before + 1  # the commit's, which its probe reads with
        assert vends[-1].details["compute"] == cluster.backend.caps.compute_id

    def test_a_dedicated_cluster_governed_write_is_refused(self, ws, cluster):
        _load(ws, cluster, [(0, 50)])
        dedicated = ws.create_dedicated_cluster(assigned_user="alice", name="ded")
        version = ws.catalog.current_table_version(T)
        denied = len(self._vends(ws, False))
        try:
            for statement in (
                f"UPDATE {T} SET v = 1 WHERE id = 1",
                f"DELETE FROM {T} WHERE id = 1",
                f"INSERT INTO {T} VALUES (7000, 'US', 1)",
            ):
                with pytest.raises(PermissionDenied):
                    dedicated.connect("alice").sql(statement)
        finally:
            dedicated.shutdown()
        assert ws.catalog.current_table_version(T) == version
        assert len(self._vends(ws, False)) == denied + 3

    def test_a_dedicated_cluster_writes_a_table_without_policies(self, ws, cluster):
        _load(ws, cluster, [(0, 50)], governed=False)
        dedicated = ws.create_dedicated_cluster(assigned_user="alice", name="ded")
        try:
            dedicated.connect("alice").sql(f"DELETE FROM {T} WHERE id = 1")
        finally:
            dedicated.shutdown()
        assert 1 not in {row[0] for row in _rows(ws)}

    def test_recovery_vends_through_the_catalog(self, ws, cluster):
        _load(ws, cluster, [(0, 50)])
        before = len(self._vends(ws, True))
        ctx = ws.catalog.principals.context_for("admin")
        ws.catalog.txn_manager.recover_table(ctx, T)
        assert len(self._vends(ws, True)) == before + 1


class TestModifyBeforeTheSourceRead:
    @pytest.mark.parametrize("statement", [
        f"INSERT INTO {T} SELECT * FROM {T}",
        f"MERGE INTO {T} AS t USING {T} AS s ON t.id = s.id "
        "WHEN MATCHED THEN UPDATE SET v = 0",
    ])
    def test_a_select_only_writer_reads_nothing(self, ws, cluster, statement):
        _load(ws, cluster, [(0, 50)], grant_modify=False)
        alice = cluster.connect("alice")
        with pytest.raises(PermissionDenied) as info:
            alice.sql(statement)
        names = [s.name for s in ws.catalog.telemetry.spans(trace_id=info.value.trace_id)]
        assert names and not [
            n for n in names if n.startswith("scan-task-") or n == "vend-credential"
        ], names


class _Counted(str):
    """A path that counts the comparisons and prefix tests made on it."""

    calls = 0

    def __lt__(self, other):
        _Counted.calls += 1
        return str.__lt__(self, other)

    def __gt__(self, other):
        _Counted.calls += 1
        return str.__gt__(self, other)

    def startswith(self, prefix, *args):
        _Counted.calls += 1
        return str.startswith(self, prefix, *args)


class TestObjectStorePrefixIndex:
    @staticmethod
    def _store():
        vendor = CredentialVendor()
        store = ObjectStore()
        cred = vendor.issue("w", ["s3://b"], {READ, WRITE, LIST, DELETE})
        return store, cred

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["put", "put_if_absent", "delete", "list"]),
        st.sampled_from(["s3://b/", "s3://b/t/", "s3://b/t/a", "s3://b/t/ab", "s3://b/u/"]),
        st.integers(0, 3),
    ), max_size=40))
    def test_listings_equal_the_naive_filter(self, steps):
        store, cred = self._store()
        live = set()
        for action, prefix, n in steps:
            path = f"{prefix}{n}"
            if action == "put":
                store.put(path, b"x", cred)
                live.add(path)
            elif action == "put_if_absent":
                if path in live:
                    continue
                store.put_if_absent(path, b"x", cred)
                live.add(path)
            elif action == "delete":
                store.delete(path, cred)
                live.discard(path)
            assert store.list(prefix, cred) == sorted(p for p in live if p.startswith(prefix))
            assert store.object_count(prefix) == len(store.list(prefix, cred))

    def test_a_prefix_listing_visits_log_n_plus_k_keys(self):
        store, cred = self._store()
        rng = random.Random(7)
        for i in rng.sample(range(10_000), 10_000):
            store.put(_Counted(f"s3://b/t{i % 997:03d}/{i:05d}"), b"", cred)
        target = [p for p in store.list("s3://b/t042/", cred)]
        assert len(target) == 10  # i ≡ 42 (mod 997)
        _Counted.calls = 0
        assert store.list("s3://b/t042/", cred) == target
        # Two bisects of ~log2(10 000) comparisons each, whatever the keys
        # returned; a scan would test all 10 000.
        assert _Counted.calls <= 2 * 15 + len(target), _Counted.calls


# ---------------------------------------------------------------------------
# Selections built once per commit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("warm", "measured", "changed"),
    [
        (f"UPDATE {T} SET v = v + 1 WHERE id = 6", f"UPDATE {T} SET v = v + 1 WHERE id = 6",
         {(6, "US", 7): (6, "US", 8)}),
        (f"DELETE FROM {T} WHERE id = 8", f"DELETE FROM {T} WHERE id = 9", {(9, "US", 9): None}),
        (f"UPDATE {T} SET v = 1 WHERE v = 3 AND id < 500", f"UPDATE {T} SET v = 0 WHERE v = 1 AND id < 20",
         {(1, "US", 1): (1, "US", 0), (3, "US", 1): (3, "US", 0), (12, "US", 1): (12, "US", 0)}),
    ],
)
def test_a_warm_commit_builds_one_selection_per_op(ws, cluster, monkeypatch, warm, measured, changed):
    """The row filter's selection is the manager's, kept per policy epoch;
    the WHERE probe's selection is the one the fold runs again over the
    rows the row filter admits. So a warm one-op commit builds one, and
    changes just the rows it should."""
    from repro.engine import physical

    _load(ws, cluster, [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK)])
    alice = cluster.connect("alice")
    alice.sql(warm)  # warms the manager's row filter selection
    built = []
    original = physical.RowSelection.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        original(self, *args, **kwargs)

    monkeypatch.setattr(physical.RowSelection, "__init__", counting)
    before = _rows(ws)
    assert alice.sql(measured)["status"] == "ok"
    assert len(built) <= 1, [str(p) for p in built]
    expected = sorted(
        changed.get(row, row) for row in before if changed.get(row, row) is not None
    )
    assert _rows(ws) == expected
