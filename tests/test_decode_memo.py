"""The store's memo of decoded columns (DESIGN.md §6).

``LakeTableStorage.read_file`` decodes each (principal, data file) once: the
credential-checked GET always runs, then :class:`~repro.storage.object_store
.DecodedColumns` serves the columns it already decoded from those very
bytes. Covered here: a random sequence of scans, writes, corrupt reads and
raw overwrites always reads what a fresh decode of the current bytes says,
within the cap, with removed files dropped; operators never mutate the
shared lists of this memo or of the governed one on any execution leg; and
racing misses leave one entry.
"""

from __future__ import annotations

import itertools
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.datacodec import decode_data_file, encode_data_file
from repro.common.faults import FaultSpec
from repro.connect.client import udf
from repro.errors import (
    CorruptObjectError,
    RetryableError,
    TransactionAbortedError,
)
from repro.platform import Workspace
from repro.storage import object_store
from repro.storage.credentials import LIST, READ, WRITE, InstanceProfileCredential
from repro.storage.object_store import DecodedColumns
from repro.storage.table_format import LakeTableStorage
from tests.test_storage import commit_file

COLUMNS = ("id", "k", "v")
PRINCIPALS = ("alice", "bob", "admin")


def _memo_matches_its_blobs(memo: DecodedColumns) -> None:
    """Every entry still equals a fresh decode of the bytes it came from,
    taken at its admitted positions when a row filter filled it."""
    for key, (blob, positions, columns) in list(memo._entries.items()):
        fresh = decode_data_file(blob, list(columns))
        if positions is not None:
            fresh = {name: [col[i] for i in positions] for name, col in fresh.items()}
        assert columns == fresh, key


# ---------------------------------------------------------------------------
# (a) A random sequence of reads and writes against one table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lake():
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    cluster = ws.create_standard_cluster()
    yield ws, cluster.connect("admin")
    ws.shutdown()


_TABLES = itertools.count()

_OPS = st.one_of(
    st.tuples(
        st.just("scan"),
        st.sampled_from(PRINCIPALS),
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True),
    ),
    st.tuples(st.just("append"), st.integers(1, 30)),
    st.tuples(st.just("overwrite"), st.integers(0, 30)),
    st.tuples(st.just("update"), st.integers(0, 4)),
    st.tuples(st.just("delete"), st.integers(0, 4)),
    st.tuples(st.just("corrupt"), st.sampled_from(PRINCIPALS)),
    st.tuples(st.just("plant"), st.integers(0, 30)),
)


def _rows(n: int, start: int) -> dict[str, list]:
    return {
        "id": list(range(start, start + n)),
        "k": [f"k{i % 5}" for i in range(start, start + n)],
        "v": [i % 7 for i in range(start, start + n)],
    }


class TestSequences:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cap=st.sampled_from([40, 150, 1 << 20]), ops=st.lists(_OPS, min_size=1, max_size=14))
    def test_reads_equal_a_fresh_decode_of_the_current_bytes(self, lake, cap, ops):
        ws, admin = lake
        catalog, store = ws.catalog, ws.catalog.store
        store.decoded = memo = DecodedColumns(max_cells=cap)
        name = f"main.s.t{next(_TABLES)}"
        admin.sql(f"CREATE TABLE {name} (id int, k string, v int)")
        admin_ctx = catalog.principals.context_for("admin")
        catalog.write_table(name, _rows(10, 0), admin_ctx)
        root = catalog.get_table(name).storage_root
        storage = LakeTableStorage(store, root)
        creds = {
            p: catalog.vendor.issue(identity=p, prefixes=[root], operations={READ, LIST})
            for p in PRINCIPALS
        }
        writer = catalog.vendor.issue(
            identity="mallory", prefixes=[root], operations={READ, WRITE, LIST}
        )
        ever_live: set[str] = set()
        next_id = 1000
        for op, *args in ops:
            files = storage.snapshot(writer).files
            if op == "scan":
                principal, columns = args
                for data_file in files:
                    got = storage.read_file(data_file, creds[principal], columns)
                    current = store.get(data_file.path, writer)
                    assert got == decode_data_file(current, columns)
            elif op == "append":
                catalog.write_table(name, _rows(args[0], next_id), admin_ctx)
                next_id += args[0]
            elif op == "overwrite":
                catalog.write_table(name, _rows(args[0], next_id), admin_ctx, overwrite=True)
                next_id += args[0]
            elif op in ("update", "delete"):
                statement = (
                    f"UPDATE {name} SET v = v + 1" if op == "update" else f"DELETE FROM {name}"
                )
                try:
                    admin.sql(f"{statement} WHERE v = {args[0]}")
                except (RetryableError, TransactionAbortedError):
                    pass  # a chaos-armed run may abort the commit; nothing landed
            elif op == "corrupt" and files:
                catalog.faults.arm("storage.get", FaultSpec(kind="corrupt", one_shot=True))
                try:
                    with pytest.raises(CorruptObjectError):
                        storage.read_file(files[0], creds[args[0]], COLUMNS)
                finally:
                    catalog.faults.disarm("storage.get")
            elif op == "plant" and files:
                # A raw overwrite of a live path: other (valid) bytes there.
                store.put(files[0].path, encode_data_file(_rows(args[0], -50)), writer)
            live = {f.path for f in storage.snapshot(writer).files}
            ever_live |= live
            held = {path for _, path in memo._entries}
            assert not held & (ever_live - live), "a removed file kept its entries"
            assert memo.cells <= cap
            assert memo.cells == sum(
                len(values) for *_, cols in memo._entries.values() for values in cols.values()
            )
        _memo_matches_its_blobs(memo)


# ---------------------------------------------------------------------------
# (b) Operators never mutate the lists the memo hands out
# ---------------------------------------------------------------------------

T = "main.s.sales"
C = "main.s.regions"

#: The e2e op shapes: group-by, count(DISTINCT), top-k, join + aggregate,
#: masked projection, a UDF splitting the chain — and a bare scan, whose
#: batches are the memo's own lists all the way to the result.
SHAPES = (
    f"SELECT region, count(*), sum(amount) FROM {T} WHERE qty > 2 GROUP BY region",
    f"SELECT region, count(DISTINCT qty) FROM {T} GROUP BY region",
    f"SELECT id, amount FROM {T} WHERE qty < 8 ORDER BY amount DESC, id LIMIT 7",
    f"SELECT c.zone, count(*), sum(t.amount) FROM {T} t JOIN {C} c "
    f"ON t.region = c.region WHERE t.qty > 1 GROUP BY c.zone",
    f"SELECT id, buyer, amount FROM {T} WHERE amount > 20.5",
    f"SELECT id, bump(qty) AS b FROM {T} WHERE qty >= 3",
    f"SELECT region, zone FROM {C}",
)


@udf("int")
def bump(qty):
    return None if qty is None else qty + 1


def _refuse_compilation(monkeypatch):
    from repro.engine.compile import KernelCompiler

    monkeypatch.setattr(KernelCompiler, "compile_pipeline_spec", lambda self, spec: None)


@pytest.fixture(scope="module")
def governed():
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    clusters = {leg: ws.create_standard_cluster(name=leg) for leg in ("fused", "compile-refused")}
    admin = clusters["fused"].connect("admin")
    admin.sql(f"CREATE TABLE {T} (id int, region string, amount float, qty int, buyer string)")
    admin.sql(f"CREATE TABLE {C} (region string, zone string)")
    admin_ctx = ws.catalog.principals.context_for("admin")
    regions = ("US", "EU", "APAC", None)
    for lo in (0, 40, 80):  # three data files
        ids = range(lo, lo + 40)
        ws.catalog.write_table(T, {
            "id": list(ids),
            "region": [regions[i % 4] for i in ids],
            "amount": [None if i % 9 == 0 else i * 1.5 for i in ids],
            "qty": [None if i % 11 == 0 else i % 10 for i in ids],
            "buyer": [f"buyer-{i}" for i in ids],
        }, admin_ctx)
    for regions_, zones in ((["US", "EU"], ["a", "a"]), (["APAC"], ["b"])):  # two files
        ws.catalog.write_table(C, {"region": regions_, "zone": zones}, admin_ctx)
    for statement in (
        "GRANT USE CATALOG ON main TO analysts",
        "GRANT USE SCHEMA ON main.s TO analysts",
        f"GRANT SELECT ON {T} TO analysts",
        f"GRANT SELECT ON {C} TO analysts",
        f"ALTER TABLE {T} SET ROW FILTER (region <> 'APAC')",
        f"ALTER TABLE {T} ALTER COLUMN buyer SET MASK ('***')",
    ):
        admin.sql(statement)
    sessions = {}
    for leg, cluster in clusters.items():
        sessions[leg] = client = cluster.connect("alice")
        client.register_udf(bump)
    yield ws, sessions
    ws.shutdown()


class TestSharedListsStayIntact:
    def test_every_leg_leaves_the_memo_equal_to_its_blobs(self, governed, monkeypatch):
        ws, sessions = governed
        memo = ws.catalog.store.decoded
        answers: dict[str, list] = {}
        for leg, client in sessions.items():
            if leg == "compile-refused":
                _refuse_compilation(monkeypatch)
            for _ in range(2):  # the second pass is served from the memo
                for text in SHAPES:
                    rows = client.sql(text).collect()
                    key = sorted(rows, key=repr)
                    assert answers.setdefault(text, key) == key, (leg, text)
        # The row-filtered table's files are in the governed memo, the
        # other table's two files in the raw one.
        governed = ws.catalog.store.governed
        assert memo.hits > 0 and memo.stats_snapshot()["entries"] >= 2
        assert governed.hits > 0 and governed.stats_snapshot()["entries"] >= 3
        _memo_matches_its_blobs(memo)
        _memo_matches_its_blobs(governed)


# ---------------------------------------------------------------------------
# (c) Racing misses
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_two_racing_misses_return_identical_columns_and_one_entry(self, monkeypatch):
        store = object_store.ObjectStore()
        service = InstanceProfileCredential(token="t", cluster_id="c", prefixes=("s3://b/",))
        storage = LakeTableStorage(store, "s3://b/t")
        storage.create(list(COLUMNS), service)
        (data_file,) = commit_file(storage, _rows(50, 0), service).files
        both_decoding = threading.Barrier(2, timeout=10)
        decode = object_store.decode_data_file

        def racing_decode(*args):
            both_decoding.wait()
            return decode(*args)

        monkeypatch.setattr(object_store, "decode_data_file", racing_decode)
        results: list[dict] = []

        def scan():
            results.append(storage.read_file(data_file, service, ("id", "v")))

        threads = [threading.Thread(target=scan) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        first, second = results
        assert first == second == {"id": list(range(50)), "v": [i % 7 for i in range(50)]}
        stats = store.decoded.stats_snapshot()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (2, 0, 1)
        assert stats["cells"] == 100
        (entry,) = store.decoded._entries.values()
        assert second["id"] is entry[2]["id"] and first["id"] is entry[2]["id"]
