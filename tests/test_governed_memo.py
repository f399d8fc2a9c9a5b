"""The governed scan memo (DESIGN.md §6).

A governed scan is served the rows its principal's row filter admits, from
:class:`~repro.storage.object_store.DecodedColumns` used with a row policy
(the store's ``governed`` instance): one entry per (credential
identity, evaluating user and groups, policy epoch, value-exact predicate
digest, data file), filled once per file version. Covered here: after
``scan_agg``-shaped reads no entry holds a row the reader's filter rejects;
the digest tells apart predicates that differ only in a literal; a row
filter the memo may not hold keeps being the first test of the loop; and
the copy-on-write probe through the memo touches exactly the files a raw
probe touches.
"""

from __future__ import annotations

import random

import cloudpickle
import pytest

from repro.common.datacodec import decode_data_file, encode_data_file
from repro.connect.client import col as ccol
from repro.engine.analyzer import DictResolver
from repro.engine.compile import (
    KernelCompiler,
    expression_fingerprint,
    memoisable_policy,
    policy_digest,
)
from repro.engine.executor import ExecutionConfig, LocalDataSource, QueryEngine
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    BoundRef,
    Cast,
    Comparison,
    EvalContext,
    FunctionCall,
    IsAccountGroupMember,
    IsNull,
    Literal,
    Not,
    Parameter,
    col,
    lit,
)
from repro.engine.logical import (
    Filter,
    Project,
    Scan,
    SecureView,
    TableRef,
    UnresolvedRelation,
)
from repro.engine.physical import RowSelection
from repro.engine.types import INT, STRING, Field, Schema
from repro.engine.udf import PythonUDF
from repro.errors import RetryableError
from repro.platform import Workspace
from repro.sql.parser import parse_statement
from repro.storage.credentials import LIST, READ
from repro.storage.object_store import DecodedColumns, RowPolicy
from repro.txn.writes import (
    DeleteOp,
    StagedWrite,
    UpdateOp,
    analyze,
    eval_context_for,
    relation,
    rewrite_files,
)

T = "main.b.events"
C = "main.b.accounts"
REGIONS = ("EU", "US", "APAC", "LATAM")
#: The e2e fixture's policies: each region group sees its own regions.
ROW_FILTER = (
    "(region IN ('EU','APAC') AND is_account_group_member('emea')) OR "
    "(region IN ('US','LATAM') AND is_account_group_member('amer'))"
)
NOTE_MASK = "CASE WHEN is_account_group_member('pii') THEN note ELSE '***' END"
USERS = ("u0", "u1", "u2", "u3", "u4")
GROUPS = {
    "emea": ["u0", "u1", "u2"],
    "amer": ["u3", "u4"],
    "analysts": list(USERS),
    "pii": ["u0"],
}
#: What ``u2`` (emea, not pii) may see.
U2_REGIONS = {"EU", "APAC"}


def _rows(rng: random.Random, count: int, first: int) -> dict[str, list]:
    return {
        "id": list(range(first, first + count)),
        "region": [rng.choice(REGIONS) for _ in range(count)],
        "amount": [None if rng.random() < 0.05 else rng.random() * 500 for _ in range(count)],
        "a": [rng.randrange(40) for _ in range(count)],
        "b": [rng.randrange(9) for _ in range(count)],
        "note": [f"n{rng.randrange(100)}" for _ in range(count)],
    }


@pytest.fixture(scope="module")
def lake():
    ws = Workspace()
    ws.add_user("admin", admin=True)
    for user in USERS:
        ws.add_user(user)
    for group, members in GROUPS.items():
        ws.add_group(group, members)
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.b", owner="admin")
    cluster = ws.create_standard_cluster()
    admin = cluster.connect("admin")
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.b TO analysts")
    admin_ctx = ws.catalog.principals.context_for("admin")
    rng = random.Random(7)
    data: dict[str, dict[str, list]] = {}
    for name, files, per_file in ((T, 3, 400), (C, 1, 40)):
        admin.sql(
            f"CREATE TABLE {name} "
            "(id int, region string, amount float, a int, b int, note string)"
        )
        data[name] = {}
        for part in range(files):
            chunk = _rows(rng, per_file, part * per_file)
            ws.catalog.write_table(name, chunk, admin_ctx)
            for column, values in chunk.items():
                data[name].setdefault(column, []).extend(values)
        admin.sql(f"GRANT SELECT ON {name} TO analysts")
        admin.sql(f"ALTER TABLE {name} SET ROW FILTER ({ROW_FILTER})")
        admin.sql(f"ALTER TABLE {name} ALTER COLUMN note SET MASK ({NOTE_MASK})")
    yield ws, cluster, data
    ws.shutdown()


def _scan_agg_shapes(client) -> list[list[tuple]]:
    """One of each ``scan_agg`` op kind."""
    return [
        client.sql(
            f"SELECT region, count(*), sum(amount), avg(amount) FROM {T} "
            "WHERE amount > 100.5 GROUP BY region"
        ).collect(),
        client.sql(
            f"SELECT b, min(amount), max(amount), count(DISTINCT a) FROM {T} "
            "WHERE amount < 390.5 GROUP BY b"
        ).collect(),
        client.table(T).filter(ccol("amount") > 480.5).select(
            ccol("id"), (ccol("amount") * 1.1).alias("boosted"), ccol("note")
        ).collect(),
        client.sql(
            f"SELECT id, amount FROM {T} WHERE amount < 470.5 "
            "ORDER BY amount DESC LIMIT 20"
        ).collect(),
        client.sql(
            f"SELECT c.region, count(*), sum(e.amount) FROM {T} e "
            f"JOIN {C} c ON e.a = c.id WHERE e.amount > 210.5 GROUP BY c.region"
        ).collect(),
    ]


class TestAdmittedRowsOnly:
    def test_no_entry_holds_a_row_u2s_filter_rejects(self, lake):
        ws, cluster, data = lake
        store = ws.catalog.store
        client = cluster.connect("u2")
        first = _scan_agg_shapes(client)
        fills = store.governed.fills
        assert _scan_agg_shapes(client) == first  # served from the memo
        assert store.governed.fills == fills and store.governed.hits > 0

        entries = [
            (key, entry) for key, entry in store.governed._entries.items()
            if key[0] == "u2"
        ]
        assert len(entries) == 4  # three event files, one accounts file
        for key, (blob, positions, columns) in entries:
            assert key[1] == "u2" and "emea" in key[2]
            fresh = decode_data_file(blob, ["region", *columns])
            admitted = [i for i, r in enumerate(fresh["region"]) if r in U2_REGIONS]
            assert positions == admitted, key
            for name, values in columns.items():
                assert values == [fresh[name][i] for i in admitted], (key, name)
        # A governed fill never lands in the raw memo.
        assert store.decoded.stats_snapshot()["entries"] == 0

        events = data[T]
        expected = {}
        for region, amount in zip(events["region"], events["amount"]):
            if region in U2_REGIONS and amount is not None and amount > 100.5:
                expected[region] = expected.get(region, 0) + 1
        assert {row[0]: row[1] for row in first[0]} == expected


# ---------------------------------------------------------------------------
# The key: value-exact digests
# ---------------------------------------------------------------------------

REGION = BoundRef(1, "region", STRING)


class TestValueExactKey:
    @pytest.mark.parametrize(
        "first, second",
        [
            (Literal("EU"), Literal("US")),
            (Literal(1), Literal(2)),
            (Literal(0.0), Literal(-0.0)),
            (Literal(1), Literal(1.0)),
            (Literal("a|0;"), Literal("a")),
        ],
    )
    def test_predicates_differing_only_in_a_literal_get_different_keys(
        self, first, second
    ):
        p1 = Comparison("=", REGION, first)
        p2 = Comparison("=", REGION, second)
        assert policy_digest(p1) != policy_digest(p2)
        assert policy_digest(p1) == policy_digest(Comparison("=", REGION, first))

    def test_the_kernel_fingerprint_would_merge_them(self):
        p1 = Comparison("=", REGION, Literal("EU"))
        p2 = Comparison("=", REGION, Literal("US"))
        assert expression_fingerprint((p1,)) == expression_fingerprint((p2,))
        g1 = IsAccountGroupMember("emea")
        g2 = IsAccountGroupMember("amer")
        assert policy_digest(g1) != policy_digest(g2)

    def test_two_literals_fill_two_entries_of_one_file(self):
        schema = Schema((Field("id", INT), Field("region", STRING)))
        blob = encode_data_file({"id": [1, 2, 3], "region": ["EU", "US", "EU"]})
        memo = DecodedColumns()
        out = {}
        for region in ("EU", "US"):
            predicate = Comparison("=", REGION, Literal(region))
            policy = RowSelection(predicate, schema.fields)
            row_policy = RowPolicy.bind(policy, EvalContext(user="alice"), epoch=3)
            out[region] = memo.columns("alice", "f.part", blob, ("id",), row_policy)
        assert out == {"EU": {"id": [1, 3]}, "US": {"id": [2]}}
        assert memo.stats_snapshot()["entries"] == 2
        assert memo.fills == 2 and memo.rows_admitted == 3 and memo.rows_rejected == 3


# ---------------------------------------------------------------------------
# Predicates the memo may not hold stay the loop's first test
# ---------------------------------------------------------------------------

SCHEMA = Schema((Field("id", INT), Field("region", STRING), Field("code", STRING)))
TREF = TableRef("c.s.t", SCHEMA, storage_root="s3://x")
DATA = {
    "id": [1, 2, 3, 4],
    "region": ["US", "EU", "US", "EU"],
    # Hidden rows' codes do not cast: evaluating CAST on one raises.
    "code": ["5", "hidden-eu", "7", "hidden-eu"],
}

def _policies():
    """Row filters the memo may not hold, each with the text that names it
    in the optimized plan. ``hash`` is pure in one process but salted
    across processes, so it is pushed like any safe predicate."""
    identity = cloudpickle.dumps(lambda region: region)
    seen = PythonUDF("seen", identity, STRING)
    fickle = PythonUDF("fickle", identity, STRING, deterministic=False)
    us = Comparison("=", col("region"), lit("US"))
    return {
        "udf": (Comparison("=", seen(col("region")), lit("US")), "pyudf:seen"),
        "nondeterministic": (
            Comparison("=", fickle(col("region")), lit("US")), "pyudf:fickle"
        ),
        "parameter": (Comparison("=", col("region"), Parameter(0, STRING)), "?0"),
        "salted": (
            BooleanOp("AND", us, Not(IsNull(FunctionCall("hash", (col("region"),))))),
            "hash(",
        ),
    }


def _first_conjunct(expr):
    while isinstance(expr, BooleanOp) and expr.op == "AND":
        expr = expr.children[0]
    return expr


class TestUnmemoisablePolicies:
    @pytest.mark.parametrize("kind", ["udf", "nondeterministic", "parameter", "salted"])
    @pytest.mark.parametrize("compiled", [True, False])
    def test_never_takes_the_memo_path_and_is_tested_first(self, kind, compiled):
        source = LocalDataSource()
        source.register(TREF.full_name, DATA)
        policy, marker = _policies()[kind]
        assert not memoisable_policy(policy)
        relation = SecureView(Filter(Scan(TREF), policy, policy=True), TREF.full_name)
        engine = QueryEngine(
            DictResolver({"t": relation}),
            data_source=source,
            config=ExecutionConfig(compile_enabled=compiled),
        )
        if kind in ("parameter", "salted"):
            # Pushed into the scan behind the policy: a CAST that raises on
            # the hidden rows' codes proves it never sees one.
            user_predicate = Comparison(">", Cast(col("code"), INT), lit(0))
        else:
            # User code keeps the policy filter above the scan; the user
            # predicate joins it as a later conjunct.
            user_predicate = Comparison(">", col("id"), lit(0))
        plan = Project(Filter(UnresolvedRelation("t"), user_predicate), [col("id")])
        optimized = engine.optimize(engine.analyze(plan))
        (scan,) = [n for n in optimized.walk() if isinstance(n, Scan)]
        assert scan.policy_filter is None
        if scan.pushed_filters:
            first = scan.pushed_filters[0]
        else:
            (parent,) = [n for n in optimized.walk() if scan in n.children]
            first = _first_conjunct(parent.condition)
        assert marker in str(first), optimized.explain()

        ctx = engine.exec_context(params=("US",))
        batch = engine.run_operator(engine.plan_physical(optimized), ctx)
        assert sorted(batch.columns[0]) == [1, 3]

    def test_a_pure_policy_takes_the_slot(self):
        source = LocalDataSource()
        source.register(TREF.full_name, DATA)
        policy = Comparison("=", col("region"), lit("US"))
        relation = SecureView(Filter(Scan(TREF), policy, policy=True), TREF.full_name)
        engine = QueryEngine(DictResolver({"t": relation}), data_source=source)
        user_predicate = Comparison(">", Cast(col("code"), INT), lit(0))
        plan = Project(Filter(UnresolvedRelation("t"), user_predicate), [col("id")])
        result = engine.execute(plan)
        (scan,) = [n for n in result.optimized_plan.walk() if isinstance(n, Scan)]
        assert str(scan.policy_filter) == "(region#1 = 'US')"
        assert len(scan.pushed_filters) == 1
        assert sorted(result.rows()) == [(1,), (3,)]
        # The scan yields admitted rows only.
        assert result.metrics.rows_scanned == 2


# ---------------------------------------------------------------------------
# The copy-on-write probe through the memo
# ---------------------------------------------------------------------------

def _refuse_compilation(monkeypatch):
    monkeypatch.setattr(KernelCompiler, "compile_pipeline_spec", lambda self, spec: None)


@pytest.fixture(scope="module")
def ledger():
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("wendy")
    ws.add_group("writers", ["wendy"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.w", owner="admin")
    admin = ws.create_standard_cluster().connect("admin")
    admin.sql("CREATE TABLE main.w.ledger (id int, tenant string, v int, w float)")
    admin_ctx = ws.catalog.principals.context_for("admin")
    rng = random.Random(11)
    for part, rows in enumerate((1500, 1100, 1200, 64)):
        ids = range(part * 10_000, part * 10_000 + rows)
        ws.catalog.write_table("main.w.ledger", {
            "id": list(ids),
            # File 1 holds only rows the writer's filter hides.
            "tenant": ["other" if part == 1 else rng.choice(("mine", "other"))
                       for _ in ids],
            "v": [rng.randrange(50) for _ in ids],
            "w": [None if i % 13 == 0 else rng.random() for i in ids],
        }, admin_ctx)
    admin.sql("ALTER TABLE main.w.ledger SET ROW FILTER (tenant = 'mine')")
    yield ws
    ws.shutdown()


WHERES = {
    "one-file": "id >= 20000 AND id < 20005",
    "hidden-only": "id >= 10000 AND id < 11100",
    "no-column": "1 = 1",
    "everything": None,
    "filter-column": "tenant = 'other'",
    "nulls": "w > 0.5",
}


class TestWriteProbe:
    @pytest.mark.parametrize("leg", ["compiled", "compile-refused"])
    @pytest.mark.parametrize("op", ["update", "delete"])
    @pytest.mark.parametrize("where", list(WHERES))
    def test_probe_through_the_memo_touches_the_files_a_raw_probe_touches(
        self, ledger, monkeypatch, leg, op, where
    ):
        if leg == "compile-refused":
            _refuse_compilation(monkeypatch)
        catalog = ledger.catalog
        name = "main.w.ledger"
        table = catalog.get_table(name)
        schema = table.schema
        text = WHERES[where]
        where_expr = None
        if text is not None:
            statement = parse_statement(f"DELETE FROM {name} WHERE {text}")
            where_expr = analyze(Filter(relation(schema), statement.where))[1]
        if op == "update":
            (bump,), _ = analyze(relation(schema), [Arithmetic("+", col("v"), lit(1))])
            ops = [UpdateOp({"v": bump}, where_expr)]
        else:
            ops = [DeleteOp(where_expr)]
        staged = StagedWrite(name, schema, catalog.txn_manager.row_filter(name, schema), ops)
        wendy = catalog.principals.context_for("wendy")
        storage = catalog.table_storage(table)
        credential = catalog.vendor.issue(
            identity="wendy", prefixes=[table.storage_root], operations={READ, LIST}
        )
        files = catalog.current_table_snapshot(name).files
        compiler = KernelCompiler()

        def read(data_file, columns, policy=None):
            # Retried like a commit's reads: CI runs this under chaos.
            for attempt in range(5):
                try:
                    return storage.read_file(data_file, credential, columns, policy)
                except RetryableError:
                    if attempt == 4:
                        raise

        def run(policy_epoch):
            return rewrite_files(
                files, read, staged, eval_context_for(wendy), compiler, policy_epoch
            )

        fills = catalog.store.governed.fills
        raw = run(None)
        assert catalog.store.governed.fills == fills  # the raw probe skips the memo
        memo = run(catalog.policy_epoch)
        assert catalog.store.governed.fills + catalog.store.governed.hits > fills
        assert [f.path for f in memo.removed] == [f.path for f in raw.removed]
        assert memo.chunks == raw.chunks
        if where == "hidden-only":
            # Only the small-file fold, never the hidden-only file.
            assert [f.num_rows for f in memo.removed] == [64] or not memo.removed
