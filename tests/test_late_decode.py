"""Late decode: a scan fetches whole objects but decodes only the columns
its plan reads (DESIGN.md §8).

Covers the column-chunked data-file codec and its data-only decoder, the
column sets scans hand to ``read_file``, result equivalence with the answer
computed from the full rows on every execution leg, join-input pruning, and
the header-corruption retry.
"""

from __future__ import annotations

import ast
import pickle
import random
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.datacodec import DATA_FILE_MAGIC, decode_data_file, encode_data_file
from repro.common.faults import FaultSpec
from repro.connect.client import udf
from repro.engine.aggregates import AggregateCall
from repro.engine.expressions import Arithmetic, BoundRef, Comparison, Literal
from repro.engine.logical import Aggregate, Join, LocalRelation
from repro.engine.optimizer import Optimizer
from repro.engine.compile import KernelCompiler
from repro.engine.physical import (
    PhysHashAggregate,
    PhysicalPlanner,
    PhysScan,
    distinct_agg_calls,
)
from repro.engine.types import FLOAT, INT, STRING, Field, Schema
from repro.errors import CorruptObjectError, RetryableError
from repro.platform import Workspace
from repro.storage.table_format import LakeTableStorage

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

T = "main.s.t"
C = "main.s.c"
REGIONS = ("US", "EU", "APAC")
T_FILTER = "region IN ('US', 'EU') OR is_account_group_member('hr')"
NOTE_MASK = "CASE WHEN is_account_group_member('hr') THEN note ELSE '***' END"
C_FILTER = "region <> 'APAC' OR is_account_group_member('hr')"


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


class _Gadget:
    def __reduce__(self):
        return (print, ("ran",))


COLUMNS = {"id": [1, 2, None], "name": ["a", None, "ç"], "x": [1.5, 2.5, None]}


class TestDataFileCodec:
    def test_roundtrip_all_and_some_columns(self):
        blob = encode_data_file(COLUMNS)
        assert blob[:4] == DATA_FILE_MAGIC
        assert decode_data_file(blob) == COLUMNS
        assert decode_data_file(blob, ["x", "id"]) == {"x": COLUMNS["x"], "id": COLUMNS["id"]}
        assert decode_data_file(encode_data_file({"a": []}), ["a"]) == {"a": []}

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda b: b"XXXX" + b[4:], id="bad-magic"),
            pytest.param(lambda b: bytes(v ^ 0xFF for v in b[:64]) + b[64:], id="default-corruptor"),
            pytest.param(lambda b: b[:-1], id="truncated"),
            pytest.param(lambda b: b + b"\x00", id="trailing-bytes"),
            pytest.param(lambda b: b[:6] + b"\x09" + b[7:], id="row-count"),
            pytest.param(lambda b: b[:4], id="header-only"),
        ],
    )
    def test_malformed_objects_are_corrupt(self, mangle):
        with pytest.raises(CorruptObjectError) as info:
            decode_data_file(mangle(encode_data_file(COLUMNS)), None, "probe")
        assert isinstance(info.value, RetryableError)
        assert "probe is corrupt" in str(info.value)

    @staticmethod
    def _raw(num_rows: int, chunks: list[tuple[str, bytes]]) -> bytes:
        """A hand-built object: a well-formed header over arbitrary chunks."""
        offset = 10 + sum(10 + len(name.encode()) for name, _ in chunks)
        parts = [struct.pack("<4sIH", DATA_FILE_MAGIC, num_rows, len(chunks))]
        for name, chunk in chunks:
            parts += [struct.pack("<HII", len(name.encode()), offset, len(chunk)), name.encode()]
            offset += len(chunk)
        return b"".join(parts + [chunk for _, chunk in chunks])

    @pytest.mark.parametrize(
        "chunks, reason",
        [
            ([("a", pickle.dumps((1, 2), protocol=5))], "not a list of 2"),
            ([("a", pickle.dumps([1], protocol=5))], "not a list of 2"),
            ([("a", pickle.dumps([1, 2], protocol=5) + b".")], "overruns its chunk"),
            ([("a", pickle.dumps([1, 2])), ("a", pickle.dumps([3, 4]))], "duplicate"),
        ],
        ids=["tuple", "short-list", "overrun", "duplicate-name"],
    )
    def test_chunks_must_be_lists_of_the_row_count(self, chunks, reason):
        assert self._raw(2, [("a", pickle.dumps([1, 2]))])  # the shape is valid
        assert decode_data_file(self._raw(2, [("a", pickle.dumps([1, 2]))])) == {"a": [1, 2]}
        with pytest.raises(CorruptObjectError, match=reason):
            decode_data_file(self._raw(2, chunks))

    def test_a_missing_column_is_corrupt(self):
        with pytest.raises(CorruptObjectError, match="KeyError"):
            decode_data_file(encode_data_file(COLUMNS), ["nope"])

    def test_a_chunk_naming_a_global_is_refused_unresolved(self, monkeypatch):
        blob = encode_data_file({"ok": [1], "evil": [_Gadget()]})
        calls = []
        monkeypatch.setattr("builtins.print", lambda *a: calls.append(a))
        assert decode_data_file(blob, ["ok"]) == {"ok": [1]}
        with pytest.raises(CorruptObjectError, match="refused global builtins.print"):
            decode_data_file(blob, ["evil"])
        assert calls == []


class TestNoCodeDecoderInStorage:
    """Guard: bytes read from storage or the wire are never decoded as code
    again. No ``pickle`` / ``cloudpickle`` load may reappear in
    ``storage/``, ``store/``, ``connect/`` or ``core/efgac.py``."""

    LOADERS = {"loads", "load", "Unpickler"}

    def _loader_calls(self, tree: ast.AST) -> list[str]:
        found = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("pickle", "cloudpickle", "marshal")
                and node.attr in self.LOADERS
            ):
                found.append(f"{node.value.id}.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module in (
                "pickle", "cloudpickle", "marshal"
            ):
                found += [a.name for a in node.names if a.name in self.LOADERS]
        return found

    @pytest.mark.parametrize(
        "path",
        sorted(
            str(p.relative_to(SRC))
            for p in [
                *(SRC / "storage").glob("*.py"),
                *(SRC / "store").glob("*.py"),
                *(SRC / "connect").glob("*.py"),
                SRC / "core" / "efgac.py",
            ]
        ),
    )
    def test_module_has_no_code_decoder(self, path):
        assert self._loader_calls(ast.parse((SRC / path).read_text())) == []


# ---------------------------------------------------------------------------
# A governed workspace shared by the engine-level tests
# ---------------------------------------------------------------------------


def _rows(seed: int = 26) -> dict[str, dict[str, list]]:
    rng = random.Random(seed)
    n = 60

    def maybe(value):
        return None if rng.random() < 0.1 else value

    t = {
        "id": list(range(n)),
        "region": [rng.choice(REGIONS) for _ in range(n)],
        "amount": [maybe(round(rng.uniform(0, 100), 2)) for _ in range(n)],
        "a": [maybe(rng.randrange(12)) for _ in range(n)],
        "b": [maybe(rng.randrange(20)) for _ in range(n)],
        "note": [f"n{rng.randrange(50)}" for _ in range(n)],
    }
    c = {"id": list(range(12)), "region": [REGIONS[i % 3] for i in range(12)]}
    return {T: t, C: c}


DATA = _rows()


#: Execution legs: ``compile-refused`` plans what ``fused`` plans, with
#: every loop refused (see ``_refuse_compilation``).
LEGS = ("fused", "compile-refused")


@udf("string")
def tag(note):
    return f"{note}!"


@pytest.fixture(scope="module")
def governed():
    """One workspace, one cluster per leg; ``t`` is row-filtered and masked
    for ``alice`` and fully visible to ``carol`` (in ``hr``)."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("carol")
    ws.add_group("analysts", ["alice", "carol"])
    ws.add_group("hr", ["carol"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    clusters = {leg: ws.create_standard_cluster(name=leg) for leg in LEGS}
    admin = clusters["fused"].connect("admin")
    admin.sql(f"CREATE TABLE {T} (id int, region string, amount float, a int, b int, note string)")
    admin.sql(f"CREATE TABLE {C} (id int, region string)")
    admin_ctx = ws.catalog.principals.context_for("admin")
    for lo, hi in ((0, 20), (20, 45), (45, 60)):  # three data files
        ws.catalog.write_table(T, {k: v[lo:hi] for k, v in DATA[T].items()}, admin_ctx)
    ws.catalog.write_table(C, DATA[C], admin_ctx)
    for statement in (
        "GRANT USE CATALOG ON main TO analysts",
        "GRANT USE SCHEMA ON main.s TO analysts",
        f"GRANT SELECT ON {T} TO analysts",
        f"GRANT SELECT ON {C} TO analysts",
        f"ALTER TABLE {T} SET ROW FILTER ({T_FILTER})",
        f"ALTER TABLE {T} ALTER COLUMN note SET MASK ({NOTE_MASK})",
        f"ALTER TABLE {C} SET ROW FILTER ({C_FILTER})",
    ):
        admin.sql(statement)
    sessions = {}
    for leg, cluster in clusters.items():
        for user in ("alice", "carol"):
            sessions[leg, user] = client = cluster.connect(user)
            client.register_udf(tag)
    yield ws, clusters, sessions
    ws.shutdown()


def _refuse_compilation(monkeypatch):
    """Every loop is refused: the whole plan runs through the interpreter."""
    from repro.engine.compile import KernelCompiler

    monkeypatch.setattr(KernelCompiler, "compile_pipeline_spec", lambda self, spec: None)


# ---------------------------------------------------------------------------
# The answer computed from the full rows: the reference every leg must meet
# ---------------------------------------------------------------------------


def _visible(user: str) -> tuple[list[dict], list[dict]]:
    hr = user == "carol"
    t_rows = [dict(zip(DATA[T], r)) for r in zip(*DATA[T].values())]
    t_rows = [
        r if hr else dict(r, note="***")
        for r in t_rows if hr or r["region"] in ("US", "EU")
    ]
    c_rows = [dict(zip(DATA[C], r)) for r in zip(*DATA[C].values())]
    return t_rows, [r for r in c_rows if hr or r["region"] != "APAC"]


def _sum(values):
    values = [v for v in values if v is not None]
    return sum(values) if values else None


def _by(rows, key):
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


def _expected(shape: str, user: str, x: int, y: int, z: float) -> list[tuple]:
    t_rows, c_rows = _visible(user)
    if shape == "agg":
        kept = [r for r in t_rows if r["a"] is not None and r["a"] > x]
        return sorted(
            (region, len(rows), _sum(r["b"] for r in rows),
             float(sum(r["a"] for r in rows)) / len(rows))
            for region, rows in _by(kept, lambda r: r["region"]).items()
        )
    if shape == "top":
        kept = [r for r in t_rows if r["b"] is not None and r["b"] < y]
        kept.sort(key=lambda r: (r["a"] is None, -(r["a"] or 0), r["id"]))
        return [(r["id"], r["a"]) for r in kept[:5]]
    if shape == "join":
        region_of = {c["id"]: c["region"] for c in c_rows}
        kept = [
            (region_of[r["a"]], r) for r in t_rows
            if r["amount"] is not None and r["amount"] > z and r["a"] in region_of
        ]
        return sorted(
            (region, len(pairs), _sum(r["b"] for _, r in pairs))
            for region, pairs in _by(kept, lambda p: p[0]).items()
        )
    if shape == "project":
        return sorted(
            (r["id"], r["note"], None if None in (r["a"], r["b"]) else r["a"] + r["b"])
            for r in t_rows if r["amount"] is not None and r["amount"] < z
        )
    return sorted(  # "udf"
        (r["id"], f"{r['note']}!") for r in t_rows if r["b"] is not None and r["b"] >= y
    )


#: One query per plan shape: aggregate, sort + limit, join + aggregate,
#: no-sink projection, and a UDF splitting the chain.
QUERIES = {
    "agg": f"SELECT region, count(*), sum(b), avg(a) FROM {T} WHERE a > {{x}} GROUP BY region",
    "top": f"SELECT id, a FROM {T} WHERE b < {{y}} ORDER BY a DESC, id LIMIT 5",
    "join": (
        f"SELECT c.region, count(*), sum(t.b) FROM {T} t JOIN {C} c "
        f"ON t.a = c.id WHERE t.amount > {{z}} GROUP BY c.region"
    ),
    "project": f"SELECT id, note, a + b AS s FROM {T} WHERE amount < {{z}}",
    "udf": f"SELECT id, tag(note) AS g FROM {T} WHERE b >= {{y}}",
}


def _run(client, shape: str, x: int, y: int, z: float) -> list[tuple]:
    rows = client.sql(QUERIES[shape].format(x=x, y=y, z=z)).collect()
    return rows if shape == "top" else sorted(rows)


class TestLateDecodeEquivalence:
    """Late decode ≡ full decode: on every leg, for a filtered + masked user
    and for an unrestricted one, every shape returns what the full rows say."""

    @pytest.mark.parametrize("leg", list(LEGS))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        x=st.integers(-1, 12),
        y=st.integers(0, 21),
        z=st.integers(0, 100).map(lambda v: v + 0.5),
    )
    def test_every_shape_matches_the_full_rows(self, governed, monkeypatch, leg, x, y, z):
        _, _, sessions = governed
        if leg == "compile-refused":
            _refuse_compilation(monkeypatch)
        for user in ("alice", "carol"):
            for shape in QUERIES:
                got = _run(sessions[leg, user], shape, x, y, z)
                assert got == _expected(shape, user, x, y, z), (leg, user, shape)


class TestDecodedColumns:
    """Each ``read_file`` decodes exactly the columns the plan reads, and the
    row filter's column is always among them: named in ``columns``, or read
    by the row ``policy`` the governed memo runs on a fill."""

    #: The chain's composed condition, outputs and keys (for the UDF shape,
    #: the columns the UDF stage reads plus the chain's filters).
    FUSED = {
        "agg": {T: {"region", "a", "b"}},
        "top": {T: {"id", "a", "b", "region"}},
        "join": {T: {"a", "b", "amount", "region"}, C: {"id", "region"}},
        "project": {T: {"id", "note", "a", "b", "amount", "region"}},
        "udf": {T: {"id", "note", "b", "region"}},
    }

    @pytest.fixture
    def decoded(self, governed, monkeypatch):
        ws = governed[0]
        table_of = {ws.catalog.get_table(name).storage_root: name for name in (T, C)}
        seen: dict[str, list[set[str]]] = {}
        original = LakeTableStorage.read_file

        def recording(self, data_file, credential, columns=None, policy=None, access=None):
            # Recorded once the read returned: a read the chaos schedule
            # failed is retried, and only the retry decodes.
            decoded = original(self, data_file, credential, columns, policy, access)
            read = set(columns) | set(policy.columns if policy else ())
            seen.setdefault(table_of[self.root], []).append(read)
            return decoded

        monkeypatch.setattr(LakeTableStorage, "read_file", recording)
        return seen

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize("shape", list(QUERIES))
    def test_read_file_gets_the_referenced_columns(
        self, governed, decoded, monkeypatch, leg, shape
    ):
        if leg == "compile-refused":
            _refuse_compilation(monkeypatch)
        _run(governed[2][leg, "alice"], shape, 3, 9, 40.5)
        assert set(decoded) == set(self.FUSED[shape])
        for table, reads in decoded.items():
            assert len(reads) == (3 if table == T else 1)
            for columns in reads:
                assert "region" in columns
                assert columns == self.FUSED[shape][table], (shape, table)


# ---------------------------------------------------------------------------
# A chain that only selects columns is a narrowed scan
# ---------------------------------------------------------------------------


def test_a_join_build_side_that_selects_columns_decodes_only_them(
    tmp_path, monkeypatch
):
    """The build side of ``events JOIN accounts … GROUP BY accounts.region``
    composes to bare column refs over the masked ``accounts`` scan: it plans
    as that scan narrowed to ``(id, region)`` (its row filter still in the
    policy slot), so it never decodes ``note`` nor computes the ``pii`` mask
    — no generated kernel reads the ``pii`` group flag — and the aggregate
    probes it from one loop over the events scan."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.add_group("pii", ["admin"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    cluster = ws.create_standard_cluster()
    try:
        admin = cluster.connect("admin")
        admin_ctx = ws.catalog.principals.context_for("admin")
        schema = "(id int, region string, amount float, a int, b int, note string)"
        for name, rows in (("events", 40), ("accounts", 12)):
            admin.sql(f"CREATE TABLE main.s.{name} {schema}")
            ws.catalog.write_table(f"main.s.{name}", {
                "id": list(range(rows)),
                "region": [REGIONS[i % 3] for i in range(rows)],
                "amount": [float(i) for i in range(rows)],
                "a": [i % 12 for i in range(rows)],
                "b": [i % 5 for i in range(rows)],
                "note": [f"n{i}" for i in range(rows)],
            }, admin_ctx)
            for statement in (
                f"GRANT SELECT ON main.s.{name} TO analysts",
                f"ALTER TABLE main.s.{name} SET ROW FILTER (region <> 'APAC')",
                f"ALTER TABLE main.s.{name} ALTER COLUMN note SET MASK "
                "(CASE WHEN is_account_group_member('pii') THEN note ELSE '***' END)",
            ):
                admin.sql(statement)
        admin.sql("GRANT USE CATALOG ON main TO analysts")
        admin.sql("GRANT USE SCHEMA ON main.s TO analysts")
        roots = {ws.catalog.get_table(f"main.s.{n}").storage_root: n for n in ("events", "accounts")}
        decoded: dict[str, set[str]] = {}
        original = LakeTableStorage.read_file

        def recording(self, data_file, credential, columns=None, policy=None, access=None):
            read = set(columns) | set(policy.columns if policy else ())
            decoded.setdefault(roots[self.root], set()).update(read)
            return original(self, data_file, credential, columns, policy, access)

        monkeypatch.setattr(LakeTableStorage, "read_file", recording)
        monkeypatch.setenv("LAKEGUARD_DUMP_KERNELS", str(tmp_path))
        rows = cluster.connect("alice").sql(
            "SELECT c.region, count(*), sum(e.amount) FROM main.s.events e "
            "JOIN main.s.accounts c ON e.a = c.id WHERE e.amount > 3.5 "
            "GROUP BY c.region"
        ).collect()
        assert sorted(rows) == [("EU", 12, 246.0), ("US", 12, 270.0)]
        assert decoded["accounts"] == {"id", "region"}
        sources = [path.read_text() for path in tmp_path.glob("kernel_*.py")]
        assert sources and not any("'pii' in _ctx.groups" in src for src in sources)
        # One operator runs the join and its aggregate: a loop over the
        # events scan probing the narrowed accounts scan.
        planner = PhysicalPlanner(KernelCompiler())
        root = planner.plan(cluster.backend.last_result.optimized_plan)
        assert isinstance(root, PhysHashAggregate) and root.spec.label == "join_probe"
        assert [type(child) for child in root.children] == [PhysScan, PhysScan]
        assert root.children[1].columns == (0, 1)
    finally:
        ws.shutdown()


# ---------------------------------------------------------------------------
# Join-input pruning keeps aggregate calls whole
# ---------------------------------------------------------------------------


class TestJoinPruning:
    def test_shared_aggregate_call_survives_pruning(self):
        left = LocalRelation(
            Schema((Field("k", INT), Field("x", FLOAT), Field("pad", STRING))),
            [[1, 2], [1.0, 3.0], ["p", "q"]],
        )
        right = LocalRelation(
            Schema((Field("id", INT), Field("g", STRING), Field("junk", STRING))),
            [[1, 2], ["a", "b"], ["j", "k"]],
        )
        on = Comparison("=", BoundRef(0, "k", INT), BoundRef(3, "id", INT))
        mean = AggregateCall("avg", BoundRef(1, "x", FLOAT))
        group = BoundRef(4, "g", STRING)
        plan = Aggregate(
            Join(left, right, "inner", on),
            [group],
            [group, mean, Arithmetic("*", mean, Literal(2.0))],
        )
        optimized = Optimizer().optimize(plan)
        join = optimized.child
        assert [e.name for e in join.left.exprs] == ["k", "x"]
        assert [e.name for e in join.right.exprs] == ["id", "g"]
        (call,) = distinct_agg_calls(optimized.aggregates)
        assert call.expr_id == mean.expr_id
        assert call.child.index == 1 and optimized.groupings[0].index == 3

    @pytest.mark.parametrize("leg", LEGS)
    def test_avg_and_shared_calls_over_a_pruned_join(self, governed, leg, monkeypatch):
        if leg == "compile-refused":
            _refuse_compilation(monkeypatch)
        rows = governed[2][leg, "carol"].sql(
            f"SELECT c.region, avg(t.amount) AS m, sum(t.amount) / count(t.amount) AS m2, "
            f"count(*) AS n FROM {T} t JOIN {C} c ON t.a = c.id GROUP BY c.region"
        ).collect()
        t_rows, c_rows = _visible("carol")
        region_of = {c["id"]: c["region"] for c in c_rows}
        joined = _by([r for r in t_rows if r["a"] in region_of], lambda r: region_of[r["a"]])
        assert sorted((region, n) for region, _, _, n in rows) == sorted(
            (region, len(group)) for region, group in joined.items()
        )
        for region, m, m2, _ in rows:
            amounts = [r["amount"] for r in joined[region] if r["amount"] is not None]
            assert m == pytest.approx(m2) == pytest.approx(sum(amounts) / len(amounts))


# ---------------------------------------------------------------------------
# A corrupt header still recovers through the scan retry
# ---------------------------------------------------------------------------


def test_corrupt_header_is_retried_and_recovers(governed):
    ws, clusters, sessions = governed
    client = sessions["fused", "carol"]
    query = f"SELECT count(*), sum(b) FROM {T} WHERE a >= 0"
    expected = client.sql(query).collect()
    mangled: list[bytes] = []

    def corrupt_first_data_file(payload):
        # The default corruptor's damage, aimed at one data-file read (log
        # reads pass through): the header is the first thing it flips.
        if not mangled and payload[:4] == DATA_FILE_MAGIC:
            mangled.append(payload)
            return bytes(v ^ 0xFF for v in payload[:64]) + payload[64:]
        return payload

    recovery = clusters["fused"].backend.data_source.recovery_stats
    retries = recovery.scan_retries
    ws.catalog.faults.arm(
        "storage.get", FaultSpec(kind="corrupt", corruptor=corrupt_first_data_file)
    )
    try:
        assert client.sql(query.replace(">= 0", ">= -1")).collect() == expected
    finally:
        ws.catalog.faults.disarm("storage.get")
    assert len(mangled) == 1
    assert recovery.scan_retries >= retries + 1
