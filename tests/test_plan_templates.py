"""Secure plans as templates: lifting, pinning, miss reasons, re-entrancy,
and the contract that a template hit answers exactly like a cold plan.

The *cold* oracle below plans the literal query from scratch — decoded
without lifting, no plan cache, no parameters — through the same governed
engine, so every comparison pits a parameterised, cached plan against the
plan the engine builds for that exact text.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.connect import proto
from repro.connect.client import col, count
from repro.connect.sessions import SessionState
from repro.core.plan_cache import lift
from repro.core.plan_codec import (
    PARAMETER_MARKER,
    PlanDecoder,
    bind_markers,
    encode_expression,
)
from repro.engine.expressions import Comparison, Literal, Parameter, UnresolvedColumn
from repro.engine.logical import plan_expressions
from repro.engine.types import FLOAT
from repro.errors import PermissionDenied, ProtocolError, RetryableError
from repro.platform import Workspace
from repro.sql.parser import parse_statement

T = "main.s.t"
R = "main.s.r"

_ROWS = [
    (1, "US", 10.0, "a"),
    (2, "EU", -5.5, "b%"),
    (3, "US", 0.0, ""),
    (4, "HIDDEN", 40.0, "x_y"),
    (5, "APAC", None, None),
    (6, "", 12.25, "US"),
    (7, None, 3.0, "ab"),
    (8, "EU", -0.0, "a b"),
    (9, "HIDDEN", 55.5, "HIDDEN"),
    (10, "US", 7.0, "%"),
]
_ZONES = [("US", 1), ("EU", 2), ("APAC", 3), ("", 0), ("HIDDEN", 9)]


def _governed_workspace() -> Workspace:
    """``t`` under a row filter and a mask; alice is filtered and masked,
    carol (``hr``) sees everything."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("carol")
    ws.add_group("analysts", ["alice", "carol"])
    ws.add_group("hr", ["carol"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    admin_ctx = ws.catalog.principals.context_for("admin")
    setup = ws.create_standard_cluster(name="setup")
    admin = setup.connect("admin")
    admin.sql(f"CREATE TABLE {T} (id int, region string, amount float, note string)")
    admin.sql(f"CREATE TABLE {R} (region string, zone int)")
    ws.catalog.write_table(
        T, {name: [row[i] for row in _ROWS] for i, name in
            enumerate(("id", "region", "amount", "note"))}, admin_ctx,
    )
    ws.catalog.write_table(
        R, {"region": [z[0] for z in _ZONES], "zone": [z[1] for z in _ZONES]}, admin_ctx
    )
    for grant in (
        "GRANT USE CATALOG ON main TO analysts",
        "GRANT USE SCHEMA ON main.s TO analysts",
        f"GRANT SELECT ON {T} TO analysts",
        f"GRANT SELECT ON {R} TO analysts",
    ):
        admin.sql(grant)
    admin.sql(
        f"ALTER TABLE {T} SET ROW FILTER "
        "(region <> 'HIDDEN' OR is_account_group_member('hr'))"
    )
    admin.sql(
        f"ALTER TABLE {T} ALTER COLUMN note SET MASK "
        "(CASE WHEN is_account_group_member('hr') THEN note ELSE '***' END)"
    )
    return ws


def cold_rows(cluster, user: str, relation: dict) -> list[tuple]:
    """The literal query planned from scratch: no lifting, no plan cache."""
    backend = cluster.backend
    session = SessionState(
        session_id=f"cold-{user}",
        user_ctx=backend.authenticate(user),
        created_at=0.0,
        last_active=0.0,
    )
    plan = PlanDecoder(user, lambda name: None).relation(relation)
    engine = backend.engine_for(session)
    return engine.execute(
        plan, user=user, groups=session.user_ctx.groups, auth=session.user_ctx
    ).rows()


def _parse_reason(cluster, client) -> str:
    spans = cluster.backend.telemetry.spans(
        trace_id=client.last_trace_id, name="stage:parse"
    )
    return spans[0].attributes.get("plan_cache", "")


@pytest.fixture
def governed():
    ws = _governed_workspace()
    yield ws
    ws.shutdown()


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------


class TestLifting:
    def test_sql_literals_become_typed_slots(self):
        a = lift(proto.sql_relation("SELECT id FROM t WHERE x = 5 AND y = 'a'"))
        b = lift(proto.sql_relation("SELECT id FROM t WHERE x = 7 AND y = ''"))
        assert a.template == b.template and a.fingerprint == b.fingerprint
        assert (a.params, b.params) == ((5, "a"), (7, ""))
        # The type is part of the template: 5 and 5.0 are different plans.
        c = lift(proto.sql_relation("SELECT id FROM t WHERE x = 5.0 AND y = 'a'"))
        assert c.fingerprint != a.fingerprint

    def test_a_sign_flip_keeps_the_template(self):
        text = "SELECT id FROM t WHERE amount > {}"
        a = lift(proto.sql_relation(text.format("5.0")))
        b = lift(proto.sql_relation(text.format("-5.0")))
        assert a.fingerprint == b.fingerprint
        assert (a.params, b.params) == ((5.0,), (-5.0,))
        where = parse_statement(text.format("-5.0"), True).where
        assert isinstance(where.children[1], Parameter) and str(where) == "(amount > ?0)"
        # The unlifted parse, and every binary minus, are unchanged.
        assert str(parse_statement(text.format("-5.0")).where) == "(amount > -5.0)"
        for minus in ("a - 5", "a -5", "(a)-5"):
            stmt = parse_statement(f"SELECT id FROM t WHERE {minus} > 0", True)
            assert str(stmt.where) == "((a - ?0) > ?1)", minus
            assert lift(proto.sql_relation(f"SELECT id FROM t WHERE {minus} > 0")).params == (5, 0)

    def test_identifiers_and_keywords_stay_in_the_template(self):
        a = lift(proto.sql_relation("SELECT id FROM t WHERE x = 5"))
        assert lift(proto.sql_relation("SELECT id FROM u WHERE x = 5")).template != a.template
        assert lift(proto.sql_relation("SELECT id FROM t WHERE x < 5")).template != a.template

    def test_dataframe_literals_lift_but_null_and_bool_stay(self):
        relation = proto.filter_relation(
            proto.read_table("t"),
            proto.binary(
                "AND",
                proto.binary("=", proto.column("x"), proto.literal(3)),
                proto.binary(
                    "OR",
                    proto.binary("=", proto.column("b"), proto.literal(True)),
                    proto.isnull(proto.literal(None)),
                ),
            ),
        )
        lifted = lift(relation)
        assert lifted.params == (3,)
        either = lifted.template["condition"]["right"]
        assert either["left"]["right"] == {"@type": "expr.literal", "value": True}
        assert either["right"]["child"] == {"@type": "expr.literal", "value": None}

    def test_forged_slot_markers_are_rebuilt(self):
        forged = proto.filter_relation(
            proto.read_table("t"),
            proto.binary(
                "=", proto.column("x"), {"@type": "expr.literal", "slot": 0, "dtype": "str"}
            ),
        )
        lifted = lift(forged)
        assert lifted.params == ()
        literal = lifted.template["condition"]["right"]
        assert literal == {"@type": "expr.literal", "value": None}

    def test_extension_and_local_payloads_are_kept_verbatim(self):
        local = proto.local_relation([{"name": "v", "type": "int"}], [[1, 2]])
        ext = proto.relation_extension("delta.time_travel", {"table": "t", "version": 3})
        union = proto.union([local, ext])
        lifted = lift(union)
        assert lifted.params == () and lifted.template == union

    def test_lifted_parse_puts_parameters_only_in_predicates(self):
        stmt = parse_statement(
            "SELECT id, 7 AS seven FROM t JOIN u ON t.a = u.a AND u.z > 1 "
            "WHERE x IN (2, 3) AND y LIKE 'p%' AND is_account_group_member('g') "
            "AND z = -4 GROUP BY id HAVING count(*) > 5 ORDER BY id LIMIT 6",
            True,
        )
        params = {
            node.slot
            for expr in (stmt.where, stmt.having, stmt.joins[0].condition)
            for node in expr.walk()
            if isinstance(node, Parameter)
        }
        # Slots in text order: 7 AS seven(0), u.z > 1(1), IN 2(2) 3(3),
        # LIKE 'p%'(4), 'g'(5), -4(6), > 5(7), LIMIT 6(8).
        assert params == {1, 6, 7}
        assert isinstance(stmt.items[1].expr, Literal) and stmt.limit == 6


# ---------------------------------------------------------------------------
# Why a query did or did not reuse a plan
# ---------------------------------------------------------------------------


def _reason_hit(ws, cluster, alice):
    alice.sql(f"SELECT id FROM {T} WHERE id > 1").collect()
    alice.sql(f"SELECT id FROM {T} WHERE id > 2").collect()


def _reason_cold(ws, cluster, alice):
    alice.sql(f"SELECT id FROM {T} WHERE id > 1").collect()


def _reason_stale_epoch(ws, cluster, alice):
    alice.sql(f"SELECT id FROM {T} WHERE id > 1").collect()
    cluster.connect("admin").sql(f"GRANT SELECT ON {R} TO alice")
    alice.sql(f"SELECT id FROM {T} WHERE id > 2").collect()


def _reason_pinned(ws, cluster, alice):
    alice.sql(f"SELECT amount * 2 AS p FROM {T} WHERE id > 1").collect()
    alice.sql(f"SELECT amount * 3 AS p FROM {T} WHERE id > 1").collect()


def _reason_txn(ws, cluster, alice):
    alice.sql("BEGIN")
    alice.sql(f"SELECT id FROM {T} WHERE id > 1").collect()
    read_trace = alice.last_trace_id
    alice.sql("ROLLBACK")
    alice.last_trace_id = read_trace  # the read's trace, not ROLLBACK's


def _reason_system(ws, cluster, alice):
    alice.sql("SELECT * FROM system.access.query_profile").collect()


REASONS = {
    "hit": _reason_hit,
    "miss:cold": _reason_cold,
    "miss:stale-epoch": _reason_stale_epoch,
    "miss:pinned": _reason_pinned,
    "bypass:txn": _reason_txn,
    "bypass:system": _reason_system,
}


class TestMissReasons:
    def test_a_sign_flip_is_a_hit(self, governed):
        cluster = governed.create_standard_cluster(name="signs")
        alice = cluster.connect("alice")
        text = f"SELECT id FROM {T} WHERE amount > {{}}"
        alice.sql(text.format("5.0")).collect()
        rows = alice.sql(text.format("-5.0")).collect()
        assert _parse_reason(cluster, alice) == "hit"
        assert sorted(rows) == sorted(
            cold_rows(cluster, "alice", proto.sql_relation(text.format("-5.0")))
        )

    @pytest.mark.parametrize("reason", list(REASONS))
    def test_parse_span_records_the_reason(self, governed, reason):
        cluster = governed.create_standard_cluster(name="reasons")
        alice = cluster.connect("alice")
        REASONS[reason](governed, cluster, alice)
        assert _parse_reason(cluster, alice) == reason

    def test_pinned_misses_are_admin_only_counters(self, governed):
        cluster = governed.create_standard_cluster(name="pinned")
        alice = cluster.connect("alice")
        _reason_pinned(governed, cluster, alice)
        rows = cluster.connect("admin").table("system.access.cache_stats").collect()
        stats = {m: v for scope, m, v in rows if scope == "plan_cache[pinned]"}
        assert stats["pinned_misses"] == 1.0 and stats["misses"] == 2.0
        with pytest.raises(PermissionDenied):
            alice.table("system.access.cache_stats").collect()


# ---------------------------------------------------------------------------
# One plan, many values: results, re-entrancy
# ---------------------------------------------------------------------------


class TestParameterisedExecution:
    def test_two_threads_share_one_template_re_entrantly(self, governed):
        """Both threads run the same user's one template with 500 distinct
        parameter vectors each, concurrently, on the one cached plan (and
        its one physical tree); every answer equals the cold plan's."""
        cluster = governed.create_standard_cluster(name="stress")
        text = "SELECT id, amount, note FROM {} WHERE amount > {} AND id <> {} ORDER BY id"
        vectors = [
            [(float(j % 70) + 0.25 + k / 1000.0, j % 11) for j in range(500)]
            for k in range(2)
        ]
        expected = [
            [cold_rows(cluster, "alice", proto.sql_relation(text.format(T, *v))) for v in vs]
            for vs in vectors
        ]
        clients = [cluster.connect("alice") for _ in range(2)]
        clients[0].sql(text.format(T, 0.5, 0)).collect()  # build the template
        start = threading.Barrier(2)
        mismatches: list = []

        def run(k: int) -> None:
            start.wait()
            try:
                for vector, want in zip(vectors[k], expected[k]):
                    frame = clients[k].sql(text.format(T, *vector))
                    try:
                        got = frame.collect()
                    except RetryableError:
                        # A chaos leg can exhaust the recovery ladder once in
                        # thousands of queries; the client's move is to resubmit.
                        got = frame.collect()
                    if got != want:
                        mismatches.append((k, vector, got, want))
            except Exception as exc:  # noqa: BLE001 - reported below, on the test's thread
                mismatches.append((k, exc))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two executions finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        stats = cluster.backend.plan_cache.stats
        assert stats.hits >= 1000 and stats.insertions == 1


# ---------------------------------------------------------------------------
# eFGAC sub-plans as templates: parameters ride the payload, bound at submit
# ---------------------------------------------------------------------------

MARKER = {"@type": PARAMETER_MARKER, "slot": 0}


def _record_submits(cluster) -> list[dict]:
    """Every sub-plan ``cluster`` hands the serverless gateway, as handed."""
    executor = cluster.backend.remote_executor
    submit, shipped = executor._submit, []

    def recording(user, payload):
        shipped.append(payload)
        return submit(user, payload)

    executor._submit = recording
    return shipped


class TestRemoteTemplates:
    def test_a_fresh_predicate_literal_is_a_hit(self, governed):
        cluster = governed.create_dedicated_cluster(assigned_user="alice")
        alice = cluster.connect("alice")
        text = f"SELECT id, note FROM {T} WHERE amount > {{}}"
        alice.sql(text.format(1.5)).collect()
        rows = alice.sql(text.format(11.5)).collect()
        assert _parse_reason(cluster, alice) == "hit"
        assert cluster.backend.plan_cache.stats.pinned_misses == 0
        assert sorted(rows) == sorted(
            cold_rows(cluster, "alice", proto.sql_relation(text.format(11.5)))
        )

    def test_a_negative_literal_ships_as_a_literal(self, governed):
        cluster = governed.create_dedicated_cluster(assigned_user="alice")
        shipped = _record_submits(cluster)
        alice = cluster.connect("alice")
        text = f"SELECT id FROM {T} WHERE amount > -0.0"
        rows = alice.sql(text).collect()
        assert sorted(rows) == sorted(cold_rows(cluster, "alice", proto.sql_relation(text)))
        assert "'value': -0.0}" in repr(shipped[0])
        assert "'op': '-'" not in repr(shipped[0])

    def test_a_hit_ships_the_payload_a_cold_plan_ships(self, governed):
        cluster = governed.create_dedicated_cluster(assigned_user="alice")
        shipped = _record_submits(cluster)
        alice = cluster.connect("alice")

        def read(key, floor):
            return alice.table(T).filter(
                (col("id") == key) & (col("amount") > floor)
            ).select("id", "amount").limit(50)

        read(1, 5.5).collect()
        hit = read(10, -0.0).collect()
        assert _parse_reason(cluster, alice) == "hit"
        cluster.backend.plan_cache.clear()
        cold = read(10, -0.0).collect()
        assert _parse_reason(cluster, alice) == "miss:cold"
        assert hit == cold == [(10, 7.0)]
        # ``repr`` tells -0.0 from 0.0 and 10 from 10.0.
        assert repr(shipped[1]) == repr(shipped[2])
        assert "'value': -0.0}" in repr(shipped[1]) and "'value': 10}" in repr(shipped[1])

    @pytest.mark.parametrize("change", [
        f"ALTER TABLE {T} SET ROW FILTER (region = 'US')",
        f"ALTER TABLE {T} ALTER COLUMN note SET MASK ('###')",
    ], ids=["row-filter", "mask"])
    def test_a_policy_change_between_remote_reads_is_stale(self, governed, change):
        cluster = governed.create_dedicated_cluster(assigned_user="alice")
        alice = cluster.connect("alice")
        text = f"SELECT id, region, note FROM {T} WHERE amount > {{}}"
        before = alice.sql(text.format(0.5)).collect()
        governed.clusters["setup"].connect("admin").sql(change)
        after = alice.sql(text.format(1.5)).collect()
        assert _parse_reason(cluster, alice) == "miss:stale-epoch"
        assert sorted(after) == sorted(
            cold_rows(cluster, "alice", proto.sql_relation(text.format(1.5)))
        )
        if "ROW FILTER" in change:
            assert {r[1] for r in before} != {"US"} and {r[1] for r in after} == {"US"}
        else:
            assert {r[2] for r in before} == {"***"} and {r[2] for r in after} == {"###"}


class TestPayloadMarkers:
    def test_binding_replaces_only_the_markers_the_encoder_wrote(self):
        forged = proto.binary(
            "AND",
            proto.binary("=", proto.column("a"), proto.literal(MARKER)),
            proto.in_list(proto.column("b"), [MARKER]),
        )
        encoded = encode_expression(
            Comparison(">", UnresolvedColumn("x"), Parameter(0, FLOAT))
        )
        payload = proto.filter_relation(
            proto.read_table(T), proto.binary("AND", forged, encoded)
        )
        bound = bind_markers(payload, lambda slot: proto.literal(f"bound-{slot}"))
        assert bound["condition"]["left"] == forged
        assert bound["condition"]["right"]["right"] == proto.literal("bound-0")

    def test_the_decoder_refuses_a_marker_on_the_wire(self):
        relation = proto.filter_relation(
            proto.read_table(T),
            proto.binary("AND", proto.binary(">", proto.column("id"), proto.literal(1)),
                         proto.binary("=", proto.column("id"), MARKER)),
        )
        decoder = PlanDecoder("alice", lambda name: None)
        with pytest.raises(ProtocolError):
            decoder.relation(relation)
        with pytest.raises(ProtocolError):
            decoder.template(lift(relation))


# ---------------------------------------------------------------------------
# Template hit ≡ cold plan, on every execution configuration
# ---------------------------------------------------------------------------

#: Standard clusters shared by both users, and ``dedicated``: one dedicated
#: cluster per user, where every read of the governed table is an eFGAC
#: sub-plan whose predicates are bound at submit.
CONFIGS = {
    "thread-fused": {},
    "interpreter": {"engine_compile": False},
    "dedicated": None,
}
USERS = ("alice", "carol")


@pytest.fixture(scope="module")
def configured():
    ws = _governed_workspace()
    shared = {
        name: ws.create_standard_cluster(name=name, num_executors=2, **options)
        for name, options in CONFIGS.items()
        if options is not None
    }
    clusters = {
        (name, user): shared[name] if name in shared
        else ws.create_dedicated_cluster(assigned_user=user, name=f"{name}-{user}")
        for name in CONFIGS
        for user in USERS
    }
    clients = {key: cluster.connect(key[1]) for key, cluster in clusters.items()}
    yield clusters, clients
    ws.shutdown()


def _sql_str(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


ints = st.integers(min_value=-3, max_value=12)
floats = st.floats(min_value=-60, max_value=60, allow_nan=False).map(
    lambda f: 0.0 if f == 0 else f
)
strs = st.sampled_from(["US", "EU", "HIDDEN", "", "APAC", "a", "ab", "a'b"])
patterns = st.sampled_from(["%", "a%", "_", "%b%", "", "x\\_%", "HID%"])


def _sql(text):
    return lambda client: client.sql(text).relation


#: (name, value strategies, builder(values) -> (relation maker, ordered)).
SHAPES = {
    "where-float": (
        (floats,),
        lambda f: _sql(f"SELECT id, amount FROM {T} WHERE amount > {f!r} ORDER BY id"),
    ),
    "where-or-masked": (
        (strs, ints),
        lambda s, i: _sql(
            f"SELECT id, note FROM {T} WHERE region = {_sql_str(s)} OR id < {i} ORDER BY id"
        ),
    ),
    "having": (
        (ints, ints),
        lambda i, j: _sql(
            f"SELECT region, count(*) AS n, sum(amount) AS total FROM {T} "
            f"WHERE id <> {i} GROUP BY region HAVING count(*) > {j % 3} ORDER BY region"
        ),
    ),
    "join-on": (
        (ints, floats),
        lambda i, f: _sql(
            f"SELECT t.id, r.zone FROM {T} t JOIN {R} r ON t.region = r.region "
            f"AND r.zone > {i} WHERE t.amount >= {f!r} ORDER BY t.id"
        ),
    ),
    "projected-literal": (
        (floats, floats),
        lambda f, g: _sql(
            f"SELECT id, amount * {f!r} AS scaled FROM {T} WHERE amount < {g!r} ORDER BY id"
        ),
    ),
    "limit": (
        (floats, ints),
        lambda f, n: _sql(
            f"SELECT id, amount FROM {T} WHERE amount > {f!r} "
            f"ORDER BY amount DESC, id LIMIT {abs(n) % 6}"
        ),
    ),
    "in-list": (
        (strs, strs, ints),
        lambda s, u, i: _sql(
            f"SELECT id FROM {T} WHERE region IN ({_sql_str(s)}, {_sql_str(u)}) "
            f"AND id > {i} ORDER BY id"
        ),
    ),
    "like": (
        (patterns, floats),
        lambda p, f: _sql(
            f"SELECT id, note FROM {T} WHERE note LIKE {_sql_str(p)} "
            f"AND amount > {f!r} ORDER BY id"
        ),
    ),
    "between-negative": (
        (floats, floats),
        lambda f, g: _sql(
            f"SELECT id FROM {T} WHERE amount BETWEEN -{abs(f)!r} AND {g!r} ORDER BY id"
        ),
    ),
    "projected-string": (
        (strs, strs),
        lambda s, u: _sql(
            f"SELECT id, {_sql_str(s)} AS tag FROM {T} WHERE note = {_sql_str(u)} ORDER BY id"
        ),
    ),
    "df-filter": (
        (floats,),
        lambda f: lambda c: c.table(T).filter(col("amount") > f).select("id", "amount").relation,
    ),
    "df-or": (
        (strs, ints),
        lambda s, i: lambda c: c.table(T)
        .filter((col("region") == s) | (col("id") < i))
        .select("id", "note")
        .relation,
    ),
    "df-join": (
        (ints,),
        lambda i: lambda c: c.table(T).alias("a")
        .join(c.table(R).alias("b"), (col("a.region") == col("b.region")) & (col("b.zone") > i))
        .select("a.id", "b.zone")
        .relation,
    ),
    "df-having": (
        (ints,),
        lambda i: lambda c: c.table(T).group_by("region").agg(count().alias("n"))
        .filter(col("n") > i % 3)
        .relation,
    ),
    "df-projected": (
        (floats, floats),
        lambda f, g: lambda c: c.table(T).filter(col("amount") > f)
        .select(col("id"), (col("amount") * g).alias("p"))
        .relation,
    ),
    "df-then-sql": (
        (floats, ints),
        lambda f, i: lambda c: c.table(T).filter(col("amount") > f).alias("a")
        .join(
            c.sql(f"SELECT region, zone FROM {R} WHERE zone > {i}").alias("b"),
            col("a.region") == col("b.region"),
        )
        .select("a.id", "b.zone")
        .relation,
    ),
    "sql-union": (
        (ints, floats),
        lambda i, f: lambda c: c.sql(f"SELECT id FROM {T} WHERE id < {i}")
        .union(c.sql(f"SELECT id FROM {T} WHERE amount > {f!r}"))
        .relation,
    ),
    "df-like-in-limit": (
        (patterns, strs, ints),
        lambda p, s, n: lambda c: c.table(T)
        .filter(col("note").like(p) | col("region").isin(s, "US"))
        .order_by("id")
        .limit(abs(n) % 6)
        .relation,
    ),
}


def _canonical(rows: list[tuple]) -> list[str]:
    return sorted(repr(row) for row in rows)


@st.composite
def shape_and_vectors(draw):
    name = draw(st.sampled_from(sorted(SHAPES)))
    strategies, _ = SHAPES[name]
    vectors = draw(
        st.lists(st.tuples(*strategies), min_size=2, max_size=4)
    )
    return name, vectors


class TestTemplateHitEqualsColdPlan:
    @given(case=shape_and_vectors())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_configuration_and_principal(self, configured, case):
        clusters, clients = configured
        name, vectors = case
        _, build = SHAPES[name]
        for (config, user), client in clients.items():
            for values in vectors:
                relation = build(*values)(client)
                warm = client.execute_relation(relation)
                got = list(zip(*warm[1])) if warm[1] else []
                want = cold_rows(clusters[(config, user)], user, relation)
                assert _canonical(got) == _canonical(want), (config, user, name, values)

    def test_cached_plans_hold_parameters_not_values(self, configured):
        clusters, clients = configured
        client = clients[("thread-fused", "alice")]
        client.sql(f"SELECT id FROM {T} WHERE amount > 1.5 AND region = 'US'").collect()
        plan = clusters[("thread-fused", "alice")].backend.last_result.optimized_plan
        values = {
            node.value
            for expr in plan_expressions(plan)
            for node in expr.walk()
            if isinstance(node, Literal)
        }
        assert 1.5 not in values and "US" not in values
