"""Tests for LIKE / BETWEEN and related surface added to the SQL subset."""

import pytest

from repro.engine.analyzer import DictResolver
from repro.engine.executor import QueryEngine
from repro.engine.logical import LocalRelation
from repro.engine.types import FLOAT, INT, STRING, Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.to_plan import PlanBuilder
from repro.errors import ParseError

SCHEMA = Schema((Field("id", INT), Field("name", STRING), Field("v", FLOAT)))
DATA = LocalRelation(
    SCHEMA,
    [
        [1, 2, 3, 4],
        ["alice", "albert", "bob", None],
        [1.0, 2.0, 3.0, 4.0],
    ],
)


@pytest.fixture
def engine():
    return QueryEngine(DictResolver({"t": DATA}))


def run(engine, sql):
    return engine.execute(PlanBuilder().build(parse_statement(sql))).rows()


class TestLike:
    def test_prefix(self, engine):
        assert run(engine, "SELECT id FROM t WHERE name LIKE 'al%'") == [(1,), (2,)]

    def test_suffix(self, engine):
        assert run(engine, "SELECT id FROM t WHERE name LIKE '%ce'") == [(1,)]

    def test_underscore(self, engine):
        assert run(engine, "SELECT id FROM t WHERE name LIKE 'b_b'") == [(3,)]

    def test_not_like(self, engine):
        assert run(engine, "SELECT id FROM t WHERE name NOT LIKE 'al%'") == [(3,)]

    def test_null_never_matches(self, engine):
        rows = run(engine, "SELECT id FROM t WHERE name LIKE '%'")
        assert (4,) not in rows

    def test_regex_metacharacters_escaped(self, engine):
        data = LocalRelation(
            Schema((Field("s", STRING),)), [["a.b", "axb"]]
        )
        e = QueryEngine(DictResolver({"u": data}))
        rows = run(e, "SELECT s FROM u WHERE s LIKE 'a.b'")
        assert rows == [("a.b",)]  # the dot is literal, not regex-any

    def test_pattern_must_be_literal(self, engine):
        with pytest.raises(ParseError):
            run(engine, "SELECT id FROM t WHERE name LIKE name")

    def test_like_in_row_filter_policy(self, workspace, standard_cluster, admin_client):
        admin_client.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER (region LIKE 'U%')"
        )
        alice = standard_cluster.connect("alice")
        assert len(alice.table("main.sales.orders").collect()) == 2

    def test_like_pushed_through_efgac(self, workspace, standard_cluster, admin_client):
        admin_client.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')"
        )
        ded = workspace.create_dedicated_cluster(assigned_user="alice", name="lk")
        alice = ded.connect("alice")
        rows = alice.sql(
            "SELECT id FROM main.sales.orders WHERE buyer LIKE 'p%'"
        ).collect()
        assert sorted(rows) == [(1,), (3,)]
        from repro.engine.logical import RemoteScan

        scans = [
            n for n in ded.backend.last_result.optimized_plan.walk()
            if isinstance(n, RemoteScan)
        ]
        assert scans[0].pushed.get("filters", 0) >= 1

    def test_client_column_like(self, workspace, standard_cluster, admin_client):
        from repro.connect.client import col

        alice = standard_cluster.connect("alice")
        rows = alice.table("main.sales.orders").filter(
            col("region").like("E%")
        ).collect()
        assert [r[0] for r in rows] == [2]


class TestBetween:
    def test_between_inclusive(self, engine):
        rows = run(engine, "SELECT id FROM t WHERE v BETWEEN 2.0 AND 3.0")
        assert rows == [(2,), (3,)]

    def test_not_between(self, engine):
        rows = run(engine, "SELECT id FROM t WHERE v NOT BETWEEN 2.0 AND 3.0")
        assert rows == [(1,), (4,)]

    def test_between_expressions(self, engine):
        rows = run(engine, "SELECT id FROM t WHERE v BETWEEN 1.0 + 0.5 AND 10.0 / 3")
        assert rows == [(2,), (3,)]


class TestNonPythonUDFs:
    def test_scala_udf_representable_but_not_executable(self):
        from repro.engine.expressions import UDFRuntime
        from repro.engine.types import INT as INT_TYPE
        from repro.engine.udf import PythonUDF
        from repro.errors import UnsupportedOperationError

        scala_udf = PythonUDF(
            "jvmThing", b"<jvm bytecode>", INT_TYPE, owner="admin", language="scala"
        )
        with pytest.raises(UnsupportedOperationError, match="scala"):
            UDFRuntime().run_udf(scala_udf, [[1]])

    def test_scala_udf_catalogable(self, workspace):
        from repro.engine.types import INT as INT_TYPE
        from repro.engine.udf import PythonUDF

        scala_udf = PythonUDF(
            "jvmThing", b"<jvm bytecode>", INT_TYPE, owner="admin", language="scala"
        )
        workspace.catalog.create_schema("main.fns", owner="admin")
        fn = workspace.catalog.create_function(
            "main.fns.jvm_thing", scala_udf, owner="admin"
        )
        assert fn.udf.language == "scala"


class TestServiceHousekeeping:
    def test_housekeeping_evicts_and_reaps(self):
        from repro.catalog.privileges import UserContext
        from repro.common.clock import VirtualClock
        from repro.connect.service import SparkConnectService
        from repro.connect.sessions import SessionManager

        class NullBackend:
            def authenticate(self, user):
                return UserContext(user=user)

            def on_session_closed(self, session):
                pass

            def execute_relation(self, session, relation):
                raise AssertionError

            def execute_command(self, session, command):
                raise AssertionError

            def analyze_relation(self, session, relation):
                raise AssertionError

        clock = VirtualClock()
        service = SparkConnectService(
            NullBackend(),
            clock=clock,
            sessions=SessionManager(
                clock=clock, session_ttl=100.0, operation_abandon_after=50.0
            ),
        )
        session = service.sessions.create_session(UserContext(user="alice"))
        op = service.sessions.start_operation(session.session_id)
        clock.advance(60.0)
        report = service.housekeeping()
        assert report["abandoned_operations"] == [op.operation_id]
        assert report["expired_sessions"] == []
        clock.advance(60.0)
        report = service.housekeeping()
        assert report["expired_sessions"] == [session.session_id]
