"""Tests for the Connect service, sessions, reattach, and the client."""

import pytest

from repro.catalog.privileges import UserContext
from repro.common.clock import VirtualClock
from repro.connect import proto
from repro.connect.channel import FaultInjector, InProcessChannel, LatencyModel
from repro.connect.client import SparkConnectClient, col, lit, sum_
from repro.connect.service import SparkConnectService
from repro.connect.sessions import SessionManager
from repro.errors import (
    OperationGoneError,
    SessionError,
    VersionIncompatibleError,
)


class EchoBackend:
    """Minimal backend: local relations execute, commands echo."""

    def authenticate(self, user):
        return UserContext(user=user)

    def execute_relation(self, session, relation):
        if relation["@type"] == "relation.local":
            return relation["schema"], [list(c) for c in relation["columns"]]
        if relation["@type"] == "relation.range":
            values = list(range(relation["start"], relation["end"], relation["step"]))
            return [{"name": "id", "type": "int"}], [values]
        raise AssertionError(f"echo backend cannot run {relation['@type']}")

    def execute_command(self, session, command):
        return {"echo": command.get("sql", "")}

    def analyze_relation(self, session, relation):
        schema, _ = self.execute_relation(session, relation)
        return schema

    def on_session_closed(self, session):
        self.closed_session = session.session_id


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def service(clock):
    return SparkConnectService(EchoBackend(), clock=clock)


@pytest.fixture
def channel(service, clock):
    return InProcessChannel(service, clock=clock)


class TestSessionLifecycle:
    def test_create_session(self, channel):
        client = SparkConnectClient(channel, user="alice")
        assert client.session_id.startswith("session-")
        assert client.server_version == proto.PROTOCOL_VERSION

    def test_session_is_user_private(self, service, channel):
        client = SparkConnectClient(channel, user="alice")
        with pytest.raises(SessionError):
            service.sessions.get_session(client.session_id, "bob")

    def test_close_session(self, channel, service):
        client = SparkConnectClient(channel, user="alice")
        sid = client.session_id
        client.close()
        with pytest.raises(SessionError):
            service.sessions.get_session(sid, "alice")

    def test_idle_eviction(self, clock):
        manager = SessionManager(clock=clock, session_ttl=10.0)
        session = manager.create_session(UserContext(user="alice"))
        clock.advance(11.0)
        expired = manager.expire_idle_sessions()
        assert session.session_id in expired

    def test_activity_refreshes_ttl(self, clock):
        manager = SessionManager(clock=clock, session_ttl=10.0)
        session = manager.create_session(UserContext(user="alice"))
        clock.advance(8.0)
        manager.get_session(session.session_id, "alice")
        clock.advance(8.0)
        assert manager.expire_idle_sessions() == []

    def test_config_roundtrip(self, channel):
        client = SparkConnectClient(channel, user="alice")
        client.set_config(workload_env="2.0")
        assert client.get_config("workload_env") == {"workload_env": "2.0"}

    def test_version_rejection(self, channel):
        with pytest.raises(VersionIncompatibleError):
            SparkConnectClient(channel, user="alice", client_version=99)

    def test_old_client_accepted(self, channel):
        client = SparkConnectClient(channel, user="alice", client_version=1)
        assert client.range(3).collect() == [(0,), (1,), (2,)]


class TestExecution:
    def test_collect_roundtrip(self, channel):
        client = SparkConnectClient(channel, user="alice")
        df = client.create_data_frame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        assert df.collect() == [(1, "x"), (2, "y"), (3, "z")]

    def test_result_batching(self, service, clock):
        service_small = SparkConnectService(
            EchoBackend(), clock=clock, result_batch_rows=10
        )
        channel = InProcessChannel(service_small, clock=clock)
        client = SparkConnectClient(channel, user="alice")
        rows = client.range(95).collect()
        assert len(rows) == 95
        # 1 schema + 10 batches + 1 complete were streamed.
        assert channel.stats.responses >= 12

    def test_command_result(self, channel):
        client = SparkConnectClient(channel, user="alice")
        payload = client.execute_command(proto.sql_command("GRANT X ON y TO z"))
        assert payload == {"echo": "GRANT X ON y TO z"}

    def test_analyze(self, channel):
        client = SparkConnectClient(channel, user="alice")
        schema = client.range(5).schema()
        assert schema == [{"name": "id", "type": "int"}]

    def test_empty_result(self, channel):
        client = SparkConnectClient(channel, user="alice")
        assert client.create_data_frame({"a": []}).collect() == []


class TestReattach:
    def test_client_survives_connection_drops(self, service, clock):
        """The load-balancer-cuts-the-stream scenario (§3.2.2)."""
        service = SparkConnectService(EchoBackend(), clock=clock, result_batch_rows=5)
        faults = FaultInjector(drop_stream_after=3, times=2)
        channel = InProcessChannel(service, clock=clock, faults=faults)
        client = SparkConnectClient(channel, user="alice")
        rows = client.range(40).collect()
        assert rows == [(i,) for i in range(40)]
        assert channel.stats.connections_dropped == 2

    def test_reattach_resumes_from_index(self, service, channel):
        client = SparkConnectClient(channel, user="alice")
        request = {
            "session_id": client.session_id,
            "user": "alice",
            "client_version": proto.PROTOCOL_VERSION,
            "plan": proto.range_relation(0, 3),
            "operation_id": "op-fixed",
        }
        items = list(channel.call_stream("execute_plan", request))
        # Re-fetch everything after the first item.
        again = list(
            channel.call_stream(
                "reattach_execute",
                {
                    "session_id": client.session_id,
                    "user": "alice",
                    "operation_id": "op-fixed",
                    "last_index": 0,
                },
            )
        )
        assert again == items[1:]

    def test_release_tombstones_operation(self, service, channel):
        client = SparkConnectClient(channel, user="alice")
        client.range(3).collect()  # collect() releases automatically
        # The operation is gone; reattach must say so, loudly.
        ops = list(service.sessions._tombstones)
        assert ops
        with pytest.raises(OperationGoneError):
            service.sessions.get_operation(ops[-1], client.session_id)

    def test_abandoned_operations_reaped(self, clock):
        manager = SessionManager(clock=clock, operation_abandon_after=30.0)
        session = manager.create_session(UserContext(user="alice"))
        op = manager.start_operation(session.session_id)
        clock.advance(31.0)
        reaped = manager.reap_abandoned_operations()
        assert op.operation_id in reaped
        with pytest.raises(OperationGoneError, match="abandoned"):
            manager.get_operation(op.operation_id, session.session_id)


class TestLatencyModel:
    def test_latency_charged_to_clock(self, service, clock):
        latency = LatencyModel(request_seconds=0.01, per_response_seconds=0.002)
        channel = InProcessChannel(service, clock=clock, latency=latency)
        before = clock.now()
        client = SparkConnectClient(channel, user="alice")
        client.range(5).collect()
        assert clock.now() > before

    def test_bytes_counted(self, channel):
        client = SparkConnectClient(channel, user="alice")
        client.range(100).collect()
        assert channel.stats.bytes_sent > 0
        assert channel.stats.bytes_received > channel.stats.bytes_sent


class TestDataFrameAPI:
    """Client-side plan building (no engine involved)."""

    def test_filter_string_becomes_sql_expr(self, channel):
        client = SparkConnectClient(channel, user="alice")
        df = client.range(5).filter("id > 2")
        assert df.relation["condition"]["@type"] == "expr.sql"

    def test_column_operators(self):
        expr = ((col("a") + 1) * 2 > lit(10)).expr
        assert expr["@type"] == "expr.binary"
        assert expr["op"] == ">"

    def test_groupby_agg_shape(self, channel):
        client = SparkConnectClient(channel, user="alice")
        df = client.range(5).group_by(col("id")).agg(sum_("id").alias("s"))
        assert df.relation["@type"] == "relation.aggregate"
        assert len(df.relation["aggregates"]) == 2  # key + aggregate

    def test_with_column(self, channel):
        client = SparkConnectClient(channel, user="alice")
        df = client.range(3).with_column("twice", col("id") * 2)
        exprs = df.relation["expressions"]
        assert exprs[0]["@type"] == "expr.star"
        assert exprs[1]["name"] == "twice"

    def test_isin_flattens(self):
        assert col("x").isin([1, 2, 3]).expr["values"] == [1, 2, 3]
        assert col("x").isin(1, 2).expr["values"] == [1, 2]

    def test_when_otherwise(self):
        from repro.connect.client import when

        expr = when(col("a") > 1, "big").otherwise("small").expr
        assert expr["@type"] == "expr.case"
        assert expr["otherwise"]["value"] == "small"


class TestErrorCodec:
    """Every typed error crosses the wire as its class plus a trace id — and
    nothing else (no row data can ride an error message)."""

    @staticmethod
    def _instance(cls):
        from repro.errors import AdmissionError, PermissionDenied, RetryableError

        if cls is PermissionDenied:
            return cls("alice", "SELECT", "main.s.t")
        if issubclass(cls, AdmissionError):
            return cls("busy", retry_after=1.5, reason="queue_full")
        if issubclass(cls, RetryableError):
            return cls("flaky", retry_after=0.25)
        return cls("nope")

    def test_every_error_class_round_trips_typed_with_its_trace_id(self):
        from repro.connect.service import (
            _ERROR_CLASSES,
            error_to_message,
            raise_from_message,
        )
        from repro.errors import PermissionDenied

        envelope = {"@type", "error_class", "message", "trace_id"}
        assert PermissionDenied not in _ERROR_CLASSES.values()
        for cls in [*_ERROR_CLASSES.values(), PermissionDenied]:
            original = self._instance(cls)
            original.trace_id = "trace-abc-1"
            message = error_to_message(original)
            wire = proto.decode_message(proto.encode_message(message))
            with pytest.raises(cls) as caught:
                raise_from_message(wire)
            received = caught.value
            assert type(received) is cls
            assert received.trace_id == "trace-abc-1"
            assert str(received) == str(original)
            allowed = set(envelope)
            if cls is PermissionDenied:
                allowed |= {"principal", "privilege", "securable"}
            for hint in ("retry_after", "reason"):
                if hasattr(original, hint):
                    allowed.add(hint)
                    assert getattr(received, hint) == getattr(original, hint)
            assert set(message) == allowed, cls.__name__

    def test_error_without_an_operation_carries_no_trace_id(self, channel):
        from repro.connect.service import raise_from_message

        response = channel.call("config", {"session_id": "nope", "user": "u"})
        assert "trace_id" not in response
        with pytest.raises(SessionError) as caught:
            raise_from_message(response)
        assert caught.value.trace_id is None

    def test_failed_operation_is_findable_by_the_errors_trace_id(
        self, standard_cluster, alice_client
    ):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError) as caught:
            alice_client.sql("SELECT no_such_column FROM main.sales.orders").collect()
        assert caught.value.trace_id == alice_client.last_trace_id
        profile = alice_client.table("system.access.query_profile").to_dict()
        failed = [
            status
            for trace, name, status in zip(
                profile["trace_id"], profile["name"], profile["status"]
            )
            if trace == caught.value.trace_id and name == "execute_plan"
        ]
        assert failed == ["error"]
