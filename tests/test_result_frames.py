"""Binary result frames: v5 sessions get column-chunked frames, older ones JSON.

Both encodings must give the client the same answer — over generated
governed tables (NULLs, -0.0, NaN, big ints, unicode, empty and multi-frame
results, duplicate output names), over every system table a viewer may
read, and across a dropped stream. A forged frame is a typed
:class:`~repro.errors.ProtocolError` on the client and never runs code.
"""

from __future__ import annotations

import json
import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.storage_tamper import Gadget
from repro.catalog.system_tables import TABLES
from repro.common.datacodec import decode_data_file, encode_data_file
from repro.common.faults import FaultInjector, FaultSpec
from repro.connect import proto
from repro.connect.channel import InProcessChannel
from repro.connect.client import SparkConnectClient
from repro.connect.service import RESULT_BATCH_ROWS, SparkConnectService
from repro.errors import PermissionDenied, ProtocolError
from repro.platform import Workspace

T = "main.s.t"
OLD, NEW = proto.RESULT_FRAME_VERSION - 1, proto.PROTOCOL_VERSION


@pytest.fixture(scope="module")
def governed():
    """A standard cluster over one row-filtered, masked table."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    cluster = ws.create_standard_cluster()
    admin = cluster.connect("admin")
    admin.sql(f"CREATE TABLE {T} (id int, x float, s string, b bool)")
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.s TO analysts")
    admin.sql(f"GRANT SELECT ON {T} TO analysts")
    admin.sql(f"ALTER TABLE {T} SET ROW FILTER (b IS NULL OR b = true)")
    admin.sql(
        f"ALTER TABLE {T} ALTER COLUMN s SET MASK "
        "(CASE WHEN is_account_group_member('hr') THEN s ELSE concat('~', s) END)"
    )
    yield ws, cluster
    ws.shutdown()


def _write(ws, rows):
    ws.catalog.write_table(
        T,
        {name: [r[i] for r in rows] for i, name in enumerate(("id", "x", "s", "b"))},
        ws.catalog.principals.context_for("admin"),
        overwrite=True,
    )


def _answers(cluster, queries, user="alice"):
    """Each query's rows, as ``repr`` (which tells NaN and -0.0 apart), per version."""
    clients = {v: cluster.connect(user, client_version=v) for v in (OLD, NEW)}
    return {v: [repr(c.sql(q).collect()) for q in queries] for v, c in clients.items()}


_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-(2**70), max_value=2**70)),
        st.one_of(st.none(), st.floats(), st.sampled_from([-0.0, 0.0])),
        st.one_of(st.none(), st.text(max_size=12)),
        st.one_of(st.none(), st.booleans()),
    ),
    max_size=40,
)

QUERIES = (
    f"SELECT * FROM {T}",
    f"SELECT id, id, s AS id FROM {T}",  # duplicate output names
    f"SELECT s, count(*) AS n FROM {T} GROUP BY s",
    f"SELECT id, x FROM {T} WHERE id > {2**71}",  # always empty
)


class TestVersionEquivalence:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=_rows)
    def test_v4_and_v5_answers_are_identical(self, governed, rows):
        ws, cluster = governed
        _write(ws, rows)
        answers = _answers(cluster, QUERIES)
        assert answers[OLD] == answers[NEW]
        assert answers[NEW][3] == "[]"

    def test_multi_frame_result(self, governed):
        ws, cluster = governed
        n = 2 * RESULT_BATCH_ROWS + 7
        _write(ws, [(i, i / 3, f"ü{i}", i % 3 != 0) for i in range(n)])
        client = cluster.connect("alice", client_version=NEW)
        before = client._channel.stats.responses
        rows = client.sql(f"SELECT id, s FROM {T}").collect()
        assert len(rows) == n - len(range(0, n, 3)) > RESULT_BATCH_ROWS
        frames = -(-len(rows) // RESULT_BATCH_ROWS)
        # schema + frames + completion + the release response
        assert client._channel.stats.responses - before == frames + 3 == 5
        answers = _answers(cluster, [f"SELECT id, x, s, b FROM {T}"])
        assert answers[OLD] == answers[NEW]

    def test_every_readable_system_table_is_identical(self, governed):
        """Each version reads the same server-side answer (a replaying
        backend runs each (user, plan) once), so any difference is the
        encoding's."""
        _, cluster = governed
        service = SparkConnectService(_Replay(cluster.backend))
        for user in ("alice", "admin"):
            clients = {
                v: SparkConnectClient(InProcessChannel(service), user, client_version=v)
                for v in (OLD, NEW)
            }
            for table in TABLES:
                outcomes = {}
                for version, client in clients.items():
                    try:
                        outcomes[version] = repr(client.table(table.name).collect())
                    except PermissionDenied as exc:
                        outcomes[version] = f"denied: {exc}"
                assert outcomes[OLD] == outcomes[NEW], (user, table.name)
                if user == "admin":
                    assert not outcomes[NEW].startswith("denied"), table.name


class _Replay:
    """A backend that answers each ``(user, plan)`` once and then replays it."""

    def __init__(self, backend):
        self._backend = backend
        self._answers = {}

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def execute_relation(self, session, relation):
        key = (session.user_ctx.user, json.dumps(relation, sort_keys=True))
        if key not in self._answers:
            self._answers[key] = self._backend.execute_relation(session, relation)
        return self._answers[key]


class TestReattach:
    def test_dropped_stream_mid_result_replays_the_frames(self, governed):
        ws, cluster = governed
        n = 3 * RESULT_BATCH_ROWS
        _write(ws, [(i, float(i), str(i), True) for i in range(n)])
        query = f"SELECT id, x, s FROM {T}"
        expected = cluster.connect("alice", client_version=NEW).sql(query).collect()
        chaos = FaultInjector(seed=7)
        # Items: schema, frame 0, frame 1, ... — drop after the first frame.
        chaos.arm("channel.stream", FaultSpec(kind="raise", one_shot=True, after_calls=2))
        client = cluster.connect("alice", faults=chaos)
        assert client.sql(query).collect() == expected
        assert client._channel.stats.connections_dropped == 1
        assert len(expected) == n


class _Forger:
    """Passes a service through, rewriting every result frame it streams."""

    def __init__(self, service, forge):
        self._service = service
        self._forge = forge

    def handle(self, method, request):
        return self._service.handle(method, request)

    def handle_stream(self, method, request):
        for item in self._service.handle_stream(method, request):
            if "data" in item:
                item = {**item, "data": self._forge(item["data"])}
            yield item


def _with_gadget(marker):
    def forge(data):
        columns = decode_data_file(data)
        first = next(iter(columns))
        columns[first] = [Gadget(marker)] * len(columns[first])
        return encode_data_file(columns)

    return forge


def _wrong_row_count(data):
    (rows,) = struct.unpack_from("<I", data, 4)
    return data[:4] + struct.pack("<I", rows + 1) + data[8:]


class TestForgedFrames:
    @pytest.mark.parametrize(
        "forge",
        [
            lambda data: b"XXXX" + data[4:],
            "gadget",
            _wrong_row_count,
            lambda data: encode_data_file({**decode_data_file(data), "9": [0] * 2}),
            lambda data: "not bytes",
        ],
        ids=["bad-magic", "global-naming-chunk", "wrong-row-count", "extra-column",
             "not-bytes"],
    )
    def test_forged_frame_is_a_protocol_error(self, governed, tmp_path, forge):
        ws, cluster = governed
        _write(ws, [(1, 1.0, "a", True), (2, 2.0, "b", True)])
        marker = str(tmp_path / "ran")
        if forge == "gadget":
            forge = _with_gadget(marker)
        client = SparkConnectClient(
            InProcessChannel(_Forger(cluster.service, forge)), "alice"
        )
        with pytest.raises(ProtocolError):
            client.sql(f"SELECT id, s FROM {T}").collect()
        assert not os.path.exists(marker)

    def test_old_clients_never_see_frames(self, governed):
        _, cluster = governed
        seen = []
        client = SparkConnectClient(
            InProcessChannel(_Forger(cluster.service, lambda d: seen.append(d) or d)),
            "alice", client_version=OLD,
        )
        client.sql(f"SELECT id FROM {T}").collect()
        assert seen == []
