"""Failure injection: crashed sandboxes, dying workers, broken payloads.

Resilience behaviours the architecture promises:
- a sandbox crash is contained — the engine survives, the user gets a
  typed error, the next query gets a fresh sandbox (client/server
  decoupling, §3.2);
- transient storage faults and credential expiry mid-query are absorbed by
  the scan-task recovery layer (bounded retries + re-vend);
- transport faults during command execution recover via reattach;
- malformed or hostile wire input yields protocol errors, never crashes.

Sandbox deaths are manufactured through the chaos engine
(:class:`repro.common.faults.FaultInjector`): a triggered ``sandbox.invoke``
fault kills the worker process (or marks the in-process sandbox dead)
*before* the request is delivered — the same observable as a SIGKILL from
the outside, but seeded and replayable.
"""

import os
import pickle
import struct
from pathlib import Path

import pytest

from repro.common.faults import FaultInjector, FaultSpec
from repro.connect import proto
from repro.connect.client import col, udf
from repro.engine.udf import udf as engine_udf
from repro.errors import (
    LakeguardError,
    ProtocolError,
    SandboxDied,
    SandboxError,
    TransientCredentialError,
    UserCodeError,
)
from repro.platform import Workspace
from repro.sandbox.cluster_manager import ClusterManager
from repro.sandbox.dispatcher import Dispatcher, SandboxedUDFRuntime
from repro.sandbox.subprocess_sandbox import MAX_FRAME_BYTES, SubprocessSandbox


@engine_udf("int")
def plus(a, b):
    return a + b


ALICE_PLUS = plus.with_owner("alice")


def _frame(message) -> bytes:
    body = pickle.dumps(message)
    return struct.pack(">I", len(body)) + body


#: A frame that announces 64 bytes and delivers two.
_TRUNCATED_FRAME = struct.pack(">I", 64) + b"\x80\x05"


def one_shot_death() -> FaultInjector:
    """An injector whose next ``sandbox.invoke`` kills the worker."""
    faults = FaultInjector()
    faults.arm("sandbox.invoke", FaultSpec(one_shot=True))
    return faults


class TestSandboxCrash:
    def test_killed_worker_raises_sandbox_error(self):
        sandbox = SubprocessSandbox("alice")
        sandbox.invoke(ALICE_PLUS, [[1], [2]])
        sandbox.faults = one_shot_death()
        with pytest.raises(SandboxError, match="died|closed"):
            sandbox.invoke(ALICE_PLUS, [[1], [2]])
        # The injected death is physical: the worker process is gone.
        assert sandbox.closed

    def test_injected_death_is_pre_delivery(self):
        """An invoke-point death never delivered the request (safe retry)."""
        sandbox = SubprocessSandbox("alice")
        sandbox.invoke(ALICE_PLUS, [[1], [2]])
        sandbox.faults = one_shot_death()
        with pytest.raises(SandboxDied) as excinfo:
            sandbox.invoke(ALICE_PLUS, [[1], [2]])
        assert excinfo.value.delivered is False

    def test_dispatcher_replaces_crashed_sandbox(self):
        faults = FaultInjector()
        manager = ClusterManager(faults=faults)
        dispatcher = Dispatcher(manager)
        first = dispatcher.acquire("s", "alice")
        first.invoke(ALICE_PLUS, [[1], [2]])
        faults.arm("sandbox.invoke", FaultSpec(one_shot=True))
        with pytest.raises(SandboxError):
            first.invoke(ALICE_PLUS, [[1], [2]])
        second = dispatcher.acquire("s", "alice")
        assert second is not first
        assert second.invoke(ALICE_PLUS, [[2], [3]]) == [5]
        manager.shutdown()

    def test_oom_style_crash_inside_udf_is_contained(self):
        """A UDF that kills its own process must not take the engine down."""

        @engine_udf("int")
        def suicide(x):
            os._exit(17)

        sandbox = SubprocessSandbox("alice")
        try:
            with pytest.raises(SandboxError):
                sandbox.invoke(suicide.with_owner("alice"), [[1]])
        finally:
            sandbox.close()

    def test_runtime_surfaces_crash_as_error_not_hang(self):
        manager = ClusterManager()
        dispatcher = Dispatcher(manager)
        runtime = SandboxedUDFRuntime(dispatcher, "s")

        @engine_udf("int")
        def die(x):
            os._exit(3)

        with pytest.raises(SandboxError):
            runtime.run_udf(die.with_owner("alice"), [[1]])
        manager.shutdown()


def live_child_pids() -> list[int]:
    """Direct children of this process that still exist (Linux ``/proc``)."""
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


class TestSandboxBoundaryAbuse:
    """The worker's stdout belongs to user code; the driver must not trust it."""

    def test_forged_worker_frame_never_executes_in_the_driver(self, tmp_path):
        """Regression: the driver ``pickle.loads``-ed whatever fd 1 produced.

        A UDF can write to the worker's stdout directly, ahead of the real
        reply. A forged ``("ok", obj)`` frame whose ``obj.__reduce__`` names a
        callable used to run that callable in the driver process.
        """
        marker = str(tmp_path / "created-by-the-driver")

        def forge(amount):
            import os
            import pickle
            import struct

            class Payload:
                def __reduce__(self):
                    return (open, (marker, "w"))

            body = pickle.dumps(("ok", Payload()))
            os.write(1, struct.pack(">I", len(body)) + body)
            return amount

        def honest(amount):
            return amount + 1.0

        ws = Workspace()
        try:
            ws.add_user("admin", admin=True)
            ws.catalog.create_catalog("main", owner="admin")
            ws.catalog.create_schema("main.s", owner="admin")
            cluster = ws.create_standard_cluster()
            client = cluster.connect("admin")
            client.sql("CREATE TABLE main.s.t (id int, amount float)")
            client.sql("INSERT INTO main.s.t VALUES (1, 2.0), (2, 4.0)")
            dispatcher = cluster.backend.dispatcher
            table = client.table("main.s.t")

            with pytest.raises(SandboxDied) as caught:
                table.select(udf("float")(forge)(col("amount"))).collect()

            assert not os.path.exists(marker)
            assert caught.value.trace_id == client.last_trace_id
            # The request had been delivered: never replayed on a new worker.
            assert dispatcher.stats.udf_retries == 0
            assert dispatcher.sandboxes_of(client.session_id) == []
            assert cluster.backend.cluster_manager.active_sandboxes() == []
            # The session is fine; its next UDF query gets a fresh sandbox.
            rows = table.select(udf("float")(honest)(col("amount"))).collect()
            assert rows == [(3.0,), (5.0,)]
            assert dispatcher.stats.cold_starts == 2
        finally:
            ws.shutdown()

    @pytest.mark.parametrize(
        "frame",
        [
            struct.pack(">I", MAX_FRAME_BYTES + 1),
            struct.pack(">I", 3) + pickle.dumps("ok")[:3],  # truncated pickle
            _TRUNCATED_FRAME,
            _frame(["ok", 1]),  # a list, not a pair
            _frame(("ok", 1, 2)),
            _frame(("fine", 1)),
            _frame(("ok", FaultSpec())),  # names a global
        ],
        ids=["oversized", "bad-pickle", "short", "list", "triple", "status", "global"],
    )
    def test_untrusted_frame_kills_the_worker(self, frame):
        @engine_udf("int")
        def emit(x):
            os.write(1, frame)
            if frame == _TRUNCATED_FRAME:
                os._exit(0)  # the driver is still reading: give it EOF
            return x

        sandbox = SubprocessSandbox("alice")
        with pytest.raises(SandboxDied) as caught:
            sandbox.invoke(emit.with_owner("alice"), [[1]])
        assert caught.value.delivered is True
        assert sandbox.closed

    def test_close_survives_a_udf_that_left_a_thread_running(self):
        """Regression: ``close()`` raised TimeoutExpired and leaked the worker.

        A non-daemon thread keeps the interpreter alive after the worker
        loop has answered ``shutdown``.
        """

        @engine_udf("int")
        def linger(x):
            import threading
            import time

            threading.Thread(target=time.sleep, args=(60,)).start()
            return x

        manager = ClusterManager()
        sandbox = manager.create_sandbox("alice")
        pid = sandbox._process.pid  # noqa: SLF001
        assert sandbox.invoke(linger.with_owner("alice"), [[1]]) == [1]
        assert pid in live_child_pids()
        manager.destroy_sandbox(sandbox)  # must not raise
        assert sandbox.closed
        assert pid not in live_child_pids()
        assert manager.active_sandboxes() == []


class TestUserCodeFaults:
    def test_exception_in_udf_is_typed(self, workspace, standard_cluster, admin_client):
        @udf("float")
        def broken(x):
            return 1 / 0

        alice = standard_cluster.connect("alice")
        with pytest.raises(UserCodeError, match="ZeroDivisionError"):
            alice.table("main.sales.orders").select(broken(col("amount"))).collect()

    def test_cluster_survives_udf_failure(self, workspace, standard_cluster, admin_client):
        @udf("float")
        def broken(x):
            raise RuntimeError("boom")

        alice = standard_cluster.connect("alice")
        with pytest.raises(UserCodeError):
            alice.table("main.sales.orders").select(broken(col("amount"))).collect()
        # Subsequent, healthy queries on the same session still work.
        assert len(alice.table("main.sales.orders").collect()) == 4

    def test_wrong_cardinality_udf_rejected(self):
        """A hostile UDF runtime returning wrong-length columns is caught."""
        from repro.engine.analyzer import DictResolver
        from repro.engine.executor import QueryEngine
        from repro.engine.expressions import UDFRuntime, col as ecol
        from repro.engine.logical import LocalRelation, Project, UnresolvedRelation
        from repro.engine.types import INT, Field, Schema
        from repro.errors import ExecutionError

        class LyingRuntime(UDFRuntime):
            def run_udf(self, udf_obj, args):
                return [1]  # always one row, whatever was asked

        data = LocalRelation(Schema((Field("a", INT),)), [[1, 2, 3]])
        engine = QueryEngine(DictResolver({"t": data}))
        plan = Project(UnresolvedRelation("t"), [ALICE_PLUS(ecol("a"), ecol("a"))])
        with pytest.raises(ExecutionError, match="returned 1 values"):
            engine.execute(plan, udf_runtime=LyingRuntime())


class TestHostileWireInput:
    def test_unknown_relation_type(self, standard_cluster, admin_client):
        client = standard_cluster.connect("alice")
        with pytest.raises(ProtocolError):
            client.execute_relation({"@type": "relation.evil"})

    def test_missing_type_discriminator(self, standard_cluster, admin_client):
        client = standard_cluster.connect("alice")
        with pytest.raises(LakeguardError):
            client.execute_relation({"table": "main.sales.orders"})

    def test_recursive_temp_view_bounded(self, standard_cluster, admin_client):
        client = standard_cluster.connect("alice")
        client.execute_command(
            proto.create_temp_view_command("loop", proto.read_table("loop"))
        )
        with pytest.raises(LakeguardError, match="depth"):
            client.table("loop").collect()

    def test_udf_blob_is_not_evaluated_at_decode_time(self, standard_cluster, admin_client):
        """A garbage cloudpickle blob fails cleanly at decode."""
        client = standard_cluster.connect("alice")
        relation = proto.project(
            proto.read_table("main.sales.orders"),
            [
                proto.python_udf(
                    "evil", "int", b"not a pickle", [proto.column("id")]
                )
            ],
        )
        with pytest.raises(LakeguardError):
            client.execute_relation(relation)


class TestTransportFaultsDuringCommands:
    def test_command_survives_stream_drop(self, workspace, standard_cluster, admin_client):
        from repro.connect.channel import FaultInjector

        faulty = standard_cluster.connect(
            "admin", faults=FaultInjector(drop_stream_after=0, times=1)
        )
        result = faulty.sql("GRANT SELECT ON main.sales.orders TO bob")
        assert result["status"] == "ok"

    def test_chaos_engine_stream_drop_reattaches(
        self, workspace, standard_cluster, admin_client
    ):
        """The channel also accepts the systemwide chaos engine."""
        chaos = FaultInjector()
        chaos.arm("channel.stream", FaultSpec(one_shot=True))
        client = standard_cluster.connect("alice", faults=chaos)
        rows = client.table("main.sales.orders").collect()
        assert len(rows) == 4
        assert chaos.trigger_count("channel.stream") == 1
        assert client._channel.stats.connections_dropped == 1


class TestCredentialExpiryMidQuery:
    def test_revend_recovers_query(self, workspace, admin_client, standard_cluster):
        """A credential rejected mid-scan is re-vended once and the scan
        completes; the recovery shows up in the fault-stats counters."""
        faults = workspace.catalog.faults
        alice = standard_cluster.connect("alice")
        # Counting pass: a probability-0 schedule never triggers but counts
        # every storage.get, telling us how many GETs one run of the query
        # makes. The *last* GET of a scan is always a data-file read (the
        # txn log resolves first), so targeting it lands the fault inside
        # the per-task recovery path rather than the log-read retry.
        faults.arm("storage.get", FaultSpec(probability=0.0))
        expected = alice.table("main.sales.orders").collect()
        per_query = faults.call_count("storage.get")
        assert per_query > 0
        faults.disarm("storage.get")  # checkpoint the call counter
        faults.arm(
            "storage.get",
            FaultSpec(
                kind="raise",
                error=lambda: TransientCredentialError(
                    "storage credential expired mid-query"
                ),
                after_calls=2 * per_query - 1,
                one_shot=True,
            ),
        )
        try:
            rows = alice.table("main.sales.orders").collect()
        finally:
            faults.disarm("storage.get")
        assert rows == expected
        assert faults.trigger_count("storage.get") == 1
        recovery = standard_cluster.backend.data_source.recovery_stats
        assert recovery.credential_revends == 1
        stats = faults.stats_snapshot()
        assert stats["recovered.credential.revend"] == 1.0

    def test_expiry_without_retries_fails(self, workspace, admin_client):
        """Ablation: with scan retries disabled the same fault is fatal."""
        from repro.errors import CredentialError

        cluster = workspace.create_standard_cluster(
            name="no-retries", scan_retries=0
        )
        faults = workspace.catalog.faults
        alice = cluster.connect("alice")
        faults.arm("storage.get", FaultSpec(probability=0.0))
        alice.table("main.sales.orders").collect()
        per_query = faults.call_count("storage.get")
        faults.disarm("storage.get")  # checkpoint the call counter
        faults.arm(
            "storage.get",
            FaultSpec(
                kind="raise",
                error=lambda: TransientCredentialError("expired"),
                after_calls=2 * per_query - 1,
                one_shot=True,
            ),
        )
        try:
            with pytest.raises(CredentialError):
                alice.table("main.sales.orders").collect()
        finally:
            faults.disarm("storage.get")


class TestStorageFlakeDuringParallelScan:
    def test_parallel_scan_absorbs_seeded_flakes(self, workspace, admin_client):
        """A multi-file scan on 4 executors under a periodic storage fault
        returns exactly the fault-free result, with retries recorded."""
        cluster = workspace.create_standard_cluster(
            name="flaky-scan", num_executors=4, scan_retries=5
        )
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE main.sales.flaky (id int, v float)")
        for i in range(8):  # eight commits -> eight data files
            admin.sql(f"INSERT INTO main.sales.flaky VALUES ({i}, {float(i)})")
        admin.sql("GRANT SELECT ON main.sales.flaky TO analysts")
        alice = cluster.connect("alice")
        faults = workspace.catalog.faults
        # Counting pass (see TestCredentialExpiryMidQuery): learn how many
        # GETs one run makes. The last 8 of them are the data-file reads.
        faults.arm("storage.get", FaultSpec(probability=0.0))
        expected = sorted(alice.sql("SELECT id, v FROM main.sales.flaky").collect())
        per_query = faults.call_count("storage.get")
        faults.disarm("storage.get")  # checkpoint the call counter
        assert len(expected) == 8

        # Fault every 3rd GET once the second run reaches its data-file
        # region; three triggers max, so even if every one hits the same
        # file the five per-file retries cannot be exhausted — the scan
        # must recover, and every trigger exercises scan-task recovery
        # (log reads stay clean by construction).
        faults.arm(
            "storage.get",
            FaultSpec(
                kind="raise",
                after_calls=2 * per_query - 8,
                every_nth=3,
                max_triggers=3,
            ),
        )
        try:
            rows = sorted(alice.sql("SELECT id, v FROM main.sales.flaky").collect())
        finally:
            faults.disarm("storage.get")
        assert rows == expected
        assert faults.trigger_count("storage.get") > 0
        recovery = cluster.backend.data_source.recovery_stats
        assert recovery.scan_retries > 0
        assert cluster.backend.data_source.stats.parallel_scans >= 1
