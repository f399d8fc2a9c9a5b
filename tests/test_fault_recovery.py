"""The chaos engine and every recovery layer it exercises.

Covers, in one place:

- :class:`~repro.common.faults.FaultInjector` schedule semantics (one-shot,
  strides, seeded probability, corruption, counters surviving disarm);
- deadline-aware retry (`retry_with_backoff` refuses to sleep past an
  ambient query deadline);
- dispatcher self-healing: dead pooled/spare sandboxes evicted on acquire
  and by liveness probes, spares respawned, housekeeping integration;
- at-most-once UDF replay: only a pre-delivery sandbox death is retried,
  and exactly once;
- client reattach after an injected mid-stream connection drop, rejoining
  the original trace;
- the serverless outage switch as a fault point behind the circuit breaker;
- the admin-only ``system.access.fault_stats`` table;
- a seed-sweep property: a chaos run returns exactly the fault-free
  results, and user code executes at most once per delivered invoke.
"""

import time
from contextlib import contextmanager

import pytest

from repro.common.clock import VirtualClock
from repro.common.context import QueryContext, QueryDeadlineExceeded
from repro.common.faults import FaultInjector, FaultSpec
from repro.engine.udf import udf as engine_udf
from repro.errors import (
    CircuitOpenError,
    ClusterError,
    FaultInjectedError,
    PermissionDenied,
    RetryableError,
    SandboxDied,
)
from repro.platform import Workspace
from repro.sandbox import net
from repro.sandbox.cluster_manager import ClusterManager
from repro.sandbox.dispatcher import Dispatcher, SandboxedUDFRuntime
from repro.sandbox.policy import SandboxPolicy
from repro.scheduler.circuit_breaker import retry_with_backoff

#: A driver-side service user code reports each row it ran to: the egress
#: broker is the one way a side effect leaves the sandbox worker.
COUNTER_HOST = "counter.example"
COUNTER_POLICY = SandboxPolicy().with_egress(COUNTER_HOST)


@contextmanager
def _counted_rows():
    """The rows user code ran, as the worker reports them."""
    rows: list = []
    net.register_service(COUNTER_HOST, lambda path, row: rows.append(row))
    try:
        yield rows
    finally:
        net.unregister_service(COUNTER_HOST)


class _RecordingClock:
    """Duck-typed clock that records sleeps instead of taking them."""

    def __init__(self):
        self.slept: list[float] = []

    def now(self) -> float:
        return 0.0

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)


class TestFaultInjectorSchedules:
    def test_unarmed_point_passes(self):
        faults = FaultInjector()
        decision = faults.check("storage.get")
        assert not decision.triggered
        faults.fire("storage.get")  # must not raise
        assert faults.call_count("storage.get") == 0  # unarmed: not counted

    def test_one_shot_fires_once_and_keeps_history(self):
        faults = FaultInjector()
        faults.arm("storage.get", FaultSpec(one_shot=True))
        with pytest.raises(FaultInjectedError):
            faults.fire("storage.get")
        assert not faults.armed("storage.get")
        faults.fire("storage.get")  # disarmed: passes
        assert faults.trigger_count("storage.get") == 1
        assert faults.call_count("storage.get") == 1

    def test_injected_error_is_retryable_by_default(self):
        faults = FaultInjector()
        faults.arm("storage.get")
        with pytest.raises(RetryableError):
            faults.fire("storage.get")

    def test_custom_error_factory(self):
        faults = FaultInjector()
        faults.arm("x", FaultSpec(error=lambda: ValueError("custom")))
        with pytest.raises(ValueError, match="custom"):
            faults.fire("x")

    def test_every_nth_with_after_calls(self):
        faults = FaultInjector()
        faults.arm("p", FaultSpec(every_nth=3, after_calls=2))
        fired = [faults.check("p").triggered for _ in range(12)]
        # Eligible once past call 2, then every 3rd call: 5, 8, 11.
        assert [i + 1 for i, hit in enumerate(fired) if hit] == [5, 8, 11]

    def test_max_triggers_disarms(self):
        faults = FaultInjector()
        faults.arm("p", FaultSpec(max_triggers=2))
        hits = sum(faults.check("p").triggered for _ in range(10))
        assert hits == 2
        assert not faults.armed("p")

    def test_probability_schedule_is_seed_deterministic(self):
        def pattern(seed: int) -> list[bool]:
            faults = FaultInjector(seed=seed)
            faults.arm("p", FaultSpec(probability=0.3))
            return [faults.check("p").triggered for _ in range(200)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)
        assert 0 < sum(pattern(7)) < 200

    def test_per_point_rngs_are_independent(self):
        """Arming a second point must not perturb the first's schedule."""

        def pattern_of_a(arm_b: bool) -> list[bool]:
            faults = FaultInjector(seed=42)
            faults.arm("a", FaultSpec(probability=0.5))
            if arm_b:
                faults.arm("b", FaultSpec(probability=0.5))
            out = []
            for _ in range(100):
                out.append(faults.check("a").triggered)
                if arm_b:
                    faults.check("b")
            return out

        assert pattern_of_a(arm_b=False) == pattern_of_a(arm_b=True)

    def test_corrupt_decision_applies_to_payload(self):
        faults = FaultInjector()
        faults.arm(
            "p",
            FaultSpec(kind="corrupt", corruptor=lambda b: b[::-1], one_shot=True),
        )
        decision = faults.fire("p")  # corrupt faults never raise
        assert decision.triggered
        assert decision.apply(b"abc") == b"cba"
        assert faults.fire("p").apply(b"abc") == b"abc"  # pass-through after

    def test_default_corruptor_mangles_bytes(self):
        faults = FaultInjector()
        faults.arm("p", FaultSpec(kind="corrupt"))
        assert faults.fire("p").apply(b"\x00" * 8) != b"\x00" * 8

    def test_hang_fault_sleeps_on_the_injector_clock(self):
        clock = _RecordingClock()
        faults = FaultInjector(clock=clock)
        faults.arm("p", FaultSpec(kind="hang", hang_seconds=5.0))
        assert faults.check("p").triggered
        assert clock.slept == [5.0]

    def test_only_in_query_gates_on_ambient_context(self):
        faults = FaultInjector()
        faults.arm("p", FaultSpec(only_in_query=True))
        assert not faults.check("p").triggered  # no ambient context
        ctx = QueryContext.create(user="alice")
        with ctx.activate():
            assert faults.check("p").triggered

    def test_counters_survive_disarm_and_rearm(self):
        faults = FaultInjector()
        faults.arm("p")
        faults.check("p")
        faults.disarm("p")
        faults.arm("p", FaultSpec(probability=0.0))
        faults.check("p")
        assert faults.call_count("p") == 2
        assert faults.trigger_count("p") == 1

    def test_stats_snapshot_flattens_points_and_recoveries(self):
        faults = FaultInjector()
        faults.arm("storage.get", FaultSpec(one_shot=True))
        with pytest.raises(FaultInjectedError):
            faults.fire("storage.get")
        faults.record_recovery("scan.task_retry")
        stats = faults.stats_snapshot()
        assert stats["storage.get.calls"] == 1.0
        assert stats["storage.get.triggered"] == 1.0
        assert stats["recovered.scan.task_retry"] == 1.0
        assert stats["armed_points"] == 0.0

    def test_env_arming(self):
        faults = FaultInjector()
        armed = faults.arm_from_env(
            {"LAKEGUARD_CHAOS_RATE": "0.01", "LAKEGUARD_CHAOS_SEED": "1337"}
        )
        assert armed
        assert faults.seed == 1337
        assert faults.armed("storage.get") and faults.armed("sandbox.invoke")
        assert not FaultInjector().arm_from_env({})


class TestDeadlineAwareRetry:
    def test_backoff_never_sleeps_past_the_deadline(self):
        """A retry whose backoff would cross the ambient deadline raises
        QueryDeadlineExceeded immediately instead of burning the budget."""
        attempts = []

        def flaky():
            attempts.append(1)
            raise RetryableError("transient", retry_after=30.0)

        ctx = QueryContext.create(user="alice", deadline_seconds=0.05)
        started = time.monotonic()
        with ctx.activate():
            with pytest.raises(QueryDeadlineExceeded) as excinfo:
                retry_with_backoff(flaky, retries=5, base_delay=10.0)
        assert time.monotonic() - started < 2.0
        assert len(attempts) == 1  # failed once, then refused to wait
        assert isinstance(excinfo.value.__cause__, RetryableError)


@engine_udf("int")
def plus(a, b):
    return a + b


ALICE_PLUS = plus.with_owner("alice")


class TestDispatcherSelfHealing:
    def test_acquire_skips_dead_spares_and_refills(self):
        manager = ClusterManager()
        dispatcher = Dispatcher(manager, min_pool_size=2)
        assert dispatcher.spare_pool_size() == 2
        for _, spare in dispatcher._spares:
            spare.close()  # both spares die while parked
        sandbox = dispatcher.acquire("s", "alice")
        assert not sandbox.closed
        assert sandbox.invoke(ALICE_PLUS, [[1], [2]]) == [3]
        assert dispatcher.stats.spares_evicted == 2
        # The claim path noticed the deaths and respawned the spare pool.
        assert dispatcher.spare_pool_size() == 2
        manager.shutdown()

    def test_acquire_evicts_dead_pooled_sandbox(self):
        manager = ClusterManager()
        dispatcher = Dispatcher(manager)
        first = dispatcher.acquire("s", "alice")
        first.close()  # dies between queries
        second = dispatcher.acquire("s", "alice")
        assert second is not first and not second.closed
        assert dispatcher.stats.dead_evicted == 1
        manager.shutdown()

    def test_probe_liveness_sweeps_pool_and_spares(self):
        manager = ClusterManager()
        dispatcher = Dispatcher(manager, min_pool_size=1)
        pooled = dispatcher.acquire("s", "alice")  # claims the one spare
        dispatcher.ensure_min_pool()  # park a fresh spare again
        pooled.close()
        dispatcher._spares[0][1].close()
        report = dispatcher.probe_liveness()
        assert report == {
            "dead_pooled_evicted": 1,
            "dead_spares_evicted": 1,
            "spares_respawned": 1,
        }
        assert dispatcher.pool_size() == 0
        assert dispatcher.spare_pool_size() == 1
        assert dispatcher.stats.liveness_probes == 1
        manager.shutdown()

    def test_housekeeping_runs_liveness_probe(
        self, workspace, standard_cluster, admin_client
    ):
        from repro.connect.client import col, udf

        @udf("float")
        def ident(x):
            return x

        alice = standard_cluster.connect("alice")
        alice.table("main.sales.orders").select(ident(col("amount"))).collect()
        dispatcher = standard_cluster.backend.dispatcher
        for sandbox in dispatcher.sandboxes_of(alice.session_id):
            sandbox.close()
        report = standard_cluster.service.housekeeping()["sandbox_liveness"]
        assert report["dead_pooled_evicted"] == 1
        # The next query heals transparently on a fresh sandbox.
        rows = alice.table("main.sales.orders").select(ident(col("amount"))).collect()
        assert len(rows) == 4


class TestAtMostOnceUdfReplay:
    def _runtime(self, faults=None):
        manager = ClusterManager(faults=faults, default_policy=COUNTER_POLICY)
        dispatcher = Dispatcher(manager)
        return manager, dispatcher, SandboxedUDFRuntime(dispatcher, "s")

    def test_pre_delivery_death_is_replayed_exactly_once(self):
        faults = FaultInjector()
        manager, dispatcher, runtime = self._runtime(faults)

        @engine_udf("int")
        def counted(x):
            net.http_post(f"http://{COUNTER_HOST}/ran", x)
            return x * 2

        udf_obj = counted.with_owner("alice")
        faults.arm("sandbox.invoke", FaultSpec(one_shot=True))
        with _counted_rows() as executed:
            assert runtime.run_udf(udf_obj, [[1, 2, 3]]) == [2, 4, 6]
        assert executed == [1, 2, 3]  # each row ran exactly once
        assert dispatcher.stats.udf_retries == 1
        assert dispatcher.stats.dead_evicted == 1
        manager.shutdown()

    def test_post_delivery_death_is_never_replayed(self):
        manager, dispatcher, runtime = self._runtime()
        sandbox = dispatcher.acquire("s", "alice")
        invokes = []

        def dying_invoke(udf_obj, arg_columns):
            invokes.append(1)
            raise SandboxDied("worker died mid-request", delivered=True)

        sandbox.invoke = dying_invoke
        with pytest.raises(SandboxDied) as excinfo:
            runtime.run_udf(ALICE_PLUS, [[1], [2]])
        assert excinfo.value.delivered is True
        assert len(invokes) == 1  # no second attempt
        assert dispatcher.stats.udf_retries == 0
        assert dispatcher.stats.dead_evicted == 1  # still evicted
        manager.shutdown()

    def test_retry_knob_disables_replay(self):
        faults = FaultInjector()
        manager, dispatcher, _ = self._runtime(faults)
        runtime = SandboxedUDFRuntime(dispatcher, "s", retry_dead_sandbox=False)
        faults.arm("sandbox.invoke", FaultSpec(one_shot=True))
        with pytest.raises(SandboxDied) as excinfo:
            runtime.run_udf(ALICE_PLUS, [[1], [2]])
        assert excinfo.value.delivered is False
        assert dispatcher.stats.udf_retries == 0
        manager.shutdown()

    def test_double_death_exhausts_the_single_retry(self):
        faults = FaultInjector()
        manager, dispatcher, runtime = self._runtime(faults)
        faults.arm("sandbox.invoke", FaultSpec(max_triggers=2))
        with pytest.raises(SandboxDied):
            runtime.run_udf(ALICE_PLUS, [[1], [2]])
        assert dispatcher.stats.udf_retries == 1  # retried once, then gave up
        manager.shutdown()


class TestStreamDropReattach:
    def test_reattach_rejoins_original_trace_without_dup_or_loss(
        self, workspace, standard_cluster, admin_client
    ):
        """Satellite: an injected mid-stream drop reattaches transparently —
        full result set, no duplicates, and the rejoined stream's span is in
        the original query's trace."""
        chaos = FaultInjector()
        chaos.arm("channel.stream", FaultSpec(one_shot=True, after_calls=1))
        alice = standard_cluster.connect("alice", faults=chaos)
        rows = alice.table("main.sales.orders").collect()
        ids = sorted(r[0] for r in rows)
        assert ids == [1, 2, 3, 4]  # no loss, no duplicates
        assert chaos.trigger_count("channel.stream") == 1
        assert alice._channel.stats.connections_dropped == 1
        trace_id = alice.last_trace_id
        spans = standard_cluster.backend.telemetry.spans(trace_id=trace_id)
        names = [s.name for s in spans]
        assert "reattach_execute" in names
        assert all(s.trace_id == trace_id for s in spans)


class TestServerlessOutageFaultPoint:
    def _efgac_workspace(self):
        ws = Workspace(clock=VirtualClock())
        ws.add_user("admin", admin=True)
        ws.add_user("dana")
        cat = ws.catalog
        cat.create_catalog("m", owner="admin")
        cat.create_schema("m.s", owner="admin")
        serverless = ws.connect_serverless("admin")
        serverless.sql("CREATE TABLE m.s.gov (id int, v float)")
        serverless.sql("INSERT INTO m.s.gov VALUES (1, 1.0), (2, 2.0)")
        serverless.sql("GRANT USE CATALOG ON m TO dana")
        serverless.sql("GRANT USE SCHEMA ON m.s TO dana")
        serverless.sql("GRANT SELECT ON m.s.gov TO dana")
        serverless.sql("ALTER TABLE m.s.gov SET ROW FILTER (id > 0)")
        cluster = ws.create_dedicated_cluster(assigned_user="dana")
        return ws, cluster

    def test_outage_is_an_armed_fault_point(self):
        ws, cluster = self._efgac_workspace()
        gateway = ws.serverless
        faults = ws.catalog.faults
        assert not faults.armed("serverless.gateway")
        gateway.set_outage(True)
        assert faults.armed("serverless.gateway")
        dana = cluster.connect("dana")
        with pytest.raises((ClusterError, CircuitOpenError)):
            dana.sql("SELECT id FROM m.s.gov").collect()
        assert faults.trigger_count("serverless.gateway") >= 1
        stats = ws.catalog.fault_stats()["faults[catalog]"]
        assert stats["serverless.gateway.triggered"] >= 1.0
        # Ending the outage disarms the point and restores service.
        gateway.set_outage(False)
        assert not faults.armed("serverless.gateway")
        ws.clock.advance(120.0)
        assert len(dana.sql("SELECT id FROM m.s.gov").collect()) == 2


class TestFaultStatsTable:
    def test_non_admin_is_denied(self, workspace, standard_cluster, admin_client):
        alice = standard_cluster.connect("alice")
        with pytest.raises(PermissionDenied):
            alice.sql("SELECT * FROM system.access.fault_stats").collect()

    def test_admin_sees_triggers_and_recoveries(
        self, workspace, standard_cluster, admin_client
    ):
        faults = workspace.catalog.faults
        alice = standard_cluster.connect("alice")
        # Aim the one-shot at the query's *last* GET — a data-file read —
        # so the recovery is the scan-task retry, not the txn-log retry
        # (see test_failure_injection for the counting-pass pattern).
        faults.arm("storage.get", FaultSpec(probability=0.0))
        alice.table("main.sales.orders").collect()
        per_query = faults.call_count("storage.get")
        faults.disarm("storage.get")
        faults.arm(
            "storage.get",
            FaultSpec(one_shot=True, after_calls=2 * per_query - 1),
        )
        rows = alice.table("main.sales.orders").collect()
        assert len(rows) == 4  # the scan retry absorbed the fault
        table = admin_client.sql(
            "SELECT scope, metric, value FROM system.access.fault_stats"
        ).collect()
        metrics = {(r[0], r[1]): r[2] for r in table}
        assert metrics[("faults[catalog]", "storage.get.triggered")] >= 1.0
        assert metrics[("faults[catalog]", "recovered.scan.task_retry")] >= 1.0
        cluster_scope = f"recovery[{standard_cluster.name}]"
        assert metrics[(cluster_scope, "scan_retries")] >= 1.0


class TestChaosEquivalenceProperty:
    """Seeded chaos runs are observationally equivalent to fault-free runs."""

    GRANTS = (
        "GRANT USE CATALOG ON m TO alice",
        "GRANT USE SCHEMA ON m.s TO alice",
        "GRANT SELECT ON m.s.t TO alice",
    )

    def _run_query(self, seed: int, rate: float) -> list:
        ws = Workspace()
        ws.add_user("admin", admin=True)
        ws.add_user("alice")
        cat = ws.catalog
        cat.create_catalog("m", owner="admin")
        cat.create_schema("m.s", owner="admin")
        cluster = ws.create_standard_cluster(
            name="chaos", num_executors=2, scan_retries=4
        )
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int, v float)")
        for i in range(3):
            admin.sql(
                f"INSERT INTO m.s.t VALUES ({2 * i}, {float(i)}),"
                f" ({2 * i + 1}, {i + 0.5})"
            )
        for grant in self.GRANTS:
            admin.sql(grant)
        if rate > 0:
            cat.faults.seed = seed
            cat.faults.arm(
                "storage.get",
                FaultSpec(kind="raise", probability=rate, only_in_query=True),
            )
        alice = cluster.connect("alice")
        rows = alice.sql("SELECT id, v FROM m.s.t WHERE v >= 1.0").collect()
        if rate > 0:
            cat.faults.disarm("storage.get")
        return sorted(rows)

    def test_seed_sweep_scan_results_identical(self):
        baseline = self._run_query(seed=0, rate=0.0)
        assert len(baseline) == 4
        for seed in range(20):
            ws_rows = self._run_query(seed=seed, rate=0.15)
            assert ws_rows == baseline, f"seed {seed} diverged"
        # The sweep only means something if faults actually fired; 20 seeds
        # at 15% across ~9 governed GETs each makes that a certainty.

    def test_seed_sweep_udf_executes_at_most_once(self):
        """Under a seeded sandbox-death schedule, user code runs exactly
        once per *delivered* invoke — never twice, never partially."""
        deaths_seen = 0
        for seed in range(25):
            faults = FaultInjector(seed=seed)
            manager = ClusterManager(faults=faults, default_policy=COUNTER_POLICY)
            dispatcher = Dispatcher(manager)
            runtime = SandboxedUDFRuntime(dispatcher, "s")

            @engine_udf("int")
            def counted(x):
                net.http_post(f"http://{COUNTER_HOST}/ran", x)
                return x + 1

            udf_obj = counted.with_owner("alice")
            faults.arm("sandbox.invoke", FaultSpec(probability=0.3))
            delivered_rows = 0
            with _counted_rows() as executed:
                for _ in range(10):
                    try:
                        out = runtime.run_udf(udf_obj, [[1, 2, 3]])
                        assert out == [2, 3, 4]
                        delivered_rows += 3
                    except SandboxDied as exc:
                        # Both the attempt and its single replay died; the
                        # failure must still be pre-delivery (no user code
                        # ran).
                        assert exc.delivered is False
            deaths_seen += faults.trigger_count("sandbox.invoke")
            assert len(executed) == delivered_rows, f"seed {seed}"
            manager.shutdown()
        assert deaths_seen > 0  # the sweep genuinely injected faults
