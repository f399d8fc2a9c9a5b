"""Workload manager, circuit breaker, and admission wiring tests.

Covers the scheduler subsystem in isolation (fair-share dispatch, token
buckets, backpressure, shedding lanes, deadline admission, cancellation)
and its integration points: the Connect service admission boundary, queued
interrupts, the sandbox-budget charge from the Dispatcher, the serverless
breaker, and the ``system.access.workload_stats`` table.
"""

import queue
import threading
import time

import pytest

from repro.common.clock import SystemClock, VirtualClock
from repro.common.context import QueryContext, QueryDeadlineExceeded
from repro.common.telemetry import Telemetry
from repro.connect import proto
from repro.connect.service import error_to_message, raise_from_message
from repro.connect.sessions import OP_INTERRUPTED, OP_QUEUED
from repro.errors import AdmissionError, CircuitOpenError, ClusterError
from repro.platform import Workspace
from repro.scheduler import (
    LANE_BATCH,
    LANE_INTERACTIVE,
    LANE_SYSTEM,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    TenantPolicy,
    WorkloadManager,
    retry_with_backoff,
)


def make_manager(**kwargs) -> WorkloadManager:
    """A manager on a virtual clock (all fast-path / synchronous tests)."""
    clock = kwargs.pop("clock", VirtualClock())
    return WorkloadManager(
        name="test", clock=clock, **kwargs
    )


def wait_until(predicate, timeout=5.0) -> None:
    """Poll ``predicate`` until true (real time); fail the test otherwise."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("condition not reached within timeout")


class TestAdmissionFastPath:
    def test_free_slot_admits_immediately(self):
        mgr = make_manager(total_slots=2)
        ticket = mgr.admit("alice")
        assert ticket.state == "ADMITTED"
        assert ticket.queue_wait == 0.0
        assert mgr.slots_in_use() == 1
        ticket.release()
        assert mgr.slots_in_use() == 0

    def test_release_is_idempotent(self):
        mgr = make_manager(total_slots=1)
        ticket = mgr.admit("alice")
        ticket.release()
        ticket.release()
        assert mgr.slots_in_use() == 0
        # The slot is reusable afterwards.
        assert mgr.admit("alice").state == "ADMITTED"

    def test_system_lane_bypasses_saturation(self):
        mgr = make_manager(total_slots=1)
        held = mgr.admit("heavy")
        ticket = mgr.admit("ops", lane=LANE_SYSTEM)
        assert ticket.state == "ADMITTED"
        assert ticket.slotless
        # The system ticket never consumed the (occupied) slot.
        assert mgr.slots_in_use() == 1
        ticket.release()
        held.release()


class TestRateLimitAndBackpressure:
    def test_token_bucket_rejects_with_retry_after(self):
        clock = VirtualClock()
        mgr = make_manager(clock=clock, total_slots=8)
        mgr.configure_tenant(
            "alice", TenantPolicy(rate_per_second=1.0, burst=2)
        )
        mgr.admit("alice").release()
        mgr.admit("alice").release()
        with pytest.raises(AdmissionError) as exc_info:
            mgr.admit("alice")
        assert exc_info.value.reason == "rate_limited"
        assert exc_info.value.retry_after > 0
        # Tokens refill with (virtual) time.
        clock.advance(2.0)
        assert mgr.admit("alice").state == "ADMITTED"

    def test_per_tenant_queue_depth_bound(self):
        mgr = make_manager(total_slots=1)
        mgr.configure_tenant("alice", TenantPolicy(max_queue_depth=0))
        held = mgr.admit("alice")
        with pytest.raises(AdmissionError) as exc_info:
            mgr.admit("alice")
        assert exc_info.value.reason == "queue_full"
        held.release()

    def test_other_tenants_unaffected_by_one_tenants_rate(self):
        mgr = make_manager(total_slots=8)
        mgr.configure_tenant("greedy", TenantPolicy(rate_per_second=0.001, burst=1))
        mgr.admit("greedy").release()
        with pytest.raises(AdmissionError):
            mgr.admit("greedy")
        assert mgr.admit("bob").state == "ADMITTED"


class TestDeadlineAdmission:
    def test_upfront_rejection_when_wait_exceeds_deadline(self):
        clock = VirtualClock()
        mgr = make_manager(
            clock=clock, total_slots=1, expected_service_seconds=10.0
        )
        telemetry = Telemetry(clock=clock)
        held = mgr.admit("heavy")
        ctx = QueryContext.create(
            user="alice", telemetry=telemetry, clock=clock, deadline_seconds=1.0
        )
        with pytest.raises(QueryDeadlineExceeded):
            mgr.admit("alice", query_ctx=ctx)
        held.release()
        # With the slot free again the same deadline is admissible.
        ctx2 = QueryContext.create(
            user="alice", telemetry=telemetry, clock=clock, deadline_seconds=1.0
        )
        assert mgr.admit("alice", query_ctx=ctx2).state == "ADMITTED"

    def test_deadline_expires_while_queued(self):
        clock = SystemClock()
        mgr = make_manager(clock=clock, total_slots=1)
        held = mgr.admit("heavy")
        ctx = QueryContext.create(
            user="alice",
            telemetry=Telemetry(clock=clock),
            clock=clock,
            deadline_seconds=0.1,
        )
        started = time.monotonic()
        with pytest.raises(QueryDeadlineExceeded):
            mgr.admit("alice", query_ctx=ctx)
        assert time.monotonic() - started < 2.0
        assert mgr.queue_depth() == 0
        held.release()

    def test_admission_timeout(self):
        mgr = make_manager(
            clock=SystemClock(), total_slots=1, admission_timeout=0.1
        )
        held = mgr.admit("heavy")
        with pytest.raises(AdmissionError) as exc_info:
            mgr.admit("alice")
        assert exc_info.value.reason == "timeout"
        assert mgr.queue_depth() == 0
        held.release()


class TestFairShareDispatch:
    def _run_backlog(self, fair_share: bool) -> list[str]:
        """One slot, 4 heavy queries queued before 1 light; admission order."""
        mgr = make_manager(clock=SystemClock(), fair_share=fair_share, total_slots=1)
        order: list[str] = []
        order_lock = threading.Lock()
        held = mgr.admit("heavy")

        def worker(tenant: str) -> None:
            ticket = mgr.admit(tenant)
            with order_lock:
                order.append(tenant)
            ticket.release()

        threads = [
            threading.Thread(target=worker, args=("heavy",)) for _ in range(4)
        ]
        for t in threads:
            t.start()
        wait_until(lambda: mgr.queue_depth("heavy") == 4)
        light = threading.Thread(target=worker, args=("light",))
        light.start()
        wait_until(lambda: mgr.queue_depth() == 5)
        held.release()
        light.join(timeout=5)
        for t in threads:
            t.join(timeout=5)
        assert len(order) == 5
        return order

    def test_fair_share_interleaves_light_tenant(self):
        order = self._run_backlog(fair_share=True)
        # Stride scheduling: the light tenant (at global virtual time) runs
        # ahead of the heavy tenant's accumulated backlog.
        assert "light" in order[:2], order

    def test_fifo_mode_makes_light_tenant_wait(self):
        order = self._run_backlog(fair_share=False)
        # Arrival order: all four earlier heavy queries run first.
        assert order[-1] == "light", order

    def test_weights_bias_dispatch_ratio(self):
        mgr = make_manager(clock=SystemClock(), total_slots=1)
        mgr.configure_tenant("gold", TenantPolicy(weight=3.0))
        mgr.configure_tenant("bronze", TenantPolicy(weight=1.0))
        order: list[str] = []
        order_lock = threading.Lock()
        held = mgr.admit("warmup")

        def worker(tenant: str) -> None:
            ticket = mgr.admit(tenant)
            with order_lock:
                order.append(tenant)
            ticket.release()

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in ["gold"] * 6 + ["bronze"] * 6
        ]
        for t in threads:
            t.start()
        wait_until(lambda: mgr.queue_depth() == 12)
        held.release()
        for t in threads:
            t.join(timeout=5)
        # In the first 8 dispatches gold (weight 3) should clearly lead.
        first = order[:8]
        assert first.count("gold") > first.count("bronze"), order


class TestLoadShedding:
    def test_sheds_lowest_priority_lane_first(self):
        mgr = make_manager(clock=SystemClock(), total_slots=1, max_total_queue=1)
        held = mgr.admit("heavy")
        batch_error: list[Exception] = []

        def batch_worker() -> None:
            try:
                mgr.admit("batcher", lane=LANE_BATCH)
            except AdmissionError as exc:
                batch_error.append(exc)

        batch_thread = threading.Thread(target=batch_worker)
        batch_thread.start()
        wait_until(lambda: mgr.queue_depth() == 1)

        admitted: list[object] = []

        def interactive_worker() -> None:
            admitted.append(mgr.admit("alice", lane=LANE_INTERACTIVE))

        interactive_thread = threading.Thread(target=interactive_worker)
        interactive_thread.start()
        # The arriving interactive query displaces the queued batch query.
        batch_thread.join(timeout=5)
        assert batch_error and batch_error[0].reason == "shed"
        held.release()
        interactive_thread.join(timeout=5)
        assert admitted and admitted[0].state == "ADMITTED"
        assert mgr.lane_shed.get(LANE_BATCH) == 1

    def test_sheds_arrival_when_nothing_lower_priority(self):
        mgr = make_manager(clock=SystemClock(), total_slots=1, max_total_queue=1)
        held = mgr.admit("heavy")
        blocker = threading.Thread(target=lambda: mgr.admit("bob").release())
        blocker.start()
        wait_until(lambda: mgr.queue_depth() == 1)
        with pytest.raises(AdmissionError) as exc_info:
            mgr.admit("carol", lane=LANE_INTERACTIVE)
        assert exc_info.value.reason == "shed"
        held.release()
        blocker.join(timeout=5)


class TestCancellation:
    def test_cancel_dequeues_and_releases_reservation(self):
        mgr = make_manager(clock=SystemClock(), total_slots=1)
        held = mgr.admit("heavy")
        tickets: list[object] = []
        errors: list[Exception] = []

        def worker() -> None:
            try:
                mgr.admit(
                    "alice", on_enqueued=lambda t: tickets.append(t)
                )
            except AdmissionError as exc:
                errors.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        wait_until(lambda: bool(tickets))
        assert tickets[0].cancel() is True
        thread.join(timeout=5)
        assert errors and errors[0].reason == "cancelled"
        assert mgr.queue_depth() == 0
        held.release()
        # No slot was leaked by the cancelled reservation.
        assert mgr.admit("alice").state == "ADMITTED"

    def test_cancel_admitted_ticket_is_a_no_op(self):
        mgr = make_manager(total_slots=1)
        ticket = mgr.admit("alice")
        assert ticket.cancel() is False
        assert ticket.state == "ADMITTED"
        ticket.release()


class TestReferencedTables:
    """Structural table-reference resolution (the lane-detection input)."""

    def test_read_and_sql_tables_resolve_structurally(self):
        assert proto.referenced_tables(proto.read_table("m.s.t")) == {"m.s.t"}
        assert proto.referenced_tables(
            proto.sql_relation("SELECT a FROM system.access.audit")
        ) == {"system.access.audit"}

    def test_string_literals_do_not_count_as_references(self):
        plan = proto.filter_relation(
            proto.read_table("m.s.t"),
            proto.binary(
                "=", proto.column("note"), proto.literal("see system.docs")
            ),
        )
        assert proto.referenced_tables(plan) == {"m.s.t"}
        sql = proto.sql_relation(
            "SELECT id FROM m.s.notes WHERE note = 'see system.docs'"
        )
        assert proto.referenced_tables(sql) == {"m.s.notes"}

    def test_joins_collect_every_source(self):
        plan = proto.sql_relation(
            "SELECT a.id FROM m.s.t a JOIN system.access.audit b ON a.id = b.id"
        )
        assert proto.referenced_tables(plan) == {"m.s.t", "system.access.audit"}

    def test_unresolvable_shapes_return_none(self):
        assert proto.referenced_tables(proto.relation_extension("x", {})) is None
        assert proto.referenced_tables(proto.sql_relation("NOT SQL AT ALL")) is None


class TestSandboxBudget:
    def test_sandbox_claims_count_against_in_flight_budget(self):
        mgr = make_manager(clock=SystemClock(), total_slots=4)
        mgr.configure_tenant("alice", TenantPolicy(max_in_flight=1))
        mgr.charge_sandbox("alice")
        admitted: list[object] = []
        thread = threading.Thread(
            target=lambda: admitted.append(mgr.admit("alice"))
        )
        thread.start()
        # Queued despite free slots: the sandbox claim fills the budget.
        wait_until(lambda: mgr.queue_depth("alice") == 1)
        assert not admitted
        mgr.release_sandbox("alice")
        thread.join(timeout=5)
        assert admitted and admitted[0].state == "ADMITTED"

    def test_execution_slot_without_ticket_is_noop(self):
        mgr = make_manager(total_slots=1)
        ctx = QueryContext.create(user="alice", clock=VirtualClock())
        with mgr.execution_slot(ctx) as ticket:
            assert ticket is None
        assert mgr.slots_in_use() == 0


class TestStatsSnapshot:
    def test_snapshot_exposes_manager_and_tenant_metrics(self):
        mgr = make_manager(total_slots=2)
        mgr.admit("alice").release()
        with pytest.raises(AdmissionError):
            mgr.configure_tenant("bob", TenantPolicy(rate_per_second=0.001, burst=0))
            mgr.admit("bob")
        snapshot = mgr.stats_snapshot()
        assert snapshot["total_slots"] == 2
        assert snapshot["admitted_total"] == 1
        assert snapshot["rejected_rate_limited"] == 1
        assert snapshot["tenant.alice.admitted"] == 1
        assert snapshot["tenant.bob.rejected"] == 1

    @staticmethod
    def _scripted_waits(waits):
        """Scripted waits on a virtual clock: one slot, a worker that queues
        for it again as soon as it holds it, and a main thread that lets
        each queued admission wait exactly its scripted time, then hands
        the slot over. Returns the manager once every admission ran."""
        clock = VirtualClock()
        mgr = WorkloadManager(name="test", clock=clock, total_slots=1)
        queued = threading.Semaphore(0)
        admitted = queue.SimpleQueue()

        def worker():
            for _ in waits:
                admitted.put(mgr.admit("w", on_enqueued=lambda _: queued.release()))

        held = mgr.admit("w")
        thread = threading.Thread(target=worker)
        thread.start()
        for wait in waits:
            assert queued.acquire(timeout=10)
            clock.advance(wait)
            held.release()
            held = admitted.get(timeout=10)
        held.release()
        thread.join(10)
        return mgr

    def test_queue_wait_percentiles_are_nearest_rank_with_exact_totals(self):
        empty = WorkloadManager(name="test", clock=VirtualClock(), total_slots=1)
        assert empty.stats_snapshot()["queue_wait_seconds_p50"] == 0.0
        assert empty.stats_snapshot()["queue_wait_seconds_p95"] == 0.0
        snapshot = self._scripted_waits([4.0, 1.0, 3.0, 2.0]).stats_snapshot()
        # Sorted 1 .. 4; p50 is rank round(1.5) = 2, p95 is rank
        # round(2.85) = 3 (zero-based).
        assert snapshot["queue_wait_seconds_p50"] == 3.0
        assert snapshot["queue_wait_seconds_p95"] == 4.0
        assert snapshot["tenant.w.queue_wait_seconds_total"] == pytest.approx(10.0)
        assert snapshot["tenant.w.admitted"] == 5

    def test_queue_wait_percentiles_take_the_last_256_waits(self):
        """Only the last 256 queued admissions count toward the
        percentiles (the 44 older 20 s waits drop out of the window), while
        the per-tenant total stays exact over every wait."""
        waits = [20.0] * 44 + [i / 100 for i in range(256, 0, -1)]
        mgr = self._scripted_waits(waits)
        snapshot = mgr.stats_snapshot()
        # Sorted window 0.01 .. 2.56; p50 is rank round(127.5) = 128, p95 is
        # rank round(242.25) = 242 (zero-based).
        assert snapshot["queue_wait_seconds_p50"] == pytest.approx(1.29)
        assert snapshot["queue_wait_seconds_p95"] == pytest.approx(2.43)
        assert snapshot["tenant.w.queue_wait_seconds_total"] == pytest.approx(
            sum(waits)
        )


class TestCircuitBreaker:
    def _failing(self):
        raise ClusterError("backend down")

    def test_consecutive_failures_trip_breaker(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            clock=clock, failure_threshold=3, base_backoff=1.0, jitter=0.0
        )
        for _ in range(3):
            with pytest.raises(ClusterError):
                breaker.call(self._failing)
        assert breaker.state == STATE_OPEN
        with pytest.raises(CircuitOpenError) as exc_info:
            breaker.call(lambda: "ok")
        assert exc_info.value.retry_after > 0

    def test_half_open_probe_closes_on_success(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            clock=clock, failure_threshold=2, base_backoff=1.0, jitter=0.0
        )
        for _ in range(2):
            with pytest.raises(ClusterError):
                breaker.call(self._failing)
        clock.advance(1.5)
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == STATE_CLOSED

    def test_half_open_failure_doubles_backoff(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            clock=clock, failure_threshold=2, base_backoff=1.0, jitter=0.0
        )
        for _ in range(2):
            with pytest.raises(ClusterError):
                breaker.call(self._failing)
        first_backoff = breaker.stats_snapshot()["current_backoff_seconds"]
        clock.advance(1.5)
        with pytest.raises(ClusterError):
            breaker.call(self._failing)
        assert breaker.state == STATE_OPEN
        second_backoff = breaker.stats_snapshot()["current_backoff_seconds"]
        assert second_backoff == pytest.approx(first_backoff * 2)

    def test_backoff_resets_after_recovery(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            clock=clock, failure_threshold=1, base_backoff=1.0, jitter=0.0
        )
        with pytest.raises(ClusterError):
            breaker.call(self._failing)
        clock.advance(1.5)
        with pytest.raises(ClusterError):
            breaker.call(self._failing)  # failed half-open probe: doubles
        assert breaker.stats_snapshot()["current_backoff_seconds"] == (
            pytest.approx(2.0)
        )
        clock.advance(2.5)
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == STATE_CLOSED
        # A fresh outage after full recovery starts from base_backoff again
        # — the backoff exponent is per-outage, not the lifetime open count.
        with pytest.raises(ClusterError):
            breaker.call(self._failing)
        snapshot = breaker.stats_snapshot()
        assert snapshot["current_backoff_seconds"] == pytest.approx(1.0)
        assert snapshot["open_count"] == 3  # lifetime stat still cumulative

    def test_retry_with_backoff_retries_then_succeeds(self):
        clock = VirtualClock()
        attempts: list[int] = []

        def flaky() -> str:
            attempts.append(1)
            if len(attempts) < 3:
                raise ClusterError("transient")
            return "ok"

        result = retry_with_backoff(
            flaky, clock=clock, retries=3, retry_on=(ClusterError,)
        )
        assert result == "ok"
        assert len(attempts) == 3

    def test_retry_gives_up_after_budget(self):
        clock = VirtualClock()
        with pytest.raises(ClusterError):
            retry_with_backoff(
                self._failing, clock=clock, retries=2, retry_on=(ClusterError,)
            )

    def test_open_breaker_is_not_waited_out_inline(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            clock=clock, failure_threshold=1, base_backoff=60.0, jitter=0.0
        )
        with pytest.raises(ClusterError):
            breaker.call(self._failing)
        started = clock.now()
        with pytest.raises(CircuitOpenError):
            retry_with_backoff(
                lambda: breaker.call(lambda: "ok"),
                clock=clock,
                retries=3,
                retry_on=(ClusterError, CircuitOpenError),
            )
        # The long open-backoff was NOT slept through by the retry helper.
        assert clock.now() - started < 60.0


class TestErrorCodec:
    def test_admission_error_round_trip(self):
        original = AdmissionError(
            "too busy", retry_after=1.5, reason="queue_full"
        )
        message = error_to_message(original)
        assert message["error_class"] == "AdmissionError"
        with pytest.raises(AdmissionError) as exc_info:
            raise_from_message(message)
        assert exc_info.value.retry_after == 1.5
        assert exc_info.value.reason == "queue_full"

    def test_circuit_open_error_round_trip(self):
        message = error_to_message(CircuitOpenError("open", retry_after=2.0))
        assert message["error_class"] == "CircuitOpenError"
        with pytest.raises(CircuitOpenError) as exc_info:
            raise_from_message(message)
        assert exc_info.value.retry_after == 2.0

    def test_deadline_error_is_typed_on_the_wire(self):
        message = error_to_message(QueryDeadlineExceeded("late"))
        assert message["error_class"] == "QueryDeadlineExceeded"
        with pytest.raises(QueryDeadlineExceeded):
            raise_from_message(message)


# ---------------------------------------------------------------------------
# Integration: workspace / service / gateway wiring
# ---------------------------------------------------------------------------


@pytest.fixture
def small_workspace():
    """A workspace with one admin, two users, and one governed table."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("bob")
    cat = ws.catalog
    cat.create_catalog("m", owner="admin")
    cat.create_schema("m.s", owner="admin")
    return ws


def _grant_read(admin_client, table: str, user: str) -> None:
    admin_client.sql(f"GRANT USE CATALOG ON m TO {user}")
    admin_client.sql(f"GRANT USE SCHEMA ON m.s TO {user}")
    admin_client.sql(f"GRANT SELECT ON {table} TO {user}")


class TestServiceAdmissionWiring:
    def test_queries_pass_through_the_manager(self, small_workspace):
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int)")
        admin.sql("INSERT INTO m.s.t VALUES (1), (2)")
        assert len(admin.sql("SELECT id FROM m.s.t").collect()) == 2
        snapshot = cluster.workload_manager.stats_snapshot()
        assert snapshot["admitted_total"] >= 3
        assert snapshot["slots_in_use"] == 0  # everything released
        assert snapshot["tenant.admin.admitted"] >= 3

    def test_execute_span_carries_admission_attributes(self, small_workspace):
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int)")
        admin.sql("INSERT INTO m.s.t VALUES (1)")
        admin.sql("SELECT id FROM m.s.t").collect()
        spans = [
            s
            for s in ws.catalog.telemetry.spans(kind="pipeline.stage")
            if s.name == "stage:execute" and "admission_tenant" in s.attributes
        ]
        assert spans
        assert spans[-1].attributes["admission_tenant"] == "admin"

    def test_disabled_manager_keeps_legacy_path(self, small_workspace):
        ws = small_workspace
        cluster = ws.create_standard_cluster(
            name="legacy", enable_workload_manager=False
        )
        assert cluster.workload_manager is None
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.legacy (id int)")
        admin.sql("INSERT INTO m.s.legacy VALUES (1)")
        assert len(admin.sql("SELECT id FROM m.s.legacy").collect()) == 1

    def test_rate_limited_tenant_gets_retryable_wire_error(self, small_workspace):
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        cluster.workload_manager.configure_tenant(
            "bob", TenantPolicy(rate_per_second=0.0001, burst=1)
        )
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int)")
        admin.sql("INSERT INTO m.s.t VALUES (1)")
        _grant_read(admin, "m.s.t", "bob")
        bob = cluster.connect("bob")
        assert len(bob.sql("SELECT id FROM m.s.t").collect()) == 1
        with pytest.raises(AdmissionError) as exc_info:
            bob.sql("SELECT id FROM m.s.t").collect()
        assert exc_info.value.reason == "rate_limited"
        assert exc_info.value.retry_after > 0

    def test_system_tables_stay_readable_under_saturation(self, small_workspace):
        ws = small_workspace
        cluster = ws.create_standard_cluster(workload_slots=1)
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int)")
        # Occupy the single slot out-of-band, then read a system table.
        held = cluster.workload_manager.admit("squatter")
        try:
            rows = admin.sql(
                "SELECT scope, metric, value FROM system.access.workload_stats"
            ).collect()
            assert rows
        finally:
            held.release()
        assert cluster.workload_manager.system_bypass >= 1

    def test_system_literal_cannot_escape_admission(self, small_workspace):
        """A ``system.`` substring inside a string literal must not route
        the query onto the unthrottled system lane (admission bypass)."""
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.notes (id int, note string)")
        admin.sql("INSERT INTO m.s.notes VALUES (1, 'see system.docs')")
        bypass_before = cluster.workload_manager.system_bypass
        admitted_before = cluster.workload_manager.admitted_total
        rows = admin.sql(
            "SELECT id FROM m.s.notes WHERE note = 'see system.docs'"
        ).collect()
        assert len(rows) == 1
        assert cluster.workload_manager.system_bypass == bypass_before
        assert cluster.workload_manager.admitted_total == admitted_before + 1

    def test_mixed_system_and_user_reads_are_admitted_normally(
        self, small_workspace
    ):
        """Joining a system table with a user table is not pure
        introspection: it must pass through ordinary admission."""
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int)")
        bypass_before = cluster.workload_manager.system_bypass
        admin.sql(
            "SELECT t.id FROM m.s.t t "
            "JOIN system.access.workload_stats w ON t.id = t.id"
        ).collect()
        assert cluster.workload_manager.system_bypass == bypass_before


class TestQueuedInterrupt:
    def test_interrupt_dequeues_queued_operation(self, small_workspace):
        """The satellite regression: interrupting a QUEUED operation must
        dequeue it, release its reservation, and fail its admit() call."""
        ws = small_workspace
        cluster = ws.create_standard_cluster(workload_slots=1)
        service = cluster.service
        admin_session = service.handle(
            "create_session", {"user": "admin", "client_version": 4}
        )["session_id"]
        base = {"user": "admin", "session_id": admin_session, "client_version": 4}
        list(
            service.handle_stream(
                "execute_plan",
                {**base, "plan": proto.sql_command("CREATE TABLE m.s.t (id int)")},
            )
        )
        held = cluster.workload_manager.admit("squatter")
        responses: list[dict] = []

        def run_queued() -> None:
            responses.extend(
                service.handle_stream(
                    "execute_plan",
                    {
                        **base,
                        "operation_id": "op-queued",
                        "plan": proto.read_table("m.s.t"),
                    },
                )
            )

        thread = threading.Thread(target=run_queued)
        thread.start()
        op = None

        def queued() -> bool:
            nonlocal op
            try:
                op = service.sessions.get_operation("op-queued", admin_session)
            except Exception:
                return False
            return op.status == OP_QUEUED and op.ticket is not None

        wait_until(queued)
        result = service.handle(
            "interrupt", {**base, "operation_id": "op-queued"}
        )
        assert result.get("interrupted") is True
        thread.join(timeout=5)
        assert responses and responses[0]["@type"] == "error"
        assert responses[0]["error_class"] == "AdmissionError"
        assert responses[0]["reason"] == "cancelled"
        # The op is tombstoned as interrupted; queue and slot are clean.
        assert service.sessions._tombstones["op-queued"] == OP_INTERRUPTED
        assert cluster.workload_manager.queue_depth() == 0
        held.release()
        assert cluster.workload_manager.slots_in_use() == 0

    def test_interrupt_running_op_keeps_slot_until_completion(self):
        """Interrupting a RUNNING operation must not free its slot while
        the serving thread is still executing (there is no preemption);
        repeated interrupts previously overcommitted the slot pool."""
        from repro.catalog.privileges import UserContext
        from repro.connect.sessions import OP_RUNNING, SessionManager

        mgr = make_manager(total_slots=1)
        sessions = SessionManager()
        session = sessions.create_session(UserContext(user="alice"))
        op = sessions.start_operation(session.session_id)
        op.ticket = mgr.admit("alice")
        op.status = OP_RUNNING
        sessions.interrupt_operation(op.operation_id, session.session_id)
        assert sessions._tombstones[op.operation_id] == OP_INTERRUPTED
        # The serving thread still occupies the slot...
        assert mgr.slots_in_use() == 1
        assert op.ticket is not None and op.ticket.state == "ADMITTED"
        # ...until its completion bracket releases the ticket.
        op.ticket.release()
        assert mgr.slots_in_use() == 0


class TestWorkloadStatsTable:
    def test_admins_see_scheduler_and_breaker_metrics(self, small_workspace):
        ws = small_workspace
        _ = ws.serverless  # instantiate the gateway so its breaker registers
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int)")
        rows = admin.sql(
            "SELECT scope, metric, value FROM system.access.workload_stats"
        ).collect()
        scopes = {r[0] for r in rows}
        assert any(s.startswith("workload[") for s in scopes)
        assert "efgac_breaker[serverless]" in scopes
        metrics = {(r[0], r[1]): r[2] for r in rows}
        assert metrics[("efgac_breaker[serverless]", "state")] == 0.0

    def test_non_admins_are_denied(self, small_workspace):
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int)")
        alice = cluster.connect("alice")
        from repro.errors import PermissionDenied

        with pytest.raises(PermissionDenied):
            alice.sql("SELECT * FROM system.access.workload_stats").collect()


class TestServerlessBreaker:
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
        _grant_read(serverless, "m.s.gov", "dana")
        serverless.sql(
            "ALTER TABLE m.s.gov SET ROW FILTER (id > 0)"
        )
        cluster = ws.create_dedicated_cluster(assigned_user="dana")
        return ws, cluster

    def test_outage_trips_breaker_and_fails_fast(self):
        ws, cluster = self._efgac_workspace()
        dana = cluster.connect("dana")
        # Healthy path works (row-filtered table routes through eFGAC).
        assert len(dana.sql("SELECT id FROM m.s.gov").collect()) == 2
        gateway = ws.serverless
        gateway.set_outage(True)
        # Failures (with retries) accumulate until the breaker opens.
        saw_circuit_open = False
        for _ in range(6):
            with pytest.raises((ClusterError, CircuitOpenError)) as exc_info:
                dana.sql("SELECT id FROM m.s.gov").collect()
            if isinstance(exc_info.value, CircuitOpenError):
                saw_circuit_open = True
                assert exc_info.value.retry_after >= 0
                break
        assert saw_circuit_open
        assert gateway.breaker.state == STATE_OPEN
        # Recovery: outage ends, backoff elapses, a probe closes the breaker.
        gateway.set_outage(False)
        ws.clock.advance(120.0)
        assert len(dana.sql("SELECT id FROM m.s.gov").collect()) == 2
        assert gateway.breaker.state == STATE_CLOSED

    def test_breaker_stats_visible_in_workload_stats(self):
        ws, cluster = self._efgac_workspace()
        gateway = ws.serverless
        gateway.set_outage(True)
        dana = cluster.connect("dana")
        for _ in range(3):
            with pytest.raises((ClusterError, CircuitOpenError)):
                dana.sql("SELECT id FROM m.s.gov").collect()
        stats = ws.catalog.workload_stats()["efgac_breaker[serverless]"]
        assert stats["failures"] >= 1
        assert stats["state_name"] in (STATE_OPEN, STATE_CLOSED)


class TestHousekeepingTick:
    def test_request_path_tick_expires_idle_sessions(self):
        ws = Workspace(clock=VirtualClock())
        ws.add_user("admin", admin=True)
        cluster = ws.create_standard_cluster()
        service = cluster.service
        service.sessions._ttl = 100.0
        service._housekeeping_interval = 50.0
        idle = service.handle(
            "create_session", {"user": "admin", "client_version": 4}
        )["session_id"]
        ws.clock.advance(150.0)
        # Any request triggers the tick; the idle session is gone after it.
        service.handle("create_session", {"user": "admin", "client_version": 4})
        from repro.errors import SessionError

        with pytest.raises(SessionError):
            service.sessions.get_session(idle, "admin")

    def test_manual_housekeeping_still_works(self):
        ws = Workspace(clock=VirtualClock())
        ws.add_user("admin", admin=True)
        cluster = ws.create_standard_cluster()
        service = cluster.service
        service.sessions._ttl = 10.0
        service.handle("create_session", {"user": "admin", "client_version": 4})
        ws.clock.advance(20.0)
        report = service.housekeeping()
        assert len(report["expired_sessions"]) == 1

    def test_tick_can_be_disabled(self):
        ws = Workspace(clock=VirtualClock())
        ws.add_user("admin", admin=True)
        cluster = ws.create_standard_cluster()
        service = cluster.service
        service._housekeeping_interval = None
        ws.clock.advance(10_000.0)
        assert service.maybe_housekeeping() is None


class TestDispatcherCharging:
    def test_sandbox_claims_are_charged_and_refunded(self, small_workspace):
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE m.s.t (id int, v float)")
        admin.sql("INSERT INTO m.s.t VALUES (1, 1.0)")
        from repro.connect.client import col, udf

        @udf("float")
        def double(x):
            return x * 2

        admin.table("m.s.t").select(double(col("v"))).collect()
        snapshot = cluster.workload_manager.stats_snapshot()
        assert snapshot["tenant.admin.sandbox_claims"] == 1
        admin.close()
        snapshot = cluster.workload_manager.stats_snapshot()
        assert snapshot["tenant.admin.sandbox_claims"] == 0

    def test_claims_follow_the_admission_tenant_override(self, small_workspace):
        """With a ``workload.tenant`` session override, sandbox claims debit
        the tenant the query was *admitted* under, not the raw user — the
        multi-user trust-domain accounting case."""
        ws = small_workspace
        cluster = ws.create_standard_cluster()
        admin = cluster.connect("admin")
        admin.set_config(**{"workload.tenant": "team-data"})
        admin.sql("CREATE TABLE m.s.t (id int, v float)")
        admin.sql("INSERT INTO m.s.t VALUES (1, 1.0)")
        from repro.connect.client import col, udf

        @udf("float")
        def double(x):
            return x * 2

        admin.table("m.s.t").select(double(col("v"))).collect()
        snapshot = cluster.workload_manager.stats_snapshot()
        assert snapshot["tenant.team-data.sandbox_claims"] == 1
        assert snapshot.get("tenant.admin.sandbox_claims", 0) == 0
        admin.close()
        snapshot = cluster.workload_manager.stats_snapshot()
        assert snapshot["tenant.team-data.sandbox_claims"] == 0


class TestInterpreterTurns:
    """``scheduler/turns.py`` on a fake clock: when a request thread sleeps."""

    @staticmethod
    def make(on_sleep=None):
        from repro.scheduler.turns import InterpreterTurns

        now = [0.0]
        naps: list[float] = []

        def sleep(seconds: float) -> None:
            naps.append(seconds)
            if on_sleep is not None:
                on_sleep()

        return InterpreterTurns(now=lambda: now[0], sleep=sleep), now, naps

    @staticmethod
    def on_other_thread(fn) -> None:
        thread = threading.Thread(target=fn)
        thread.start()
        thread.join()

    def operation(self, turns, now, seconds: float) -> None:
        turns.begin()
        now[0] += seconds
        turns.end()

    def test_a_single_request_thread_never_sleeps(self):
        turns, now, naps = self.make()
        for _ in range(500):
            self.operation(turns, now, 0.001)
        assert naps == [] and turns.handoffs == 0

    def test_a_full_turn_beside_another_thread_hands_over_once(self):
        from repro.scheduler.turns import HANDOFF_NAPS, TURN_SECONDS

        turns = now = None

        def other_runs():
            self.on_other_thread(turns.begin)

        turns, now, naps = self.make(on_sleep=other_runs)
        self.operation(turns, now, 0.001)
        self.on_other_thread(lambda: self.operation(turns, now, 0.001))
        ops = 0
        while not naps:
            self.operation(turns, now, 0.001)
            ops += 1
        # One turn of back-to-back operations, then the shortest nap
        # suffices because the other thread began an operation during it.
        assert ops == pytest.approx(TURN_SECONDS / 0.001, abs=2)
        assert naps == [HANDOFF_NAPS[0]] and turns.handoffs == 1
        # The turn restarted: the next operations run without sleeping.
        self.operation(turns, now, 0.001)
        assert len(naps) == 1

    def test_naps_escalate_until_someone_else_has_run_then_give_up(self):
        from repro.scheduler.turns import HANDOFF_NAPS, TURN_SECONDS

        turns, now, naps = self.make()
        self.operation(turns, now, 0.001)
        self.on_other_thread(lambda: self.operation(turns, now, 0.001))
        self.operation(turns, now, 0.001)
        self.operation(turns, now, TURN_SECONDS)
        assert naps == list(HANDOFF_NAPS) and turns.handoffs == 0

    def test_an_idle_second_thread_stops_counting_as_active(self):
        from repro.scheduler.turns import ACTIVE_SECONDS, TURN_SECONDS

        turns, now, naps = self.make()
        self.operation(turns, now, 0.001)
        self.on_other_thread(lambda: self.operation(turns, now, 0.001))
        self.operation(turns, now, 0.001)
        now[0] += ACTIVE_SECONDS
        for _ in range(5):
            self.operation(turns, now, TURN_SECONDS)
        assert naps == []

    def test_two_closed_loop_clients_take_turns(self, small_workspace):
        """Two client threads on one cluster: the service hands the
        interpreter over, and neither thread is held off for long."""
        cluster = small_workspace.create_standard_cluster()
        clients = [cluster.connect("alice"), cluster.connect("bob")]
        for client in clients:
            client.sql("SELECT 1").collect()
        worst = [0.0, 0.0]
        stop_at = time.monotonic() + 1.0

        def loop(i: int) -> None:
            while time.monotonic() < stop_at:
                began = time.monotonic()
                clients[i].sql("SELECT 1").collect()
                worst[i] = max(worst[i], time.monotonic() - began)

        threads = [threading.Thread(target=loop, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cluster.service.turns.handoffs >= 5
        assert max(worst) < 0.5
