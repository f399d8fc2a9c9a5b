"""The multi-tenant WorkloadManager: fair-share admission control.

Lakeguard's premise is *shared* multi-user compute — permissions are
user-bound and sandboxes isolate user code — but isolation of *capacity* is
a governance concern of its own: one noisy tenant must not starve every
other session on the cluster. Every query therefore passes through this
manager before it executes:

- **Weighted fair-share queues** (stride scheduling): each tenant — a user,
  or a trust domain on shared compute — owns a bounded FIFO queue; dispatch
  picks the eligible tenant with the smallest virtual *pass* value, which
  converges to proportional-share service no matter how greedy any single
  tenant is.
- **Token-bucket rate limiting**: per-tenant request rates; a drained bucket
  rejects up front with a retryable :class:`~repro.errors.AdmissionError`
  carrying ``retry_after``.
- **Concurrency slots**: a fixed pool bounds how many admitted queries
  execute at once; sandbox claims made by the Dispatcher count against the
  owning tenant's in-flight budget too.
- **Deadline-aware admission**: if the estimated queue wait already exceeds
  the query's deadline, the query is rejected immediately instead of
  timing out after burning a queue slot.
- **Load shedding with graceful degradation**: under saturation the lowest
  priority lane is shed first, and ``system.*`` introspection reads bypass
  admission entirely so operators can always look at a struggling cluster.

A ``fair_share=False`` manager degrades to a single global FIFO queue over
the same slot pool — the baseline the fairness benchmark measures against.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.clock import Clock, SystemClock
from repro.common.context import QueryContext, QueryDeadlineExceeded
from repro.errors import AdmissionError

#: Admission lanes, by descending priority. ``system`` is reserved for
#: ``system.*`` introspection reads and bypasses admission control.
LANE_SYSTEM = "system"
LANE_INTERACTIVE = "interactive"
LANE_BATCH = "batch"

#: Lane -> shed priority (higher number = shed earlier).
LANE_PRIORITY = {LANE_SYSTEM: 0, LANE_INTERACTIVE: 1, LANE_BATCH: 2}

#: Stride-scheduling numerator: pass advances by STRIDE_ONE / weight.
STRIDE_ONE = 1 << 20

#: Most recent queued admissions the queue-wait percentiles are taken over.
QUEUE_WAIT_WINDOW = 256

#: Ticket lifecycle states.
TICKET_QUEUED = "QUEUED"
TICKET_ADMITTED = "ADMITTED"
TICKET_RELEASED = "RELEASED"
TICKET_SHED = "SHED"
TICKET_CANCELLED = "CANCELLED"


@dataclass
class TenantPolicy:
    """Per-tenant budgets; unset fields fall back to manager defaults."""

    weight: float = 1.0
    #: Queries a tenant may keep waiting before backpressure kicks in.
    max_queue_depth: int = 64
    #: Token-bucket rate (requests/second); None = unlimited.
    rate_per_second: float | None = None
    #: Token-bucket capacity (burst size).
    burst: int = 8
    #: Cap on concurrent in-flight work (running queries + sandbox claims);
    #: None = bounded only by the shared slot pool.
    max_in_flight: int | None = None


@dataclass
class _TenantState:
    """Live accounting for one tenant (mutated under the manager lock)."""

    name: str
    policy: TenantPolicy
    queue: list["AdmissionTicket"] = field(default_factory=list)
    #: Stride-scheduling virtual time; smallest eligible pass runs next.
    pass_value: float = 0.0
    in_use: int = 0
    #: Sandboxes the Dispatcher charged to this tenant (count against
    #: ``max_in_flight`` so sandbox hoarding shrinks query concurrency).
    sandbox_claims: int = 0
    tokens: float = 0.0
    tokens_refilled_at: float = 0.0
    admitted: int = 0
    shed: int = 0
    rejected: int = 0
    queue_wait_seconds_total: float = 0.0

    @property
    def stride(self) -> float:
        """Virtual-time increment charged per dispatched query."""
        return STRIDE_ONE / max(self.policy.weight, 1e-9)

    @property
    def in_flight(self) -> int:
        """Budget-relevant concurrency: running queries + sandbox claims."""
        return self.in_use + self.sandbox_claims

    def over_budget(self) -> bool:
        """True when ``max_in_flight`` forbids dispatching another query."""
        limit = self.policy.max_in_flight
        return limit is not None and self.in_flight >= limit


@dataclass
class AdmissionTicket:
    """One query's passage through admission: queue -> slot -> release."""

    tenant: str
    lane: str
    user: str
    manager: "WorkloadManager"
    state: str = TICKET_QUEUED
    #: System-lane tickets are admitted without claiming a slot.
    slotless: bool = False
    enqueued_at: float = 0.0
    admitted_at: float | None = None
    exec_started_at: float | None = None
    released_at: float | None = None
    #: Why the ticket left the queue without being admitted (shed/cancel).
    failure: AdmissionError | None = None

    @property
    def queue_wait(self) -> float:
        """Seconds spent queued before admission (0 for fast-path admits)."""
        if self.admitted_at is None:
            return 0.0
        return max(0.0, self.admitted_at - self.enqueued_at)

    def release(self) -> None:
        """Return the slot (idempotent; safe on never-admitted tickets)."""
        self.manager.release(self)

    def cancel(self) -> bool:
        """Dequeue a still-queued ticket (interrupt path); True if it was."""
        return self.manager.cancel(self)


class WorkloadManager:
    """Admission control + fair-share scheduling for one compute resource.

    Thread-safe: many Connect operations admit concurrently; dispatch order
    is decided under one lock by stride scheduling (or arrival order when
    ``fair_share=False``).
    """

    def __init__(
        self,
        name: str = "cluster",
        clock: Clock | None = None,
        total_slots: int = 16,
        fair_share: bool = True,
        max_total_queue: int = 256,
        admission_timeout: float = 30.0,
        default_policy: TenantPolicy | None = None,
        expected_service_seconds: float = 0.0,
    ):
        self.name = name
        self._clock = clock or SystemClock()
        self.total_slots = max(1, total_slots)
        self.fair_share = fair_share
        self.max_total_queue = max(1, max_total_queue)
        self.admission_timeout = admission_timeout
        self._default_policy = default_policy or TenantPolicy()
        #: EWMA of observed service times; seeds the queue-wait estimate.
        self._avg_service_seconds = max(0.0, expected_service_seconds)
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._tenants: dict[str, _TenantState] = {}
        #: Arrival-order queue used when ``fair_share`` is off (FIFO mode).
        self._fifo: list[AdmissionTicket] = []
        self._slots_in_use = 0
        self._queued_total = 0
        #: Queue waits of the last QUEUE_WAIT_WINDOW queued admissions.
        self._queue_waits: deque[float] = deque(maxlen=QUEUE_WAIT_WINDOW)
        # Aggregate counters.
        self.admitted_total = 0
        self.shed_total = 0
        self.rejected_rate_limited = 0
        self.rejected_deadline = 0
        self.rejected_queue_full = 0
        self.timeouts = 0
        self.cancelled_total = 0
        self.system_bypass = 0
        self.lane_shed: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Tenant configuration
    # ------------------------------------------------------------------

    def configure_tenant(self, tenant: str, policy: TenantPolicy) -> None:
        """Install (or replace) one tenant's budgets."""
        with self._lock:
            state = self._tenant_locked(tenant)
            state.policy = policy
            state.tokens = float(policy.burst)
            state.tokens_refilled_at = self._clock.now()

    def _tenant_locked(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            policy = TenantPolicy(
                weight=self._default_policy.weight,
                max_queue_depth=self._default_policy.max_queue_depth,
                rate_per_second=self._default_policy.rate_per_second,
                burst=self._default_policy.burst,
                max_in_flight=self._default_policy.max_in_flight,
            )
            state = _TenantState(name=tenant, policy=policy)
            state.tokens = float(policy.burst)
            state.tokens_refilled_at = self._clock.now()
            # A newcomer starts at the current virtual time so it neither
            # monopolizes (pass too low) nor starves (pass too high).
            state.pass_value = self._global_pass_locked()
            self._tenants[tenant] = state
        return state

    def _global_pass_locked(self) -> float:
        active = [
            t.pass_value
            for t in self._tenants.values()
            if t.queue or t.in_use > 0
        ]
        return min(active) if active else 0.0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(
        self,
        user: str,
        lane: str = LANE_INTERACTIVE,
        tenant: str | None = None,
        query_ctx: QueryContext | None = None,
        on_enqueued: Any = None,
    ) -> AdmissionTicket:
        """Admit one query, blocking in the fair-share queue if needed.

        ``on_enqueued(ticket)`` fires (under the manager lock) the moment
        the ticket joins a queue, so callers can expose it for
        cancellation from other threads while this thread blocks.

        Raises :class:`~repro.errors.AdmissionError` (retryable, with
        ``retry_after``) on rate limiting, backpressure, load shedding,
        queue timeout or cancellation, and
        :class:`~repro.common.context.QueryDeadlineExceeded` when the
        query's deadline cannot be met.
        """
        tenant = tenant or user
        now = self._clock.now()
        ticket = AdmissionTicket(
            tenant=tenant, lane=lane, user=user, manager=self, enqueued_at=now
        )
        if lane == LANE_SYSTEM:
            # Introspection reads stay admitted even under full saturation:
            # operators must be able to look at an overloaded cluster.
            with self._lock:
                self.system_bypass += 1
            ticket.slotless = True
            ticket.state = TICKET_ADMITTED
            ticket.admitted_at = now
            return ticket

        with self._ready:
            state = self._tenant_locked(tenant)
            self._check_rate_locked(state, now)
            est_wait = self._estimated_wait_locked()
            self._check_deadline_locked(query_ctx, est_wait, where="admission")
            if self._queued_total == 0 and self._slots_in_use < self.total_slots \
                    and not state.over_budget():
                self._dispatch_ticket_locked(ticket, state)
                return ticket
            self._enqueue_locked(ticket, state, est_wait)
            if on_enqueued is not None:
                on_enqueued(ticket)
            self._schedule_locked()
            deadline = None
            if query_ctx is not None and query_ctx.deadline is not None:
                deadline = query_ctx.deadline
            timeout_at = now + self.admission_timeout
            while ticket.state == TICKET_QUEUED:
                wait_for = timeout_at - self._clock.now()
                if deadline is not None:
                    wait_for = min(wait_for, deadline - self._clock.now())
                if wait_for <= 0 or not self._ready.wait(timeout=max(wait_for, 0.001)):
                    if ticket.state != TICKET_QUEUED:
                        break
                    wall = self._clock.now()
                    if deadline is not None and wall >= deadline:
                        self._remove_queued_locked(ticket)
                        ticket.state = TICKET_CANCELLED
                        self.rejected_deadline += 1
                        raise QueryDeadlineExceeded(
                            f"deadline elapsed while queued for admission "
                            f"(tenant '{tenant}')"
                        )
                    if wall >= timeout_at:
                        self._remove_queued_locked(ticket)
                        ticket.state = TICKET_CANCELLED
                        self.timeouts += 1
                        raise AdmissionError(
                            f"tenant '{tenant}' spent more than "
                            f"{self.admission_timeout:.1f}s in the admission "
                            f"queue",
                            retry_after=self._estimated_wait_locked(),
                            reason="timeout",
                        )
            if ticket.state == TICKET_ADMITTED:
                state.queue_wait_seconds_total += ticket.queue_wait
                self._queue_waits.append(ticket.queue_wait)
                return ticket
            failure = ticket.failure or AdmissionError(
                f"query for tenant '{tenant}' left the admission queue "
                f"in state {ticket.state}",
                reason="shed",
            )
            raise failure

    def _check_rate_locked(self, state: _TenantState, now: float) -> None:
        rate = state.policy.rate_per_second
        if rate is None or rate <= 0:
            return
        elapsed = max(0.0, now - state.tokens_refilled_at)
        state.tokens = min(
            float(state.policy.burst), state.tokens + elapsed * rate
        )
        state.tokens_refilled_at = now
        if state.tokens >= 1.0:
            state.tokens -= 1.0
            return
        retry_after = (1.0 - state.tokens) / rate
        state.rejected += 1
        self.rejected_rate_limited += 1
        raise AdmissionError(
            f"tenant '{state.name}' exceeded its rate of {rate:g} "
            f"queries/second",
            retry_after=retry_after,
            reason="rate_limited",
        )

    def _check_deadline_locked(
        self, query_ctx: QueryContext | None, est_wait: float, where: str
    ) -> None:
        if query_ctx is None:
            return
        remaining = query_ctx.remaining()
        if remaining is None:
            return
        if remaining <= 0 or est_wait > remaining:
            self.rejected_deadline += 1
            raise QueryDeadlineExceeded(
                f"estimated queue wait {est_wait:.3f}s exceeds the "
                f"remaining deadline {max(remaining, 0.0):.3f}s at {where}"
            )

    def _estimated_wait_locked(self) -> float:
        """Expected queue wait for a new arrival, from the service EWMA."""
        if self._queued_total == 0 and self._slots_in_use < self.total_slots:
            return 0.0
        backlog = self._queued_total + 1
        return backlog * self._avg_service_seconds / self.total_slots

    # -- queueing -------------------------------------------------------------------

    def _enqueue_locked(
        self, ticket: AdmissionTicket, state: _TenantState, est_wait: float
    ) -> None:
        if len(state.queue) >= state.policy.max_queue_depth:
            state.rejected += 1
            self.rejected_queue_full += 1
            raise AdmissionError(
                f"tenant '{state.name}' already has "
                f"{len(state.queue)} queries queued (backpressure)",
                retry_after=max(est_wait, self._avg_service_seconds),
                reason="queue_full",
            )
        if self._queued_total >= self.max_total_queue:
            self._shed_for_locked(ticket, est_wait)
        state.queue.append(ticket)
        if not self.fair_share:
            self._fifo.append(ticket)
        self._queued_total += 1

    def _shed_for_locked(
        self, arriving: AdmissionTicket, est_wait: float
    ) -> None:
        """Saturated: shed the lowest-priority queued work — or the arrival."""
        victim = self._lowest_priority_queued_locked()
        arriving_prio = LANE_PRIORITY.get(arriving.lane, 1)
        if victim is not None and LANE_PRIORITY.get(victim.lane, 1) > arriving_prio:
            self._shed_ticket_locked(victim)
            return
        self.shed_total += 1
        self.lane_shed[arriving.lane] = self.lane_shed.get(arriving.lane, 0) + 1
        raise AdmissionError(
            f"cluster admission queue is saturated "
            f"({self._queued_total} queued); lane '{arriving.lane}' shed",
            retry_after=max(est_wait, self._avg_service_seconds),
            reason="shed",
        )

    def _lowest_priority_queued_locked(self) -> AdmissionTicket | None:
        worst: AdmissionTicket | None = None
        worst_prio = -1
        for state in self._tenants.values():
            for ticket in state.queue:
                prio = LANE_PRIORITY.get(ticket.lane, 1)
                # Among equals shed the newest arrival (least sunk wait).
                if prio > worst_prio or (
                    prio == worst_prio
                    and worst is not None
                    and ticket.enqueued_at > worst.enqueued_at
                ):
                    worst, worst_prio = ticket, prio
        return worst

    def _shed_ticket_locked(self, ticket: AdmissionTicket) -> None:
        self._remove_queued_locked(ticket)
        ticket.state = TICKET_SHED
        ticket.failure = AdmissionError(
            f"queued query for tenant '{ticket.tenant}' was shed to make "
            f"room for higher-priority work",
            retry_after=self._estimated_wait_locked(),
            reason="shed",
        )
        state = self._tenants.get(ticket.tenant)
        if state is not None:
            state.shed += 1
        self.shed_total += 1
        self.lane_shed[ticket.lane] = self.lane_shed.get(ticket.lane, 0) + 1
        self._ready.notify_all()

    def _remove_queued_locked(self, ticket: AdmissionTicket) -> None:
        state = self._tenants.get(ticket.tenant)
        if state is not None and ticket in state.queue:
            state.queue.remove(ticket)
            self._queued_total -= 1
        if ticket in self._fifo:
            self._fifo.remove(ticket)

    # -- dispatch -------------------------------------------------------------------

    def _schedule_locked(self) -> None:
        """Hand free slots to queued tickets in fair-share (or FIFO) order."""
        while self._slots_in_use < self.total_slots:
            picked = self._pick_locked()
            if picked is None:
                return
            ticket, state = picked
            state.queue.remove(ticket)
            if ticket in self._fifo:
                self._fifo.remove(ticket)
            self._queued_total -= 1
            self._dispatch_ticket_locked(ticket, state)
            self._ready.notify_all()

    def _pick_locked(self) -> tuple[AdmissionTicket, _TenantState] | None:
        if not self.fair_share:
            # FIFO baseline: strict arrival order, head-of-line blocking on
            # an over-budget tenant included — that is the point.
            if not self._fifo:
                return None
            head = self._fifo[0]
            state = self._tenants[head.tenant]
            if state.over_budget():
                return None
            return head, state
        best: _TenantState | None = None
        for state in self._tenants.values():
            if not state.queue or state.over_budget():
                continue
            if best is None or state.pass_value < best.pass_value:
                best = state
        if best is None:
            return None
        # Within a tenant, higher-priority lanes go first, then FIFO.
        ticket = min(
            best.queue,
            key=lambda t: (LANE_PRIORITY.get(t.lane, 1), t.enqueued_at),
        )
        return ticket, best

    def _dispatch_ticket_locked(
        self, ticket: AdmissionTicket, state: _TenantState
    ) -> None:
        ticket.state = TICKET_ADMITTED
        ticket.admitted_at = self._clock.now()
        state.in_use += 1
        state.admitted += 1
        state.pass_value += state.stride
        self._slots_in_use += 1
        self.admitted_total += 1

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------

    def cancel(self, ticket: AdmissionTicket) -> bool:
        """Interrupt a still-queued ticket: dequeue + release reservation."""
        with self._ready:
            if ticket.state != TICKET_QUEUED:
                return False
            self._remove_queued_locked(ticket)
            ticket.state = TICKET_CANCELLED
            ticket.failure = AdmissionError(
                f"operation for tenant '{ticket.tenant}' was interrupted "
                f"while queued for admission",
                reason="cancelled",
            )
            self.cancelled_total += 1
            self._ready.notify_all()
            return True

    def begin_execution(self, ticket: AdmissionTicket) -> None:
        """Mark the execute stage entering (records slot occupancy timing)."""
        with self._lock:
            if ticket.state == TICKET_ADMITTED and ticket.exec_started_at is None:
                ticket.exec_started_at = self._clock.now()

    def release(self, ticket: AdmissionTicket) -> None:
        """Free the ticket's slot and dispatch the next queued query."""
        with self._ready:
            if ticket.state != TICKET_ADMITTED:
                return
            ticket.state = TICKET_RELEASED
            ticket.released_at = self._clock.now()
            if ticket.slotless:
                return
            state = self._tenants.get(ticket.tenant)
            if state is not None:
                state.in_use = max(0, state.in_use - 1)
            self._slots_in_use = max(0, self._slots_in_use - 1)
            started = ticket.exec_started_at or ticket.admitted_at
            if started is not None:
                service = max(0.0, ticket.released_at - started)
                # EWMA keeps the wait estimator fresh without history.
                if self._avg_service_seconds <= 0.0:
                    self._avg_service_seconds = service
                else:
                    self._avg_service_seconds = (
                        0.8 * self._avg_service_seconds + 0.2 * service
                    )
            self._schedule_locked()
            self._ready.notify_all()

    @contextmanager
    def execution_slot(self, query_ctx: QueryContext | None) -> Iterator[AdmissionTicket | None]:
        """Execute-stage bracket: marks the admitted slot busy, frees it after.

        When the query never passed admission (internal paths: CTAS inner
        plans, MV refresh, direct backend calls) this is a no-op bracket —
        the admission boundary is the Connect service.
        """
        ticket = getattr(query_ctx, "ticket", None) if query_ctx is not None else None
        if ticket is None:
            yield None
            return
        self.begin_execution(ticket)
        try:
            yield ticket
        finally:
            self.release(ticket)

    # ------------------------------------------------------------------
    # Sandbox budget accounting (Dispatcher integration)
    # ------------------------------------------------------------------

    def charge_sandbox(self, tenant: str) -> None:
        """Count one sandbox claim against ``tenant``'s in-flight budget."""
        with self._lock:
            self._tenant_locked(tenant).sandbox_claims += 1

    def release_sandbox(self, tenant: str, count: int = 1) -> None:
        """Return ``count`` sandbox claims to ``tenant``'s budget."""
        with self._ready:
            state = self._tenants.get(tenant)
            if state is not None:
                state.sandbox_claims = max(0, state.sandbox_claims - count)
            # Freed budget may unblock a queued query of this tenant.
            self._schedule_locked()
            self._ready.notify_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self, tenant: str | None = None) -> int:
        """Queued queries, for one tenant or in total."""
        with self._lock:
            if tenant is None:
                return self._queued_total
            state = self._tenants.get(tenant)
            return len(state.queue) if state is not None else 0

    def slots_in_use(self) -> int:
        """Currently occupied concurrency slots."""
        with self._lock:
            return self._slots_in_use

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat metrics for ``system.access.workload_stats``."""
        with self._lock:
            waits = sorted(self._queue_waits)
            snapshot: dict[str, Any] = {
                "total_slots": self.total_slots,
                "slots_in_use": self._slots_in_use,
                "queued_total": self._queued_total,
                "fair_share": int(self.fair_share),
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "rejected_rate_limited": self.rejected_rate_limited,
                "rejected_deadline": self.rejected_deadline,
                "rejected_queue_full": self.rejected_queue_full,
                "admission_timeouts": self.timeouts,
                "cancelled_total": self.cancelled_total,
                "system_bypass": self.system_bypass,
                "avg_service_seconds": self._avg_service_seconds,
                "queue_wait_seconds_p50": _nearest_rank(waits, 50),
                "queue_wait_seconds_p95": _nearest_rank(waits, 95),
            }
            for lane, count in sorted(self.lane_shed.items()):
                snapshot[f"lane.{lane}.shed"] = count
            for name, state in sorted(self._tenants.items()):
                prefix = f"tenant.{name}"
                snapshot[f"{prefix}.queued"] = len(state.queue)
                snapshot[f"{prefix}.in_use"] = state.in_use
                snapshot[f"{prefix}.sandbox_claims"] = state.sandbox_claims
                snapshot[f"{prefix}.admitted"] = state.admitted
                snapshot[f"{prefix}.shed"] = state.shed
                snapshot[f"{prefix}.rejected"] = state.rejected
                snapshot[f"{prefix}.weight"] = state.policy.weight
                snapshot[f"{prefix}.queue_wait_seconds_total"] = (
                    state.queue_wait_seconds_total
                )
            return snapshot


def _nearest_rank(ordered: list[float], p: float) -> float:
    """The p-th percentile (0 < p < 100) of sorted values; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[round(p / 100.0 * (len(ordered) - 1))]
