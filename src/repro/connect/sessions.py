"""Server-side session and operation lifecycle (§3.2.3).

The Spark Connect service "manages incoming connections and maps them to
individual Spark Sessions", owns temporary state (views, registered UDFs),
evicts idle sessions, and for each running query keeps an *operation* whose
buffered results support ReattachExecute after a dropped connection. An
operation whose client disappears is abandoned and tombstoned.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.catalog.privileges import UserContext
from repro.common.clock import Clock, SystemClock
from repro.common.ids import new_id
from repro.engine.udf import PythonUDF
from repro.errors import OperationGoneError, SessionError

#: Idle seconds after which a session may be evicted.
DEFAULT_SESSION_TTL = 3600.0
#: Seconds without reattach after which a broken operation is abandoned.
DEFAULT_OPERATION_ABANDON_AFTER = 300.0
#: Finished operations remembered by id, so a late reattach learns *how* the
#: operation ended; older ones answer "does not exist".
MAX_TOMBSTONES = 256

#: Waiting in the workload manager's admission queue, not yet executing.
OP_QUEUED = "QUEUED"
OP_RUNNING = "RUNNING"
OP_FINISHED = "FINISHED"
OP_INTERRUPTED = "INTERRUPTED"
OP_ABANDONED = "ABANDONED"


@dataclass
class OperationState:
    """One query execution, buffered for reattachability."""

    operation_id: str
    session_id: str
    status: str = OP_RUNNING
    #: Fully materialized response items, in order (schema, batches, done).
    responses: list[dict[str, Any]] = field(default_factory=list)
    #: Highest response index the client acknowledged receiving.
    acked_index: int = -1
    last_client_contact: float = 0.0
    #: Trace the operation executes under (client-sent or server-assigned);
    #: ReattachExecute resumes this same trace.
    trace_id: str | None = None
    #: The admission ticket while QUEUED/RUNNING; interrupting a QUEUED
    #: operation cancels this ticket, dequeuing it without ever executing.
    ticket: Any = None

    def remaining_from(self, index: int) -> list[dict[str, Any]]:
        return self.responses[index:]


@dataclass
class SessionState:
    """Per-user application state attached to one Spark session."""

    session_id: str
    user_ctx: UserContext
    created_at: float
    last_active: float
    #: Temporary views: name -> relation proto (client-defined plans).
    temp_views: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Ephemeral UDFs registered in this session, keyed by name.
    temp_udfs: dict[str, PythonUDF] = field(default_factory=dict)
    #: Session configuration (workload environment version etc.).
    config: dict[str, str] = field(default_factory=dict)
    #: Protocol version the client announced at ``create_session``; it picks
    #: the result-batch encoding (binary frames from v5, JSON before).
    client_version: int = 1
    closed: bool = False
    #: Bumped whenever temp views/UDFs change; part of the secure-plan cache
    #: key, since session temp state resolves at plan-decode time.
    temp_state_version: int = 0
    #: Per-tenant workload accounting, maintained by the Connect service:
    #: queries this session got admitted / rejected, and total queue wait.
    admitted_queries: int = 0
    rejected_queries: int = 0
    queue_wait_seconds: float = 0.0
    #: The open multi-statement transaction (a :class:`repro.txn.Transaction`)
    #: after BEGIN, or ``None``. While set, reads resolve at the
    #: transaction's pinned snapshots and writes stage into it; plan/result
    #: caches are bypassed (cached artifacts must never capture a pinned
    #: view of the data).
    active_txn: Any = None
    #: SQL template (the text's tokens, literals lifted out) -> the table
    #: names it references (``None``: unresolvable), for
    #: :func:`repro.connect.proto.referenced_tables`. Bounded there; private
    #: to this session and gone with it, so one principal's query texts are
    #: never probed by another's.
    reference_memo: OrderedDict[tuple, frozenset[str] | None] = field(
        default_factory=OrderedDict
    )

    def bump_temp_state(self) -> None:
        self.temp_state_version += 1

    def record_admission(self, queue_wait: float) -> None:
        """Account one admitted query (and its admission-queue wait)."""
        self.admitted_queries += 1
        self.queue_wait_seconds += max(0.0, queue_wait)

    def record_rejection(self) -> None:
        """Account one query the workload manager refused to admit."""
        self.rejected_queries += 1


class SessionManager:
    """Creates, authenticates, expires and tombstones sessions/operations."""

    def __init__(
        self,
        clock: Clock | None = None,
        session_ttl: float = DEFAULT_SESSION_TTL,
        operation_abandon_after: float = DEFAULT_OPERATION_ABANDON_AFTER,
    ):
        self._clock = clock or SystemClock()
        self._ttl = session_ttl
        self._abandon_after = operation_abandon_after
        self._sessions: dict[str, SessionState] = {}
        self._operations: dict[str, OperationState] = {}
        #: Tombstones of abandoned/released operations (id -> final status).
        self._tombstones: OrderedDict[str, str] = OrderedDict()

    # -- sessions ------------------------------------------------------------------

    def create_session(self, user_ctx: UserContext) -> SessionState:
        """Open a new session bound to an authenticated user context."""
        now = self._clock.now()
        session = SessionState(
            session_id=new_id("session"),
            user_ctx=user_ctx,
            created_at=now,
            last_active=now,
        )
        self._sessions[session.session_id] = session
        return session

    def get_session(self, session_id: str, user: str) -> SessionState:
        """Authenticated lookup: a session is private to the user who made it.

        This is the multi-user invariant (§2.5): another user on the same
        cluster cannot attach to — or read residual state from — a session
        they do not own.
        """
        session = self._sessions.get(session_id)
        if session is None or session.closed:
            raise SessionError(f"session '{session_id}' does not exist")
        if session.user_ctx.user != user:
            raise SessionError(
                f"session '{session_id}' belongs to another user"
            )
        session.last_active = self._clock.now()
        return session

    def adopt_session(self, session: SessionState) -> None:
        """Take over a session migrated from another backend (§6.2).

        The session keeps its id and all temporary state, so the client
        notices nothing.
        """
        session.last_active = self._clock.now()
        self._sessions[session.session_id] = session

    def evict_session(self, session_id: str) -> SessionState | None:
        """Remove a session for migration without closing it."""
        return self._sessions.pop(session_id, None)

    def close_session(self, session_id: str) -> None:
        session = self._sessions.pop(session_id, None)
        if session is not None:
            session.closed = True
        for op in list(self._operations.values()):
            if op.session_id == session_id:
                self._finish_operation(op, OP_ABANDONED)

    def expire_idle_sessions(self) -> list[str]:
        """Evict sessions idle beyond the TTL; returns their ids."""
        now = self._clock.now()
        expired = [
            sid
            for sid, s in self._sessions.items()
            if now - s.last_active > self._ttl
        ]
        for sid in expired:
            self.close_session(sid)
        return expired

    def active_sessions(self) -> list[SessionState]:
        return [s for s in self._sessions.values() if not s.closed]

    # -- operations -----------------------------------------------------------------

    def start_operation(self, session_id: str, operation_id: str | None = None) -> OperationState:
        """Track a new query execution (id may be client-supplied)."""
        op = OperationState(
            operation_id=operation_id or new_id("op"),
            session_id=session_id,
            last_client_contact=self._clock.now(),
        )
        self._operations[op.operation_id] = op
        return op

    def get_operation(self, operation_id: str, session_id: str) -> OperationState:
        """Look up a live operation; raises OperationGone for tombstones."""
        op = self._operations.get(operation_id)
        if op is None:
            status = self._tombstones.get(operation_id)
            if status is not None:
                raise OperationGoneError(
                    f"operation '{operation_id}' was {status.lower()} and "
                    "its results released"
                )
            raise OperationGoneError(f"operation '{operation_id}' does not exist")
        if op.session_id != session_id:
            raise SessionError(
                f"operation '{operation_id}' belongs to another session"
            )
        op.last_client_contact = self._clock.now()
        return op

    def release_operation(self, operation_id: str, session_id: str) -> None:
        """Client acknowledges completion; results are dropped."""
        op = self._operations.pop(operation_id, None)
        if op is not None and op.session_id == session_id:
            self._bury(operation_id, OP_FINISHED)

    def interrupt_operation(self, operation_id: str, session_id: str) -> None:
        """Interrupt a running — or still-queued — operation.

        A QUEUED operation is blocked in the workload manager's admission
        queue on its serving thread; cancelling its ticket dequeues it and
        releases the reservation, so the blocked ``admit()`` call raises
        instead of ever executing. A RUNNING operation is only tombstoned:
        its concurrency slot stays held until the serving thread finishes,
        because execution cannot be preempted.
        """
        op = self.get_operation(operation_id, session_id)
        self._finish_operation(op, OP_INTERRUPTED)

    def reap_abandoned_operations(self) -> list[str]:
        """Tombstone operations whose clients stopped reattaching (§3.2.3)."""
        now = self._clock.now()
        doomed = [
            op
            for op in self._operations.values()
            if now - op.last_client_contact > self._abandon_after
        ]
        for op in doomed:
            self._finish_operation(op, OP_ABANDONED)
        return [op.operation_id for op in doomed]

    def _finish_operation(self, op: OperationState, status: str) -> None:
        ticket = op.ticket
        if ticket is not None and ticket.cancel():
            # QUEUED: dequeued and its reservation released; the blocked
            # admit() call on the serving thread raises instead of running.
            op.ticket = None
        # An ADMITTED ticket is deliberately left alone: there is no
        # preemption, so the serving thread is still executing in its slot.
        # Releasing here would let the scheduler dispatch past total_slots
        # (repeated interrupts -> unbounded overcommit) and record a
        # truncated service time into the wait-estimator EWMA. The
        # execute-stage bracket / handle_stream ``finally`` on the serving
        # thread frees the slot when the operator actually finishes.
        op.status = status
        self._operations.pop(op.operation_id, None)
        self._bury(op.operation_id, status)

    def _bury(self, operation_id: str, status: str) -> None:
        self._tombstones[operation_id] = status
        if len(self._tombstones) > MAX_TOMBSTONES:
            self._tombstones.popitem(last=False)
