"""The Spark Connect service (§3.2.3).

Runs next to the driver; owns sessions and operations; executes plans through
a pluggable :class:`ExecutionBackend` (Lakeguard provides the governed one).
Errors travel in-band as typed messages so the client can re-raise them.

Streamed results are fully buffered per operation: this is what makes
ReattachExecute trivially correct — after a dropped connection the client
resumes from the last index it saw, and ReleaseExecute frees the buffer.
"""

from __future__ import annotations

from typing import Any, Iterator, Protocol

from repro.catalog.privileges import UserContext
from repro.common.clock import Clock, SystemClock
from repro.common.context import QueryContext, QueryDeadlineExceeded
from repro.common.datacodec import encode_data_file
from repro.common.telemetry import Telemetry
from repro.connect import proto
from repro.connect.sessions import (
    OP_FINISHED,
    OP_QUEUED,
    OP_RUNNING,
    OperationState,
    SessionManager,
    SessionState,
)
from repro.errors import (
    AdmissionError,
    AnalysisError,
    CircuitOpenError,
    ClusterAttachDenied,
    ClusterError,
    CommitConflictError,
    CorruptObjectError,
    CredentialError,
    EgressDenied,
    ExecutionError,
    FaultInjectedError,
    HostFilesystemDenied,
    LakeguardError,
    OperationGoneError,
    ParseError,
    PermissionDenied,
    ProtocolError,
    RetryableError,
    SandboxDied,
    SandboxError,
    SandboxPolicyViolation,
    SecurableAlreadyExists,
    SecurableNotFound,
    SessionError,
    StorageAccessDenied,
    StorageError,
    TransactionAbortedError,
    TransientCredentialError,
    TransientStorageError,
    TrustDomainViolation,
    UnsupportedOperationError,
    UserCodeError,
    VersionIncompatibleError,
    WriteDeniedError,
)
from repro.scheduler.turns import InterpreterTurns
from repro.scheduler.workload import LANE_INTERACTIVE, LANE_PRIORITY, LANE_SYSTEM

#: Rows per streamed result batch ("Arrow IPC message" stand-in).
RESULT_BATCH_ROWS = 1024

#: Seconds between request-path housekeeping ticks (idle-session expiry and
#: abandoned-operation reaping); the manual call remains for tests/ops.
HOUSEKEEPING_INTERVAL = 60.0

#: Session config key selecting the admission lane ("interactive"/"batch").
LANE_CONFIG_KEY = "workload.lane"
#: Session config key overriding the accounting tenant (e.g. trust domain).
TENANT_CONFIG_KEY = "workload.tenant"

#: error_class names the client maps back to exceptions.
_ERROR_CLASSES: dict[str, type[LakeguardError]] = {
    cls.__name__: cls
    for cls in (
        AdmissionError,
        AnalysisError,
        CircuitOpenError,
        ClusterAttachDenied,
        ClusterError,
        CommitConflictError,
        CorruptObjectError,
        CredentialError,
        EgressDenied,
        ExecutionError,
        FaultInjectedError,
        HostFilesystemDenied,
        LakeguardError,
        OperationGoneError,
        ParseError,
        ProtocolError,
        QueryDeadlineExceeded,
        RetryableError,
        SandboxDied,
        SandboxError,
        SandboxPolicyViolation,
        SecurableAlreadyExists,
        SecurableNotFound,
        SessionError,
        StorageAccessDenied,
        StorageError,
        TransactionAbortedError,
        TransientCredentialError,
        TransientStorageError,
        TrustDomainViolation,
        UnsupportedOperationError,
        UserCodeError,
        VersionIncompatibleError,
        WriteDeniedError,
    )
}


def error_to_message(exc: LakeguardError) -> dict[str, Any]:
    """Serialize an exception as an in-band error message."""
    name = type(exc).__name__
    if name == "PermissionDenied":
        message: dict[str, Any] = {
            "@type": "error",
            "error_class": "PermissionDenied",
            "message": str(exc),
            "principal": exc.principal,
            "privilege": exc.privilege,
            "securable": exc.securable,
        }
    else:
        if name not in _ERROR_CLASSES:
            name = "LakeguardError"
        message = {"@type": "error", "error_class": name, "message": str(exc)}
        # Retryable errors carry their backoff hint (and admission reason)
        # in-band so clients can schedule a sensible retry.
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            message["retry_after"] = retry_after
        reason = getattr(exc, "reason", None)
        if reason:
            message["reason"] = reason
    if exc.trace_id is not None:
        message["trace_id"] = exc.trace_id
    return message


def raise_from_message(message: dict[str, Any]) -> None:
    """Re-raise a server error on the client side."""
    if message.get("@type") != "error":
        return
    name = message.get("error_class", "LakeguardError")
    cls = _ERROR_CLASSES.get(name, LakeguardError)
    text = message.get("message", "remote error")
    if name == "PermissionDenied":
        exc: LakeguardError = PermissionDenied(
            message.get("principal", "?"),
            message.get("privilege", "?"),
            message.get("securable", "?"),
        )
    elif issubclass(cls, AdmissionError):
        exc = cls(
            text,
            retry_after=float(message.get("retry_after", 0.0)),
            reason=message.get("reason", ""),
        )
    elif issubclass(cls, RetryableError):
        exc = cls(text, retry_after=float(message.get("retry_after", 0.0)))
    else:
        exc = cls(text)
    exc.trace_id = message.get("trace_id")
    raise exc


class ExecutionBackend(Protocol):
    """What the Connect service delegates query semantics to."""

    def authenticate(self, user: str) -> UserContext: ...

    def execute_relation(
        self, session: SessionState, relation: dict[str, Any]
    ) -> tuple[list[dict[str, str]], list[list[Any]]]:
        """Return (schema message, column-major result data)."""
        ...

    def execute_command(
        self, session: SessionState, command: dict[str, Any]
    ) -> dict[str, Any]: ...

    def analyze_relation(
        self, session: SessionState, relation: dict[str, Any]
    ) -> list[dict[str, str]]: ...

    def on_session_closed(self, session: SessionState) -> None: ...


class SparkConnectService:
    """Protocol front-end: sessions, operations, streaming, reattach."""

    def __init__(
        self,
        backend: ExecutionBackend,
        clock: Clock | None = None,
        sessions: SessionManager | None = None,
        server_version: int = proto.PROTOCOL_VERSION,
        result_batch_rows: int = RESULT_BATCH_ROWS,
        housekeeping_interval: float | None = HOUSEKEEPING_INTERVAL,
    ):
        self._backend = backend
        self._clock = clock or SystemClock()
        self.sessions = sessions or SessionManager(clock=self._clock)
        self.server_version = server_version
        self._result_batch_rows = result_batch_rows
        #: Admission control, when the backend provides a WorkloadManager.
        self.workload_manager = getattr(backend, "workload_manager", None)
        #: Keeps one request thread from starving the others of the
        #: interpreter (real time, not ``clock``: it sleeps for real).
        self.turns = InterpreterTurns()
        self._housekeeping_interval = housekeeping_interval
        self._last_housekeeping = self._clock.now()
        #: Shared with the backend when it has one (so service spans land in
        #: the same registry as enforcement/executor spans).
        backend_telemetry = getattr(backend, "telemetry", None)
        self.telemetry: Telemetry = (
            backend_telemetry
            if backend_telemetry is not None
            else Telemetry(clock=self._clock)
        )

    def maybe_housekeeping(self) -> dict[str, list[str]] | None:
        """Request-path housekeeping tick: runs :meth:`housekeeping` when
        ``housekeeping_interval`` seconds elapsed since the last run.

        Every ``handle``/``handle_stream`` call invokes this, so a serving
        cluster expires idle sessions and reaps abandoned operations without
        any external scheduler; ``housekeeping_interval=None`` disables the
        tick (manual invocation only).
        """
        if self._housekeeping_interval is None:
            return None
        now = self._clock.now()
        if now - self._last_housekeeping < self._housekeeping_interval:
            return None
        return self.housekeeping()

    def housekeeping(self) -> dict[str, Any]:
        """Periodic maintenance (§3.2.3): evict idle sessions, tombstone
        abandoned operations, probe sandbox liveness. Runs from the
        request-path tick (:meth:`maybe_housekeeping`) or a direct call."""
        self._last_housekeeping = self._clock.now()
        expired = self.sessions.expire_idle_sessions()
        for session_id in expired:
            # Sessions are already closed; release backend resources too.
            try:
                self._backend.on_session_closed(
                    SessionState(
                        session_id=session_id,
                        user_ctx=UserContext(user="<expired>"),
                        created_at=0.0,
                        last_active=0.0,
                    )
                )
            except LakeguardError:
                pass
        abandoned = self.sessions.reap_abandoned_operations()
        result: dict[str, Any] = {
            "expired_sessions": expired,
            "abandoned_operations": abandoned,
        }
        # Sandbox self-healing rides the same tick: sweep the backend's
        # dispatcher pool for workers that died while idle and respawn
        # spares, so the next query never lands on a corpse.
        dispatcher = getattr(self._backend, "dispatcher", None)
        if dispatcher is not None:
            result["sandbox_liveness"] = dispatcher.probe_liveness()
        return result

    # ------------------------------------------------------------------
    # Unary methods
    # ------------------------------------------------------------------

    def handle(self, method: str, request: dict[str, Any]) -> dict[str, Any]:
        self.maybe_housekeeping()
        try:
            return self._handle(method, request)
        except LakeguardError as exc:
            return error_to_message(exc)

    def _handle(self, method: str, request: dict[str, Any]) -> dict[str, Any]:
        if method == "create_session":
            client_version = int(request.get("client_version", 1))
            proto.check_client_version(client_version, self.server_version)
            user_ctx = self._backend.authenticate(request["user"])
            session = self.sessions.create_session(user_ctx)
            session.client_version = client_version
            for key, value in (request.get("config") or {}).items():
                session.config[key] = value
            return {
                "session_id": session.session_id,
                "server_version": self.server_version,
            }
        if method == "close_session":
            session = self._session(request)
            self.sessions.close_session(session.session_id)
            self._backend.on_session_closed(session)
            return {"closed": True}
        if method == "config":
            session = self._session(request)
            for key, value in (request.get("set") or {}).items():
                session.config[key] = value
            wanted = request.get("get") or []
            return {"values": {k: session.config.get(k) for k in wanted}}
        if method == "analyze_plan":
            session = self._session(request)
            schema = self._backend.analyze_relation(session, request["plan"])
            return {"schema": schema}
        if method == "interrupt":
            session = self._session(request)
            self.sessions.interrupt_operation(
                request["operation_id"], session.session_id
            )
            return {"interrupted": True}
        if method == "release_execute":
            session = self._session(request)
            self.sessions.release_operation(
                request["operation_id"], session.session_id
            )
            return {"released": True}
        raise ProtocolError(f"unknown unary method '{method}'")

    def _session(self, request: dict[str, Any]) -> SessionState:
        return self.sessions.get_session(request["session_id"], request["user"])

    # ------------------------------------------------------------------
    # Streaming methods
    # ------------------------------------------------------------------

    def handle_stream(
        self, method: str, request: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        self.maybe_housekeeping()
        try:
            yield from self._handle_stream(method, request)
        except LakeguardError as exc:
            yield error_to_message(exc)

    def _handle_stream(
        self, method: str, request: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        if method == "execute_plan":
            proto.check_client_version(
                int(request.get("client_version", 1)), self.server_version
            )
            session = self._session(request)
            op = self.sessions.start_operation(
                session.session_id, request.get("operation_id")
            )
            # "trace_id" and "deadline_seconds" are protocol extension
            # fields: the dict wire format ignores unknown keys, so old
            # clients simply get a server-assigned trace and no deadline.
            deadline = request.get("deadline_seconds")
            query_ctx = QueryContext.create(
                user=session.user_ctx.user,
                telemetry=self.telemetry,
                clock=self._clock,
                trace_id=request.get("trace_id"),
                session_id=session.session_id,
                cluster_id=getattr(self._backend, "cluster_id", ""),
                operation_id=op.operation_id,
                deadline_seconds=float(deadline) if deadline is not None else None,
            )
            op.trace_id = query_ctx.trace_id
            try:
                self._execute_plan(session, op, query_ctx, request["plan"])
            except LakeguardError as exc:
                exc.trace_id = query_ctx.trace_id
                raise
            yield from op.responses
            return
        if method == "reattach_execute":
            session = self._session(request)
            op = self.sessions.get_operation(
                request["operation_id"], session.session_id
            )
            start = int(request.get("last_index", -1)) + 1
            if op.trace_id is not None:
                # The reattach rejoins the operation's original trace.
                span = self.telemetry.start_span(
                    "reattach_execute",
                    "service.operation",
                    trace_id=op.trace_id,
                    user=session.user_ctx.user,
                    operation_id=op.operation_id,
                    resumed_from_index=start,
                )
                self.telemetry.finish_span(span)
            yield from op.remaining_from(start)
            return
        raise ProtocolError(f"unknown stream method '{method}'")

    def _execute_plan(
        self,
        session: SessionState,
        op: OperationState,
        query_ctx: QueryContext,
        plan: dict[str, Any],
    ) -> None:
        """Admit and run one operation under its ``execute_plan`` span."""
        self.turns.begin()
        if proto.is_relation(plan):
            # The one structural resolution (and SQL parse) of this
            # operation: the lane classifier, the plan-cache bypass and the
            # decoder all read it off the context.
            query_ctx.plan_refs = proto.resolve_references(
                plan, session.reference_memo
            )
        self._admit_operation(session, op, query_ctx)
        try:
            with query_ctx.activate():
                with query_ctx.span(
                    "execute_plan",
                    "service.operation",
                    operation_id=op.operation_id,
                    session_id=session.session_id,
                    lane=op.ticket.lane if op.ticket is not None else "",
                ):
                    self._run_operation(session, op, plan)
        finally:
            # Usually a no-op: the pipeline's execute stage released the
            # slot already. Covers command paths and pre-execute errors.
            ticket, op.ticket = op.ticket, None
            if ticket is not None:
                ticket.release()
            self.turns.end()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _lane_for(
        self, session: SessionState, refs: proto.PlanReferences | None
    ) -> str:
        """Pick the admission lane: a relation whose *structurally resolved*
        table references are all registered system tables is an
        introspection read and bypasses admission; otherwise the session
        config chooses interactive (default) or batch.

        The resolution walks relation/SQL-AST table nodes, never raw
        strings — a ``system.`` substring inside a literal, comment or
        identifier cannot route a query onto the unthrottled system lane —
        and asks the catalog's system-table registry, so neither can a
        table an admin created under a ``system`` catalog. Unknown shapes
        (``refs.tables`` is ``None``) and commands (``refs`` is ``None``)
        stay on the admitted lanes, the conservative direction.
        """
        catalog = getattr(self._backend, "catalog", None)
        if (
            refs is not None
            and catalog is not None
            and refs.all_system_tables(catalog.system_tables)
        ):
            return LANE_SYSTEM
        lane = session.config.get(LANE_CONFIG_KEY, LANE_INTERACTIVE)
        if lane not in LANE_PRIORITY or lane == LANE_SYSTEM:
            # Clients cannot claim the system lane via config.
            lane = LANE_INTERACTIVE
        return lane

    def _admit_operation(
        self,
        session: SessionState,
        op: OperationState,
        query_ctx: QueryContext,
    ) -> None:
        """Pass the operation through the workload manager (if any).

        While blocked in the admission queue the operation is visible as
        ``QUEUED`` and holds its ticket, so ``interrupt`` can dequeue it;
        rejected operations are tombstoned and the typed, retryable error
        propagates to the client in-band.
        """
        if self.workload_manager is None:
            return
        op.status = OP_QUEUED
        tenant = session.config.get(TENANT_CONFIG_KEY) or session.user_ctx.user
        lane = self._lane_for(session, query_ctx.plan_refs)
        try:
            ticket = self.workload_manager.admit(
                user=session.user_ctx.user,
                lane=lane,
                tenant=tenant,
                query_ctx=query_ctx,
                # Expose the ticket while this thread blocks in the queue,
                # so interrupt() from another thread can dequeue it.
                on_enqueued=lambda t: setattr(op, "ticket", t),
            )
        except LakeguardError:
            session.record_rejection()
            try:
                self.sessions.interrupt_operation(
                    op.operation_id, session.session_id
                )
            except (OperationGoneError, SessionError):
                pass  # an interrupt already tombstoned it
            raise
        op.ticket = ticket
        op.status = OP_RUNNING
        query_ctx.ticket = ticket
        session.record_admission(ticket.queue_wait)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run_operation(
        self, session: SessionState, op: OperationState, plan: dict[str, Any]
    ) -> None:
        """Execute the plan and buffer the full response stream."""
        responses: list[dict[str, Any]] = []
        if proto.is_command(plan):
            payload = self._backend.execute_command(session, plan)
            responses.append(
                {
                    "@type": "command_result",
                    "operation_id": op.operation_id,
                    "payload": payload,
                }
            )
        elif proto.is_relation(plan):
            schema, columns = self._backend.execute_relation(session, plan)
            responses.append(
                {
                    "@type": "schema",
                    "operation_id": op.operation_id,
                    "schema": schema,
                }
            )
            responses += self._result_batches(session, op, columns)
        else:
            raise ProtocolError(
                f"plan must be a relation or a command, got "
                f"'{proto.message_type(plan)}'"
            )
        responses.append(
            {"@type": "result_complete", "operation_id": op.operation_id}
        )
        op.responses = responses
        op.status = OP_FINISHED

    def _result_batches(
        self, session: SessionState, op: OperationState, columns: list[list[Any]]
    ) -> list[dict[str, Any]]:
        """Slice the result into ``arrow_batch`` messages (at least one).

        A v5+ session gets each batch as one binary frame in the
        column-chunked layout, keyed by column position (result columns may
        share names); older clients get JSON ``columns``.
        """
        frames = session.client_version >= proto.RESULT_FRAME_VERSION
        keys = [str(i) for i in range(len(columns))]
        step = self._result_batch_rows
        num_rows = len(columns[0]) if columns else 0
        batches: list[dict[str, Any]] = []
        for index, start in enumerate(range(0, max(num_rows, 1), step)):
            chunk = [col[start : start + step] for col in columns]
            batch: dict[str, Any] = {
                "@type": "arrow_batch",
                "operation_id": op.operation_id,
                "index": index,
            }
            if frames:
                batch["data"] = encode_data_file(dict(zip(keys, chunk)))
            else:
                batch["columns"] = chunk
            batches.append(batch)
        return batches
