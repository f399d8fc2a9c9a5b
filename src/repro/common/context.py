"""The per-query identity thread: :class:`QueryContext`.

One ``QueryContext`` is created per Connect operation (or per direct backend
call) and threaded through every layer — enforcement, optimization,
execution, sandbox dispatch, credential vending, the serverless gateway — so
every span and every governance decision is attributed to one trace and one
user.

Two propagation mechanisms cooperate:

- **explicit threading** where a layer boundary already passes state
  (pipeline stages, ``EvalContext.query_ctx``, ``execute_relation``), and
- an **ambient context** (a :mod:`contextvars` variable, maintained by
  :meth:`QueryContext.span` / :meth:`QueryContext.activate`) for leaf
  components like the credential vendor that sit far below any signature
  that carries a context — exactly how in-process OpenTelemetry propagates.

Across the wire, the trace id travels as a protocol extension field on
``execute_plan`` requests, so ReattachExecute after a dropped connection
rejoins the same trace.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterator

from repro.common.clock import Clock, SystemClock
from repro.common.ids import telemetry_id
from repro.common.telemetry import Span, SpanEvent, Telemetry
from repro.errors import ExecutionError


class QueryDeadlineExceeded(ExecutionError):
    """The query's deadline elapsed before the pipeline finished."""


_CURRENT: contextvars.ContextVar["QueryContext | None"] = contextvars.ContextVar(
    "lakeguard_query_context", default=None
)


def current_context() -> "QueryContext | None":
    """The ambient query context, if one is active on this thread of work."""
    return _CURRENT.get()


@dataclass
class QueryContext:
    """Identity + trace + clock + deadline for one query execution."""

    trace_id: str
    user: str
    telemetry: Telemetry
    clock: Clock
    session_id: str = ""
    cluster_id: str = ""
    operation_id: str = ""
    #: Absolute clock time after which pipeline stages refuse to start.
    deadline: float | None = None
    #: Span id a root span of this context should parent onto (used when a
    #: child context crosses a component boundary, e.g. the gateway).
    parent_span_id: str | None = None
    #: The admission ticket this query holds (set by the Connect service
    #: after the WorkloadManager admitted it). Deliberately *not* inherited
    #: by :meth:`child` contexts: delegated work (eFGAC sub-plans, scan
    #: tasks) runs under the parent's slot, not a second one.
    ticket: Any = None
    #: The operation's wire plan with its table references resolved (a
    #: :class:`repro.connect.proto.PlanReferences`), set by the Connect
    #: service so the pipeline does not parse the plan's SQL again. Not
    #: inherited by :meth:`child` contexts either: they run other plans.
    plan_refs: Any = None
    _span_stack: list[Span] = field(default_factory=list)

    # -- construction ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        user: str,
        telemetry: Telemetry | None = None,
        clock: Clock | None = None,
        trace_id: str | None = None,
        session_id: str = "",
        cluster_id: str = "",
        operation_id: str = "",
        deadline_seconds: float | None = None,
        parent_span_id: str | None = None,
    ) -> "QueryContext":
        clock = clock or (telemetry.clock if telemetry is not None else SystemClock())
        deadline = None
        if deadline_seconds is not None:
            deadline = clock.now() + deadline_seconds
        return cls(
            trace_id=trace_id or telemetry_id("trace"),
            user=user,
            telemetry=(
                telemetry if telemetry is not None else Telemetry(clock=clock)
            ),
            clock=clock,
            session_id=session_id,
            cluster_id=cluster_id,
            operation_id=operation_id,
            deadline=deadline,
            parent_span_id=parent_span_id,
        )

    def child(
        self,
        user: str | None = None,
        session_id: str | None = None,
        cluster_id: str | None = None,
        operation_id: str | None = None,
    ) -> "QueryContext":
        """A context for work delegated to another component, same trace.

        The child's root spans parent onto this context's current span, so
        e.g. an eFGAC sub-plan executed on a serverless cluster appears as a
        subtree of the dedicated-cluster query that submitted it.
        """
        return QueryContext(
            trace_id=self.trace_id,
            user=user if user is not None else self.user,
            telemetry=self.telemetry,
            clock=self.clock,
            session_id=session_id if session_id is not None else self.session_id,
            cluster_id=cluster_id if cluster_id is not None else self.cluster_id,
            operation_id=operation_id if operation_id is not None else self.operation_id,
            deadline=self.deadline,
            parent_span_id=self.current_span_id,
        )

    # -- span tree ------------------------------------------------------------------

    @property
    def current_span(self) -> Span | None:
        return self._span_stack[-1] if self._span_stack else None

    @property
    def current_span_id(self) -> str | None:
        span = self.current_span
        return span.span_id if span is not None else self.parent_span_id

    @contextmanager
    def span(self, name: str, kind: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span; it becomes the ambient parent while active."""
        span = self.telemetry.start_span(
            name,
            kind,
            trace_id=self.trace_id,
            parent_id=self.current_span_id,
            user=self.user,
            **attributes,
        )
        if self.cluster_id and "cluster" not in span.attributes:
            span.attributes["cluster"] = self.cluster_id
        self._span_stack.append(span)
        token = _CURRENT.set(self)
        try:
            yield span
        except BaseException:
            self._close_span(span, status="error")
            _CURRENT.reset(token)
            raise
        else:
            self._close_span(span, status="ok")
            _CURRENT.reset(token)

    def _close_span(self, span: Span, status: str) -> None:
        # Remove by identity rather than strict LIFO pop: spans opened
        # around generators can legally outlive later siblings.
        try:
            self._span_stack.remove(span)
        except ValueError:
            pass
        self.telemetry.finish_span(span, status=status)

    @contextmanager
    def activate(self) -> Iterator["QueryContext"]:
        """Install this context as the ambient one without opening a span."""
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    # -- annotations ----------------------------------------------------------------

    def event(self, name: str, **attributes: Any) -> None:
        """Attach a point-in-time event to the current span (no-op if none)."""
        span = self.current_span
        if span is not None:
            span.events.append(SpanEvent(self.clock.now(), name, attributes))

    def set_attribute(self, key: str, value: Any) -> None:
        span = self.current_span
        if span is not None:
            span.set_attribute(key, value)

    # -- deadline -------------------------------------------------------------------

    def remaining(self) -> float | None:
        """Seconds until the deadline (negative if past); None if unset."""
        if self.deadline is None:
            return None
        return self.deadline - self.clock.now()

    def check_deadline(self, where: str = "") -> None:
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise QueryDeadlineExceeded(
                f"query {self.trace_id} exceeded its deadline"
                + (f" before {where}" if where else "")
            )


def span_or_null(
    ctx: "QueryContext | None", name: str, kind: str, **attributes: Any
) -> ContextManager[Any]:
    """``ctx.span(...)`` when a context is available, else a no-op block."""
    if ctx is None:
        return nullcontext()
    return ctx.span(name, kind, **attributes)
