"""The tracing spine.

Every enforcement decision and execution phase in the system is recorded as a
:class:`Span` in one shared :class:`Telemetry` registry — the observable
enforcement path the paper's audit story (§3.2.3) implies and Fig. 5's phase
breakdown requires. Spans nest (parent/child) into per-query trace trees.
Counts live on each component's own stats object, which its
``system.access.*_stats`` table reads.

Every finished span is handed to every exporter; what the
registry itself *retains* for ``system.access.query_profile`` and
``trace_tree`` is bounded: one ring of the last :data:`SPANS_PER_USER` spans
per principal, for the :data:`MAX_USERS` most recently active principals. A
tenant can therefore flood only its own ring, and a non-admin profile read
touches only the viewer's. :class:`JsonLinesExporter` is the sink for anyone
who wants unbounded history.

Recording a span takes no registry-wide lock: ids come from a counter, ring
and registry lookups are single dict reads, and ``deque.append`` is atomic.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import IO, Any, Iterator, Protocol

from repro.common.clock import Clock, SystemClock
from repro.common.ids import telemetry_id

#: Finished spans retained per principal (about forty short queries).
SPANS_PER_USER = 512
#: Principals with a ring; beyond it the longest-idle principal's ring goes.
MAX_USERS = 128


@dataclass(slots=True)
class SpanEvent:
    """A point-in-time annotation inside a span (e.g. a policy decision)."""

    timestamp: float
    name: str
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
class Span:
    """One timed unit of work, attributed to a user and a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str
    user: str
    start: float
    end: float | None = None
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    #: Position in the registry's finish order (rings are per principal).
    seq: int = 0

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds between start and end (0 while the span is open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the JSON-lines exporter's record)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "user": self.user,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [
                {"timestamp": e.timestamp, "name": e.name, "attributes": e.attributes}
                for e in self.events
            ],
        }


class SpanExporter(Protocol):
    """Receives every span exactly once, at finish time."""

    def export(self, span: Span) -> None: ...


class JsonLinesExporter:
    """Appends one JSON object per finished span to a file.

    One line-buffered handle, opened on the first span and held until
    :meth:`close`; the exporter's own lock keeps concurrent finishers from
    interleaving lines.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._file: IO[str] | None = None

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), default=str) + "\n"
        with self._lock:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8", buffering=1)
            self._file.write(line)

    def close(self) -> None:
        """Release the handle; a later span re-opens the file in append mode."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class Telemetry:
    """Span recorder for one deployment.

    One instance is shared by every component that serves the same catalog
    (clusters and the serverless gateway), so an eFGAC
    sub-plan executed on serverless compute lands in the same registry — and
    the same trace tree — as the dedicated-cluster query that spawned it.
    """

    def __init__(self, clock: Clock | None = None, exporters: tuple[SpanExporter, ...] = ()):
        self.clock = clock or SystemClock()
        self._exporters: list[SpanExporter] = list(exporters)
        #: principal -> its last SPANS_PER_USER finished spans.
        self._rings: dict[str, deque[Span]] = {}
        self._finished = itertools.count(1)
        #: Taken only to admit a new principal (and evict the idlest one).
        self._admit_lock = threading.Lock()

    # -- spans ----------------------------------------------------------------------

    def start_span(
        self,
        name: str,
        kind: str,
        trace_id: str,
        parent_id: str | None = None,
        user: str = "<system>",
        **attributes: Any,
    ) -> Span:
        """Open a span; the caller owns closing it via :meth:`finish_span`."""
        return Span(
            trace_id, telemetry_id("span"), parent_id, name, kind, user,
            self.clock.now(), attributes=attributes,
        )

    def finish_span(self, span: Span, status: str = "ok") -> Span:
        """Stamp the end time, retain, and export."""
        if span.end is not None:
            return span
        span.end = self.clock.now()
        span.status = status
        span.seq = next(self._finished)
        ring = self._rings.get(span.user)
        if ring is None:
            ring = self._admit(span.user)
        ring.append(span)
        for exporter in self._exporters:
            exporter.export(span)
        return span

    def _admit(self, user: str) -> deque[Span]:
        with self._admit_lock:
            ring = self._rings.setdefault(user, deque(maxlen=SPANS_PER_USER))
            if len(self._rings) > MAX_USERS:
                # An empty ring is a principal about to record its first span.
                idlest, _ = min(
                    self._rings.items(),
                    key=lambda item: item[1][-1].seq if item[1] else math.inf,
                )
                del self._rings[idlest]
            return ring

    def add_exporter(self, exporter: SpanExporter) -> None:
        self._exporters.append(exporter)

    def close(self) -> None:
        """Close exporters that hold a resource (the JSON-lines file)."""
        for exporter in self._exporters:
            close = getattr(exporter, "close", None)
            if close is not None:
                close()

    # -- querying -------------------------------------------------------------------

    def _retained(self, user: str | None = None) -> list[Span]:
        """A snapshot of retained spans in finish order — one principal's
        ring, or all of them. ``list(deque)`` runs inside one C call, so a
        concurrent ``finish_span`` can never invalidate a reader's iterator."""
        if user is not None:
            return list(self._rings.get(user, ()))
        spans = [s for ring in list(self._rings.values()) for s in list(ring)]
        spans.sort(key=attrgetter("seq"))
        return spans

    def spans(
        self,
        trace_id: str | None = None,
        kind: str | None = None,
        name: str | None = None,
        user: str | None = None,
    ) -> list[Span]:
        """Retained spans matching all provided filters, in finish order."""
        return [
            span
            for span in self._retained(user)
            if (trace_id is None or span.trace_id == trace_id)
            and (kind is None or span.kind == kind)
            and (name is None or span.name == name)
        ]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in first-seen order."""
        return list(dict.fromkeys(span.trace_id for span in self._retained()))

    def span_kinds(self, trace_id: str) -> set[str]:
        return {s.kind for s in self.spans(trace_id=trace_id)}

    def trace_tree(self, trace_id: str) -> str:
        """Render one trace as an indented tree (debugging/benchmarks)."""
        spans = sorted(self.spans(trace_id=trace_id), key=lambda s: s.start)
        children: dict[str | None, list[Span]] = {}
        span_ids = {s.span_id for s in spans}
        for span in spans:
            parent = span.parent_id if span.parent_id in span_ids else None
            children.setdefault(parent, []).append(span)
        lines: list[str] = []

        def render(parent: str | None, depth: int) -> None:
            for span in children.get(parent, []):
                lines.append(
                    f"{'  ' * depth}{span.name} [{span.kind}] "
                    f"user={span.user} {span.duration * 1000:.3f}ms"
                )
                render(span.span_id, depth + 1)

        render(None, 0)
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._retained())

    def __len__(self) -> int:
        return sum(len(ring) for ring in list(self._rings.values()))

    def __bool__(self) -> bool:
        """A registry is always truthy, even before any span finishes."""
        return True
