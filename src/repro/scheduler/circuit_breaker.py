"""Circuit breaking + jittered retries for the serverless eFGAC gateway.

A Dedicated cluster's eFGAC rewrite turns governed scans into remote
subqueries against Serverless Spark. When that gateway is slow or down, a
naive caller hangs until the query deadline expires — for every query. The
classic remedy is a **circuit breaker**: after a run of consecutive
failures the breaker *opens* and subsequent calls fail fast with a
retryable :class:`~repro.errors.CircuitOpenError` carrying ``retry_after``;
after an exponential (and capped) backoff one *half-open* probe is let
through, and a success closes the breaker again.

:func:`retry_with_backoff` is the companion client policy: a bounded number
of retries with exponential backoff and full jitter (seeded, so tests are
deterministic), sleeping on the injected clock so virtual-time tests don't
actually wait.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, TypeVar

from repro.common.clock import Clock, SystemClock
from repro.common.context import QueryDeadlineExceeded, current_context
from repro.common.telemetry import Telemetry
from repro.errors import CircuitOpenError, RetryableError

T = TypeVar("T")

#: Breaker states (also exported numerically in stats for the system table).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

_STATE_CODE = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


class CircuitBreaker:
    """A consecutive-failure circuit breaker with exponential backoff.

    Thread-safe; one instance guards one backend (e.g. the serverless
    gateway's submit/analyze endpoints). While OPEN, :meth:`call` raises
    :class:`CircuitOpenError` without touching the backend; each re-open
    doubles the backoff up to ``max_backoff``, with jitter so a fleet of
    dedicated clusters doesn't re-probe in lockstep.
    """

    def __init__(
        self,
        name: str = "breaker",
        clock: Clock | None = None,
        telemetry: Telemetry | None = None,
        failure_threshold: int = 5,
        base_backoff: float = 1.0,
        max_backoff: float = 30.0,
        jitter: float = 0.2,
        seed: int = 0,
    ):
        self.name = name
        self._clock = clock or SystemClock()
        self._telemetry = telemetry or Telemetry(clock=self._clock)
        self.failure_threshold = max(1, failure_threshold)
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.jitter = max(0.0, jitter)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        #: Lifetime opens (stats only; never drives backoff).
        self._open_count = 0
        #: Opens within the *current* outage; drives the backoff exponent
        #: and resets when a success closes the breaker, so a fresh outage
        #: after full recovery starts back at ``base_backoff``.
        self._outage_opens = 0
        self._opened_at = 0.0
        self._current_backoff = 0.0
        self._probe_in_flight = False
        self.calls = 0
        self.failures = 0
        self.fast_failures = 0
        self.probes = 0

    @property
    def state(self) -> str:
        """Current breaker state: ``closed``, ``open``, or ``half_open``."""
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def call(self, fn: Callable[[], T]) -> T:
        """Invoke ``fn`` through the breaker, recording success/failure."""
        self._before_call()
        try:
            result = fn()
        except Exception:
            self._on_failure()
            raise
        self._on_success()
        return result

    def _before_call(self) -> None:
        with self._lock:
            self.calls += 1
            self._maybe_half_open_locked()
            if self._state == STATE_OPEN or (
                self._state == STATE_HALF_OPEN and self._probe_in_flight
            ):
                self.fast_failures += 1
                self._counter("fast_failures")
                remaining = max(
                    0.0, self._opened_at + self._current_backoff - self._clock.now()
                )
                raise CircuitOpenError(
                    f"circuit '{self.name}' is open after "
                    f"{self._consecutive_failures} consecutive failures; "
                    f"retry in {remaining:.2f}s",
                    retry_after=remaining,
                )
            if self._state == STATE_HALF_OPEN:
                # Exactly one probe at a time while half-open.
                self._probe_in_flight = True
                self.probes += 1
                self._counter("probes")

    def _maybe_half_open_locked(self) -> None:
        if self._state == STATE_OPEN and (
            self._clock.now() >= self._opened_at + self._current_backoff
        ):
            self._state = STATE_HALF_OPEN
            self._probe_in_flight = False
            self._gauge_state_locked()

    def _on_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != STATE_CLOSED:
                self._state = STATE_CLOSED
                self._current_backoff = 0.0
                self._outage_opens = 0
                self._counter("closed")
                self._gauge_state_locked()

    def _on_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            was_half_open = self._state == STATE_HALF_OPEN
            self._probe_in_flight = False
            if was_half_open or self._consecutive_failures >= self.failure_threshold:
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = STATE_OPEN
        self._open_count += 1
        self._outage_opens += 1
        self._opened_at = self._clock.now()
        base = min(
            self.max_backoff, self.base_backoff * (2 ** (self._outage_opens - 1))
        )
        # Full jitter keeps re-probes from synchronizing across callers.
        spread = base * self.jitter
        self._current_backoff = max(0.0, base + self._rng.uniform(-spread, spread))
        self._counter("opened")
        self._gauge_state_locked()

    def force_open(self, backoff: float | None = None) -> None:
        """Trip the breaker directly (test/ops hook)."""
        with self._lock:
            self._consecutive_failures = max(
                self._consecutive_failures, self.failure_threshold
            )
            self._trip_locked()
            if backoff is not None:
                self._current_backoff = backoff

    def reset(self) -> None:
        """Close the breaker and forget failure history (test/ops hook)."""
        with self._lock:
            self._state = STATE_CLOSED
            self._consecutive_failures = 0
            self._current_backoff = 0.0
            self._outage_opens = 0
            self._probe_in_flight = False
            self._gauge_state_locked()

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat metrics for ``system.access.workload_stats``."""
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "state": _STATE_CODE[self._state],
                "state_name": self._state,
                "calls": self.calls,
                "failures": self.failures,
                "consecutive_failures": self._consecutive_failures,
                "fast_failures": self.fast_failures,
                "open_count": self._open_count,
                "probes": self.probes,
                "current_backoff_seconds": self._current_backoff,
            }

    def _counter(self, suffix: str) -> None:
        self._telemetry.counter(f"breaker.{self.name}.{suffix}").inc()

    def _gauge_state_locked(self) -> None:
        self._telemetry.gauge(f"breaker.{self.name}.state").set(
            _STATE_CODE[self._state]
        )


def retry_with_backoff(
    fn: Callable[[], T],
    clock: Clock | None = None,
    retries: int = 2,
    base_delay: float = 0.05,
    max_delay: float = 1.0,
    jitter: float = 0.5,
    seed: int = 0,
    retry_on: tuple[type[BaseException], ...] = (RetryableError,),
) -> T:
    """Call ``fn``, retrying transient failures with jittered backoff.

    Delays grow exponentially from ``base_delay`` up to ``max_delay`` and
    are multiplied by a uniform jitter factor in ``[1 - jitter, 1]``. A
    :class:`CircuitOpenError` whose ``retry_after`` exceeds the next delay
    is re-raised immediately — waiting out an open breaker inline would
    just hold the caller's deadline hostage.

    Retries are **deadline-aware**: when an ambient
    :class:`~repro.common.context.QueryContext` carries a deadline, a sleep
    that would cross it raises
    :class:`~repro.common.context.QueryDeadlineExceeded` (chained to the
    transient failure) instead of holding the caller's admission slot past
    the point where the result could still be delivered.
    """
    clock = clock or SystemClock()
    rng: random.Random | None = None  # built on the first retry: most calls never back off
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            if attempt >= retries:
                raise
            if rng is None:
                rng = random.Random(seed)
            delay = min(max_delay, base_delay * (2**attempt))
            delay *= 1.0 - rng.uniform(0.0, jitter)
            retry_after = getattr(exc, "retry_after", 0.0)
            if isinstance(exc, CircuitOpenError) and retry_after > delay:
                raise
            wait = max(delay, retry_after)
            qctx = current_context()
            if qctx is not None:
                remaining = qctx.remaining()
                if remaining is not None and wait >= remaining:
                    raise QueryDeadlineExceeded(
                        f"query {qctx.trace_id}: backing off {wait:.3f}s for a "
                        f"retry would cross the deadline "
                        f"({max(0.0, remaining):.3f}s left)"
                    ) from exc
            clock.sleep(wait)
            attempt += 1
