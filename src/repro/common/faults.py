"""The chaos engine: named fault points with deterministic seeded schedules.

Production Lakeguard survives crashed sandboxes, flaky object stores,
expiring credentials and serverless outages; this module is how the
reproduction *manufactures* those conditions on demand. Components declare
**fault points** — ``storage.get``, ``credential.vend``, ``sandbox.invoke``,
``channel.stream``, ``serverless.gateway`` — and consult one shared
:class:`FaultInjector` on every pass through them. Tests, benchmarks and the
CI chaos job **arm** points with :class:`FaultSpec` schedules; everything is
seeded, so a failing chaos run replays exactly.

Three fault kinds:

- ``raise`` — the point raises (a transient, retryable error by default);
- ``hang``  — the point sleeps ``hang_seconds`` on the injector's clock
  before proceeding (models a straggler / stuck RPC);
- ``corrupt`` — the caller receives a :class:`FaultDecision` whose
  :meth:`FaultDecision.apply` mangles the payload (models bit rot or a
  truncated response).

A global low-probability schedule can be armed from the environment
(``LAKEGUARD_CHAOS_RATE`` / ``LAKEGUARD_CHAOS_SEED``) — the CI chaos smoke
job runs the whole tier-1 suite that way. Environment-armed faults carry
``only_in_query=True`` so they fire only under an ambient
:class:`~repro.common.context.QueryContext`, i.e. only on paths where the
recovery machinery (scan retries, credential re-vend, sandbox self-healing)
is standing by.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.clock import Clock, SystemClock
from repro.common.context import current_context
from repro.errors import FaultInjectedError

#: Environment variables the CI chaos job sets to arm a global schedule.
ENV_CHAOS_RATE = "LAKEGUARD_CHAOS_RATE"
ENV_CHAOS_SEED = "LAKEGUARD_CHAOS_SEED"

#: Fault points the environment schedule arms (storage reads, sandbox
#: invokes, and the transactional write path — the paths the acceptance
#: workload recovers on). ``txn.*`` faults fire *before* their step touches
#: state, so the transaction tier's bounded retries absorb them — arming any
#: of these must never change query results or committed table state.
ENV_CHAOS_POINTS = (
    "storage.get",
    "sandbox.invoke",
    "txn.commit",
    "txn.write_file",
    "txn.conflict_check",
)


def _default_error(point: str) -> Exception:
    return FaultInjectedError(f"injected fault at '{point}'")


@dataclass
class FaultSpec:
    """One armed schedule for one fault point.

    The schedule triggers when **all** armed conditions agree: the call
    index is past ``after_calls``, the ``every_nth`` stride (if any)
    matches, and the seeded coin flip passes ``probability``. ``one_shot``
    and ``max_triggers`` bound how often it fires; ``only_in_query`` and
    ``cluster`` scope it to governed query execution.
    """

    #: ``raise``, ``hang``, or ``corrupt``.
    kind: str = "raise"
    #: Per-call trigger probability (seeded per point — deterministic).
    probability: float = 1.0
    #: Trigger only every Nth call (0 disables the stride condition).
    every_nth: int = 0
    #: Skip this many calls before the schedule becomes eligible.
    after_calls: int = 0
    #: Disarm after the first trigger.
    one_shot: bool = False
    #: Disarm after this many triggers (None = unbounded).
    max_triggers: int | None = None
    #: Extra latency charged on every trigger (any kind), on the clock.
    latency_seconds: float = 0.0
    #: How long a ``hang`` fault stalls the caller.
    hang_seconds: float = 0.0
    #: Error factory for ``raise`` faults; default is a retryable
    #: :class:`~repro.errors.FaultInjectedError`.
    error: Callable[[], Exception] | None = None
    #: Payload mangler for ``corrupt`` faults; default flips the bytes.
    corruptor: Callable[[Any], Any] | None = None
    #: Fire only when an ambient QueryContext is active (recovery layers
    #: are engaged on those paths; bare unit-test calls stay fault-free).
    only_in_query: bool = False
    #: Fire only when the ambient context belongs to this cluster id.
    cluster: str | None = None

    def __post_init__(self):
        if self.kind not in ("raise", "hang", "corrupt"):
            raise ValueError(f"unknown fault kind '{self.kind}'")


@dataclass
class FaultDecision:
    """What one pass through a fault point resolved to."""

    point: str
    triggered: bool
    kind: str = ""
    #: Set for ``corrupt`` decisions; used by :meth:`apply`.
    corruptor: Callable[[Any], Any] | None = None
    #: Set for ``raise`` decisions; :meth:`FaultInjector.fire` raises it.
    error: Callable[[], Exception] | None = None

    def apply(self, payload: Any) -> Any:
        """Corrupt ``payload`` if this decision says so; else pass through."""
        if self.triggered and self.kind == "corrupt":
            mangler = self.corruptor or _default_corruptor
            return mangler(payload)
        return payload


#: The no-op decision returned for unarmed points (shared, immutable-ish).
_PASS = FaultDecision(point="", triggered=False)


def _default_corruptor(payload: Any) -> Any:
    if isinstance(payload, bytes):
        return bytes(b ^ 0xFF for b in payload[:64]) + payload[64:]
    return payload


@dataclass
class _PointState:
    """Mutable bookkeeping for one fault point."""

    spec: FaultSpec
    rng: random.Random
    calls: int = 0
    triggered: int = 0
    #: Triggers under the *current* schedule (one_shot / max_triggers
    #: count per arm(), while ``triggered`` is the lifetime total).
    armed_triggered: int = 0


class FaultInjector:
    """Registry of armed fault points + deterministic trigger schedules.

    Thread-safe: scan tasks, sandbox invokes and channel streams all pass
    through concurrently. Each armed point gets its own RNG seeded from
    (injector seed, point name), so adding one point never perturbs
    another's schedule, and the same seed replays the same faults.
    """

    def __init__(self, clock: Clock | None = None, seed: int = 0):
        self._clock = clock or SystemClock()
        self.seed = seed
        self._lock = threading.Lock()
        self._points: dict[str, _PointState] = {}
        #: Trigger counters survive disarming, so ``fault_stats`` still
        #: reports one-shot faults after they fired.
        self._history: dict[str, dict[str, int]] = {}
        #: Named recovery counters (``record_recovery``), reported next to
        #: trigger counts in ``system.access.fault_stats``.
        self._recoveries: dict[str, int] = {}

    # -- arming ---------------------------------------------------------------

    def arm(self, point: str, spec: FaultSpec | None = None) -> FaultSpec:
        """Arm ``point`` with ``spec`` (default: always-raise)."""
        spec = spec or FaultSpec()
        with self._lock:
            rng = random.Random(f"{self.seed}:{point}")
            history = self._history.setdefault(
                point, {"calls": 0, "triggered": 0}
            )
            state = _PointState(spec=spec, rng=rng)
            state.calls = history["calls"]
            state.triggered = history["triggered"]
            self._points[point] = state
        return spec

    def disarm(self, point: str) -> None:
        """Remove the schedule on ``point`` (counters are kept)."""
        with self._lock:
            self._disarm_locked(point)

    def _disarm_locked(self, point: str) -> None:
        state = self._points.pop(point, None)
        if state is not None:
            self._history[point] = {
                "calls": state.calls,
                "triggered": state.triggered,
            }

    def clear(self) -> None:
        """Disarm every point (counters are kept)."""
        with self._lock:
            for point in list(self._points):
                self._disarm_locked(point)

    def armed(self, point: str) -> bool:
        """True iff ``point`` currently has a schedule."""
        with self._lock:
            return point in self._points

    def arm_from_env(self, environ: dict[str, str] | None = None) -> bool:
        """Arm the global chaos schedule from the environment, if requested.

        Reads ``LAKEGUARD_CHAOS_RATE`` (a per-call probability; unset or
        ``0`` leaves everything fault-free) and ``LAKEGUARD_CHAOS_SEED``.
        Returns True when a schedule was armed.
        """
        env = environ if environ is not None else os.environ
        try:
            rate = float(env.get(ENV_CHAOS_RATE, "") or 0.0)
        except ValueError:
            rate = 0.0
        if rate <= 0.0:
            return False
        try:
            self.seed = int(env.get(ENV_CHAOS_SEED, "") or 0)
        except ValueError:
            self.seed = 0
        for point in ENV_CHAOS_POINTS:
            self.arm(
                point,
                FaultSpec(kind="raise", probability=rate, only_in_query=True),
            )
        return True

    # -- the hot path ---------------------------------------------------------

    def check(self, point: str) -> FaultDecision:
        """Evaluate ``point``'s schedule; never raises.

        Applies trigger latency/hang sleeps and counts the call, but leaves
        raising (or payload corruption) to the caller — backends that model
        a fault as something other than an exception (e.g. killing their
        worker process) use this directly; everyone else calls :meth:`fire`.
        """
        with self._lock:
            state = self._points.get(point)
            if state is None:
                return _PASS
            state.calls += 1
            spec = state.spec
            if not self._eligible_locked(state):
                return FaultDecision(point=point, triggered=False)
            state.triggered += 1
            state.armed_triggered += 1
            if spec.one_shot or (
                spec.max_triggers is not None
                and state.armed_triggered >= spec.max_triggers
            ):
                self._disarm_locked(point)
            decision = FaultDecision(
                point=point,
                triggered=True,
                kind=spec.kind,
                corruptor=spec.corruptor,
                error=spec.error,
            )
        self._on_trigger(point, spec)
        return decision

    def _eligible_locked(self, state: _PointState) -> bool:
        spec = state.spec
        if spec.only_in_query and current_context() is None:
            return False
        if spec.cluster is not None:
            qctx = current_context()
            if qctx is None or qctx.cluster_id != spec.cluster:
                return False
        if state.calls <= spec.after_calls:
            return False
        if spec.every_nth > 0 and (
            (state.calls - spec.after_calls) % spec.every_nth != 0
        ):
            return False
        if spec.probability < 1.0 and state.rng.random() >= spec.probability:
            return False
        return True

    def _on_trigger(self, point: str, spec: FaultSpec) -> None:
        qctx = current_context()
        if qctx is not None:
            qctx.event(
                "fault-injected", point=point, kind=spec.kind
            )
        if spec.latency_seconds > 0:
            self._clock.sleep(spec.latency_seconds)
        if spec.kind == "hang" and spec.hang_seconds > 0:
            self._clock.sleep(spec.hang_seconds)

    def fire(self, point: str) -> FaultDecision:
        """Evaluate ``point`` and raise when a ``raise`` fault triggered.

        Returns the decision otherwise, so callers of ``corrupt``-armed
        points can :meth:`FaultDecision.apply` it to their payload.
        """
        decision = self.check(point)
        if decision.triggered and decision.kind == "raise":
            if decision.error is not None:
                raise decision.error()
            raise _default_error(point)
        return decision

    # -- recovery + stats -----------------------------------------------------

    def record_recovery(self, name: str) -> None:
        """Count one successful recovery action (retry succeeded, respawn)."""
        with self._lock:
            self._recoveries[name] = self._recoveries.get(name, 0) + 1

    def trigger_count(self, point: str) -> int:
        """Lifetime trigger count for ``point`` (armed or not)."""
        with self._lock:
            state = self._points.get(point)
            if state is not None:
                return state.triggered
            return self._history.get(point, {}).get("triggered", 0)

    def call_count(self, point: str) -> int:
        """Lifetime pass-through count for ``point`` (armed or not)."""
        with self._lock:
            state = self._points.get(point)
            if state is not None:
                return state.calls
            return self._history.get(point, {}).get("calls", 0)

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat counters for ``system.access.fault_stats``.

        One ``<point>.calls`` / ``<point>.triggered`` pair per point ever
        armed, plus ``recovered.<name>`` counters and the armed-point count.
        """
        with self._lock:
            out: dict[str, Any] = {"armed_points": float(len(self._points))}
            seen: dict[str, tuple[int, int]] = {}
            for point, hist in self._history.items():
                seen[point] = (hist["calls"], hist["triggered"])
            for point, state in self._points.items():
                seen[point] = (state.calls, state.triggered)
            for point, (calls, triggered) in sorted(seen.items()):
                out[f"{point}.calls"] = float(calls)
                out[f"{point}.triggered"] = float(triggered)
            for name, count in sorted(self._recoveries.items()):
                out[f"recovered.{name}"] = float(count)
            return out
