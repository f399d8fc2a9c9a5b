"""Workload scheduling: admission control, fair-share queues, breakers.

The scheduler package sits between the Spark Connect service and the
enforcement pipeline. :mod:`repro.scheduler.workload` admits (or rejects)
every query before it runs; :mod:`repro.scheduler.turns` keeps one request
thread from starving the others of the interpreter while they run;
:mod:`repro.scheduler.circuit_breaker` keeps callers of flaky remote
backends — the serverless eFGAC gateway above all — failing fast instead of
hanging.
"""

from repro.scheduler.circuit_breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    retry_with_backoff,
)
from repro.scheduler.workload import (
    LANE_BATCH,
    LANE_INTERACTIVE,
    LANE_PRIORITY,
    LANE_SYSTEM,
    AdmissionTicket,
    TenantPolicy,
    WorkloadManager,
)

__all__ = [
    "AdmissionTicket",
    "CircuitBreaker",
    "LANE_BATCH",
    "LANE_INTERACTIVE",
    "LANE_PRIORITY",
    "LANE_SYSTEM",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "TenantPolicy",
    "WorkloadManager",
    "retry_with_backoff",
]
