"""Databricks Serverless Spark (§6.2, Fig. 10).

All workloads of a workspace connect to one endpoint. The regional Spark
Connect **gateway** behind it tracks utilization and either *forwards* the
connection to an existing Standard-architecture cluster or *provisions* a
new one. Because the gateway is itself a
:class:`~repro.connect.channel.ServiceLike`, a plain
:class:`~repro.connect.channel.InProcessChannel` over it gives clients the
exact workspace-endpoint experience — including transparent **session
migration** between backends.

The gateway also serves as the eFGAC execution endpoint for Dedicated
clusters (:meth:`ServerlessGateway.submit` / :meth:`analyze`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.catalog.metastore import UnityCatalog
from repro.catalog.scopes import COMPUTE_SERVERLESS
from repro.catalog.system_tables import WORKLOAD_STATS
from repro.common.clock import Clock, SystemClock
from repro.common.context import current_context
from repro.common.faults import FaultSpec
from repro.connect.channel import InProcessChannel
from repro.connect.service import SparkConnectService
from repro.core.lakeguard import LakeguardCluster
from repro.engine.optimizer import OptimizerConfig
from repro.errors import ClusterError, SessionError, TransportError
from repro.platform.workload_env import (
    WorkloadEnvironmentRegistry,
    standard_environments,
)
from repro.scheduler.circuit_breaker import CircuitBreaker, retry_with_backoff

#: Seconds charged (on the gateway clock) to provision a fresh cluster.
DEFAULT_CLUSTER_PROVISION_SECONDS = 30.0


@dataclass
class GatewayStats:
    """Routing counters for the workspace serverless gateway."""

    connections: int = 0
    forwarded: int = 0
    provisioned: int = 0
    migrations: int = 0
    scale_downs: int = 0
    efgac_subqueries: int = 0


@dataclass
class _BackendCluster:
    """One serverless Standard-architecture cluster behind the gateway."""

    index: int
    backend: LakeguardCluster
    service: SparkConnectService

    @property
    def active_sessions(self) -> int:
        return len(self.service.sessions.active_sessions())


class ServerlessGateway:
    """The workspace-wide Spark Connect endpoint with managed capacity."""

    def __init__(
        self,
        catalog: UnityCatalog,
        clock: Clock | None = None,
        max_clusters: int = 8,
        target_sessions_per_cluster: int = 4,
        min_clusters: int = 0,
        provision_seconds: float = 0.0,
        optimizer_config: OptimizerConfig | None = None,
        environments: WorkloadEnvironmentRegistry | None = None,
        num_executors: int = 2,
        breaker_failure_threshold: int = 5,
        breaker_base_backoff: float = 1.0,
        breaker_max_backoff: float = 30.0,
        efgac_retries: int = 2,
        efgac_retry_base: float = 0.05,
    ):
        self._catalog = catalog
        self._clock = clock or SystemClock()
        self._max_clusters = max_clusters
        self._min_clusters = min_clusters
        self._target = max(1, target_sessions_per_cluster)
        self._provision_seconds = provision_seconds
        self._optimizer_config = optimizer_config
        self._num_executors = num_executors
        self.environments = environments or standard_environments()
        self._clusters: list[_BackendCluster] = []
        #: session_id -> cluster index.
        self._routes: dict[str, int] = {}
        #: Recent connection counts per autoscale tick (predictive signal).
        self._connection_history: list[int] = []
        self._connections_this_tick = 0
        self.stats = GatewayStats()
        #: Circuit breaker guarding the eFGAC endpoint: when serverless is
        #: down, dedicated-cluster remote scans fail fast with a retryable
        #: CircuitOpenError instead of waiting out their deadlines.
        self.breaker = CircuitBreaker(
            name="efgac-gateway",
            clock=self._clock,
            failure_threshold=breaker_failure_threshold,
            base_backoff=breaker_base_backoff,
            max_backoff=breaker_max_backoff,
        )
        self._efgac_retries = efgac_retries
        self._efgac_retry_base = efgac_retry_base
        catalog.system_tables.register_stats_provider(
            WORKLOAD_STATS, "efgac_breaker[serverless]", self.breaker.stats_snapshot
        )
        for _ in range(min_clusters):
            self._provision_cluster()

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------

    def _provision_cluster(self) -> _BackendCluster:
        if len(self._clusters) >= self._max_clusters:
            raise ClusterError(
                f"workspace serverless capacity exhausted "
                f"({self._max_clusters} clusters)"
            )
        if self._provision_seconds:
            self._clock.sleep(self._provision_seconds)
        index = len(self._clusters)
        backend = LakeguardCluster(
            self._catalog,
            compute_type=COMPUTE_SERVERLESS,
            cluster_id=f"serverless-{index}",
            clock=self._clock,
            optimizer_config=self._optimizer_config,
            num_executors=self._num_executors,
        )
        cluster = _BackendCluster(
            index=index,
            backend=backend,
            service=SparkConnectService(backend, clock=self._clock),
        )
        self._clusters.append(cluster)
        self.stats.provisioned += 1
        return cluster

    def _pick_cluster(self) -> _BackendCluster:
        """Forward to the least-loaded cluster under target; else provision."""
        candidates = [c for c in self._clusters if c.active_sessions < self._target]
        if candidates:
            self.stats.forwarded += 1
            return min(candidates, key=lambda c: c.active_sessions)
        return self._provision_cluster()

    def cluster_count(self) -> int:
        return len(self._clusters)

    def cluster_loads(self) -> list[int]:
        return [c.active_sessions for c in self._clusters]

    def autoscale(self) -> None:
        """One autoscaling tick: record history, pre-provision on forecast.

        "The knowledge about past and future workloads feeds machine
        learning models" (§6.2) — here a moving-average forecast of incoming
        connections, which pre-provisions capacity ahead of demand.
        """
        self._connection_history.append(self._connections_this_tick)
        self._connections_this_tick = 0
        window = self._connection_history[-5:]
        forecast = sum(window) / len(window) if window else 0.0
        spare = sum(
            max(0, self._target - c.active_sessions) for c in self._clusters
        )
        while spare < forecast and len(self._clusters) < self._max_clusters:
            self._provision_cluster()
            spare += self._target

    def shutdown(self) -> None:
        """Release every backend cluster's pools (idempotent)."""
        for cluster in self._clusters:
            cluster.backend.shutdown()

    def scale_down_idle(self) -> int:
        """Retire empty clusters above the minimum; returns how many."""
        removed = 0
        keep: list[_BackendCluster] = []
        for cluster in self._clusters:
            if (
                cluster.active_sessions == 0
                and len(self._clusters) - removed > self._min_clusters
            ):
                cluster.backend.shutdown()
                removed += 1
                self.stats.scale_downs += 1
            else:
                keep.append(cluster)
        if removed:
            # Re-index and re-route.
            self._clusters = keep
            for i, cluster in enumerate(self._clusters):
                for sid, idx in list(self._routes.items()):
                    if idx == cluster.index:
                        self._routes[sid] = i
                cluster.index = i
        return removed

    # ------------------------------------------------------------------
    # ServiceLike interface: the gateway IS the endpoint
    # ------------------------------------------------------------------

    def handle(self, method: str, request: dict[str, Any]) -> dict[str, Any]:
        cluster = self._route(method, request)
        response = cluster.service.handle(method, request)
        if method == "create_session" and "session_id" in response:
            self._routes[response["session_id"]] = cluster.index
            self._pin_environment(cluster, response["session_id"], request)
        if method == "close_session":
            self._routes.pop(request.get("session_id", ""), None)
        return response

    def handle_stream(
        self, method: str, request: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        cluster = self._route(method, request)
        return cluster.service.handle_stream(method, request)

    def _route(self, method: str, request: dict[str, Any]) -> _BackendCluster:
        if method == "create_session":
            self.stats.connections += 1
            self._connections_this_tick += 1
            return self._pick_cluster()
        session_id = request.get("session_id", "")
        index = self._routes.get(session_id)
        if index is None or index >= len(self._clusters):
            raise SessionError(f"gateway has no route for session '{session_id}'")
        return self._clusters[index]

    def _pin_environment(
        self, cluster: _BackendCluster, session_id: str, request: dict[str, Any]
    ) -> None:
        """Record the session's workload environment (default if unset)."""
        try:
            session = cluster.service.sessions.get_session(
                session_id, request["user"]
            )
        except SessionError:
            return
        key = WorkloadEnvironmentRegistry.SESSION_CONFIG_KEY
        if key not in session.config:
            session.config[key] = self.environments.default().version

    def channel(self) -> InProcessChannel:
        """A client channel to the workspace endpoint."""
        return InProcessChannel(self, clock=self._clock)

    # ------------------------------------------------------------------
    # Session migration (§6.2)
    # ------------------------------------------------------------------

    def migrate_session(self, session_id: str, target_index: int | None = None) -> int:
        """Move a live session to another backend without client downtime."""
        source_index = self._routes.get(session_id)
        if source_index is None:
            raise SessionError(f"unknown session '{session_id}'")
        source = self._clusters[source_index]
        if target_index is None:
            others = [c for c in self._clusters if c.index != source_index]
            if not others:
                target = self._provision_cluster()
            else:
                target = min(others, key=lambda c: c.active_sessions)
        else:
            target = self._clusters[target_index]
        state = source.service.sessions.evict_session(session_id)
        if state is None:
            raise SessionError(f"session '{session_id}' not found on its backend")
        target.service.sessions.adopt_session(state)
        self._routes[session_id] = target.index
        self.stats.migrations += 1
        return target.index

    # ------------------------------------------------------------------
    # eFGAC endpoint (used by Dedicated clusters, §3.4)
    # ------------------------------------------------------------------

    def set_outage(self, outage: bool) -> None:
        """Fault injection: make every eFGAC call fail at the gateway.

        A convenience wrapper over the catalog's chaos engine: arms (or
        disarms) the ``serverless.gateway`` fault point with an always-raise
        schedule, so outage drills show up in ``system.access.fault_stats``
        alongside every other injected fault. Tests and ops drills use it to
        verify the breaker trips and dedicated-cluster callers fail fast
        while serverless is down.
        """
        if outage:
            self._catalog.faults.arm(
                "serverless.gateway",
                FaultSpec(
                    kind="raise",
                    error=lambda: ClusterError(
                        "serverless gateway is unreachable (outage)"
                    ),
                ),
            )
        else:
            self._catalog.faults.disarm("serverless.gateway")

    def _check_outage(self) -> None:
        self._catalog.faults.fire("serverless.gateway")

    def _protected(self, fn):
        """Run an eFGAC call through retries + the circuit breaker.

        Transient gateway failures are retried with jittered exponential
        backoff; a run of failures opens the breaker, after which calls
        raise :class:`~repro.errors.CircuitOpenError` without touching the
        gateway until the backoff elapses and a half-open probe succeeds.
        """
        return retry_with_backoff(
            lambda: self.breaker.call(fn),
            clock=self._clock,
            retries=self._efgac_retries,
            base_delay=self._efgac_retry_base,
            retry_on=(ClusterError, TransportError),
        )

    def submit(
        self, user: str, relation: dict[str, Any]
    ) -> tuple[list[dict[str, str]], list[list[Any]]]:
        """Run an eFGAC sub-plan as ``user`` on a serverless cluster."""
        self.stats.efgac_subqueries += 1

        def run() -> tuple[list[dict[str, str]], list[list[Any]]]:
            self._check_outage()
            cluster = self._least_loaded_or_provision()
            qctx = current_context()
            if qctx is not None:
                # The backend call below creates a child context off the
                # ambient one, so the remote sub-plan lands in the caller's
                # trace tree.
                qctx.event(
                    "gateway-efgac-route",
                    cluster=cluster.backend.cluster_id,
                    user=user,
                )
            return cluster.backend.run_relation_for_user(user, relation)

        return self._protected(run)

    def analyze(self, user: str, relation: dict[str, Any]) -> list[dict[str, str]]:
        def run() -> list[dict[str, str]]:
            self._check_outage()
            cluster = self._least_loaded_or_provision()
            return cluster.backend.analyze_relation_for_user(user, relation)

        return self._protected(run)

    def _least_loaded_or_provision(self) -> _BackendCluster:
        if not self._clusters:
            return self._provision_cluster()
        return min(self._clusters, key=lambda c: c.active_sessions)


#: Alias making intent explicit at call sites.
GatewayChannel = InProcessChannel
