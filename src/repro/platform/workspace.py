"""A workspace: one catalog, its principals, and its compute fleet.

The facade examples and benchmarks build on. It wires the eFGAC path:
dedicated clusters created here automatically submit governed sub-queries to
the workspace's serverless gateway.
"""

from __future__ import annotations

from typing import Any

from repro.catalog.metastore import UnityCatalog
from repro.common.clock import Clock, SystemClock
from repro.connect.client import SparkConnectClient
from repro.connect.proto import PROTOCOL_VERSION
from repro.platform.clusters import DedicatedCluster, StandardCluster
from repro.errors import SandboxError
from repro.platform.serverless import ServerlessGateway


class Workspace:
    """One tenant's view of the platform."""

    def __init__(
        self,
        name: str = "workspace",
        clock: Clock | None = None,
        sandbox_backend: str = "subprocess",
        store: Any = None,
    ):
        # Validated, then ignored: every sandbox is a subprocess worker. Kept
        # for the frozen ``benchmarks/e2e/fixture.py``, whose "inprocess"
        # workloads run no UDF, so they never start one.
        if sandbox_backend not in ("inprocess", "subprocess"):
            raise SandboxError(f"unknown sandbox backend '{sandbox_backend}'")
        self.name = name
        self.clock = clock or SystemClock()
        #: ``store`` lets benchmarks model storage latency (an ObjectStore
        #: with ``read_latency_seconds``) without re-wiring the catalog.
        self.catalog = UnityCatalog(clock=self.clock, store=store)
        self.clusters: dict[str, Any] = {}
        self._gateway: ServerlessGateway | None = None

    # -- principals -----------------------------------------------------------------

    def add_user(self, name: str, admin: bool = False) -> None:
        self.catalog.principals.add_user(name, admin=admin)

    def add_group(self, name: str, members: list[str] | None = None) -> None:
        self.catalog.principals.add_group(name, members)

    # -- compute ---------------------------------------------------------------------

    @property
    def serverless(self) -> ServerlessGateway:
        if self._gateway is None:
            self._gateway = ServerlessGateway(self.catalog, clock=self.clock)
        return self._gateway

    def create_standard_cluster(self, name: str = "standard", **kwargs: Any) -> StandardCluster:
        """Provision a multi-user Standard cluster in this workspace."""
        cluster = StandardCluster(
            self.catalog,
            name=name,
            clock=self.clock,
            **kwargs,
        )
        self.clusters[name] = cluster
        return cluster

    def create_dedicated_cluster(
        self,
        assigned_user: str | None = None,
        assigned_group: str | None = None,
        name: str = "dedicated",
        **kwargs: Any,
    ) -> DedicatedCluster:
        """Dedicated compute, pre-wired with eFGAC against serverless."""
        gateway = self.serverless
        cluster = DedicatedCluster(
            self.catalog,
            assigned_user=assigned_user,
            assigned_group=assigned_group,
            name=name,
            clock=self.clock,
            remote_submit=gateway.submit,
            remote_analyze=gateway.analyze,
            **kwargs,
        )
        self.clusters[name] = cluster
        return cluster

    def shutdown(self) -> None:
        """Tear down every cluster's pools and close span exporters
        (idempotent)."""
        for cluster in self.clusters.values():
            cluster.shutdown()
        if self._gateway is not None:
            self._gateway.shutdown()
        self.catalog.telemetry.close()

    def connect_serverless(
        self, user: str, client_version: int = PROTOCOL_VERSION,
        config: dict[str, str] | None = None,
    ) -> SparkConnectClient:
        """Connect to the workspace-wide serverless endpoint (Fig. 10)."""
        return SparkConnectClient(
            self.serverless.channel(),
            user=user,
            client_version=client_version,
            config=config,
        )
