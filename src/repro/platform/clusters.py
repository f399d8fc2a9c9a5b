"""Compute types (§4): Standard and Dedicated clusters.

Standard clusters are the fully governed multi-user compute: every user's
client code and UDFs run in sandboxes, FGAC is enforced locally, and any
number of identities share the hardware.

Dedicated clusters give one identity (a user, or — with automatic permission
down-scoping — a group) privileged machine access; they cannot enforce FGAC
locally, so governed relations route through eFGAC to serverless compute.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.catalog.metastore import UnityCatalog
from repro.catalog.privileges import UserContext
from repro.catalog.scopes import COMPUTE_DEDICATED, COMPUTE_STANDARD
from repro.common.clock import Clock, SystemClock
from repro.connect.channel import InProcessChannel, LatencyModel
from repro.connect.client import SparkConnectClient
from repro.connect.proto import PROTOCOL_VERSION
from repro.connect.service import SparkConnectService
from repro.core.lakeguard import LakeguardCluster
from repro.errors import ClusterAttachDenied


class ComputeCluster:
    """A governed cluster: Lakeguard backend + Spark Connect service.

    Cluster options are declared once, on
    :class:`~repro.core.lakeguard.LakeguardCluster`; everything this layer
    does not supply or wrap itself travels there as ``**backend_options``
    (an unknown keyword is the backend's ``TypeError``, naming it).
    """

    def __init__(
        self,
        catalog: UnityCatalog,
        compute_type: str,
        name: str | None = None,
        clock: Clock | None = None,
        context_transform: Callable[[UserContext], UserContext] | None = None,
        **backend_options: Any,
    ):
        self.catalog = catalog
        self.clock = clock or SystemClock()
        self.name = name or f"{compute_type.lower()}-cluster"
        self.backend = LakeguardCluster(
            catalog,
            compute_type=compute_type,
            cluster_id=self.name,
            clock=self.clock,
            context_transform=self._transform_context,
            **backend_options,
        )
        self.service = SparkConnectService(self.backend, clock=self.clock)
        #: The backend's admission controller (None when disabled).
        self.workload_manager = self.backend.workload_manager
        self._context_transform = context_transform
        self.attached_users: set[str] = set()

    def shutdown(self) -> None:
        """Release the backend's pools (scan threads, sandboxes)."""
        self.backend.shutdown()

    # -- attachment policy (subclasses refine) -------------------------------------

    def check_attach(self, user: str) -> None:
        """Raise :class:`ClusterAttachDenied` if the user may not attach."""

    def _transform_context(self, ctx: UserContext) -> UserContext:
        self.check_attach(ctx.user)
        self.attached_users.add(ctx.user)
        if self._context_transform is not None:
            ctx = self._context_transform(ctx)
        return ctx

    # -- connectivity ----------------------------------------------------------------

    def channel(
        self,
        latency: LatencyModel | None = None,
        faults: Any = None,
    ) -> InProcessChannel:
        """A wire-level channel to this cluster's Connect service.

        ``faults`` accepts either the legacy stream-cutting
        :class:`~repro.connect.channel.FaultInjector` or the systemwide
        chaos engine (:class:`repro.common.faults.FaultInjector`).
        """
        return InProcessChannel(
            self.service, clock=self.clock, latency=latency, faults=faults
        )

    def connect(
        self,
        user: str,
        client_version: int = PROTOCOL_VERSION,
        latency: LatencyModel | None = None,
        faults: Any = None,
        config: dict[str, str] | None = None,
    ) -> SparkConnectClient:
        """Attach a user: authentication happens inside create_session."""
        return SparkConnectClient(
            self.channel(latency, faults),
            user=user,
            client_version=client_version,
            config=config,
        )


class StandardCluster(ComputeCluster):
    """Multi-user governed compute (§4.1): anyone in the directory attaches."""

    def __init__(self, catalog: UnityCatalog, name: str | None = None, **kwargs: Any):
        super().__init__(
            catalog,
            compute_type=COMPUTE_STANDARD,
            name=name or "standard-cluster",
            **kwargs,
        )

    def check_attach(self, user: str) -> None:
        if not self.catalog.principals.is_user(user):
            raise ClusterAttachDenied(f"unknown user '{user}'")


class DedicatedCluster(ComputeCluster):
    """Single-identity privileged compute (§4.2).

    Assigned either to one user, or to one *group*: group members may attach
    but their permissions are automatically down-scoped to exactly the
    group's (original identity retained for auditing).
    """

    def __init__(
        self,
        catalog: UnityCatalog,
        assigned_user: str | None = None,
        assigned_group: str | None = None,
        name: str | None = None,
        **kwargs: Any,
    ):
        if (assigned_user is None) == (assigned_group is None):
            raise ClusterAttachDenied(
                "a dedicated cluster is assigned to exactly one user OR one group"
            )
        self.assigned_user = assigned_user
        self.assigned_group = assigned_group
        transform = kwargs.pop("context_transform", None)

        def down_scope(ctx: UserContext) -> UserContext:
            if assigned_group is not None:
                ctx = ctx.down_scoped_to(assigned_group)
            if transform is not None:
                ctx = transform(ctx)
            return ctx

        super().__init__(
            catalog,
            compute_type=COMPUTE_DEDICATED,
            name=name or "dedicated-cluster",
            context_transform=down_scope,
            **kwargs,
        )

    def check_attach(self, user: str) -> None:
        if self.assigned_user is not None:
            if user != self.assigned_user:
                raise ClusterAttachDenied(
                    f"dedicated cluster '{self.name}' is assigned to "
                    f"'{self.assigned_user}', not '{user}'"
                )
            return
        groups = self.catalog.principals.groups_of(user)
        if self.assigned_group not in groups:
            raise ClusterAttachDenied(
                f"dedicated cluster '{self.name}' is assigned to group "
                f"'{self.assigned_group}'; '{user}' is not a member"
            )
