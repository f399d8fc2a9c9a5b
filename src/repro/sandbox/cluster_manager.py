"""The cluster manager: the trusted component that creates sandboxes (§3.3).

It lives in the "secure and protected cluster management environment that is
fully decoupled from the Apache Spark processes" (Fig. 7): Spark asks the
Dispatcher, the Dispatcher asks the cluster manager, and the manager starts
the sandbox's worker process, applies the egress network rules, models
provisioning latency, and keeps fleet statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.clock import Clock, SystemClock
from repro.errors import SandboxError
from repro.sandbox.policy import SandboxPolicy
from repro.sandbox.subprocess_sandbox import SubprocessSandbox

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector

#: Provisioning latency the paper reports for a cold sandbox start (§5):
#: ~2 s total, dominated by container provisioning plus Python startup.
DEFAULT_PROVISION_SECONDS = 1.8
DEFAULT_INTERPRETER_START_SECONDS = 0.2


@dataclass
class ClusterManagerStats:
    """Sandbox lifecycle counters kept by the cluster manager."""

    created: int = 0
    destroyed: int = 0
    active: int = 0
    peak_active: int = 0


class ClusterManager:
    """Creates and destroys sandboxes; owns egress rules and latency model."""

    def __init__(
        self,
        clock: Clock | None = None,
        default_policy: SandboxPolicy | None = None,
        provision_seconds: float = 0.0,
        interpreter_start_seconds: float = 0.0,
        faults: "FaultInjector | None" = None,
    ):
        self.clock = clock or SystemClock()
        self.default_policy = default_policy or SandboxPolicy()
        #: Chaos engine shared with every sandbox this manager provisions;
        #: ``sandbox.spawn`` fires on creation, ``sandbox.invoke`` inside.
        self.faults = faults
        #: Specialized execution environments outside the cluster (§3.3):
        #: resource name ("gpu", "high_memory") -> the manager serving it.
        self.specialized_pools: dict[str, "ClusterManager"] = {}
        #: Modelled latency charged against ``clock`` on every cold start.
        #: Zero by default so real-time runs do not sleep; simulations pass
        #: DEFAULT_PROVISION_SECONDS with a VirtualClock.
        self.provision_seconds = provision_seconds
        self.interpreter_start_seconds = interpreter_start_seconds
        self.stats = ClusterManagerStats()
        self._active: dict[str, SubprocessSandbox] = {}

    # -- lifecycle -----------------------------------------------------------------

    def create_sandbox(
        self,
        trust_domain: str,
        policy: SandboxPolicy | None = None,
        environment: str | None = None,
    ) -> SubprocessSandbox:
        """Provision a new sandbox for one trust domain.

        ``environment`` pins the workload-environment version loaded inside
        the sandbox (dependency set + interpreter version, §6.3).
        """
        effective = policy or self.default_policy
        if self.faults is not None:
            self.faults.fire("sandbox.spawn")
        startup = self.provision_seconds + self.interpreter_start_seconds
        if startup > 0:
            self.clock.sleep(startup)
        sandbox = SubprocessSandbox(trust_domain, effective)
        sandbox.faults = self.faults
        sandbox.environment = environment
        self._active[sandbox.sandbox_id] = sandbox
        self.stats.created += 1
        self.stats.active = len(self._active)
        self.stats.peak_active = max(self.stats.peak_active, self.stats.active)
        return sandbox

    def register_specialized_pool(
        self, resource: str, manager: "ClusterManager"
    ) -> None:
        """Attach an external execution environment for one resource kind."""
        self.specialized_pools[resource] = manager

    def manager_for(self, requirements: frozenset[str]) -> "ClusterManager":
        """Route by resource requirements; local manager when none match.

        A request naming a resource without a registered pool fails loudly —
        silently running GPU code on a CPU sandbox would violate the user's
        expectations, not just performance.
        """
        if not requirements:
            return self
        for resource in sorted(requirements):
            pool = self.specialized_pools.get(resource)
            if pool is not None:
                return pool
        raise SandboxError(
            f"no specialized execution environment for resources "
            f"{sorted(requirements)}; registered: "
            f"{sorted(self.specialized_pools)}"
        )

    def destroy_sandbox(self, sandbox: SubprocessSandbox) -> None:
        sandbox.close()
        if self._active.pop(sandbox.sandbox_id, None) is not None:
            self.stats.destroyed += 1
            self.stats.active = len(self._active)

    def shutdown(self) -> None:
        """Destroy everything (cluster teardown)."""
        for sandbox in list(self._active.values()):
            self.destroy_sandbox(sandbox)

    def active_sandboxes(self) -> list[SubprocessSandbox]:
        return list(self._active.values())
