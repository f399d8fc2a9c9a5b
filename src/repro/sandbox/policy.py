"""Sandbox security policies.

A policy describes what a sandbox may do. It is decided by the *cluster
manager* (trusted), never by the user code inside the sandbox. Network rules
are dynamic (§3.3: "dynamically controlled network rules ... to additionally
control the egress network traffic of the UDF").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EgressDenied


@dataclass(frozen=True)
class SandboxPolicy:
    """Isolation rules applied to one sandbox."""

    #: May the code open outbound network connections at all?
    allow_network: bool = False
    #: When networking is allowed, only these host names are reachable.
    egress_allowlist: frozenset[str] = frozenset()
    #: May the code see the host filesystem? (Always False in production;
    #: exposed for the unisolated baseline.)
    allow_host_filesystem: bool = False

    def check_egress(self, host: str) -> None:
        """Raise :class:`EgressDenied` unless ``host`` is reachable."""
        if not self.allow_network:
            raise EgressDenied(
                f"network egress is disabled for this sandbox (host '{host}')"
            )
        if "*" in self.egress_allowlist:
            return
        if host not in self.egress_allowlist:
            raise EgressDenied(
                f"host '{host}' is not on the egress allowlist "
                f"{sorted(self.egress_allowlist)}"
            )

    def with_egress(self, *hosts: str) -> "SandboxPolicy":
        return SandboxPolicy(
            allow_network=True,
            egress_allowlist=self.egress_allowlist | frozenset(hosts),
            allow_host_filesystem=self.allow_host_filesystem,
        )


#: The default production policy: nothing in, nothing out.
LOCKED_DOWN = SandboxPolicy()

#: The legacy, unisolated execution environment (user code in the engine JVM).
UNISOLATED = SandboxPolicy(
    allow_network=True,
    egress_allowlist=frozenset({"*"}),
    allow_host_filesystem=True,
)
