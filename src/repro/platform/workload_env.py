"""Versioned Workload Environments (§6.3).

A Workload Environment pins, for a client application, the Databricks
Connect (protocol) version, the Python interpreter version, and the bundled
dependency set — so the *client* keeps a stable surface while the serverless
backend evolves underneath. When user code executes, the platform loads the
session's pinned environment inside the sandbox, not whatever happens to be
on the engine host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class WorkloadEnvironment:
    """One immutable environment version."""

    version: str
    client_protocol_version: int
    python_version: str
    #: Bundled dependency pins: name -> version.
    dependencies: dict[str, str] = field(default_factory=dict)

    def is_compatible_with_server(self, server_protocol_version: int) -> bool:
        """Clients never have to be newer than the server (backward compat)."""
        return self.client_protocol_version <= server_protocol_version


class WorkloadEnvironmentRegistry:
    """The platform's catalog of supported environment versions."""

    SESSION_CONFIG_KEY = "workload_env"

    def __init__(self) -> None:
        self._environments: dict[str, WorkloadEnvironment] = {}
        self._default: str | None = None

    def register(self, env: WorkloadEnvironment, default: bool = False) -> None:
        self._environments[env.version] = env
        if default or self._default is None:
            self._default = env.version

    def get(self, version: str) -> WorkloadEnvironment:
        """Look up a registered environment version."""
        try:
            return self._environments[version]
        except KeyError:
            raise ConfigurationError(
                f"unknown workload environment '{version}'; "
                f"available: {sorted(self._environments)}"
            ) from None

    def default(self) -> WorkloadEnvironment:
        if self._default is None:
            raise ConfigurationError("no workload environments registered")
        return self._environments[self._default]

    def versions(self) -> list[str]:
        return sorted(self._environments)

    def resolve_for_session(self, session_config: dict[str, str]) -> WorkloadEnvironment:
        """Pick the environment a session pinned (or the default)."""
        version = session_config.get(self.SESSION_CONFIG_KEY)
        if version is None:
            return self.default()
        return self.get(version)


def standard_environments() -> WorkloadEnvironmentRegistry:
    """The environment lineup used by examples and benchmarks."""
    registry = WorkloadEnvironmentRegistry()
    registry.register(
        WorkloadEnvironment(
            version="1.0",
            client_protocol_version=1,
            python_version="3.9",
            dependencies={"numpy": "1.21", "pandas": "1.3"},
        )
    )
    registry.register(
        WorkloadEnvironment(
            version="2.0",
            client_protocol_version=2,
            python_version="3.10",
            dependencies={"numpy": "1.24", "pandas": "1.5"},
        )
    )
    registry.register(
        WorkloadEnvironment(
            version="3.0",
            client_protocol_version=4,
            python_version="3.11",
            dependencies={"numpy": "1.26", "pandas": "2.1"},
        ),
        default=True,
    )
    return registry
