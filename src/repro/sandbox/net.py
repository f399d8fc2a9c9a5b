"""Simulated external network, reached only through sandbox egress control.

User code inside a sandbox calls :func:`http_get` / :func:`http_post`
(Figure 6's ``requests.post`` stand-in). The call is checked against the
*ambient sandbox policy* before any "network" is touched, so a locked-down
sandbox raises :class:`~repro.errors.EgressDenied`.

External services are simulated by registering handlers per host; this gives
examples and tests a deterministic endpoint (e.g. the air-quality service).

Host-filesystem access works the same way: :func:`fs_read` is the brokered
read path (the stand-in for a bind mount / FUSE broker on the container
boundary), gated by the policy's ``allow_host_filesystem`` bit.

Inside a sandbox worker these calls go *up the pipe* as ``egress`` frames:
the driver checks the sandbox's own policy, runs the call if it is allowed
and replies (the paper's egress proxy), so nothing the worker holds can
widen egress. The worker's policy is also the base of its ambient stack.

The ambient-policy stack is *narrowing-only*: nothing running inside a
sandbox can install a policy that grants more than the enclosing one.
Without this rule, malicious UDF code could simply push ``UNISOLATED`` onto
its own thread's stack (the ``udf-ambient-policy-escalation`` scenario in
``repro.attacks`` pins the defense).
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable
from urllib.parse import urlparse

from repro.errors import (
    EgressDenied,
    HostFilesystemDenied,
    SandboxError,
    SandboxPolicyViolation,
)
from repro.sandbox.policy import SandboxPolicy

_STATE = threading.local()

#: host -> handler(path, payload) -> response object
_SERVICES: dict[str, Callable[[str, Any], Any]] = {}

#: The fixed set of policy denials that cross the worker pipe, by kind. A
#: kind read off the pipe is only ever looked up here, never resolved.
DENIALS: dict[str, type[SandboxPolicyViolation]] = {
    "egress": EgressDenied,
    "host_fs": HostFilesystemDenied,
    "policy": SandboxPolicyViolation,
}


def denial_kind(exc: BaseException) -> str | None:
    """The :data:`DENIALS` kind of a policy error, ``None`` for any other."""
    return next((k for k, error in DENIALS.items() if isinstance(exc, error)), None)


def register_service(host: str, handler: Callable[[str, Any], Any]) -> None:
    """Register a simulated external service reachable as ``http://host/...``."""
    _SERVICES[host] = handler


def unregister_service(host: str) -> None:
    _SERVICES.pop(host, None)


def _broker() -> Any:
    """The worker's ``SANDBOX_BROKER`` (``sandbox/worker.py`` runs as
    ``__main__``); ``None`` in the driver, whose ``__main__`` has none."""
    return getattr(sys.modules.get("__main__"), "SANDBOX_BROKER", None)


def _escalates(inner: SandboxPolicy, outer: SandboxPolicy) -> str | None:
    """The first way ``inner`` grants more than ``outer``, or ``None``."""
    if inner.allow_network and not outer.allow_network:
        return "allow_network"
    if inner.allow_network and "*" not in outer.egress_allowlist:
        if "*" in inner.egress_allowlist:
            return "egress_allowlist wildcard"
        if not inner.egress_allowlist <= outer.egress_allowlist:
            return "egress_allowlist"
    if inner.allow_host_filesystem and not outer.allow_host_filesystem:
        return "allow_host_filesystem"
    return None


class _AmbientPolicy:
    """Context manager the sandbox uses to scope its policy to user code."""

    def __init__(self, policy: SandboxPolicy):
        self._policy = policy

    def __enter__(self) -> None:
        stack = getattr(_STATE, "stack", None)
        if stack is None:
            stack = []
            _STATE.stack = stack
        outer = current_policy()
        if outer is not None:
            # Nested installs may only narrow. The outermost policy is the
            # cluster manager's decision; user code runs strictly inside it.
            widened = _escalates(self._policy, outer)
            if widened is not None:
                raise SandboxPolicyViolation(
                    "nested sandbox policy may not escalate the ambient "
                    f"policy (attempted to widen {widened})"
                )
        stack.append(self._policy)

    def __exit__(self, *exc_info) -> None:
        _STATE.stack.pop()


def ambient_policy(policy: SandboxPolicy) -> _AmbientPolicy:
    return _AmbientPolicy(policy)


def current_policy() -> SandboxPolicy | None:
    """The innermost policy in force: this thread's stack, else the worker's
    own policy inside a sandbox, else ``None`` (trusted driver code)."""
    stack = getattr(_STATE, "stack", None)
    if stack:
        return stack[-1]
    broker = _broker()
    if broker is None:
        return None
    allow_network, allowlist, allow_host_filesystem = broker.policy
    return SandboxPolicy(allow_network, frozenset(allowlist), allow_host_filesystem)


def _through_broker(broker: Any, op: str, *args: Any) -> Any:
    """Send one egress call up the worker pipe; the driver decides it."""
    status, value = broker.call(op, args)
    if status == "ok":
        return value
    if status == "denied":
        kind, message = value
        raise DENIALS[kind](message)
    raise SandboxError(value)


def _request(url: str, payload: Any) -> Any:
    broker = _broker()
    if broker is not None:
        return _through_broker(broker, "http", url, payload)
    parsed = urlparse(url)
    host = parsed.netloc or parsed.path.split("/", 1)[0]
    policy = current_policy()
    if policy is not None:
        policy.check_egress(host)
    # Outside any sandbox (driver-side trusted code, tests) the call is
    # allowed: egress control applies to *user* code.
    handler = _SERVICES.get(host)
    if handler is None:
        raise SandboxError(f"no simulated service registered for host '{host}'")
    return handler(parsed.path, payload)


def http_get(url: str) -> Any:
    """Simulated HTTP GET through the sandbox's egress rules."""
    return _request(url, None)


def http_post(url: str, payload: Any = None) -> Any:
    """Simulated HTTP POST through the sandbox's egress rules."""
    return _request(url, payload)


def fs_read(path: str) -> bytes:
    """Brokered host-filesystem read, gated by the ambient sandbox policy.

    This is the one sanctioned way user code reaches host files (modelling
    the broker on a container's bind-mount boundary). A locked-down policy
    raises :class:`~repro.errors.HostFilesystemDenied` before the path is
    touched. Outside any sandbox (trusted driver code) the read is allowed.
    """
    broker = _broker()
    if broker is not None:
        return _through_broker(broker, "fs_read", path)
    policy = current_policy()
    if policy is not None and not policy.allow_host_filesystem:
        raise HostFilesystemDenied(
            f"host filesystem access is disabled for this sandbox ('{path}')"
        )
    with open(path, "rb") as handle:
        return handle.read()


#: The host-side handler for each ``egress`` frame operation.
EGRESS_OPS: dict[str, Callable[..., Any]] = {"http": _request, "fs_read": fs_read}
