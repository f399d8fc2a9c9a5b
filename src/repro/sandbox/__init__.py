"""User-code isolation (§3.3): sandboxes, dispatcher, cluster manager.

Two sandbox backends implement the same interface:

- :class:`~repro.sandbox.sandbox.InProcessSandbox` — a *simulated* container:
  arguments and results genuinely cross a serialization boundary (pickle in,
  pickle out) and egress is policy-checked, but the code runs in the host
  interpreter. Deterministic and fast; used by tests and cost models.
- :class:`~repro.sandbox.subprocess_sandbox.SubprocessSandbox` — real process
  isolation: user functions are shipped (cloudpickle) to a worker process that
  holds none of this package and invoked over length-prefixed pickle frames on
  pipes, the one transport; worker replies are decoded data-only. Used where
  the boundary must be physical (``sandbox_udf``, the Table 2 benchmarks).

The :class:`~repro.sandbox.dispatcher.Dispatcher` pools sandboxes per
(session, trust domain) and executes *fused* UDF groups in one round-trip;
the :class:`~repro.sandbox.cluster_manager.ClusterManager` creates sandboxes
and owns the egress network rules.
"""

from repro.sandbox.policy import SandboxPolicy
from repro.sandbox.sandbox import InProcessSandbox, Sandbox, SandboxStats
from repro.sandbox.subprocess_sandbox import SubprocessSandbox
from repro.sandbox.dispatcher import Dispatcher, SandboxedUDFRuntime
from repro.sandbox.cluster_manager import ClusterManager

__all__ = [
    "SandboxPolicy",
    "Sandbox",
    "SandboxStats",
    "InProcessSandbox",
    "SubprocessSandbox",
    "Dispatcher",
    "SandboxedUDFRuntime",
    "ClusterManager",
]
