"""Sandbox interface and the in-process (simulated-container) backend.

Whatever the backend, the contract is the same:

- a sandbox belongs to exactly one *trust domain* (the owner of the user
  code it runs); the dispatcher never routes another owner's code to it;
- arguments and results cross a serialization boundary — user code never
  shares object graphs with the engine;
- the sandbox's :class:`~repro.sandbox.policy.SandboxPolicy` governs egress.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

from repro.common.ids import new_id
from repro.engine.udf import PythonUDF
from repro.errors import SandboxDied, SandboxError, TrustDomainViolation
from repro.sandbox import net
from repro.sandbox.policy import SandboxPolicy

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector


@dataclass
class SandboxStats:
    """Counters benchmarks read."""

    invocations: int = 0
    fused_invocations: int = 0
    rows_in: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: Pickle bytes on the *data* path (batch arguments and results) — every
    #: batch crosses the boundary as one pickle frame each way, on both
    #: backends; this is the per-batch tax the Table 2 benchmarks measure.
    data_pickle_bytes: int = 0
    #: Pickle bytes on the control path (install / policy / ping frames).
    control_pickle_bytes: int = 0
    #: Always 0: no sandbox transport uses shared memory any more. Kept for
    #: its one reader, ``benchmarks/e2e/layers.py`` (the
    #: ``sandbox.shm_bytes_per_op`` metric), until a benchmark issue drops it.
    shm_bytes: int = 0


class Sandbox(Protocol):
    """What the dispatcher needs from any sandbox backend."""

    sandbox_id: str
    trust_domain: str
    policy: SandboxPolicy
    stats: SandboxStats

    def invoke(self, udf: PythonUDF, arg_columns: list[list[Any]]) -> list[Any]: ...

    def invoke_many(
        self, calls: list[tuple[int, PythonUDF, list[list[Any]]]]
    ) -> dict[int, list[Any]]: ...

    def close(self) -> None: ...

    @property
    def closed(self) -> bool: ...


class InProcessSandbox:
    """Simulated container: real serialization boundary, same interpreter.

    The data path is honest — every batch is pickled in and the results are
    pickled out, exactly the cost structure of moving Arrow batches into a
    container — while the *code* runs in-process so tests stay deterministic
    and debuggable. Egress control is enforced via the ambient policy.
    """

    def __init__(self, trust_domain: str, policy: SandboxPolicy | None = None):
        self.sandbox_id = new_id("sbx")
        self.trust_domain = trust_domain
        self.policy = policy or SandboxPolicy()
        self.stats = SandboxStats()
        #: Chaos hook (set by the cluster manager): a triggered
        #: ``sandbox.invoke`` fault marks the sandbox dead *before* any
        #: stats are bumped or user code runs, modelling a container that
        #: crashed before the request reached it (``delivered=False``).
        self.faults: "FaultInjector | None" = None
        self._closed = False

    # -- helpers ----------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SandboxError(f"sandbox {self.sandbox_id} is closed")

    def _maybe_inject_death(self) -> None:
        if self.faults is None:
            return
        decision = self.faults.check("sandbox.invoke")
        if decision.triggered:
            self._closed = True
            raise SandboxDied(
                f"sandbox {self.sandbox_id} worker died before the request "
                f"was delivered (injected)",
                delivered=False,
            )

    def _check_domain(self, udf: PythonUDF) -> None:
        if udf.trust_domain != self.trust_domain:
            raise TrustDomainViolation(
                f"UDF '{udf.name}' (domain '{udf.trust_domain}') routed to "
                f"sandbox of domain '{self.trust_domain}'"
            )

    def _roundtrip_in(self, value: Any) -> Any:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.bytes_in += len(blob)
        self.stats.data_pickle_bytes += len(blob)
        return pickle.loads(blob)

    def _roundtrip_out(self, value: Any) -> Any:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.bytes_out += len(blob)
        self.stats.data_pickle_bytes += len(blob)
        return pickle.loads(blob)

    # -- invocation --------------------------------------------------------------

    def invoke(self, udf: PythonUDF, arg_columns: list[list[Any]]) -> list[Any]:
        self._check_open()
        self._check_domain(udf)
        self._maybe_inject_death()
        self.stats.invocations += 1
        if arg_columns:
            self.stats.rows_in += len(arg_columns[0])
        inside_args = self._roundtrip_in(arg_columns)
        with net.ambient_policy(self.policy):
            result = udf.invoke_rows(inside_args)
        return self._roundtrip_out(result)

    def invoke_many(
        self, calls: list[tuple[int, PythonUDF, list[list[Any]]]]
    ) -> dict[int, list[Any]]:
        """One fused round-trip: all calls' arguments cross together."""
        self._check_open()
        for _, udf, _ in calls:
            self._check_domain(udf)
        self._maybe_inject_death()
        self.stats.invocations += 1
        self.stats.fused_invocations += 1
        if calls and calls[0][2]:
            self.stats.rows_in += len(calls[0][2][0])
        inside = self._roundtrip_in([(cid, args) for cid, _, args in calls])
        udfs = {cid: udf for cid, udf, _ in calls}
        results: dict[int, list[Any]] = {}
        with net.ambient_policy(self.policy):
            for cid, args in inside:
                results[cid] = udfs[cid].invoke_rows(args)
        out = self._roundtrip_out(results)
        return out

    def ping(self) -> bool:
        """Liveness probe mirroring the subprocess backend's protocol ping."""
        self._check_open()
        return True

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed
