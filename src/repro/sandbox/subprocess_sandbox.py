"""The sandbox: user code in a dedicated worker process.

Runs ``sandbox/worker.py`` in its own OS process and ships user functions to
it as the client's cloudpickle bytes. There is one transport:
length-prefixed pickle frames on the worker's stdin / stdout, batch columns
included. The worker is started from its *file*, not with ``-m``, so it
holds no ``repro.*`` module until a shipped function imports one. A sandbox
belongs to exactly one *trust domain* (the owner of the code it runs), and
its :class:`~repro.sandbox.policy.SandboxPolicy` governs egress: the
worker's ``net`` calls come up the pipe as ``egress`` frames, and this side
runs them only if the policy allows (:meth:`SubprocessSandbox._egress`).

The worker's stdout is writable by user code, so its frames are decoded with
:class:`~repro.common.datacodec.DataOnlyUnpickler`, which resolves no
global; a frame that names one, is oversized, truncated, or not one of the
protocol's ``(status, payload)`` pairs ends the sandbox
(``SandboxDied(delivered=True)`` — never replayed).
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.datacodec import DataOnlyUnpickler
from repro.common.ids import new_id
from repro.engine.udf import PythonUDF
from repro.errors import (
    SandboxDied,
    SandboxPolicyViolation,
    TrustDomainViolation,
    UserCodeError,
)
from repro.sandbox import net, worker
from repro.sandbox.policy import SandboxPolicy
from repro.sandbox.worker import read_frame, write_frame

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector

#: Largest worker frame the driver will read (a batch of results is KBs).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: The worker gets this process's ``sys.path`` (``python worker.py`` would put
#: ``repro/sandbox/`` first and shadow ``net`` / ``policy``), so a function
#: pickled by reference resolves as it does here, and ``-S`` skips the
#: ``site`` imports that path already reflects. ``run_path`` imports no
#: package on the way in.
_BOOTSTRAP = (
    "import runpy, sys; sys.path[:] = sys.argv[2:]; "
    "runpy.run_path(sys.argv[1], run_name='__main__')"
)


@dataclass
class SandboxStats:
    """Counters benchmarks read."""

    invocations: int = 0
    fused_invocations: int = 0
    rows_in: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: Pickle bytes on the *data* path (batch arguments and results) — every
    #: batch crosses the boundary as one pickle frame each way; this is the
    #: per-batch tax the Table 2 benchmarks measure.
    data_pickle_bytes: int = 0
    #: Pickle bytes on the control path (install / policy / ping / egress).
    control_pickle_bytes: int = 0
    #: Always 0: no sandbox transport uses shared memory any more. Kept for
    #: its one reader, ``benchmarks/e2e/layers.py`` (the
    #: ``sandbox.shm_bytes_per_op`` metric), until a benchmark issue drops it.
    shm_bytes: int = 0


def _checked(reply: Any) -> tuple[str, Any]:
    """``reply`` as a ``(status, payload)`` pair the protocol allows."""
    status, payload = reply if type(reply) is tuple and len(reply) == 2 else (0, 0)
    if status == "denied":
        kind, text = payload  # a kind outside net.DENIALS is a violation too
        ok = type(kind) is str and kind in net.DENIALS and type(text) is str
    else:
        ok = status in ("ok", "err", "egress")
    if not ok:
        raise ValueError(f"worker frame is not a protocol reply: {status!r}")
    return status, payload


class SubprocessSandbox:
    """A sandbox backed by a dedicated worker process."""

    def __init__(self, trust_domain: str, policy: SandboxPolicy | None = None):
        self.sandbox_id = new_id("sbx")
        self.trust_domain = trust_domain
        self.policy = policy or SandboxPolicy()
        self.stats = SandboxStats()
        #: Chaos hook (set by the cluster manager): a triggered
        #: ``sandbox.invoke`` fault kills the worker *before* the request is
        #: written, so the resulting :class:`SandboxDied` carries
        #: ``delivered=False`` — the real crashed-before-work case.
        self.faults: "FaultInjector | None" = None
        #: Workload-environment version pinned inside (set by the manager).
        self.environment: str | None = None
        #: sha256 of a function's cloudpickle blob -> worker-side udf id.
        self._installed: dict[bytes, str] = {}
        self._process = subprocess.Popen(
            [sys.executable, "-S", "-c", _BOOTSTRAP, worker.__file__, *sys.path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._request((
            "policy",
            self.policy.allow_network,
            sorted(self.policy.egress_allowlist),
            self.policy.allow_host_filesystem,
        ))

    # -- protocol ---------------------------------------------------------------

    def _request(self, message: Any, data_frame: bool = False) -> Any:
        """One request/response round-trip with the worker.

        Distinguishes *where* the pipe broke: a failed **write** means the
        request never reached the worker (``delivered=False`` — a retry
        cannot double-execute anything), while a failed **read** means the
        worker died holding the request, or answered with bytes its loop did
        not write and was killed for it (``delivered=True`` — it may have run
        side effects; retrying would break at-most-once).

        ``egress`` frames the worker sends meanwhile are served here, until
        the request's own answer arrives. ``data_frame`` marks frames whose
        payload *is* batch data (the invoke frames); everything else is
        control traffic, accounted separately.
        """
        if self.closed:
            raise SandboxDied(
                f"sandbox {self.sandbox_id} is closed", delivered=False
            )
        try:
            sent = write_frame(self._process.stdin, message)
        except (BrokenPipeError, OSError) as exc:
            raise SandboxDied(
                f"sandbox {self.sandbox_id} worker died before the request "
                f"was delivered: {exc}",
                delivered=False,
            ) from exc
        denial: SandboxPolicyViolation | None = None
        while True:
            try:
                reply, received = read_frame(
                    self._process.stdout, DataOnlyUnpickler, MAX_FRAME_BYTES
                )
                status, payload = _checked(reply)
                if status != "egress":
                    break
                answer, refused = self._egress(payload)
                denial = denial or refused
                self.stats.control_pickle_bytes += received + write_frame(
                    self._process.stdin, answer
                )
            except Exception as exc:  # noqa: BLE001 - unpickling garbage raises anything
                # EOF is a dead worker; anything else means nothing further on
                # this stream can be trusted either.
                self._kill()
                raise SandboxDied(
                    f"sandbox {self.sandbox_id} worker died mid-request: "
                    f"{type(exc).__name__}: {exc}",
                    delivered=True,
                ) from exc
        if data_frame:
            self.stats.data_pickle_bytes += sent + received
            self.stats.bytes_in += sent
            self.stats.bytes_out += received
        else:
            self.stats.control_pickle_bytes += sent + received
        if status == "ok":
            return payload
        if status == "denied":
            # A denial this side made is raised as itself; otherwise the
            # worker's kind picks a type from the fixed table.
            if denial is not None:
                raise denial
            kind, text = payload
            raise net.DENIALS[kind](text)
        raise UserCodeError(str(payload))

    def _egress(self, request: Any) -> tuple[Any, SandboxPolicyViolation | None]:
        """The reply to one ``egress`` frame under this sandbox's own policy,
        and the denial when the policy refused the call."""
        try:
            op, args = request
            with net.ambient_policy(self.policy):
                return ("ok", net.EGRESS_OPS[op](*args)), None
        except SandboxPolicyViolation as exc:
            return ("denied", (net.denial_kind(exc), str(exc))), exc
        except Exception as exc:  # noqa: BLE001 - the call's failure is the UDF's
            return ("err", f"{type(exc).__name__}: {exc}"), None

    def _kill(self) -> None:
        self._process.kill()
        self._process.wait()

    def _maybe_inject_death(self) -> None:
        """Kill the worker if an armed ``sandbox.invoke`` fault triggers."""
        if self.faults is None:
            return
        decision = self.faults.check("sandbox.invoke")
        if decision.triggered:
            self._kill()

    def _check_domain(self, udf: PythonUDF) -> None:
        if udf.trust_domain != self.trust_domain:
            raise TrustDomainViolation(
                f"UDF '{udf.name}' (domain '{udf.trust_domain}') routed to "
                f"sandbox of domain '{self.trust_domain}'"
            )

    def _ensure_installed(self, udf: PythonUDF) -> str:
        # Keyed by the blob's digest: the same function ships once per
        # sandbox however many queries (and plan decodes) carry it.
        udf_id = self._installed.get(udf.digest)
        if udf_id is None:
            udf.require_python()
            udf_id = new_id("udf")
            self._request(("install", udf_id, udf.blob, udf.name))
            self._installed[udf.digest] = udf_id
        return udf_id

    # -- invocation ---------------------------------------------------------------

    def invoke(self, udf: PythonUDF, arg_columns: list[list[Any]]) -> list[Any]:
        self._check_domain(udf)
        udf_id = self._ensure_installed(udf)
        self._maybe_inject_death()
        self.stats.invocations += 1
        if arg_columns:
            self.stats.rows_in += len(arg_columns[0])
        return self._request(("invoke", udf_id, arg_columns), data_frame=True)

    def invoke_many(
        self, calls: list[tuple[int, PythonUDF, list[list[Any]]]]
    ) -> dict[int, list[Any]]:
        """One fused round-trip: all calls' arguments cross together."""
        for _, udf, _ in calls:
            self._check_domain(udf)
        wire_calls = [
            (call_id, self._ensure_installed(udf), args)
            for call_id, udf, args in calls
        ]
        self._maybe_inject_death()
        self.stats.invocations += 1
        self.stats.fused_invocations += 1
        if calls and calls[0][2]:
            self.stats.rows_in += len(calls[0][2][0])
        return self._request(("invoke_many", wire_calls), data_frame=True)

    def ping(self) -> bool:
        return self._request(("ping",)) == "pong"

    def close(self) -> None:
        """Stop the worker; never raises, and the process is gone on return."""
        if not self.closed:
            try:
                write_frame(self._process.stdin, ("shutdown",))
            except (OSError, ValueError):
                pass
            try:
                # A thread the UDF left behind keeps the interpreter alive
                # after the worker loop has returned.
                self._process.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                self._kill()
        for pipe in (self._process.stdin, self._process.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    @property
    def closed(self) -> bool:
        return self._process.poll() is not None

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            if not self.closed:
                self._process.kill()
        except Exception:
            pass
