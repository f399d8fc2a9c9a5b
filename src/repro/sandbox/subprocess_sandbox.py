"""Real process-isolated sandbox backend.

Runs ``sandbox/worker.py`` in a dedicated OS process and ships user functions
to it with cloudpickle. There is one transport: length-prefixed pickle frames
on the worker's stdin / stdout, batch columns included. The worker is started
from its *file*, not with ``-m``, so it holds no ``repro.*`` module until a
shipped function imports one.

The worker's stdout is writable by user code, so its frames are decoded with
:class:`~repro.common.datacodec.DataOnlyUnpickler`, which resolves no
global; a frame that names one, is oversized,
truncated or not a ``(status, payload)`` pair ends the sandbox
(``SandboxDied(delivered=True)`` — never replayed).
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from typing import TYPE_CHECKING, Any

import cloudpickle

from repro.common.datacodec import DataOnlyUnpickler
from repro.common.ids import new_id
from repro.engine.udf import PythonUDF
from repro.errors import SandboxDied, TrustDomainViolation, UserCodeError
from repro.sandbox import worker
from repro.sandbox.policy import SandboxPolicy
from repro.sandbox.sandbox import SandboxStats
from repro.sandbox.worker import read_frame, write_frame

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector

#: Largest worker frame the driver will read (a batch of results is KBs).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: ``-c`` keeps ``sys.path[0]`` the working directory, as ``-m`` did, where
#: ``python worker.py`` would put ``repro/sandbox/`` there and shadow
#: ``net`` / ``policy``; ``run_path`` imports no package on the way in.
_BOOTSTRAP = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__')"


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
        #: sha256 of a function's cloudpickle blob -> worker-side udf id.
        self._installed: dict[bytes, str] = {}
        self._process = subprocess.Popen(
            [sys.executable, "-c", _BOOTSTRAP, worker.__file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._request(("policy", self.policy.allow_network))

    # -- protocol ---------------------------------------------------------------

    def _request(self, message: Any, data_frame: bool = False) -> Any:
        """One request/response round-trip with the worker.

        Distinguishes *where* the pipe broke: a failed **write** means the
        request never reached the worker (``delivered=False`` — a retry
        cannot double-execute anything), while a failed **read** means the
        worker died holding the request, or answered with bytes its loop did
        not write and was killed for it (``delivered=True`` — it may have run
        side effects; retrying would break at-most-once).

        ``data_frame`` marks frames whose payload *is* batch data (the
        invoke frames); everything else is control traffic, accounted
        separately.
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
        try:
            reply, received = read_frame(
                self._process.stdout, DataOnlyUnpickler, MAX_FRAME_BYTES
            )
            if type(reply) is not tuple or len(reply) != 2 or reply[0] not in ("ok", "err"):
                raise ValueError("worker frame is not an (ok | err, payload) pair")
            status, payload = reply
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
        else:
            self.stats.control_pickle_bytes += sent + received
        if status == "err":
            raise UserCodeError(str(payload))
        return payload

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
        # Keyed by content, never by ``id(udf.func)``: functions are
        # unpickled per query and collected, so ids recycle and an id-keyed
        # cache ends up invoking another UDF's installed code.
        blob = cloudpickle.dumps(udf.func)
        key = hashlib.sha256(blob).digest()
        udf_id = self._installed.get(key)
        if udf_id is None:
            udf_id = new_id("udf")
            self._request(("install", udf_id, blob, udf.name))
            self._installed[key] = udf_id
        return udf_id

    # -- Sandbox interface --------------------------------------------------------

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
