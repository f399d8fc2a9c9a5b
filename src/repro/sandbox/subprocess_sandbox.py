"""Real process-isolated sandbox backend.

Spawns ``python -m repro.sandbox.worker`` and ships user functions with
cloudpickle. The isolation boundary is physical — a separate OS process —
but with the default shared-memory transport the *data* no longer crosses
the pipes: batch columns are encoded into ``shmbuf`` segments and only the
layout metadata rides the control frames, so the per-batch pickle tax the
Table 2 benchmarks measure drops to ~0. ``use_shm=False`` keeps the legacy
pickle-over-pipe transport as the measurable baseline.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from typing import TYPE_CHECKING, Any

import cloudpickle

from repro.common import shmbuf
from repro.common.ids import new_id
from repro.engine.udf import PythonUDF
from repro.errors import SandboxDied, TrustDomainViolation, UserCodeError
from repro.sandbox.policy import SandboxPolicy
from repro.sandbox.sandbox import SandboxStats
from repro.sandbox.worker import read_frame, write_frame

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector


class SubprocessSandbox:
    """A sandbox backed by a dedicated worker process."""

    def __init__(
        self,
        trust_domain: str,
        policy: SandboxPolicy | None = None,
        use_shm: bool = True,
    ):
        self.sandbox_id = new_id("sbx")
        self.trust_domain = trust_domain
        self.policy = policy or SandboxPolicy()
        #: Batch transport: shared-memory segments (default) or the legacy
        #: pickle-over-pipe path (kept as the Table 2 baseline).
        self.use_shm = use_shm
        self.stats = SandboxStats()
        #: Chaos hook (set by the cluster manager): a triggered
        #: ``sandbox.invoke`` fault kills the worker *before* the request is
        #: written, so the resulting :class:`SandboxDied` carries
        #: ``delivered=False`` — the real crashed-before-work case.
        self.faults: "FaultInjector | None" = None
        #: sha256 of a function's cloudpickle blob -> worker-side udf id.
        self._installed: dict[bytes, str] = {}
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro.sandbox.worker"],
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
        worker died holding the request (``delivered=True`` — it may have
        run side effects; retrying would break at-most-once).

        ``data_frame`` marks frames whose payload *is* batch data (the
        legacy transport's invoke frames); everything else is control
        traffic, accounted separately.
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
            (status, payload), received = read_frame(self._process.stdout)
        except (EOFError, OSError) as exc:
            raise SandboxDied(
                f"sandbox {self.sandbox_id} worker died mid-request: {exc}",
                delivered=True,
            ) from exc
        if data_frame:
            self.stats.data_pickle_bytes += sent + received
        else:
            self.stats.control_pickle_bytes += sent + received
        if status == "err":
            raise UserCodeError(str(payload))
        return payload

    def _maybe_inject_death(self) -> None:
        """Kill the worker if an armed ``sandbox.invoke`` fault triggers."""
        if self.faults is None:
            return
        decision = self.faults.check("sandbox.invoke")
        if decision.triggered:
            self._process.kill()
            self._process.wait(timeout=5)

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

    def _account_outbound(self, meta: dict[str, Any]) -> None:
        self.stats.shm_bytes += meta["nbytes"]
        self.stats.bytes_in += meta["nbytes"]
        self.stats.data_pickle_bytes += meta["pickled_bytes"]

    def _account_inbound(self, meta: dict[str, Any]) -> None:
        self.stats.shm_bytes += meta["nbytes"]
        self.stats.bytes_out += meta["nbytes"]
        self.stats.data_pickle_bytes += meta["pickled_bytes"]

    def invoke(self, udf: PythonUDF, arg_columns: list[list[Any]]) -> list[Any]:
        self._check_domain(udf)
        udf_id = self._ensure_installed(udf)
        self._maybe_inject_death()
        self.stats.invocations += 1
        if arg_columns:
            self.stats.rows_in += len(arg_columns[0])
        if not self.use_shm:
            return self._request(("invoke", udf_id, arg_columns), data_frame=True)
        num_rows = len(arg_columns[0]) if arg_columns else 0
        meta, payload = shmbuf.encode_columns(arg_columns, num_rows)
        segment = shmbuf.create_segment(payload)
        self._account_outbound(meta)
        try:
            out_name, out_meta = self._request(
                ("invoke_shm", udf_id, segment.name, meta)
            )
        finally:
            shmbuf.release_segment(segment)
        self._account_inbound(out_meta)
        out = shmbuf.adopt_segment(out_name)
        try:
            (column,) = shmbuf.decode_columns(out_meta, out.buf)
        finally:
            shmbuf.release_segment(out)
        return column

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
        if not self.use_shm:
            return self._request(("invoke_many", wire_calls), data_frame=True)
        entries: list[tuple[int, str, dict[str, Any], int, int]] = []
        chunks: list[bytes] = []
        offset = 0
        for call_id, udf_id, args in wire_calls:
            num_rows = len(args[0]) if args else 0
            meta, payload = shmbuf.encode_columns(args, num_rows)
            pad = (-offset) % shmbuf.ALIGNMENT
            if pad:
                chunks.append(b"\x00" * pad)
                offset += pad
            entries.append((call_id, udf_id, meta, offset, len(payload)))
            chunks.append(payload)
            offset += len(payload)
            self._account_outbound(meta)
        segment = shmbuf.create_segment(b"".join(chunks))
        try:
            out_name, out_entries = self._request(
                ("invoke_many_shm", entries, segment.name)
            )
        finally:
            shmbuf.release_segment(segment)
        out = shmbuf.adopt_segment(out_name)
        try:
            results: dict[int, list[Any]] = {}
            for call_id, meta, off, length in out_entries:
                self._account_inbound(meta)
                (column,) = shmbuf.decode_columns(
                    meta, out.buf[off : off + length]
                )
                results[call_id] = column
        finally:
            shmbuf.release_segment(out)
        return results

    def ping(self) -> bool:
        return self._request(("ping",)) == "pong"

    def close(self) -> None:
        if self.closed:
            return
        try:
            write_frame(self._process.stdin, ("shutdown",))
            self._process.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        self._process.wait(timeout=5)

    @property
    def closed(self) -> bool:
        return self._process.poll() is not None

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            if not self.closed:
                self._process.kill()
        except Exception:
            pass
