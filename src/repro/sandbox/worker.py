"""Subprocess sandbox worker (the inside of the 'container').

Speaks a length-prefixed pickle frame protocol on stdin/stdout:

    request  = ("install", udf_id, func_blob, name)
             | ("policy", allow_network)
             | ("invoke", udf_id, arg_columns)
             | ("invoke_many", [(call_id, udf_id, arg_columns), ...])
             | ("ping",)
             | ("shutdown",)
    response = ("ok", payload) | ("err", message)

This file is both a module and a program. The driver imports it for
:func:`read_frame` / :func:`write_frame` (one copy of the frame code) and
*runs the file* as the worker (see ``SubprocessSandbox``), so the worker
process starts with no ``repro.*`` module loaded — the standard library and
``cloudpickle``, nothing of the engine, catalog or service — mirroring the
paper's property that the sandbox "runs fully isolated from the runtime
environment and is not connected to it directly". A shipped function may
still import what it needs.

Requests come from the driver and are trusted (the install frame carries a
cloudpickle blob by design). Responses are written by a process that runs
user code: the driver decodes them data-only, and the worker refuses to
*send* anything but plain data, so a UDF that returns an object gets an
error reply instead of a dead sandbox.
"""

from __future__ import annotations

import io
import pickle
import struct
import sys
from typing import Any, BinaryIO

_HEADER = struct.Struct(">I")


def read_frame(
    stream: BinaryIO, unpickler: type = pickle.Unpickler, max_bytes: int | None = None
) -> tuple[Any, int]:
    """Read one length-prefixed pickle frame (raises EOFError on close).

    Returns ``(message, total_bytes)`` so callers can account for pipe
    traffic. ``unpickler`` / ``max_bytes`` are how the driver reads the
    untrusted direction; the worker uses the defaults.
    """
    header = stream.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise EOFError("peer closed the pipe")
    (length,) = _HEADER.unpack(header)
    if max_bytes is not None and length > max_bytes:
        raise ValueError(f"frame of {length} bytes is over the {max_bytes} limit")
    payload = stream.read(length)
    if len(payload) < length:
        raise EOFError("truncated frame")
    return unpickler(io.BytesIO(payload)).load(), _HEADER.size + length


def write_frame(stream: BinaryIO, message: Any, pickler: type = pickle.Pickler) -> int:
    """Write one frame; returns the total bytes put on the pipe."""
    buffer = io.BytesIO()
    pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(message)
    payload = buffer.getbuffer()
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()
    return _HEADER.size + len(payload)


class _DataPickler(pickle.Pickler):
    """Replies are None / bool / int / float / str / bytes and containers of
    them; ``reducer_override`` is only consulted for anything else."""

    def reducer_override(self, obj: Any) -> Any:
        raise TypeError(f"a UDF must return plain data, not a {type(obj).__name__}")


def _disable_network() -> None:
    """Best-effort egress lockdown: real sockets raise inside this process."""
    import socket

    def _denied(*args, **kwargs):
        raise PermissionError("network egress is disabled in this sandbox")

    # A class, not a function: modules a UDF imports later subclass
    # ``socket.socket`` (``ssl``, and through it ``asyncio``).
    class _NoSocket(socket.socket):
        __init__ = _denied

    socket.socket = _NoSocket  # type: ignore[misc]
    socket.create_connection = _denied  # type: ignore[assignment]


def _invoke(func, arg_columns: list[list[Any]]) -> list[Any]:
    return [func(*row) for row in zip(*arg_columns)]


def main() -> int:
    """Worker loop: serve install/policy/invoke requests until shutdown."""
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # User code printing to stdout would corrupt the frame protocol;
    # redirect the Python-level stdout to stderr inside the sandbox.
    sys.stdout = sys.stderr

    import cloudpickle  # deferred: only the worker needs it at import time

    functions: dict[str, Any] = {}

    def reply(status: str, payload: Any) -> None:
        write_frame(stdout, (status, payload), _DataPickler)

    while True:
        try:
            message, _ = read_frame(stdin)
        except EOFError:
            return 0
        kind = message[0]
        try:
            if kind == "shutdown":
                reply("ok", None)
                return 0
            if kind == "ping":
                reply("ok", "pong")
            elif kind == "policy":
                _, allow_network = message
                if not allow_network:
                    _disable_network()
                reply("ok", None)
            elif kind == "install":
                _, udf_id, func_blob, _name = message
                functions[udf_id] = cloudpickle.loads(func_blob)
                reply("ok", None)
            elif kind == "invoke":
                _, udf_id, arg_columns = message
                reply("ok", _invoke(functions[udf_id], arg_columns))
            elif kind == "invoke_many":
                _, calls = message
                reply("ok", {
                    call_id: _invoke(functions[udf_id], arg_columns)
                    for call_id, udf_id, arg_columns in calls
                })
            else:
                reply("err", f"unknown message kind {kind!r}")
        except Exception as exc:  # noqa: BLE001 - report, don't die
            reply("err", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
