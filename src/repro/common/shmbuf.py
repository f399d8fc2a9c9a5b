"""Typed columnar buffers over ``multiprocessing.shared_memory``.

This is the data plane of the multi-process execution backend: a batch of
columns is encoded into a handful of fixed-width buffers laid out in one
contiguous payload, the payload lives in a named POSIX shared-memory
segment, and only the (small) layout metadata crosses the control pipe.
Workers map the segment and read the buffers in place — no per-batch pickle
of row data. Its users are the process worker backend (``engine/workers.py``)
and the result cache's batch serialisation (``engine/batch.py``); the sandbox
boundary does not use it.

Per-column encodings, chosen by inspecting the values (the engine's batches
are plain Python lists and may drift from the declared schema, e.g. a
column mask that rewrites ints to ``'***'``):

- ``i8``    — 64-bit signed ints (``array('q')``) + optional validity bitmap
- ``f8``    — 64-bit floats (``array('d')``) + optional validity bitmap
- ``bool``  — bit-packed values + optional validity bitmap
- ``str``   — int64 offsets into a UTF-8 payload + optional validity bitmap
- ``bytes`` — int64 offsets into a raw payload + optional validity bitmap
- ``obj``   — pickle fallback for mixed/oversized values; kept lossless and
  counted separately so the "data-path pickle bytes ≈ 0" property stays
  measurable (homogeneous engine columns never hit it)

Segment ownership protocol (Python 3.11 registers every ``SharedMemory``
attach with the resource tracker, so attachers must explicitly disclaim
ownership or the tracker double-unlinks):

- :func:`create_segment`  — create + register in this process's leak guard
- :func:`attach_segment`  — map an existing segment *without* taking
  ownership (resource-tracker registration is undone)
- :func:`transfer_segment` — disclaim ownership of a segment this process
  created (the peer that adopts it becomes responsible for unlinking)
- :func:`adopt_segment`   — attach *and* take ownership
- :func:`release_segment` — close (+ unlink when owning) and drop from the
  leak guard

An ``atexit`` hook unlinks anything still owned at interpreter shutdown,
and :func:`live_segment_names` lets tests assert nothing leaked.
"""

from __future__ import annotations

import atexit
import pickle
import threading
from array import array
from typing import Any, Callable, Iterator, Sequence

from multiprocessing import resource_tracker, shared_memory

ALIGNMENT = 8

_I8_MIN = -(2**63)
_I8_MAX = 2**63 - 1

KIND_I8 = "i8"
KIND_F8 = "f8"
KIND_BOOL = "bool"
KIND_STR = "str"
KIND_BYTES = "bytes"
KIND_OBJ = "obj"


# ---------------------------------------------------------------------------
# Bit helpers
# ---------------------------------------------------------------------------


def _pack_bits(flags: Sequence[Any]) -> bytes:
    """LSB-first bitmap of truthiness, one bit per element."""
    out = bytearray((len(flags) + 7) >> 3)
    for i, flag in enumerate(flags):
        if flag:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def _bit(buf: memoryview, i: int) -> int:
    return (buf[i >> 3] >> (i & 7)) & 1


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


class _Writer:
    """Accumulates 8-byte-aligned buffer slices into one payload."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.size = 0

    def put(self, data: bytes) -> tuple[int, int]:
        pad = (-self.size) % ALIGNMENT
        if pad:
            self.chunks.append(b"\x00" * pad)
            self.size += pad
        offset = self.size
        self.chunks.append(data)
        self.size += len(data)
        return (offset, len(data))

    def payload(self) -> bytes:
        return b"".join(self.chunks)


def _classify(column: Sequence[Any]) -> str:
    """Pick the narrowest lossless encoding for one column's values."""
    kinds: set[str] = set()
    for value in column:
        if value is None:
            continue
        t = type(value)
        if t is bool:
            kinds.add(KIND_BOOL)
        elif t is int:
            kinds.add(KIND_I8)
            if not (_I8_MIN <= value <= _I8_MAX):
                return KIND_OBJ
        elif t is float:
            kinds.add(KIND_F8)
        elif t is str:
            kinds.add(KIND_STR)
        elif t is bytes:
            kinds.add(KIND_BYTES)
        else:
            return KIND_OBJ
        if len(kinds) > 1:
            # Mixed types (incl. int+float) take the pickle fallback so the
            # round trip preserves exact Python types.
            return KIND_OBJ
    if not kinds:
        return KIND_I8  # all-NULL: any fixed-width kind round-trips
    return kinds.pop()


def _encode_column(column: Sequence[Any], writer: _Writer) -> dict[str, Any]:
    n = len(column)
    kind = _classify(column)
    meta: dict[str, Any] = {"kind": kind, "count": n, "validity": None}

    has_null = any(v is None for v in column)
    if has_null and kind != KIND_OBJ:
        meta["validity"] = writer.put(_pack_bits([v is not None for v in column]))

    if kind == KIND_I8:
        values = array("q", [0 if v is None else v for v in column]) if has_null else array("q", column)
        meta["data"] = writer.put(values.tobytes())
    elif kind == KIND_F8:
        values = array("d", [0.0 if v is None else v for v in column]) if has_null else array("d", column)
        meta["data"] = writer.put(values.tobytes())
    elif kind == KIND_BOOL:
        meta["data"] = writer.put(_pack_bits([bool(v) for v in column]))
    elif kind in (KIND_STR, KIND_BYTES):
        parts = [
            b"" if v is None else (v.encode("utf-8") if kind == KIND_STR else v)
            for v in column
        ]
        offsets = array("q", [0] * (n + 1))
        total = 0
        for i, part in enumerate(parts):
            total += len(part)
            offsets[i + 1] = total
        meta["offsets"] = writer.put(offsets.tobytes())
        meta["payload"] = writer.put(b"".join(parts))
    else:  # KIND_OBJ
        blob = pickle.dumps(list(column), protocol=pickle.HIGHEST_PROTOCOL)
        meta["data"] = writer.put(blob)
        meta["pickled_bytes"] = len(blob)
    return meta


def encode_columns(
    columns: Sequence[Sequence[Any]], num_rows: int | None = None
) -> tuple[dict[str, Any], bytes]:
    """Encode columns into ``(layout metadata, contiguous payload)``.

    The metadata dict is small and control-plane safe (plain ints/strings);
    the payload is the data plane, intended for a shared-memory segment.
    """
    writer = _Writer()
    col_metas = [_encode_column(col, writer) for col in columns]
    if num_rows is None:
        num_rows = len(columns[0]) if columns else 0
    meta = {
        "num_rows": num_rows,
        "columns": col_metas,
        "nbytes": writer.size,
        "pickled_bytes": sum(c.get("pickled_bytes", 0) for c in col_metas),
    }
    return meta, writer.payload()


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class BufferColumn(Sequence):
    """Zero-copy read view of one encoded column.

    Behaves as an immutable sequence over the decoded values, resolving
    each element against the underlying buffers on access. ``to_list()``
    materializes eagerly through the fast bulk decoder.
    """

    __slots__ = ("kind", "_count", "_get", "_bulk")

    def __init__(
        self,
        kind: str,
        count: int,
        get: Callable[[int], Any],
        bulk: Callable[[], list[Any]],
    ):
        self.kind = kind
        self._count = count
        self._get = get
        self._bulk = bulk

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._get(i) for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self._get(index)

    def __iter__(self) -> Iterator[Any]:
        get = self._get
        return (get(i) for i in range(self._count))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, BufferColumn)):
            return len(other) == self._count and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def to_list(self) -> list[Any]:
        return self._bulk()

    def __repr__(self) -> str:
        return f"BufferColumn(kind={self.kind}, len={self._count})"


def _slice(buf: memoryview, span: tuple[int, int]) -> memoryview:
    offset, length = span
    return buf[offset : offset + length]


def _decode_column(
    meta: dict[str, Any], buf: memoryview, zero_copy: bool
) -> list[Any] | BufferColumn:
    kind = meta["kind"]
    n = meta["count"]
    validity = (
        _slice(buf, meta["validity"]) if meta.get("validity") is not None else None
    )

    if kind == KIND_OBJ:
        # Pickle fallback: always materialized (views buy nothing here).
        return pickle.loads(_slice(buf, meta["data"]))

    if kind in (KIND_I8, KIND_F8):
        data = _slice(buf, meta["data"]).cast("q" if kind == KIND_I8 else "d")

        def bulk() -> list[Any]:
            values = data.tolist()
            if validity is None:
                return values
            return [
                v if _bit(validity, i) else None for i, v in enumerate(values)
            ]

        def get(i: int) -> Any:
            if validity is not None and not _bit(validity, i):
                return None
            return data[i]

    elif kind == KIND_BOOL:
        data = _slice(buf, meta["data"])

        def bulk() -> list[Any]:
            if validity is None:
                return [bool(_bit(data, i)) for i in range(n)]
            return [
                bool(_bit(data, i)) if _bit(validity, i) else None
                for i in range(n)
            ]

        def get(i: int) -> Any:
            if validity is not None and not _bit(validity, i):
                return None
            return bool(_bit(data, i))

    elif kind in (KIND_STR, KIND_BYTES):
        offsets = _slice(buf, meta["offsets"]).cast("q")
        payload = _slice(buf, meta["payload"])

        def item(i: int) -> Any:
            raw = bytes(payload[offsets[i] : offsets[i + 1]])
            return raw.decode("utf-8") if kind == KIND_STR else raw

        def bulk() -> list[Any]:
            if validity is None:
                return [item(i) for i in range(n)]
            return [item(i) if _bit(validity, i) else None for i in range(n)]

        def get(i: int) -> Any:
            if validity is not None and not _bit(validity, i):
                return None
            return item(i)

    else:  # pragma: no cover - encoder never emits unknown kinds
        raise ValueError(f"unknown buffer kind '{kind}'")

    if zero_copy:
        return BufferColumn(kind, n, get, bulk)
    return bulk()


def decode_columns(
    meta: dict[str, Any], buf, zero_copy: bool = False
) -> list[list[Any] | BufferColumn]:
    """Decode a :func:`encode_columns` layout back into columns.

    With ``zero_copy=True``, fixed-width and string columns come back as
    :class:`BufferColumn` views over ``buf`` (which must stay alive while
    the views are used); otherwise plain lists are materialized and ``buf``
    can be released immediately.
    """
    view = memoryview(buf)
    return [_decode_column(col, view, zero_copy) for col in meta["columns"]]


# ---------------------------------------------------------------------------
# Shared-memory segments + leak guard
# ---------------------------------------------------------------------------

_live_segments: dict[str, shared_memory.SharedMemory] = {}
_live_lock = threading.Lock()


def disable_resource_tracking() -> None:
    """Make this process's resource tracker a no-op (forked workers only).

    A forked worker inherits the driver's tracker wholesale — the pipe fd
    and, worst case, the tracker's internal ``threading.Lock`` *in the held
    state* if the driver forked while another of its threads was mid-
    registration. The child's first ``SharedMemory`` call then deadlocks in
    ``ensure_running``. Workers never own segment cleanup (every segment is
    adopted or released by the driver), so the tracker is pure liability in
    a worker: replace its entry points with no-ops before touching any
    segment. ``shared_memory`` looks the functions up through the module at
    call time, so rebinding here covers it too.
    """

    def _noop(*_args: Any, **_kwargs: Any) -> None:
        return None

    resource_tracker.register = _noop
    resource_tracker.unregister = _noop
    resource_tracker.ensure_running = _noop


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Undo this process's resource-tracker registration for ``shm``.

    Python 3.11 registers on *attach* as well as create; a process that does
    not own the segment must unregister or the tracker will unlink it twice
    (and warn) at exit.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - tracker may be gone at shutdown
        pass


def create_segment(payload: bytes) -> shared_memory.SharedMemory:
    """Create an owned segment holding ``payload`` (leak-guarded)."""
    shm = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    if payload:
        shm.buf[: len(payload)] = payload
    with _live_lock:
        _live_segments[shm.name] = shm
    return shm


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without taking ownership of its lifetime."""
    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm)
    return shm


def adopt_segment(name: str) -> shared_memory.SharedMemory:
    """Attach a segment *and* assume responsibility for unlinking it.

    The attach-time resource-tracker registration is kept: ``unlink()``
    unregisters it, so the adopt → release pair stays balanced.
    """
    shm = shared_memory.SharedMemory(name=name)
    with _live_lock:
        _live_segments[shm.name] = shm
    return shm


def transfer_segment(shm: shared_memory.SharedMemory) -> None:
    """Disclaim ownership of a segment this process created.

    Used by workers handing a result segment to the driver: the worker
    closes its mapping, the driver adopts and eventually unlinks.
    """
    _untrack(shm)
    with _live_lock:
        _live_segments.pop(shm.name, None)


def release_segment(
    shm: shared_memory.SharedMemory, unlink: bool = True
) -> None:
    """Close a mapping and (for owned segments) unlink the backing memory."""
    with _live_lock:
        _live_segments.pop(shm.name, None)
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exported views still alive
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def live_segment_names() -> list[str]:
    """Names of segments this process still owns (test leak assertion)."""
    with _live_lock:
        return sorted(_live_segments)


@atexit.register
def _cleanup_segments() -> None:  # pragma: no cover - interpreter shutdown
    with _live_lock:
        leaked = list(_live_segments.values())
        _live_segments.clear()
    for shm in leaked:
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
