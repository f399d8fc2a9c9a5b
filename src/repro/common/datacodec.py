"""Bytes from outside a trust boundary, decoded as data and never as code.

A pickle stream is a small program: its ``GLOBAL`` / ``STACK_GLOBAL`` /
``INST`` opcodes name any importable callable and ``REDUCE`` calls it, so
``pickle.loads`` on bytes someone else wrote runs code of *their* choosing
in whoever decodes them. Every place the driver (or a Connect client)
decodes bytes it did not produce itself goes through
:class:`DataOnlyUnpickler`, which resolves no global at all: scalars,
strings, bytes and the built-in containers decode, anything else is an
:class:`pickle.UnpicklingError` before its callable is even looked up.

This module also owns the one columnar layout those bytes travel in — the
**column-chunked data file** — with a small fixed header first, then one
chunk per column::

    magic "LGC1" | row count u32 | column count u16
    per column:  name length u16 | chunk offset u32 | chunk length u32 | name
    chunks, in directory order, back to back to the end of the object

Each chunk is the column's plain list, pickled with protocol 5.
:func:`decode_data_file` checks the header and that the chunks tile the
object exactly, then decodes only the columns asked for, each with the
data-only unpickler, and checks each is a ``list`` of exactly the row count.
Any failure is one typed error (``error``); the header sits at the front, so
a mangled object fails on the magic, loudly.

The boundaries that use it:

- frames a subprocess sandbox worker writes on its stdout — the worker runs
  user code (:mod:`repro.sandbox.subprocess_sandbox`; unpickler only);
- table data files and eFGAC staged result parts read back from object
  storage, whose bytes anyone with write access to the bucket controls
  (:mod:`repro.storage.table_format`, :mod:`repro.core.efgac`);
- Connect result frames, decoded by the client (:mod:`repro.connect.client`).
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any, Sequence

from repro.errors import CorruptObjectError, StorageError

DATA_FILE_MAGIC = b"LGC1"
_HEADER = struct.Struct("<4sIH")
_ENTRY = struct.Struct("<HII")


class DataOnlyUnpickler(pickle.Unpickler):
    """Decodes scalars and containers; resolving any global is refused."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"data-only decode refused global {module}.{name}")


def encode_data_file(columns: dict[str, list]) -> bytes:
    """One object in the column-chunked layout (module docstring)."""
    lengths = {len(values) for values in columns.values()}
    if len(lengths) > 1:
        raise StorageError(f"ragged columns: lengths {sorted(lengths)}")
    num_rows = lengths.pop() if lengths else 0
    names = [name.encode("utf-8") for name in columns]
    chunks = [
        pickle.dumps(values if type(values) is list else list(values), protocol=5)
        for values in columns.values()
    ]
    offset = _HEADER.size + sum(_ENTRY.size + len(name) for name in names)
    parts = [_HEADER.pack(DATA_FILE_MAGIC, num_rows, len(names))]
    for name, chunk in zip(names, chunks):
        parts += (_ENTRY.pack(len(name), offset, len(chunk)), name)
        offset += len(chunk)
    return b"".join(parts + chunks)


def decode_data_file(
    blob: bytes,
    columns: Sequence[str] | None = None,
    source: str = "data file",
    error: type[Exception] = CorruptObjectError,
) -> dict[str, list]:
    """Decode ``columns`` (default: all) of one column-chunked object.

    Raises ``error`` — by default :class:`~repro.errors.CorruptObjectError`,
    retryable, because a corrupt read models a mangled response and the
    caller re-reads — for a bad header, chunks that do not tile the object,
    a missing column, a chunk that is not a ``list`` of the header's row
    count, and any chunk that names a global (planted code is refused before
    it is resolved).
    """
    try:
        magic, num_rows, count = _HEADER.unpack_from(blob, 0)
        if magic != DATA_FILE_MAGIC:
            raise ValueError("bad magic")
        directory: dict[str, tuple[int, int]] = {}
        pos = _HEADER.size
        for _ in range(count):
            name_len, offset, length = _ENTRY.unpack_from(blob, pos)
            pos += _ENTRY.size
            directory[blob[pos : pos + name_len].decode("utf-8")] = (offset, length)
            pos += name_len
        if len(directory) != count:
            raise ValueError("duplicate column names")
        for offset, length in directory.values():
            if offset != pos:
                raise ValueError(f"chunk at {offset}, expected {pos}")
            pos += length
        if pos != len(blob):
            raise ValueError(f"chunks end at {pos} of {len(blob)} bytes")
        stream = io.BytesIO(blob)
        out: dict[str, list] = {}
        for name in directory if columns is None else columns:
            offset, length = directory[name]
            stream.seek(offset)
            values = DataOnlyUnpickler(stream).load()
            if type(values) is not list or len(values) != num_rows:
                raise ValueError(f"column '{name}' is not a list of {num_rows} values")
            if stream.tell() != offset + length:
                raise ValueError(f"column '{name}' overruns its chunk")
            out[name] = values
        return out
    except Exception as exc:  # noqa: BLE001 - undecodable bytes raise anything
        raise error(f"{source} is corrupt: {type(exc).__name__}: {exc}") from exc
