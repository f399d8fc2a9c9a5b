"""Bytes from outside a trust boundary, decoded as data and never as code.

A pickle stream is a small program: its ``GLOBAL`` / ``STACK_GLOBAL`` /
``INST`` opcodes name any importable callable and ``REDUCE`` calls it, so
``pickle.loads`` on bytes someone else wrote runs code of *their* choosing
in whoever decodes them. Every place the driver (or an engine worker)
decodes bytes it did not produce itself goes through
:class:`DataOnlyUnpickler`, which resolves no global at all: scalars,
strings, bytes and the built-in containers decode, anything else is an
:class:`pickle.UnpicklingError` before its callable is even looked up.

The boundaries that use it:

- frames a subprocess sandbox worker writes on its stdout — the worker runs
  user code (:mod:`repro.sandbox.subprocess_sandbox`);
- table data files and eFGAC staged result parts read back from object
  storage, whose bytes anyone with write access to the bucket controls
  (:mod:`repro.storage.table_format`, in the driver and in process workers).
"""

from __future__ import annotations

import pickle
from typing import Any


class DataOnlyUnpickler(pickle.Unpickler):
    """Decodes scalars and containers; resolving any global is refused."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"data-only decode refused global {module}.{name}")
