"""Prefixed unique identifiers, in two strengths.

All entities in the system carry ids of the form ``<prefix>-<hex>`` so that
log lines and audit events are self-describing. Which function mints an id
says what the id may be used for:

- :func:`new_id` — a **capability**. Knowing the id is (part of) the
  authority to use the thing: credential tokens, session ids, operation ids
  (reattach / interrupt), eFGAC staging prefixes, sandbox ids. Every call
  draws fresh bytes from the OS CSPRNG.
- :func:`telemetry_id` — an **identifier**. Unique, but guessable by
  construction (a per-process random prefix plus a counter), so it must
  never gate access: span ids and server-assigned trace ids. No syscall and
  no lock per id, which is what lets a query open a dozen spans for free.
"""

from __future__ import annotations

import itertools
import os
import threading

_COUNTER = itertools.count(1)
_LOCK = threading.Lock()

_telemetry_counter = itertools.count(1)
_process_prefix = os.urandom(6).hex()


def _redraw_process_prefix() -> None:
    """A forked child must not mint its parent's ids again."""
    global _process_prefix
    _process_prefix = os.urandom(6).hex()


os.register_at_fork(after_in_child=_redraw_process_prefix)


def new_id(prefix: str) -> str:
    """Return an unguessable id such as ``session-3f2a9c81d7e4``."""
    return f"{prefix}-{os.urandom(6).hex()}"


def telemetry_id(prefix: str) -> str:
    """Return a process-unique id such as ``span-9c81d7e43f2a-1b``.

    ``next`` on an :func:`itertools.count` is one C call, atomic under the
    interpreter lock, so concurrent threads never see the same value.
    """
    return f"{prefix}-{_process_prefix}-{next(_telemetry_counter):x}"


def sequential_id(prefix: str) -> str:
    """Return a process-unique, *ordered* id such as ``op-000017``.

    Used where deterministic ordering matters (operation ids in tests).
    """
    with _LOCK:
        value = next(_COUNTER)
    return f"{prefix}-{value:06d}"
