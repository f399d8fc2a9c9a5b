"""Interpreter turns: one request thread cannot starve the others.

The workload manager shares *slots*; under CPython the request threads of one
service also share the interpreter lock, and its built-in fairness is easy to
defeat. A thread waiting for the lock asks for a forced hand-off only after a
full switch interval (5 ms) in which the holder never released it; every
voluntary release — one ``os.urandom`` call is enough — wakes the waiter,
which usually loses the race to the thread that has just released and starts
its interval over. A client that issues short queries back to back (two such
releases per query, for its operation and trace ids) was measured holding
another identity's query off for 100 ms to 1.3 s, several dozen times in
seven thousand queries (EXPERIMENTS.md, "Many-identities path").

:class:`InterpreterTurns` bounds that. The service brackets every operation
with :meth:`begin` / :meth:`end`; a thread that has run operations for
:data:`TURN_SECONDS` while another request thread is active sleeps at the
operation boundary — where it holds no lock and no slot — until that other
thread has started an operation, trying the naps of :data:`HANDOFF_NAPS` in
turn. A sleep is the one release the waiter cannot lose: the holder does not
come back for the lock before the waiter has woken up. A service with one
request thread never sleeps.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: How long a request thread runs operations back to back before it hands
#: the interpreter over. About seventeen 1 ms queries: short enough that a
#: waiting identity's worst case is one turn, long enough that the hand-offs
#: (a context switch and a cold cache each) stay under a few percent.
TURN_SECONDS = 0.020
#: Sleeps tried in order until another request thread has run. The first is
#: enough when the waiter's CPU is awake; a halted virtual CPU needs longer.
HANDOFF_NAPS = (0.00005, 0.0002, 0.001)
#: A second request thread counts as active this long after its last operation.
ACTIVE_SECONDS = 1.0


class InterpreterTurns:
    """Time-slices the interpreter among the request threads of one service."""

    def __init__(
        self,
        now: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._now = now
        self._sleep = sleep
        self._turn = threading.local()
        #: Thread that most recently began an operation, and when a thread
        #: other than the previous one last did. Plain attribute writes: a
        #: lost update costs one late or early hand-off, never correctness.
        self._last_thread = 0
        self._alternated_at = float("-inf")
        #: Completed hand-offs (another thread ran during the sleep).
        self.handoffs = 0

    def begin(self) -> None:
        """The calling thread starts an operation."""
        me = threading.get_ident()
        if me != self._last_thread:
            if self._last_thread:
                self._alternated_at = self._now()
            self._last_thread = me

    def end(self) -> None:
        """The calling thread finished an operation and holds nothing."""
        now = self._now()
        started = getattr(self._turn, "started", None)
        if started is None or now - self._alternated_at > ACTIVE_SECONDS:
            # First operation, or nobody to hand over to: the turn restarts.
            self._turn.started = now
            return
        if now - started < TURN_SECONDS:
            return
        me = threading.get_ident()
        for nap in HANDOFF_NAPS:
            self._sleep(nap)
            if self._last_thread != me:
                self.handoffs += 1
                break
        self._turn.started = self._now()
