"""Tracing probes that wrap the program's public callables from outside.

Imported by the traced child only; the untraced run never loads this file.
``install`` replaces class and module attributes with timing wrappers
*before* the workspace is built (some bound methods are captured at
construction), and nothing under ``src/`` changes.

A span is ``(id, parent, probe, op, thread, start, end, busy, self, value)``:

* the parent comes from a per-thread stack; a task handed to a thread pool
  or an ephemeral thread inherits the submitter's span, and the time it
  spends outside any probe is charged to that span's layer;
* a generator-returning callable is timed across ``next()`` calls, not at
  creation, so ``busy`` is the time actually spent producing items;
* ``self`` is ``busy`` minus the busy time of children on the same thread;
* ``value`` carries a count measured at the same boundary (bytes, rows).

Targets resolve lazily: a name that no longer exists is reported in
``Recorder.unresolved`` and every metric built on it becomes ``None``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

Measure = Callable[[tuple, dict, Any], Any]


def _len_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _len_data_arg(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[2] if len(args) > 2 else kwargs["data"])


def _rows_of_columns_arg(args: tuple, kwargs: dict, result: Any) -> int:
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    return len(next(iter(columns.values()), ()))


def _operator_rows(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    metrics = (args[2] if len(args) > 2 else kwargs["ctx"]).metrics
    return metrics.rows_scanned, metrics.rows_output


@dataclass(frozen=True)
class Probe:
    """One wrapped callable; the key's first part is its ``src/repro`` layer."""

    key: str
    module: str
    qualname: str
    measure: Measure | None = None


#: ``wait`` probes are the benchmark's own plumbing: time a thread spends
#: blocked on another thread (a pool future, an ephemeral thread's join).
PROBES: tuple[Probe, ...] = (
    Probe("connect.codec.encode", "repro.connect.proto", "encode_message"),
    Probe("connect.codec.decode", "repro.connect.proto", "decode_message"),
    Probe("connect.service.handle", "repro.connect.service", "SparkConnectService.handle"),
    Probe("connect.service.stream", "repro.connect.service", "SparkConnectService.handle_stream"),
    Probe("connect.client.relation", "repro.connect.client", "SparkConnectClient.execute_relation"),
    Probe("connect.client.command", "repro.connect.client", "SparkConnectClient.execute_command"),
    Probe("sql.parse", "repro.sql.parser", "parse_statement"),
    Probe("core.resolve.analyze", "repro.engine.executor", "QueryEngine.analyze"),
    Probe("core.resolve.relation", "repro.core.enforcement", "GovernedResolver.resolve_relation"),
    Probe("core.plan_cache.lookup", "repro.core.plan_cache", "SecurePlanCache.lookup"),
    Probe("core.plan_cache.insert", "repro.core.plan_cache", "SecurePlanCache.insert"),
    Probe("core.pipeline.relation", "repro.core.lakeguard", "LakeguardCluster.execute_relation"),
    Probe(
        "core.pipeline.for_user", "repro.core.lakeguard",
        "LakeguardCluster.run_relation_for_user",
    ),
    Probe("core.command", "repro.core.lakeguard", "LakeguardCluster.execute_command"),
    Probe("core.datasource.scan", "repro.core.datasource", "GovernedDataSource.scan"),
    Probe("core.datasource.pipeline", "repro.core.datasource", "GovernedDataSource.scan_pipeline"),
    Probe("core.efgac", "repro.core.efgac", "RemoteQueryExecutor.__call__"),
    Probe("catalog.check_privilege", "repro.catalog.metastore", "UnityCatalog.check_privilege"),
    Probe("catalog.get_table", "repro.catalog.metastore", "UnityCatalog.get_table"),
    Probe("engine.optimize", "repro.engine.executor", "QueryEngine.optimize"),
    Probe("engine.plan_physical", "repro.engine.executor", "QueryEngine.plan_physical"),
    Probe(
        "engine.run_operator", "repro.engine.executor", "QueryEngine.run_operator",
        _operator_rows,
    ),
    Probe("storage.store.get", "repro.storage.object_store", "ObjectStore.get", _len_result),
    Probe("storage.store.put", "repro.storage.object_store", "ObjectStore.put", _len_data_arg),
    Probe(
        "storage.store.put_if_absent", "repro.storage.object_store",
        "ObjectStore.put_if_absent", _len_data_arg,
    ),
    Probe("storage.store.list", "repro.storage.object_store", "ObjectStore.list"),
    Probe("storage.decode.read_file", "repro.storage.table_format", "LakeTableStorage.read_file"),
    Probe("storage.decode.read_raw", "repro.storage.table_format", "LakeTableStorage.read_raw"),
    Probe("storage.snapshot", "repro.storage.table_format", "LakeTableStorage.snapshot"),
    Probe(
        "storage.stage_file", "repro.storage.table_format",
        "LakeTableStorage.stage_data_file", _rows_of_columns_arg,
    ),
    Probe("storage.credential.cache", "repro.storage.credentials", "CredentialCache.get_or_vend"),
    Probe("storage.credential.issue", "repro.storage.credentials", "CredentialVendor.issue"),
    Probe("storage.credential.validate", "repro.storage.credentials", "CredentialVendor.validate"),
    Probe("sandbox.dispatch.run_udf", "repro.sandbox.dispatcher", "SandboxedUDFRuntime.run_udf"),
    Probe(
        "sandbox.dispatch.run_fused", "repro.sandbox.dispatcher",
        "SandboxedUDFRuntime.run_fused",
    ),
    Probe("sandbox.dispatch.acquire", "repro.sandbox.dispatcher", "Dispatcher.acquire"),
    Probe("sandbox.invoke.one", "repro.sandbox.subprocess_sandbox", "SubprocessSandbox.invoke"),
    Probe(
        "sandbox.invoke.many", "repro.sandbox.subprocess_sandbox",
        "SubprocessSandbox.invoke_many",
    ),
    Probe("common.shmbuf.encode", "repro.common.shmbuf", "encode_columns"),
    Probe("common.shmbuf.decode", "repro.common.shmbuf", "decode_columns"),
    Probe("common.shmbuf.create", "repro.common.shmbuf", "create_segment"),
    Probe("common.shmbuf.adopt", "repro.common.shmbuf", "adopt_segment"),
    Probe("common.shmbuf.release", "repro.common.shmbuf", "release_segment"),
    Probe("common.telemetry.start", "repro.common.telemetry", "Telemetry.start_span"),
    Probe("common.telemetry.finish", "repro.common.telemetry", "Telemetry.finish_span"),
    Probe("scheduler.admit", "repro.scheduler.workload", "WorkloadManager.admit"),
    Probe("scheduler.release", "repro.scheduler.workload", "WorkloadManager.release"),
    Probe("store.get", "repro.store.tiers", "TieredStore.get"),
    Probe("store.put", "repro.store.tiers", "TieredStore.put"),
    Probe("txn.commit", "repro.txn.manager", "Transaction.commit"),
    Probe("txn.stage.insert", "repro.txn.manager", "Transaction.insert"),
    Probe("txn.stage.update", "repro.txn.manager", "Transaction.update"),
    Probe("txn.stage.delete", "repro.txn.manager", "Transaction.delete"),
    Probe("platform.gateway", "repro.platform.serverless", "ServerlessGateway.submit"),
    Probe("wait.future", "concurrent.futures", "Future.result"),
    Probe("wait.join", "threading", "Thread.join"),
)

#: Spans recorded by the benchmark itself rather than by a wrapper.
OP_SPAN = Probe("bench.op", "", "")
BUILD_SPAN = Probe("connect.client.build", "", "")


class _ThreadState:
    """Tracing state of one thread while it works on one op."""

    __slots__ = ("stack", "op", "out", "thread", "root_parent", "in_submit")

    def __init__(self, op: int, out: list, root_parent: int):
        self.in_submit = False
        self.stack: list[list] = []
        self.op = op
        self.out = out
        self.thread = threading.get_ident()
        self.root_parent = root_parent


def _origin(state: _ThreadState) -> tuple[int, int, int]:
    """``(op, span id, probe index)`` of the span a thread is inside right now.

    A traced thread always has a frame on its stack: the op's root span on a
    client thread, the continuation span on an inheriting thread.
    """
    frame = state.stack[-1]
    return state.op, frame[0], frame[3]


class Recorder:
    """Holds every span of the run in memory and the wrappers that emit them."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES):
        self.probes: list[Probe] = list(probes) + [OP_SPAN, BUILD_SPAN]
        self.op_index = len(probes)
        self.build_index = len(probes) + 1
        #: Keys of probes whose target no longer exists.
        self.unresolved: list[str] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._buffers: list[list[tuple]] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target, then re-point from-imports at the wrappers."""
        replaced: dict[int, Any] = {}
        for index, probe in enumerate(self.probes[: self.op_index]):
            try:
                owner, name, original = _resolve(probe)
            except (ImportError, AttributeError) as exc:
                self.unresolved.append(probe.key)
                print(f"warning: probe {probe.key} unresolved: {exc}", file=sys.stderr)
                continue
            wrapper = self._wrap(original, index, probe.measure)
            setattr(owner, name, wrapper)
            self._originals.append((owner, name, original))
            if inspect.ismodule(owner):
                replaced[id(original)] = (original, wrapper)
        # ``from module import fn`` bound the original in the importer's
        # namespace; point those names at the wrapper too.
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro."):
                continue
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._originals.append((module, name, value))
        self._install_thread_inheritance()

    def uninstall(self) -> None:
        """Put every original back (the self-test installs in-process)."""
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _install_thread_inheritance(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        recorder = self
        submit = ThreadPoolExecutor.submit
        start = threading.Thread.start
        run = threading.Thread.run

        def traced_submit(pool, fn, /, *args, **kwargs):
            state = getattr(recorder._tls, "state", None)
            if state is None:
                return submit(pool, fn, *args, **kwargs)
            # The pool may start a worker thread in here. A worker outlives
            # the task, so it must not become a continuation of this span;
            # only the task does.
            state.in_submit = True
            try:
                return submit(pool, recorder._inherit(fn, _origin(state)), *args, **kwargs)
            finally:
                state.in_submit = False

        def traced_start(thread):
            state = getattr(recorder._tls, "state", None)
            if state is not None and not state.in_submit:
                thread._e2e_origin = _origin(state)
            return start(thread)

        def traced_run(thread):
            origin = getattr(thread, "_e2e_origin", None)
            if origin is None:
                return run(thread)
            try:
                return recorder._inherit(run, origin)(thread)
            finally:
                del thread._e2e_origin

        for owner, name, original, wrapper in (
            (ThreadPoolExecutor, "submit", submit, traced_submit),
            (threading.Thread, "start", start, traced_start),
            (threading.Thread, "run", run, traced_run),
        ):
            setattr(owner, name, wrapper)
            self._originals.append((owner, name, original))

    def _inherit(self, fn: Callable, origin: tuple[int, int, int]) -> Callable:
        """Run ``fn`` on another thread as a continuation of the submitter's span."""
        op, parent_id, parent_probe = origin

        def continuation(*args, **kwargs):
            state = self._enter(op, parent_id)
            frame = [next(self._ids), time.perf_counter(), 0.0, parent_probe]
            state.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                busy = end - frame[1]
                state.out.append((
                    frame[0], parent_id, parent_probe, op, state.thread,
                    frame[1], end, busy, busy - frame[2], 0,
                ))
                self._tls.state = None

        return continuation

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, fn: Callable, index: int, measure: Measure | None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, index)
        tls, ids, clock = self._tls, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            state = getattr(tls, "state", None)
            if state is None:
                return fn(*args, **kwargs)
            stack = state.stack
            frame = [next(ids), clock(), 0.0, index]
            stack.append(frame)
            value: Any = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                busy = end - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[2] += busy
                    parent_id = parent[0]
                else:
                    parent_id = state.root_parent
                state.out.append((
                    frame[0], parent_id, index, state.op, state.thread,
                    frame[1], end, busy, busy - frame[2], value,
                ))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_generator(self, fn: Callable, index: int) -> Callable:
        tls, ids, clock = self._tls, self._ids, time.perf_counter

        def traced(inner, state):
            span_id = next(ids)
            parent_id = state.stack[-1][0] if state.stack else state.root_parent
            busy = children = 0.0
            first = last = clock()
            try:
                while True:
                    now = getattr(tls, "state", None) or state
                    frame = [span_id, clock(), 0.0, index]
                    now.stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = clock()
                        now.stack.pop()
                        spent = last - frame[1]
                        busy += spent
                        children += frame[2]
                        if now.stack:
                            now.stack[-1][2] += spent
                    yield item
            finally:
                inner.close()
                state.out.append((
                    span_id, parent_id, index, state.op, state.thread,
                    first, last, busy, busy - children, 0,
                ))

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            state = getattr(tls, "state", None)
            return inner if state is None else traced(inner, state)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- op boundaries (called by the benchmark's client threads) -------------------

    def _enter(self, op: int, root_parent: int) -> _ThreadState:
        out = getattr(self._tls, "out", None)
        if out is None:
            out = self._tls.out = []
            with self._lock:
                self._buffers.append(out)
        state = self._tls.state = _ThreadState(op, out, root_parent)
        return state

    def run_op(self, op: int, build: Callable[[], Any]) -> Any:
        """Run one op under a root span, timing plan construction separately."""
        clock = time.perf_counter
        root_id = next(self._ids)
        state = self._enter(op, root_id)
        root = [root_id, clock(), 0.0, self.op_index]
        state.stack.append(root)
        try:
            frame = [next(self._ids), clock(), 0.0, self.build_index]
            state.stack.append(frame)
            try:
                plan = build()
            finally:
                end = clock()
                state.stack.pop()
                busy = end - frame[1]
                root[2] += busy
                state.out.append((
                    frame[0], root_id, self.build_index, op, state.thread,
                    frame[1], end, busy, busy - frame[2], 0,
                ))
            return plan.collect()
        finally:
            end = clock()
            busy = end - root[1]
            state.out.append((
                root_id, 0, self.op_index, op, state.thread,
                root[1], end, busy, busy - root[2], 0,
            ))
            self._tls.state = None

    # -- results ------------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """Every span recorded so far, in start order."""
        with self._lock:
            merged = [span for buffer in self._buffers for span in buffer]
        merged.sort(key=lambda span: span[5])
        return merged


def _resolve(probe: Probe) -> tuple[Any, str, Any]:
    """``(owner, attribute name, original callable)`` of a probe target."""
    owner: Any = importlib.import_module(probe.module)
    *path, name = probe.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[name] if name in vars(owner) else getattr(owner, name)
    if isinstance(original, (staticmethod, classmethod)) or not callable(original):
        raise AttributeError(f"{probe.module}:{probe.qualname} is not a plain callable")
    return owner, name, original


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class ProbeTotals:
    """Totals of one probe over a run."""

    count: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    #: Self time on the threads that issued the ops (the blocking path).
    client_self: float = 0.0
    value0: float = 0.0
    value1: float = 0.0


def aggregate(recorder: Recorder, client_threads: set[int]) -> dict[str, ProbeTotals]:
    """Per-probe totals keyed by probe key; unresolved probes have no entry."""
    totals = {
        probe.key: ProbeTotals()
        for probe in recorder.probes if probe.key not in recorder.unresolved
    }
    keys = [probe.key for probe in recorder.probes]
    for _, _, index, _, thread, _, _, busy, self_time, value in recorder.spans():
        entry = totals[keys[index]]
        entry.count += 1
        entry.busy += busy
        entry.self_time += self_time
        if thread in client_threads:
            entry.client_self += self_time
        if isinstance(value, tuple):
            entry.value0 += value[0]
            entry.value1 += value[1]
        else:
            entry.value0 += value
    return totals


SPAN_FIELDS = ("id", "parent", "probe", "op", "thread", "start", "end", "busy", "self", "value")


def record_of(
    recorder: Recorder, totals: dict[str, ProbeTotals], sample_ops: int
) -> dict[str, Any]:
    """What the traced output keeps: every probe's totals, raw spans of the first ops."""
    keys = [probe.key for probe in recorder.probes]
    return {
        "unresolved_probes": recorder.unresolved,
        "probe_totals": {
            key: {
                "count": entry.count,
                "busy_ms": round(1e3 * entry.busy, 3),
                "self_ms": round(1e3 * entry.self_time, 3),
                "client_self_ms": round(1e3 * entry.client_self, 3),
            }
            for key, entry in totals.items() if entry.count
        },
        "span_fields": list(SPAN_FIELDS),
        "spans_sample": [
            [s[0], s[1], keys[s[2]], s[3], s[4], *(round(t, 6) for t in s[5:9]), s[9]]
            for s in recorder.spans() if s[3] < sample_ops
        ],
    }
