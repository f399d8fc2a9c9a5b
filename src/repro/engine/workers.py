"""Process worker pool: the engine's scale-out execution backend.

Thread-backend execution (PRs 1–5) interleaves every scan task and kernel
evaluation on one interpreter, so compiled kernels and parallel scans
saturate at roughly one core. This module adds the alternative the ROADMAP
names: a warm pool of **worker processes** that receive query tasks over a
control pipe and exchange batch data through
``multiprocessing.shared_memory`` segments encoded with
:mod:`repro.common.shmbuf` — control messages stay tiny, row data never
passes through pickle on the way to a worker.

What crosses the process boundary, and how:

- **batch data** — typed columnar buffers in a shared-memory segment
  (data plane; zero pickled row bytes for homogeneous columns);
- **task descriptors** — small dicts on the pipe (control plane): schema,
  identity, trace id, which kernel to run;
- **compiled kernels** — rehydrated in-worker from their binding key
  (fingerprint + env literal values): the driver ships the (cloudpickled)
  folded expression list once per (worker, key), the worker compiles it
  through its own :class:`~repro.engine.compile.KernelCompiler` and caches
  the bound kernel under the key. The driver's blob cache, its per-worker
  record of what was shipped and the worker's kernel cache are all LRUs of
  :data:`KERNEL_CACHE_ENTRIES`; a worker asked to run a key it no longer
  holds answers :class:`KernelNotShipped` and the driver resends the blob;
- **fault schedules** — :meth:`FaultInjector.export_schedule` output, so
  the chaos engine's seeded schedules keep firing *deterministically*
  inside workers (each worker continues the exact RNG stream the driver
  exported; per-task trigger deltas merge back via
  :meth:`FaultInjector.merge_remote`).

Determinism contract: tasks are assigned round-robin by a global submission
sequence number (``seq % pool_size``), so a given submission order maps to
identical per-worker call sequences — and therefore identical fault
triggers — across runs with the same seed.

Failure semantics: a worker that dies mid-task (pipe EOF) is respawned and
the task retried a bounded number of times (``record_recovery`` notes the
respawn). A *retryable* error raised inside a worker (including injected
``worker.task`` faults) is re-raised driver-side carrying the original
exception object; eval tasks absorb a bounded number of such errors at the
pool layer, scan tasks propagate them to ``GovernedDataSource``'s existing
retry machinery so PR-5 recovery semantics are preserved verbatim.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import weakref
from collections import OrderedDict

# Imported at module scope on purpose: forked workers inherit the loaded
# module, so the child never runs a first-time import. A lazy import inside
# the child can deadlock on the interpreter's import lock if the driver
# forked while another of its threads was mid-import.
import cloudpickle
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.common import shmbuf
from repro.common.context import QueryContext, _CURRENT
from repro.common.datacodec import decode_data_file
from repro.common.faults import FaultInjector
from repro.common.telemetry import Telemetry
from repro.engine.batch import ColumnBatch
from repro.engine.compile import (
    CompiledKernels,
    KernelCompiler,
    PipelineSpec,
    binding_key,
    filter_project,
    interpret_pipeline,
    pipeline_partial_columns,
)
from repro.engine.expressions import EvalContext, Expression
from repro.errors import ExecutionError, RetryableError

#: Bounded respawn-and-retry attempts after a worker process dies mid-task.
DEATH_RETRIES = 2

#: Bound of every kernel cache on the process boundary: the driver's
#: cloudpickled blobs, each worker's shipped-key record, each worker's bound
#: kernels. Plans with literal values bound into their kernels (pinned
#: projections) mint one key per value, so none of the three may grow with
#: the number of distinct queries.
KERNEL_CACHE_ENTRIES = 64

#: Pool start method. ``fork`` keeps worker spawn cheap (no re-import, no
#: arg pickling) and is available on every platform the repo targets.
_START_METHOD = "fork"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _fresh_child_state() -> None:
    """Reset state a forked child must not share with the driver.

    The child inherits the driver's ambient query context (contextvar) and
    — critically — its shared-memory leak-guard registry: left alone, the
    worker's ``atexit`` hook would unlink segments the *driver* still owns.
    """
    _CURRENT.set(None)
    shmbuf._live_segments.clear()  # noqa: SLF001 - deliberate fork reset
    shmbuf._live_lock = threading.Lock()  # noqa: SLF001
    # The inherited resource tracker may carry a lock another driver thread
    # held at fork time — the first SharedMemory call would deadlock on it.
    shmbuf.disable_resource_tracking()


class KernelNotShipped(ExecutionError):
    """A task named a kernel its worker no longer holds and carried no blob
    (the worker's LRU evicted it); the driver resends with the blob."""


def _install_kernel(
    compiler: KernelCompiler,
    kernels: "OrderedDict[str, dict[str, Any]]",
    spec: dict[str, Any],
) -> dict[str, Any]:
    """Rehydrate (or fetch) the kernel for one binding key in-worker."""
    fingerprint = spec["fingerprint"]
    entry = kernels.get(fingerprint)
    if entry is not None:
        kernels.move_to_end(fingerprint)
        return entry
    blob = spec.get("blob")
    if blob is None:
        raise KernelNotShipped(fingerprint)
    exprs = cloudpickle.loads(blob)
    if spec["mode"] == "pipeline":
        # ``exprs`` is a whole PipelineSpec (fused chain→aggregate), not an
        # expression tuple; the worker rebuilds the same generated loop from
        # it through its own compiler/cache.
        kernel: Any = compiler.compile_pipeline_spec(exprs)
    elif spec["mode"] == "filter-project":
        kernel = compiler.compile_filter_projection(exprs[0], exprs[1:])
    else:
        kernel = compiler.compile_projection(exprs)
    # ``kernel`` may be None (compile refused); the interpreter fallback
    # below uses the shipped expressions directly, so either way the task
    # produces the same answer as the thread backend.
    entry = {"kernel": kernel, "exprs": exprs, "mode": spec["mode"]}
    kernels[fingerprint] = entry
    while len(kernels) > KERNEL_CACHE_ENTRIES:
        kernels.popitem(last=False)
    return entry


def _eval_kernel(
    entry: dict[str, Any], batch: ColumnBatch, ectx: EvalContext
) -> list[list[Any]]:
    """Run a rehydrated kernel (or its interpreter fallback) on one batch."""
    if entry["mode"] == "pipeline":
        # Fused chain→aggregate: fold the batch into fresh local groups and
        # return a partial-aggregate batch (keys + pickled states) that the
        # driver merges exactly like eFGAC partials.
        spec: PipelineSpec = entry["exprs"]
        groups: dict[tuple, list[Any]] = {}
        pipeline = entry["kernel"]
        if pipeline is not None:
            pipeline.accumulate(batch, ectx, groups, [None, None])
        else:
            interpret_pipeline(spec, batch, ectx, groups)
        return pipeline_partial_columns(spec, groups)
    kernel: CompiledKernels | None = entry["kernel"]
    exprs = entry["exprs"]
    if entry["mode"] == "filter-project":
        return filter_project(kernel, exprs[0], exprs[1:], batch, ectx)
    if kernel is not None:
        return kernel.eval_all(batch, ectx)
    return [e.eval(batch, ectx) for e in exprs]


def _run_eval_task(
    task: dict[str, Any],
    buf: memoryview,
    compiler: KernelCompiler,
    kernels: dict[str, dict[str, Any]],
    ectx: EvalContext,
    info: dict[str, Any],
) -> tuple[list, int]:
    batch = ColumnBatch(
        task["schema"], shmbuf.decode_columns(task["meta"], buf)
    )
    info["rows_in"] = batch.num_rows
    entry = _install_kernel(compiler, kernels, task["kernel"])
    kmode = task["kmode"]
    if kmode == "filter":
        out = batch.filter(_eval_kernel(entry, batch, ectx)[0])
        return out.columns, out.num_rows
    outputs = _eval_kernel(entry, batch, ectx)
    if kmode in ("filter_project", "pipeline"):
        # Output cardinality is data-dependent (filtered rows / groups).
        num_rows = len(outputs[0]) if outputs else 0
    else:  # "project"
        num_rows = batch.num_rows
    return outputs, num_rows


def _run_scan_task(
    task: dict[str, Any],
    buf: memoryview,
    compiler: KernelCompiler,
    kernels: dict[str, dict[str, Any]],
    ectx: EvalContext,
    info: dict[str, Any],
) -> tuple[list, int]:
    # The decoder LakeTableStorage.read_file uses, with the column set the
    # thread path would decode: a mangled (or planted) blob is a retryable
    # CorruptObjectError and the driver re-reads the object from storage.
    schema = task["schema"]
    names = [f.name for f in schema]
    data = decode_data_file(
        bytes(buf[: task["blob_len"]]), names,
        f"data file for '{task.get('table', '?')}' (in-worker)",
    )
    batch = ColumnBatch(schema, [data[n] for n in names])
    info["rows_in"] = batch.num_rows
    outputs = task.get("outputs")
    if outputs is not None:
        # The scan's filter→select, as PhysScan runs it driver-side; any
        # fused kernel below resolves its refs against the selected layout.
        condition = task["condition"]
        kernel = None
        if condition is not None:
            kernel = compiler.compile_filter_projection(condition, outputs)
        columns = filter_project(kernel, condition, outputs, batch, ectx)
        batch = ColumnBatch(schema.select([o.index for o in outputs]), columns)
    if task.get("kernel") is not None:
        entry = _install_kernel(compiler, kernels, task["kernel"])
        outputs = _eval_kernel(entry, batch, ectx)
        return outputs, (len(outputs[0]) if outputs else 0)
    return batch.columns, batch.num_rows


def _fault_deltas(
    injector: FaultInjector, last: dict[str, tuple[int, int]]
) -> dict[str, dict[str, int]]:
    """Per-point call/trigger increments since the previous report."""
    deltas: dict[str, dict[str, int]] = {}
    for point in list(last):
        calls = injector.call_count(point)
        triggered = injector.trigger_count(point)
        prev_calls, prev_triggered = last[point]
        if calls != prev_calls or triggered != prev_triggered:
            deltas[point] = {
                "calls": calls - prev_calls,
                "triggered": triggered - prev_triggered,
            }
            last[point] = (calls, triggered)
    return deltas


def _worker_main(conn, init: dict[str, Any]) -> None:
    """Worker process loop: serve task/ping requests until shutdown."""
    _fresh_child_state()
    faults: FaultInjector | None = None
    fault_last: dict[str, tuple[int, int]] = {}
    if init.get("faults") is not None:
        faults = FaultInjector.from_export(init["faults"])
        fault_last = {point: (0, 0) for point in init["faults"]["points"]}
        for point, entry in init["faults"]["points"].items():
            fault_last[point] = (entry["calls"], entry["triggered"])
    compiler = KernelCompiler()
    kernels: OrderedDict[str, dict[str, Any]] = OrderedDict()
    cluster_id = init.get("cluster_id", "")

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind = message[0]
        if kind == "shutdown":
            try:
                conn.send(("bye",))
            except (OSError, BrokenPipeError):
                pass
            return
        if kind == "ping":
            conn.send(("pong",))
            continue

        _, seq, task = message
        info: dict[str, Any] = {"rows_in": 0, "rows_out": 0}
        shm_in = None
        try:
            qctx = QueryContext.create(
                user=task.get("user", "anonymous"),
                trace_id=task.get("trace_id") or None,
                session_id=task.get("session_id", ""),
                cluster_id=task.get("cluster_id") or cluster_id,
            )
            ectx = EvalContext(
                user=task.get("user", "anonymous"),
                groups=frozenset(task.get("groups", ())),
                query_ctx=qctx,
                params=tuple(task.get("params", ())),
            )
            with qctx.activate():
                # The worker-side chaos point: seeded schedules shipped from
                # the driver fire here, deterministically per (worker, call).
                if faults is not None:
                    faults.fire("worker.task")
                shm_in = shmbuf.attach_segment(task["shm"])
                runner = _run_scan_task if task["op"] == "scan" else _run_eval_task
                columns, num_rows = runner(
                    task, shm_in.buf, compiler, kernels, ectx, info
                )
            info["rows_out"] = num_rows
            out_meta, payload = shmbuf.encode_columns(columns, num_rows)
            out_shm = shmbuf.create_segment(payload)
            # Ownership moves to the driver, which adopts + unlinks.
            shmbuf.transfer_segment(out_shm)
            out_name = out_shm.name
            out_shm.close()
            reply: tuple = ("ok", seq, out_name, out_meta, info)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            retryable = isinstance(exc, RetryableError)
            try:
                pickle.dumps(exc)
            except Exception:  # noqa: BLE001 - unpicklable user exception
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = ("err", seq, exc, retryable, info)
        finally:
            if shm_in is not None:
                shm_in.close()
        if faults is not None:
            info["faults"] = _fault_deltas(faults, fault_last)
        info["kernels_cached"] = len(kernels)
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            return


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


@dataclass
class WorkerPoolStats:
    """Cumulative pool counters (all numeric: rendered by ``cache_stats``)."""

    tasks_dispatched: int = 0
    task_retries: int = 0
    workers_respawned: int = 0
    shm_bytes_sent: int = 0
    shm_bytes_received: int = 0
    shm_bytes_in_flight: int = 0
    #: Row bytes that crossed the boundary as shared-memory buffers instead
    #: of pickle frames (the ``obj``-fallback's pickled bytes are excluded —
    #: those still paid serialization, inside the segment).
    serialization_bytes_saved: int = 0
    kernels_shipped: int = 0


class _Worker:
    """One slot: process handle, duplex pipe, per-slot dispatch lock."""

    __slots__ = ("index", "proc", "conn", "lock", "shipped", "kernels_cached")

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.conn = None
        self.lock = threading.Lock()
        #: Binding keys shipped to this worker, in its LRU order (reset on
        #: respawn): the driver's view of the worker's kernel cache.
        self.shipped: OrderedDict[str, None] = OrderedDict()
        #: Size of the worker's own kernel cache, as its last reply said.
        self.kernels_cached = 0


def _shutdown_workers(workers: list[_Worker], io: ThreadPoolExecutor) -> None:
    """Tear down every worker (module-level so finalizers don't hold the pool)."""
    for worker in workers:
        conn, proc = worker.conn, worker.proc
        worker.conn = None
        worker.proc = None
        if conn is not None:
            try:
                conn.send(("shutdown",))
                if conn.poll(0.5):
                    conn.recv()
            except (OSError, BrokenPipeError, EOFError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
    io.shutdown(wait=False, cancel_futures=True)


class WorkerPool:
    """A warm pool of forked worker processes executing query tasks.

    Thread-safe; submissions from concurrent driver threads are assigned
    deterministically round-robin and each slot serves one task at a time
    (a synchronous pipe round-trip run on an internal I/O thread, so
    :meth:`submit` itself returns a :class:`Future` immediately).
    """

    def __init__(
        self,
        size: int,
        faults: FaultInjector | None = None,
        cluster_id: str = "",
        telemetry: Telemetry | None = None,
    ):
        self.size = max(1, int(size))
        self._faults = faults
        self._cluster_id = cluster_id
        self._telemetry = telemetry
        self._mp = multiprocessing.get_context(_START_METHOD)
        self._workers = [_Worker(i) for i in range(self.size)]
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._started = False
        self._start_lock = threading.Lock()
        self._closed = False
        self._io = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="lakeguard-pool-io"
        )
        self.stats = WorkerPoolStats()
        self._stats_lock = threading.Lock()
        #: binding key -> cloudpickled expression tuple (LRU).
        self._blob_cache: OrderedDict[str, bytes] = OrderedDict()
        self._blob_lock = threading.Lock()
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._workers, self._io
        )

    # -- lifecycle -----------------------------------------------------------

    def prewarm(self) -> None:
        """Spawn every worker now (first :meth:`submit` otherwise does it).

        Forking all workers up-front, before any task buffers exist, keeps
        children from inheriting mid-operation driver state.
        """
        with self._start_lock:
            if self._started:
                return
            for worker in self._workers:
                self._spawn(worker)
            self._started = True

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        init = {
            "faults": (
                self._faults.export_schedule()
                if self._faults is not None
                else None
            ),
            "cluster_id": self._cluster_id,
            "index": worker.index,
        }
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_conn, init),
            daemon=True,
            name=f"lakeguard-worker-{worker.index}",
        )
        proc.start()
        child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn
        worker.shipped = OrderedDict()
        worker.kernels_cached = 0

    def _respawn(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        if worker.proc is not None:
            worker.proc.join(timeout=0.5)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=0.5)
        self._spawn(worker)
        with self._stats_lock:
            self.stats.workers_respawned += 1
        if self._faults is not None:
            self._faults.record_recovery("worker.respawn")

    def close(self) -> None:
        """Shut every worker down and release pool resources (idempotent)."""
        self._closed = True
        self._finalizer()

    @property
    def closed(self) -> bool:
        return self._closed

    def workers_alive(self) -> int:
        return sum(
            1
            for w in self._workers
            if w.proc is not None and w.proc.is_alive()
        )

    # -- kernel shipping -----------------------------------------------------

    def kernel_spec(
        self,
        kernel: Any,
        exprs: Sequence[Expression] | PipelineSpec,
        mode: str,
    ) -> dict[str, Any]:
        """Build the shippable descriptor for one compiled kernel.

        The cloudpickled payload — an expression tuple, or the whole
        :class:`PipelineSpec` for ``mode="pipeline"`` — is cached per
        bound kernel (fingerprint + literal values: workers cache the
        binding, not just the code) and attached to the wire message only
        for workers that have not acked it yet; after that, the key alone
        travels. The descriptor carries the blob itself, so evicting it
        from the cache never strands a task in flight; eviction also drops
        the key from every worker's shipped record, so a reused kernel is
        shipped again.
        """
        fingerprint = binding_key(kernel)
        with self._blob_lock:
            blob = self._blob_cache.get(fingerprint)
            if blob is not None:
                self._blob_cache.move_to_end(fingerprint)
        if blob is None:
            payload = exprs if mode == "pipeline" else tuple(exprs)
            blob = cloudpickle.dumps(payload)
            with self._blob_lock:
                self._blob_cache[fingerprint] = blob
                evicted = [
                    self._blob_cache.popitem(last=False)[0]
                    for _ in range(len(self._blob_cache) - KERNEL_CACHE_ENTRIES)
                ]
            for key in evicted:
                for worker in self._workers:
                    worker.shipped.pop(key, None)
        return {"fingerprint": fingerprint, "mode": mode, "blob": blob}

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        task: dict[str, Any],
        payload: bytes,
        payload_pickled_bytes: int = 0,
        retries: int = 0,
    ) -> "Future[tuple[list, int, dict[str, Any]]]":
        """Dispatch one task; resolves to ``(columns, num_rows, info)``.

        ``retries`` bounds pool-level retries of *retryable* worker errors
        (worker deaths are always retried up to :data:`DEATH_RETRIES`).
        A task that still fails re-raises the worker's exception here.
        """
        if self._closed:
            raise ExecutionError("worker pool is closed")
        if not self._started:
            self.prewarm()
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
        worker = self._workers[seq % self.size]
        return self._io.submit(
            self._run_on_worker, worker, seq, task, payload,
            payload_pickled_bytes, retries,
        )

    def _run_on_worker(
        self,
        worker: _Worker,
        seq: int,
        task: dict[str, Any],
        payload: bytes,
        payload_pickled_bytes: int,
        retries: int,
    ) -> tuple[list, int, dict[str, Any]]:
        err_budget = retries
        death_budget = DEATH_RETRIES
        retried = False
        with worker.lock:
            while True:
                try:
                    result = self._attempt(
                        worker, seq, task, payload, payload_pickled_bytes
                    )
                except KernelNotShipped:
                    # The worker's LRU evicted the kernel: the next attempt
                    # ships the blob (and that attempt cannot raise this).
                    worker.shipped.pop(task["kernel"]["fingerprint"], None)
                    continue
                except _WorkerDied:
                    self._respawn(worker)
                    if death_budget <= 0:
                        raise ExecutionError(
                            f"worker {worker.index} died repeatedly running "
                            f"task seq={seq}"
                        ) from None
                    death_budget -= 1
                    retried = True
                    self._count_retry()
                    continue
                except RetryableError:
                    if err_budget <= 0:
                        raise
                    err_budget -= 1
                    retried = True
                    self._count_retry()
                    continue
                if retried and self._faults is not None:
                    self._faults.record_recovery("worker.task_retry")
                return result

    def _attempt(
        self,
        worker: _Worker,
        seq: int,
        task: dict[str, Any],
        payload: bytes,
        payload_pickled_bytes: int,
    ) -> tuple[list, int, dict[str, Any]]:
        if worker.proc is None or not worker.proc.is_alive():
            self._respawn(worker)
        wire = dict(task)
        kernel_spec = task.get("kernel")
        shipped_blob = False
        if kernel_spec is not None:
            fingerprint = kernel_spec["fingerprint"]
            try:
                # Mirror the worker's LRU touch; a key evicted meanwhile
                # (by either cache) raises, and the blob goes along.
                worker.shipped.move_to_end(fingerprint)
                wire["kernel"] = {"fingerprint": fingerprint, "mode": kernel_spec["mode"]}
            except KeyError:
                shipped_blob = True
        shm_in = shmbuf.create_segment(payload)
        wire["shm"] = shm_in.name
        with self._stats_lock:
            self.stats.tasks_dispatched += 1
            self.stats.shm_bytes_sent += len(payload)
            self.stats.shm_bytes_in_flight += len(payload)
        try:
            try:
                worker.conn.send(("task", seq, wire))
                reply = worker.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise _WorkerDied(str(exc)) from exc
        finally:
            shmbuf.release_segment(shm_in)
            with self._stats_lock:
                self.stats.shm_bytes_in_flight -= len(payload)
        # Any reply means the worker processed the message — usually
        # including the kernel install; when a fault beat the install, the
        # worker answers KernelNotShipped next time and gets the blob again.
        worker.kernels_cached = reply[-1].get("kernels_cached", 0)
        if shipped_blob:
            worker.shipped[kernel_spec["fingerprint"]] = None
            while len(worker.shipped) > KERNEL_CACHE_ENTRIES:
                worker.shipped.popitem(last=False)
            with self._stats_lock:
                self.stats.kernels_shipped += 1

        kind = reply[0]
        if kind == "ok":
            _, rseq, out_name, out_meta, info = reply
            self._merge_info(info)
            out_shm = shmbuf.adopt_segment(out_name)
            try:
                columns = shmbuf.decode_columns(out_meta, out_shm.buf)
            finally:
                shmbuf.release_segment(out_shm)
            out_nbytes = out_meta.get("nbytes", 0)
            with self._stats_lock:
                self.stats.shm_bytes_received += out_nbytes
                self.stats.serialization_bytes_saved += max(
                    0, len(payload) - payload_pickled_bytes
                ) + max(0, out_nbytes - out_meta.get("pickled_bytes", 0))
            return columns, out_meta["num_rows"], info
        if kind == "err":
            _, rseq, exc, retryable, info = reply
            self._merge_info(info)
            raise exc
        raise ExecutionError(f"unexpected worker reply kind {kind!r}")

    def _count_retry(self) -> None:
        with self._stats_lock:
            self.stats.task_retries += 1

    def _merge_info(self, info: dict[str, Any]) -> None:
        deltas = info.get("faults")
        if deltas and self._faults is not None:
            self._faults.merge_remote(deltas)

    # -- observability -------------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        """Numeric counters for ``system.access.cache_stats``."""
        with self._stats_lock:
            return {
                "pool_size": float(self.size),
                "workers_alive": float(self.workers_alive()),
                "tasks_dispatched": float(self.stats.tasks_dispatched),
                "task_retries": float(self.stats.task_retries),
                "workers_respawned": float(self.stats.workers_respawned),
                "shm_bytes_sent": float(self.stats.shm_bytes_sent),
                "shm_bytes_received": float(self.stats.shm_bytes_received),
                "shm_bytes_in_flight": float(self.stats.shm_bytes_in_flight),
                "serialization_bytes_saved": float(
                    self.stats.serialization_bytes_saved
                ),
                "kernels_shipped": float(self.stats.kernels_shipped),
                "kernel_blobs_cached": float(len(self._blob_cache)),
                "worker_kernels_cached": float(
                    max(w.kernels_cached for w in self._workers)
                ),
            }


class _WorkerDied(Exception):
    """Internal: the pipe to a worker broke mid round-trip."""


def run_windowed(
    pool: WorkerPool,
    items: Iterator[Any],
    submit_one: Callable[[Any], "Future[Any]"],
    window: int | None = None,
) -> Iterator[Any]:
    """Submit ``items`` keeping up to ``window`` tasks in flight; yield
    results in submission order (the streaming shape operators need)."""
    from collections import deque

    limit = window if window is not None else pool.size
    pending: deque = deque()
    for item in items:
        pending.append(submit_one(item))
        while len(pending) >= max(1, limit):
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
