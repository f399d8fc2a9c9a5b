"""Per-layer metrics: what each one is and how the traced run derives it.

A layer is a module under ``src/repro``. Every metric is computed from the
probes' span totals (``probes.aggregate``), from the program's own public
counters read before and after the timed region, or from both. ``METRICS``
is the single list of per-layer metric names: ``BENCHMARK.json`` must list
exactly these (the self-test compares them), and ``README.md`` records which
end-to-end metric each should move.

A metric whose probe or counter no longer exists evaluates to ``None`` —
never to a guess, and never to a crash.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from probes import ProbeTotals

Counters = dict[str, float]

#: Catalog stats registries the snapshot flattens: ``<family>.<metric>``
#: summed over every cluster's scope (``plan_cache[standard]`` -> ``plan_cache``).
#: A provider registers itself on first use (the transaction manager, a
#: sandbox pool), so a registry that exists but has not reported a counter
#: yet means "zero so far"; the counters the metrics read start at zero.
_REGISTRIES = {
    "cache_stats": (
        "plan_cache.hits", "plan_cache.misses", "kernel_cache.hits", "kernel_cache.misses",
        "kernel_cache.fusion_hits", "kernel_cache.fusion_misses", "credential_cache.hits",
        "credential_cache.misses", "sandbox_pool.cold_starts",
    ),
    "workload_stats": ("workload.queue_wait_seconds_total", "workload.shed_total"),
    "store_stats": ("store.hits", "store.misses"),
    "txn_stats": ("txn.committed", "txn.retries"),
}
_SANDBOX_FIELDS = (
    "invocations", "rows_in", "shm_bytes", "data_pickle_bytes", "control_pickle_bytes",
)
_CHANNEL_FIELDS = ("bytes_sent", "bytes_received")
_REMOTE_FIELDS = ("subqueries", "inline_results", "staged_results", "rows_received")


def snapshot_counters(run: Any) -> Counters:
    """Flatten the program's public counters into ``name -> number``.

    Sources that have gone missing are skipped with a warning; metrics built
    on them then read ``None``.
    """
    flat: Counters = {}
    workspace = run.fixture.workspace
    catalog = workspace.catalog

    def add(name: str, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = flat.get(name, 0.0) + value

    def source(label: str, read: Callable[[], None]) -> None:
        try:
            read()
        except (AttributeError, KeyError, TypeError) as exc:
            print(f"warning: counter source {label} unavailable: {exc}", file=sys.stderr)

    def registries() -> None:
        for registry, expected in _REGISTRIES.items():
            scopes = getattr(catalog, registry)()
            for name in expected:
                flat.setdefault(name, 0.0)
            for scope, stats in scopes.items():
                family = scope.split("[", 1)[0]
                for metric, value in stats.items():
                    if metric.startswith("tenant.") and metric.endswith("queue_wait_seconds_total"):
                        metric = "queue_wait_seconds_total"
                    add(f"{family}.{metric}", value)

    def sandboxes() -> None:
        for field_name in _SANDBOX_FIELDS:
            flat.setdefault(f"sandbox.{field_name}", 0.0)
        for cluster in run.clusters:
            for session in run.sessions:
                for sandbox in cluster.backend.dispatcher.sandboxes_of(session.session_id):
                    for field_name in _SANDBOX_FIELDS:
                        add(f"sandbox.{field_name}", getattr(sandbox.stats, field_name))

    def channels() -> None:
        for session in run.sessions:
            for field_name in _CHANNEL_FIELDS:
                add(f"channel.{field_name}", getattr(session._channel.stats, field_name))

    def remote() -> None:
        for field_name in _REMOTE_FIELDS:
            flat.setdefault(f"remote.{field_name}", 0.0)
        for cluster in run.clusters:
            executor = cluster.backend.remote_executor
            if executor is not None:
                for field_name in _REMOTE_FIELDS:
                    add(f"remote.{field_name}", getattr(executor.stats, field_name))
        gateway = workspace._gateway
        add("gateway.efgac_subqueries", 0 if gateway is None else gateway.stats.efgac_subqueries)

    source("catalog stats registries", registries)
    source("sandbox stats", sandboxes)
    source("channel stats", channels)
    source("remote executor / gateway stats", remote)
    source("telemetry", lambda: add("telemetry.spans_retained", len(catalog.telemetry)))
    return flat


def storage_footprint(run: Any, table_names: list[str]) -> Counters:
    """End-of-run storage state: bytes held, live bytes, files and log versions."""
    catalog = run.fixture.workspace.catalog
    out: Counters = {}
    try:
        live_bytes = files = versions = 0
        for name in table_names:
            table = catalog.get_table(name)
            credential = catalog.vendor.issue(
                identity="admin", prefixes=[table.storage_root], operations={"READ", "LIST"}
            )
            snapshot = catalog.table_storage(table).snapshot(credential)
            catalog.vendor.revoke(credential.token)
            live_bytes += snapshot.size_bytes
            files += len(snapshot.files)
            versions += snapshot.version + 1
        out["storage.total_bytes"] = float(catalog.store.total_bytes())
        out["storage.live_bytes"] = float(live_bytes)
        out["storage.files"] = float(files)
        out["storage.log_versions"] = float(versions)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"warning: storage footprint unavailable: {exc}", file=sys.stderr)
    return out


@dataclass
class LayerInputs:
    """Everything a per-layer metric may read."""

    ops: int
    #: Probe totals by probe key; a missing key means the probe is unresolved.
    totals: dict[str, ProbeTotals]
    #: Counter change over the timed region, and the values at its end.
    delta: Counters
    end: Counters
    #: Sum of client-observed op latencies in the traced run (seconds, at
    #: reference host speed).
    op_seconds: float
    #: Factor that brings a measured duration to reference host speed.
    time_scale: float = 1.0
    #: Numbers the benchmark itself knows (oracle model, twin runs, rusage).
    extra: Counters = field(default_factory=dict)


Formula = Callable[[LayerInputs], "float | None"]


def _per_op_ms(*keys: str) -> Formula:
    """Self time of the named probes, all threads, in ms per op."""

    def formula(inputs: LayerInputs) -> float | None:
        if any(key not in inputs.totals for key in keys):
            return None
        total = sum(inputs.totals[key].self_time for key in keys)
        return 1e3 * inputs.time_scale * total / inputs.ops

    return formula


def _count_per_op(*keys: str) -> Formula:
    def formula(inputs: LayerInputs) -> float | None:
        if any(key not in inputs.totals for key in keys):
            return None
        return sum(inputs.totals[key].count for key in keys) / inputs.ops

    return formula


def _value_per_op(slot: str, *keys: str) -> Formula:
    def formula(inputs: LayerInputs) -> float | None:
        if any(key not in inputs.totals for key in keys):
            return None
        return sum(getattr(inputs.totals[key], slot) for key in keys) / inputs.ops

    return formula


def _delta_per_op(name: str) -> Formula:
    def formula(inputs: LayerInputs) -> float | None:
        value = inputs.delta.get(name)
        return None if value is None else value / inputs.ops

    return formula


def _delta_sum_per_op(*names: str) -> Formula:
    def formula(inputs: LayerInputs) -> float | None:
        if any(name not in inputs.delta for name in names):
            return None
        return sum(inputs.delta[name] for name in names) / inputs.ops

    return formula


def _delta(name: str) -> Formula:
    return lambda inputs: inputs.delta.get(name)


def _end(name: str) -> Formula:
    return lambda inputs: inputs.end.get(name)


def _extra(name: str) -> Formula:
    return lambda inputs: inputs.extra.get(name)


def _ratio(hits: str, misses: str) -> Formula:
    """``hits / (hits + misses)`` over the timed region; 0 when nothing was looked up."""

    def formula(inputs: LayerInputs) -> float | None:
        hit, miss = inputs.delta.get(hits), inputs.delta.get(misses)
        if hit is None or miss is None:
            return None
        return hit / (hit + miss) if hit + miss else 0.0

    return formula


def _share(part: str, *whole: str) -> Formula:
    def formula(inputs: LayerInputs) -> float | None:
        if part not in inputs.delta or any(name not in inputs.delta for name in whole):
            return None
        total = sum(inputs.delta[name] for name in whole)
        return inputs.delta[part] / total if total else 0.0

    return formula


def _extra_ratio(numerator: str, denominator: str) -> Formula:
    def formula(inputs: LayerInputs) -> float | None:
        top, bottom = inputs.extra.get(numerator), inputs.extra.get(denominator)
        if top is None or bottom is None:
            return None
        return top / bottom if bottom else 0.0

    return formula


def _write_amplification(inputs: LayerInputs) -> float | None:
    keys = ("storage.store.put", "storage.store.put_if_absent")
    user_bytes = inputs.extra.get("user_bytes_written")
    if user_bytes is None or any(key not in inputs.totals for key in keys):
        return None
    written = sum(inputs.totals[key].value0 for key in keys)
    return written / user_bytes if user_bytes else 0.0


def _rows_rewritten(inputs: LayerInputs) -> float | None:
    changed = inputs.extra.get("rows_changed")
    if changed is None or "storage.stage_file" not in inputs.totals:
        return None
    return inputs.totals["storage.stage_file"].value0 / changed if changed else 0.0


def _queue_wait_ms_per_op(inputs: LayerInputs) -> float | None:
    waited = inputs.delta.get("workload.queue_wait_seconds_total")
    return None if waited is None else 1e3 * inputs.time_scale * waited / inputs.ops


def _attributed_share(inputs: LayerInputs) -> float | None:
    """Client-thread self time of every probe (not the op's own root span) over op time."""
    attributed = sum(
        entry.client_self for key, entry in inputs.totals.items() if key != "bench.op"
    )
    return inputs.time_scale * attributed / inputs.op_seconds if inputs.op_seconds else None


def _offthread_busy(inputs: LayerInputs) -> float | None:
    busy = sum(
        entry.self_time - entry.client_self
        for key, entry in inputs.totals.items()
        if not key.startswith("wait.")
    )
    return 1e3 * inputs.time_scale * busy / inputs.ops


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: ``better`` is the direction an optimisation moves it."""

    name: str
    unit: str
    better: str
    formula: Formula


_CODEC = ("connect.codec.encode", "connect.codec.decode")
_SHMBUF = tuple(
    f"common.shmbuf.{name}" for name in ("encode", "decode", "create", "adopt", "release")
)

METRICS: tuple[LayerMetric, ...] = (
    LayerMetric(
        "connect.client_build_ms_per_op", "ms", "lower", _per_op_ms("connect.client.build")
    ),
    LayerMetric(
        "connect.client_self_ms_per_op", "ms", "lower",
        _per_op_ms("connect.client.relation", "connect.client.command"),
    ),
    LayerMetric("connect.codec_self_ms_per_op", "ms", "lower", _per_op_ms(*_CODEC)),
    LayerMetric(
        "connect.wire_bytes_per_op", "B", "lower",
        _delta_sum_per_op("channel.bytes_sent", "channel.bytes_received"),
    ),
    LayerMetric(
        "connect.service_self_ms_per_op", "ms", "lower",
        _per_op_ms("connect.service.handle", "connect.service.stream"),
    ),
    LayerMetric("sql.parse_self_ms_per_op", "ms", "lower", _per_op_ms("sql.parse")),
    LayerMetric(
        "core.resolve_secure_self_ms_per_op", "ms", "lower",
        _per_op_ms("core.resolve.analyze", "core.resolve.relation"),
    ),
    LayerMetric(
        "core.plan_cache_hit_ratio", "ratio", "higher",
        _ratio("plan_cache.hits", "plan_cache.misses"),
    ),
    LayerMetric(
        "core.plan_cache_self_ms_per_op", "ms", "lower",
        _per_op_ms("core.plan_cache.lookup", "core.plan_cache.insert"),
    ),
    LayerMetric(
        "core.pipeline_self_ms_per_op", "ms", "lower",
        _per_op_ms("core.pipeline.relation", "core.pipeline.for_user"),
    ),
    LayerMetric("core.command_self_ms_per_op", "ms", "lower", _per_op_ms("core.command")),
    LayerMetric(
        "core.datasource_self_ms_per_op", "ms", "lower",
        _per_op_ms("core.datasource.scan", "core.datasource.pipeline"),
    ),
    LayerMetric("core.efgac_self_ms_per_op", "ms", "lower", _per_op_ms("core.efgac")),
    LayerMetric(
        "core.efgac_staged_share", "ratio", "lower",
        _share("remote.staged_results", "remote.staged_results", "remote.inline_results"),
    ),
    LayerMetric(
        "core.efgac_rows_received_per_op", "count", "lower", _delta_per_op("remote.rows_received")
    ),
    LayerMetric(
        "catalog.self_ms_per_op", "ms", "lower",
        _per_op_ms("catalog.check_privilege", "catalog.get_table"),
    ),
    LayerMetric(
        "catalog.privilege_checks_per_op", "count", "lower",
        _count_per_op("catalog.check_privilege"),
    ),
    LayerMetric("engine.optimize_self_ms_per_op", "ms", "lower", _per_op_ms("engine.optimize")),
    LayerMetric(
        "engine.plan_physical_self_ms_per_op", "ms", "lower", _per_op_ms("engine.plan_physical")
    ),
    LayerMetric(
        "engine.kernel_cache_hit_ratio", "ratio", "higher",
        _ratio("kernel_cache.hits", "kernel_cache.misses"),
    ),
    LayerMetric(
        "engine.fusion_hit_ratio", "ratio", "higher",
        _ratio("kernel_cache.fusion_hits", "kernel_cache.fusion_misses"),
    ),
    LayerMetric(
        "engine.run_operator_self_ms_per_op", "ms", "lower", _per_op_ms("engine.run_operator")
    ),
    LayerMetric(
        "engine.rows_scanned_per_op", "count", "lower",
        _value_per_op("value0", "engine.run_operator"),
    ),
    LayerMetric(
        "engine.rows_out_per_op", "count", "lower", _value_per_op("value1", "engine.run_operator")
    ),
    LayerMetric("storage.get_calls_per_op", "count", "lower", _count_per_op("storage.store.get")),
    LayerMetric(
        "storage.bytes_read_per_op", "B", "lower", _value_per_op("value0", "storage.store.get")
    ),
    LayerMetric(
        "storage.object_store_self_ms_per_op", "ms", "lower",
        _per_op_ms(
            "storage.store.get", "storage.store.put",
            "storage.store.put_if_absent", "storage.store.list",
        ),
    ),
    LayerMetric(
        "storage.decode_self_ms_per_op", "ms", "lower",
        _per_op_ms("storage.decode.read_file", "storage.decode.read_raw"),
    ),
    LayerMetric("storage.snapshot_self_ms_per_op", "ms", "lower", _per_op_ms("storage.snapshot")),
    LayerMetric(
        "storage.credential_hit_ratio", "ratio", "higher",
        _ratio("credential_cache.hits", "credential_cache.misses"),
    ),
    LayerMetric(
        "storage.credential_vends_per_op", "count", "lower",
        _count_per_op("storage.credential.issue"),
    ),
    LayerMetric(
        "storage.credential_self_ms_per_op", "ms", "lower",
        _per_op_ms(
            "storage.credential.cache", "storage.credential.issue", "storage.credential.validate"
        ),
    ),
    LayerMetric("storage.write_amplification", "ratio", "lower", _write_amplification),
    LayerMetric(
        "storage.space_amplification", "ratio", "lower",
        _extra_ratio("storage.total_bytes", "storage.live_bytes"),
    ),
    LayerMetric("storage.files_per_snapshot_end", "count", "lower", _extra("storage.files")),
    LayerMetric("storage.log_versions_end", "count", "lower", _extra("storage.log_versions")),
    LayerMetric(
        "sandbox.dispatch_self_ms_per_op", "ms", "lower",
        _per_op_ms(
            "sandbox.dispatch.run_udf", "sandbox.dispatch.run_fused", "sandbox.dispatch.acquire"
        ),
    ),
    LayerMetric(
        "sandbox.invocations_per_op", "count", "lower", _delta_per_op("sandbox.invocations")
    ),
    LayerMetric("sandbox.rows_in_per_op", "count", "lower", _delta_per_op("sandbox.rows_in")),
    LayerMetric("sandbox.cold_acquires", "count", "lower", _end("sandbox_pool.cold_starts")),
    LayerMetric(
        "sandbox.invoke_wait_ms_per_op", "ms", "lower",
        _per_op_ms("sandbox.invoke.one", "sandbox.invoke.many"),
    ),
    LayerMetric(
        "sandbox.worker_cpu_ms_per_op", "ms", "lower", _extra("sandbox.worker_cpu_ms_per_op")
    ),
    LayerMetric("sandbox.shm_bytes_per_op", "B", "lower", _delta_per_op("sandbox.shm_bytes")),
    LayerMetric(
        "sandbox.pickle_bytes_per_op", "B", "lower",
        _delta_sum_per_op("sandbox.data_pickle_bytes", "sandbox.control_pickle_bytes"),
    ),
    LayerMetric("common.shmbuf_self_ms_per_op", "ms", "lower", _per_op_ms(*_SHMBUF)),
    LayerMetric(
        "common.telemetry_self_ms_per_op", "ms", "lower",
        _per_op_ms("common.telemetry.start", "common.telemetry.finish"),
    ),
    LayerMetric(
        "common.telemetry_spans_per_op", "count", "lower", _count_per_op("common.telemetry.start")
    ),
    LayerMetric(
        "common.telemetry_spans_retained_end", "count", "lower", _end("telemetry.spans_retained")
    ),
    LayerMetric(
        "scheduler.admit_self_ms_per_op", "ms", "lower",
        _per_op_ms("scheduler.admit", "scheduler.release"),
    ),
    LayerMetric(
        "scheduler.queue_wait_ms_per_op", "ms", "lower",
        _queue_wait_ms_per_op,
    ),
    LayerMetric("scheduler.shed_count", "count", "lower", _delta("workload.shed_total")),
    LayerMetric("store.self_ms_per_op", "ms", "lower", _per_op_ms("store.get", "store.put")),
    LayerMetric("store.hit_ratio", "ratio", "higher", _ratio("store.hits", "store.misses")),
    LayerMetric("txn.commit_self_ms_per_op", "ms", "lower", _per_op_ms("txn.commit")),
    LayerMetric(
        "txn.stage_self_ms_per_op", "ms", "lower",
        _per_op_ms("txn.stage.insert", "txn.stage.update", "txn.stage.delete"),
    ),
    LayerMetric("txn.commits_per_op", "count", "lower", _delta_per_op("txn.committed")),
    LayerMetric("txn.conflict_retries", "count", "lower", _delta("txn.retries")),
    LayerMetric("txn.rows_rewritten_per_row_changed", "ratio", "lower", _rows_rewritten),
    LayerMetric("platform.gateway_self_ms_per_op", "ms", "lower", _per_op_ms("platform.gateway")),
    LayerMetric(
        "platform.efgac_subqueries_per_op", "count", "lower",
        _delta_per_op("gateway.efgac_subqueries"),
    ),
    LayerMetric("baseline.p50_ms", "ms", "lower", _extra("baseline.p50_ms")),
    LayerMetric("baseline.overhead_ratio", "ratio", "lower", _extra("baseline.overhead_ratio")),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", _extra("trace.overhead_ratio")),
    LayerMetric("trace.attributed_share", "ratio", "higher", _attributed_share),
    LayerMetric(
        "trace.client_wait_ms_per_op", "ms", "lower", _per_op_ms("wait.future", "wait.join")
    ),
    LayerMetric("trace.offthread_busy_ms_per_op", "ms", "lower", _offthread_busy),
)


def evaluate(inputs: LayerInputs) -> dict[str, float | None]:
    """Every per-layer metric by name (``None`` where its source is gone)."""
    return {metric.name: metric.formula(inputs) for metric in METRICS}
