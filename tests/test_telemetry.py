"""Unit tests for the tracing/metrics spine and the QueryContext."""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.common.clock import VirtualClock
from repro.common.context import (
    QueryContext,
    QueryDeadlineExceeded,
    current_context,
    span_or_null,
)
from repro.common import ids, telemetry as telemetry_module
from repro.common.telemetry import (
    HISTOGRAM_WINDOW,
    MAX_USERS,
    SPANS_PER_USER,
    JsonLinesExporter,
    Telemetry,
)


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def telemetry(clock):
    return Telemetry(clock=clock)


@pytest.fixture
def ctx(telemetry):
    return QueryContext.create(user="alice", telemetry=telemetry)


class TestSpans:
    def test_nested_spans_share_trace_and_parent(self, ctx, telemetry, clock):
        with ctx.span("outer", "service.operation") as outer:
            clock.sleep(1.0)
            with ctx.span("inner", "pipeline.stage") as inner:
                clock.sleep(0.5)
        assert inner.trace_id == outer.trace_id == ctx.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration == pytest.approx(0.5)
        assert outer.duration == pytest.approx(1.5)
        assert all(s.user == "alice" for s in telemetry.spans())

    def test_exception_marks_span_error_and_propagates(self, ctx, telemetry):
        with pytest.raises(ValueError):
            with ctx.span("doomed", "pipeline.stage"):
                raise ValueError("boom")
        (span,) = telemetry.spans(name="doomed")
        assert span.status == "error"
        assert span.finished

    def test_span_sets_ambient_context(self, ctx):
        assert current_context() is None
        with ctx.span("op", "service.operation"):
            assert current_context() is ctx
        assert current_context() is None

    def test_events_attach_to_current_span(self, ctx, telemetry):
        with ctx.span("op", "service.operation"):
            ctx.event("row-filter-injected", table="t")
        (span,) = telemetry.spans(name="op")
        assert [e.name for e in span.events] == ["row-filter-injected"]
        assert span.events[0].attributes == {"table": "t"}

    def test_event_without_open_span_is_noop(self, ctx):
        ctx.event("orphan")  # must not raise

    def test_span_or_null_without_context(self):
        with span_or_null(None, "x", "y") as span:
            assert span is None

    def test_trace_tree_renders_nesting(self, ctx, telemetry):
        with ctx.span("root", "service.operation"):
            with ctx.span("leaf", "pipeline.stage"):
                pass
        tree = telemetry.trace_tree(ctx.trace_id)
        root_line, leaf_line = tree.splitlines()
        assert root_line.startswith("root [service.operation]")
        assert leaf_line.startswith("  leaf [pipeline.stage]")

    def test_span_kind_filters(self, ctx, telemetry):
        with ctx.span("a", "k1"):
            pass
        with ctx.span("b", "k2"):
            pass
        assert [s.name for s in telemetry.spans(kind="k2")] == ["b"]
        assert telemetry.span_kinds(ctx.trace_id) == {"k1", "k2"}


class TestChildContext:
    def test_child_joins_same_trace_under_current_span(self, ctx, telemetry):
        with ctx.span("parent-op", "service.operation") as parent_span:
            child = ctx.child(user="serverless", cluster_id="sls-0")
            with child.span("remote-op", "pipeline.stage") as child_span:
                pass
        assert child.trace_id == ctx.trace_id
        assert child_span.parent_id == parent_span.span_id
        assert child_span.user == "serverless"
        assert child_span.attributes["cluster"] == "sls-0"


class TestDeadline:
    def test_deadline_exceeded_raises(self, telemetry, clock):
        ctx = QueryContext.create(
            user="u", telemetry=telemetry, deadline_seconds=10.0
        )
        ctx.check_deadline()  # fine while time remains
        clock.sleep(11.0)
        with pytest.raises(QueryDeadlineExceeded):
            ctx.check_deadline(where="stage 'execute'")

    def test_remaining_unset_without_deadline(self, ctx):
        assert ctx.remaining() is None


class TestMetrics:
    def test_counters_accumulate(self, telemetry):
        telemetry.counter("credentials.issued").inc()
        telemetry.counter("credentials.issued").inc(2)
        assert telemetry.counters()["credentials.issued"] == 3

    def test_histogram_percentile_and_totals(self, telemetry):
        h = telemetry.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(10.0)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0

    def test_finished_spans_feed_duration_histograms(self, ctx, telemetry, clock):
        with ctx.span("op", "executor.task"):
            clock.sleep(2.0)
        h = telemetry.histogram("span.executor.task.seconds")
        assert h.count == 1
        assert h.percentile(50) == pytest.approx(2.0)


class TestExporters:
    def test_jsonlines_exporter_appends_finished_spans(
        self, telemetry, ctx, tmp_path
    ):
        path = tmp_path / "spans.jsonl"
        telemetry.add_exporter(JsonLinesExporter(str(path)))
        with ctx.span("outer", "service.operation"):
            with ctx.span("inner", "pipeline.stage"):
                pass
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        # Finish order: inner closes first.
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["trace_id"] == ctx.trace_id
        assert records[0]["user"] == "alice"

    def test_jsonlines_exporter_keeps_lines_whole_under_threads(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        telemetry = Telemetry(exporters=(JsonLinesExporter(str(path)),))

        def finish_many(user):
            for i in range(5_000):
                telemetry.finish_span(
                    telemetry.start_span(f"s{i}", "k", "trace-x", user=user, note="x" * 40)
                )

        _run_threads(finish_many, ["a", "b"])
        telemetry.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 10_000
        assert {r["user"] for r in records} == {"a", "b"}
        # A span after close() re-opens the file in append mode.
        telemetry.finish_span(telemetry.start_span("late", "k", "trace-x"))
        telemetry.close()
        assert len(path.read_text().splitlines()) == 10_001


def _run_threads(target, args):
    errors = []

    def guarded(arg):
        try:
            target(arg)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(arg,)) for arg in args]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _emit(telemetry, user, trace_id, count):
    for i in range(count):
        telemetry.finish_span(telemetry.start_span(f"s{i}", "k", trace_id, user=user))


class TestBoundedRetention:
    def test_retention_is_bounded_but_every_span_is_counted(self):
        telemetry = Telemetry()
        for user in ("a", "b", "c", "d", "e"):
            _emit(telemetry, user, f"trace-{user}", 10_000)
        assert len(telemetry) == 5 * SPANS_PER_USER
        assert len(list(telemetry)) == len(telemetry)
        # Bounding is not sampling: the histogram saw all 50 000.
        assert telemetry.histogram("span.k.seconds").count == 50_000

    def test_a_flooding_tenant_cannot_evict_another_tenants_trace(self):
        telemetry = Telemetry()
        _emit(telemetry, "victim", "trace-victim", 7)
        _emit(telemetry, "flooder", "trace-flood", 10 * SPANS_PER_USER)
        assert len(telemetry.spans(trace_id="trace-victim")) == 7
        assert len(telemetry.spans(user="flooder")) == SPANS_PER_USER
        assert "s0 [k] user=victim" in telemetry.trace_tree("trace-victim")

    def test_a_user_read_touches_only_that_users_ring(self):
        telemetry = Telemetry()
        _emit(telemetry, "a", "t", 3)
        _emit(telemetry, "b", "t", 2)
        assert {s.user for s in telemetry.spans(user="a")} == {"a"}
        assert telemetry.spans(user="nobody") == []
        # The same trace read across rings comes back in finish order.
        assert [s.user for s in telemetry.spans(trace_id="t")] == list("aaabb")

    def test_principals_beyond_the_bound_evict_the_longest_idle(self):
        telemetry = Telemetry()
        for i in range(MAX_USERS):
            _emit(telemetry, f"u{i}", "t", 1)
        _emit(telemetry, "u0", "t", 1)  # u0 is active again: u1 is now idlest
        _emit(telemetry, "newcomer", "t", 1)
        assert telemetry.spans(user="u1") == []
        assert len(telemetry.spans(user="u0")) == 2
        assert len(telemetry.spans(user="newcomer")) == 1
        assert len(telemetry) <= MAX_USERS * SPANS_PER_USER

    def test_readers_snapshot_while_writers_finish_spans(self):
        telemetry = Telemetry()
        done = threading.Event()

        def read(_):
            while not done.is_set():
                telemetry.spans(kind="k")
                len(telemetry)
                telemetry.trace_ids()
                sum(1 for _ in telemetry)

        def write(user):
            try:
                _emit(telemetry, user, f"trace-{user}", 20_000)
            finally:
                done.set()

        _run_threads(lambda fn: fn[0](fn[1]), [(read, None), (write, "a"), (write, "b")])
        assert len(telemetry) == 2 * SPANS_PER_USER


class TestSpanIds:
    def test_unique_across_threads(self):
        minted: list[list[str]] = []

        def mint(_):
            mine = [ids.telemetry_id("span") for _ in range(100_000)]
            minted.append(mine)

        _run_threads(mint, range(4))
        assert len({i for mine in minted for i in mine}) == 400_000

    def test_no_syscall_per_span_and_capabilities_stay_on_the_csprng(self, monkeypatch):
        calls = []
        real = ids.os.urandom
        monkeypatch.setattr(ids.os, "urandom", lambda n: calls.append(n) or real(n))
        telemetry = Telemetry()
        _emit(telemetry, "a", QueryContext.create(user="a", telemetry=telemetry).trace_id, 100)
        assert calls == []
        token = ids.new_id("cred")
        assert len(calls) == 1
        assert not token.startswith(f"cred-{ids._process_prefix}")

    def test_forked_child_draws_its_own_prefix(self):
        """Process-backend workers and sandboxes are forked: a copied prefix
        plus a copied counter would mint the parent's ids again."""
        from repro.engine.workers import _START_METHOD

        parent_prefix = ids.telemetry_id("span").split("-")[1]
        ctx = multiprocessing.get_context(_START_METHOD)
        reader, writer = ctx.Pipe(duplex=False)

        def child():
            writer.send(ids.telemetry_id("span"))

        process = ctx.Process(target=child)
        process.start()
        assert reader.poll(30)
        child_id = reader.recv()
        process.join(30)
        assert not process.is_alive()
        assert child_id.split("-")[1] != parent_prefix


class TestMetricsUnderThreads:
    def test_counter_increments_are_never_lost(self, telemetry):
        def bump(_):
            counter = telemetry.counter("hits")
            for _ in range(50_000):
                counter.inc()

        _run_threads(bump, range(8))
        assert telemetry.counters()["hits"] == 400_000

    def test_gauge_increments_are_never_lost(self, telemetry):
        def bump(_):
            gauge = telemetry.gauge("level")
            for _ in range(20_000):
                gauge.inc()
                gauge.dec()
                gauge.inc()

        _run_threads(bump, range(4))
        assert telemetry.gauges()["level"] == 80_000

    def test_snapshots_survive_concurrent_registration(self, telemetry):
        done = threading.Event()

        def register(_):
            try:
                for i in range(20_000):
                    telemetry.counter(f"c{i}").inc()
                    telemetry.gauge(f"g{i}").set(i)
            finally:
                done.set()

        def snapshot(_):
            while not done.is_set():
                telemetry.counters()
                telemetry.gauges()

        _run_threads(lambda fn: fn(None), [register, snapshot])
        assert len(telemetry.counters()) == 20_000

    def test_first_use_races_agree_on_one_metric(self, telemetry):
        seen = []
        _run_threads(lambda _: seen.append(telemetry.counter("shared")), range(8))
        assert len({id(c) for c in seen}) == 1

    def test_histogram_memory_is_fixed_and_aggregates_exact(self, telemetry):
        h = telemetry.histogram("lat")
        n = 3 * HISTOGRAM_WINDOW
        for v in range(1, n + 1):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (n, n * (n + 1) / 2, 1.0, float(n))
        assert len(h._window) == HISTOGRAM_WINDOW
        # Percentiles describe the recent window; the extremes stay exact.
        assert h.percentile(0) == 1.0 and h.percentile(100) == float(n)
        assert h.percentile(50) > 2 * HISTOGRAM_WINDOW
        assert telemetry_module.Histogram("empty").percentile(50) == 0.0
