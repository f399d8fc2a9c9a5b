"""The multi-process execution backend: equivalence, codec, chaos, leaks.

The contract under test is that ``worker_backend="process"`` is an invisible
substitution for the default thread backend: every query — projections,
filters, joins, aggregates, NULL-heavy data, per-user masks and row filters,
sandboxed UDFs — returns identical rows, fault schedules fire
deterministically inside workers, and no shared-memory segment outlives its
query. The shmbuf codec itself is property-tested for lossless round-trips.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import shmbuf
from repro.common.faults import FaultSpec
from repro.connect.client import udf as client_udf
from repro.engine.batch import ColumnBatch
from repro.engine.types import STRING, Field, Schema
from repro.engine.udf import udf
from repro.errors import PermissionDenied, UserCodeError
from repro.platform import Workspace
from repro.sandbox.sandbox import InProcessSandbox
from repro.sandbox.subprocess_sandbox import SubprocessSandbox


# ---------------------------------------------------------------------------
# shmbuf codec: lossless round trips
# ---------------------------------------------------------------------------

_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)


@st.composite
def _columns(draw):
    num_rows = draw(st.integers(min_value=0, max_value=16))
    num_cols = draw(st.integers(min_value=1, max_value=4))
    return [
        draw(st.lists(_scalar, min_size=num_rows, max_size=num_rows))
        for _ in range(num_cols)
    ]


class TestBufferCodec:
    @given(_columns())
    @settings(max_examples=120, deadline=None)
    def test_encode_decode_round_trip_is_lossless(self, columns):
        meta, payload = shmbuf.encode_columns(columns)
        decoded = shmbuf.decode_columns(meta, payload)
        assert decoded == columns
        # Exact Python types survive (bool vs int, int vs float, str vs bytes).
        for col, out in zip(columns, decoded):
            for a, b in zip(col, out):
                assert type(a) is type(b)

    @given(_columns())
    @settings(max_examples=60, deadline=None)
    def test_zero_copy_views_match_materialized(self, columns):
        meta, payload = shmbuf.encode_columns(columns)
        views = shmbuf.decode_columns(meta, payload, zero_copy=True)
        for col, view in zip(columns, views):
            assert list(view) == col
            if hasattr(view, "to_list"):
                assert view.to_list() == col

    @given(_columns())
    @settings(max_examples=60, deadline=None)
    def test_column_batch_round_trip_through_segment(self, columns):
        schema = Schema(
            tuple(Field(f"c{i}", STRING) for i in range(len(columns)))
        )
        batch = ColumnBatch(schema, columns)
        meta, payload = batch.to_buffers()
        segment = shmbuf.create_segment(payload)
        try:
            back = ColumnBatch.from_buffers(
                schema, meta, segment.buf, zero_copy=True
            ).materialize()
        finally:
            shmbuf.release_segment(segment)
        assert [list(c) for c in back.columns] == columns
        assert back.num_rows == batch.num_rows

    def test_homogeneous_columns_never_hit_pickle_fallback(self):
        meta, _ = shmbuf.encode_columns(
            [[1, 2, None], [1.5, None, 2.5], ["a", "b", None], [True, False, None]]
        )
        assert meta["pickled_bytes"] == 0


# ---------------------------------------------------------------------------
# Thread ≡ process backend over full queries
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dual_backend():
    """One workspace, same governed data, one cluster per backend."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("bob")
    ws.add_user("carol")
    ws.add_group("analysts", ["alice", "carol"])
    ws.add_group("hr", ["carol"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.sales", owner="admin")
    thread = ws.create_standard_cluster(
        name="thread-backend", worker_backend="thread", num_executors=2
    )
    process = ws.create_standard_cluster(
        name="process-backend", worker_backend="process", num_executors=2
    )
    admin = thread.connect("admin")
    admin.sql(
        "CREATE TABLE main.sales.orders "
        "(id int, region string, amount float, buyer string)"
    )
    admin.sql(
        "INSERT INTO main.sales.orders VALUES "
        "(1,'US',10.5,'p1'),(2,'EU',20.0,'p2'),(3,'US',30.0,'alice'),"
        "(4,'APAC',40.0,'carol'),(5,NULL,50.0,'p5'),(6,'EU',NULL,'p6')"
    )
    admin.sql("CREATE TABLE main.sales.regions (region string, zone int)")
    admin.sql(
        "INSERT INTO main.sales.regions VALUES ('US',1),('EU',2),('APAC',3)"
    )
    for table in ("orders", "regions"):
        admin.sql("GRANT USE CATALOG ON main TO analysts")
        admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
        admin.sql(f"GRANT SELECT ON main.sales.{table} TO analysts")
    yield ws, thread, process
    ws.shutdown()


def _both(dual, user, query):
    _, thread, process = dual
    return (
        thread.connect(user).sql(query).collect(),
        process.connect(user).sql(query).collect(),
    )


EQUIVALENCE_QUERIES = [
    "SELECT id, amount FROM main.sales.orders ORDER BY id",
    "SELECT id, amount * 2 AS a2, region FROM main.sales.orders ORDER BY id",
    "SELECT id FROM main.sales.orders WHERE amount > 15.0 ORDER BY id",
    "SELECT id, buyer FROM main.sales.orders "
    "WHERE region = 'EU' OR region IS NULL ORDER BY id",
    "SELECT region, count(*) AS n, sum(amount) AS s "
    "FROM main.sales.orders GROUP BY region ORDER BY region",
    "SELECT o.id, r.zone FROM main.sales.orders o "
    "JOIN main.sales.regions r ON o.region = r.region ORDER BY o.id",
    "SELECT count(*) AS n FROM main.sales.orders",
]


class TestBackendEquivalence:
    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_same_rows_on_both_backends(self, dual_backend, query):
        thread_rows, process_rows = _both(dual_backend, "alice", query)
        assert thread_rows == process_rows

    def test_masks_and_row_filters_apply_per_user(self, dual_backend):
        ws, thread, process = dual_backend
        admin = thread.connect("admin")
        admin.sql(
            "ALTER TABLE main.sales.orders ALTER COLUMN buyer SET MASK "
            "(CASE WHEN is_account_group_member('hr') THEN buyer ELSE '***' END)"
        )
        admin.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER "
            "(region = 'US' OR is_account_group_member('hr'))"
        )
        try:
            query = "SELECT id, region, buyer FROM main.sales.orders ORDER BY id"
            for user in ("alice", "carol"):
                thread_rows, process_rows = _both(dual_backend, user, query)
                assert thread_rows == process_rows
            # The policies bite: alice is filtered+masked, carol is not.
            alice_rows = process.connect("alice").sql(query).collect()
            carol_rows = process.connect("carol").sql(query).collect()
            assert {r[1] for r in alice_rows} == {"US"}
            assert all(r[2] == "***" for r in alice_rows)
            assert len(carol_rows) == 6
        finally:
            admin.sql("ALTER TABLE main.sales.orders DROP ROW FILTER")
            admin.sql("ALTER TABLE main.sales.orders ALTER COLUMN buyer DROP MASK")

    def test_sandboxed_udf_matches_across_backends(self, dual_backend):
        @client_udf("float")
        def with_tax(amount):
            return amount * 1.19 if amount is not None else -1.0

        query = "SELECT id, with_tax(amount) AS gross FROM main.sales.orders ORDER BY id"
        _, thread, process = dual_backend
        rows = []
        for cluster in (thread, process):
            client = cluster.connect("alice")
            client.register_udf(with_tax)
            rows.append(client.sql(query).collect())
        assert rows[0] == rows[1]
        assert len(rows[0]) == 6

    _table_seq = itertools.count()

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=-1000, max_value=1000),
                st.one_of(st.none(), st.sampled_from(["US", "EU", "APAC", ""])),
                st.one_of(
                    st.none(),
                    st.floats(
                        min_value=-1e6, max_value=1e6, allow_nan=False
                    ),
                ),
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_generated_data_equivalence(self, dual_backend, rows):
        """Arbitrary NULL-heavy data: both backends agree on a query battery."""
        ws, thread, process = dual_backend
        table = f"main.sales.gen{next(self._table_seq)}"
        admin = thread.connect("admin")
        admin.sql(f"CREATE TABLE {table} (id int, region string, amount float)")
        if rows:
            values = ",".join(
                "({},{},{})".format(
                    i,
                    "NULL" if r is None else f"'{r}'",
                    "NULL" if a is None else repr(a),
                )
                for i, (_, r, a) in enumerate(rows)
            )
            admin.sql(f"INSERT INTO {table} VALUES {values}")
        admin.sql(f"GRANT SELECT ON {table} TO analysts")
        for query in (
            f"SELECT id, region, amount FROM {table} ORDER BY id",
            f"SELECT id, amount + 0.5 AS b FROM {table} WHERE amount > 0.0 ORDER BY id",
            f"SELECT region, count(*) AS n, sum(amount) AS s FROM {table} "
            "GROUP BY region ORDER BY region",
        ):
            thread_rows = thread.connect("alice").sql(query).collect()
            process_rows = process.connect("alice").sql(query).collect()
            assert thread_rows == process_rows


# ---------------------------------------------------------------------------
# Pool telemetry, lifecycle, and leak guard
# ---------------------------------------------------------------------------


class TestPoolLifecycleAndStats:
    def test_worker_pool_rows_in_cache_stats(self, dual_backend):
        ws, thread, process = dual_backend
        process.connect("alice").sql(
            "SELECT id FROM main.sales.orders ORDER BY id"
        ).collect()
        admin = process.connect("admin")
        rows = admin.table("system.access.cache_stats").to_dict()
        by_metric = {
            (c, m): v
            for c, m, v in zip(rows["cache"], rows["metric"], rows["value"])
        }
        pool_caches = {
            c for c in rows["cache"] if c.startswith("worker_pool[")
        }
        assert pool_caches == {"worker_pool[process-backend]"}
        cache = pool_caches.pop()
        assert by_metric[(cache, "workers_alive")] >= 1.0
        assert by_metric[(cache, "tasks_dispatched")] >= 1.0
        assert by_metric[(cache, "shm_bytes_in_flight")] == 0.0
        assert by_metric[(cache, "serialization_bytes_saved")] > 0.0

    def test_cache_stats_stay_admin_gated(self, dual_backend):
        _, _, process = dual_backend
        with pytest.raises(PermissionDenied):
            process.connect("alice").table("system.access.cache_stats").collect()

    def test_no_segments_leak_after_queries(self, dual_backend):
        _, _, process = dual_backend
        alice = process.connect("alice")
        for _ in range(3):
            alice.sql(
                "SELECT id, amount FROM main.sales.orders "
                "WHERE amount > 0.0 ORDER BY id"
            ).collect()
        assert shmbuf.live_segment_names() == []

    def test_cluster_shutdown_reaps_workers_and_segments(self):
        ws = Workspace()
        ws.add_user("admin", admin=True)
        ws.catalog.create_catalog("main", owner="admin")
        ws.catalog.create_schema("main.s", owner="admin")
        cluster = ws.create_standard_cluster(
            name="short-lived", worker_backend="process", num_executors=2
        )
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE main.s.t (id int)")
        admin.sql("INSERT INTO main.s.t VALUES (1),(2),(3)")
        admin.sql("SELECT id FROM main.s.t ORDER BY id").collect()
        pool = cluster.backend.worker_pool
        assert pool is not None and pool.workers_alive() >= 1
        ws.shutdown()
        assert pool.closed
        assert pool.workers_alive() == 0
        assert shmbuf.live_segment_names() == []
        # Idempotent: a second shutdown is a no-op, not an error.
        ws.shutdown()

    def test_engine_falls_back_to_threads_after_close(self):
        ws = Workspace()
        ws.add_user("admin", admin=True)
        ws.catalog.create_catalog("main", owner="admin")
        ws.catalog.create_schema("main.s", owner="admin")
        cluster = ws.create_standard_cluster(
            name="fallback", worker_backend="process", num_executors=2
        )
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE main.s.t (id int)")
        admin.sql("INSERT INTO main.s.t VALUES (1),(2)")
        cluster.shutdown()
        # The pool is gone; queries still run (thread fallback).
        rows = admin.sql("SELECT id FROM main.s.t ORDER BY id").collect()
        assert rows == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Chaos determinism inside workers
# ---------------------------------------------------------------------------


def _seeded_chaos_run(seed: int):
    """One process-backend run with a seeded worker.task schedule."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")
    faults = ws.catalog.faults
    faults.seed = seed
    faults.arm("worker.task", FaultSpec(probability=0.2))
    # Single executor: scan tasks hit the pool in a deterministic order, so
    # the per-worker fault schedule replays exactly.
    cluster = ws.create_standard_cluster(
        name="chaos", worker_backend="process", num_executors=1
    )
    admin = cluster.connect("admin")
    admin.sql("CREATE TABLE main.s.t (id int, v float)")
    for i in range(4):
        admin.sql(f"INSERT INTO main.s.t VALUES ({2 * i},1.5),({2 * i + 1},2.5)")
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.s TO analysts")
    admin.sql("GRANT SELECT ON main.s.t TO analysts")
    alice = cluster.connect("alice")
    rows = [
        alice.sql("SELECT id, v FROM main.s.t WHERE v > 0.0 ORDER BY id").collect()
        for _ in range(4)
    ]
    triggered = faults.trigger_count("worker.task")
    snapshot = faults.stats_snapshot()
    ws.shutdown()
    return rows, triggered, snapshot


class TestWorkerChaos:
    def test_seeded_schedule_replays_identically(self):
        first = _seeded_chaos_run(1337)
        second = _seeded_chaos_run(1337)
        assert first == second
        rows, triggered, _ = first
        # Faults actually fired in-worker, and every query still succeeded.
        assert triggered >= 1
        assert all(len(r) == 8 for r in rows)

    def test_different_seed_changes_the_schedule(self):
        _, a, _ = _seeded_chaos_run(1337)
        _, b, _ = _seeded_chaos_run(99991)
        # Trigger *timing* differs; counts may rarely coincide, so compare
        # against a third seed too — all three matching would mean the seed
        # is ignored.
        _, c, _ = _seeded_chaos_run(424243)
        assert len({a, b, c}) > 1


# ---------------------------------------------------------------------------
# The subprocess sandbox boundary: one pickle-frame transport
# ---------------------------------------------------------------------------


def _double(x):
    return None if x is None else x * 2


#: ``_double`` stays the plain module-level function, so cloudpickle ships it
#: *by reference*: the worker has to import this module (and through it
#: ``repro``) to install it.
DOUBLE = udf("int")(_double).with_owner("alice")


def _by_value_udfs():
    """Nested functions ship by value — installing them imports nothing."""

    @udf("string")
    def first(*args):
        return args[0]

    @udf("string")
    def shape(*args):
        return "|".join(f"{type(a).__name__}:{a!r}" for a in args)

    @udf("string")
    def loaded_repro_modules(_x):
        import sys

        return sorted(m for m in sys.modules if m.startswith("repro"))

    return tuple(
        u.with_owner("alice") for u in (first, shape, loaded_repro_modules)
    )


FIRST, SHAPE, LOADED_REPRO_MODULES = _by_value_udfs()


@pytest.fixture(scope="class")
def boundary_pair():
    subprocess_sandbox = SubprocessSandbox("alice")
    yield subprocess_sandbox, InProcessSandbox("alice")
    subprocess_sandbox.close()


class TestSandboxBoundary:
    @pytest.mark.parametrize("fused", [False, True], ids=["invoke", "invoke_many"])
    @given(columns=_columns())
    @settings(max_examples=30, deadline=None)
    def test_subprocess_matches_inprocess(self, boundary_pair, fused, columns):
        """NULLs, big ints, floats, strings, bytes and mixed columns alike."""
        real, reference = boundary_pair
        if fused:
            calls = [(3, FIRST, columns), (5, SHAPE, columns), (8, SHAPE, columns[::-1])]
            assert real.invoke_many(calls) == reference.invoke_many(calls)
        else:
            for udf_obj in (FIRST, SHAPE):
                assert real.invoke(udf_obj, columns) == reference.invoke(udf_obj, columns)

    def test_batches_cross_as_pickle_frames_and_no_shared_memory(self):
        shm_dir = Path("/dev/shm")
        segments_before = shmbuf.live_segment_names()
        files_before = sorted(shm_dir.iterdir()) if shm_dir.is_dir() else []
        sandbox = SubprocessSandbox("alice")
        try:
            for _ in range(3):
                assert sandbox.invoke(FIRST, [list(range(512))]) == list(range(512))
                assert shmbuf.live_segment_names() == segments_before
                assert (sorted(shm_dir.iterdir()) if shm_dir.is_dir() else []) == files_before
        finally:
            sandbox.close()
        assert sandbox.stats.data_pickle_bytes > 3 * 2 * 512
        assert sandbox.stats.control_pickle_bytes > 0  # policy + install frames
        assert sandbox.stats.shm_bytes == 0

    def test_fresh_worker_holds_no_repro_module(self):
        """The worker is started from its file: nothing of the driver is in it."""
        sandbox = SubprocessSandbox("alice")
        try:
            assert sandbox.invoke(LOADED_REPRO_MODULES, [[0]]) == [[]]
            # A by-reference UDF makes the worker import its defining module,
            # which is allowed — and visible.
            assert sandbox.invoke(DOUBLE, [[1, None, 3]]) == [2, None, 6]
            assert "repro" in sandbox.invoke(LOADED_REPRO_MODULES, [[0]])[0]
        finally:
            sandbox.close()

    def test_udf_importing_the_sandbox_package_resolves_it_and_stays_offline(self):
        @udf("string")
        def probe(attempt_egress):
            import socket

            from repro.sandbox import net, policy

            if attempt_egress:
                socket.create_connection(("127.0.0.1", 9))
            return f"{net.__name__} {policy.__name__}"

        sandbox = SubprocessSandbox("alice")  # default policy: no network
        try:
            probe = probe.with_owner("alice")
            # ``repro/sandbox/`` is not on the worker's path ahead of the
            # package, so ``net`` / ``policy`` are the package's modules.
            assert sandbox.invoke(probe, [[False]]) == [
                "repro.sandbox.net repro.sandbox.policy"
            ]
            with pytest.raises(UserCodeError, match="egress is disabled"):
                sandbox.invoke(probe, [[True]])
        finally:
            sandbox.close()

    def test_non_data_result_is_a_user_error_not_driver_side_unpickling(self):
        @udf("string")
        def fraction(x):
            from fractions import Fraction  # picklable by reference

            return Fraction(x, 3)

        @udf("string")
        def instance(x):
            class Thing:
                pass

            return Thing()

        sandbox = SubprocessSandbox("alice")
        try:
            for bad in (fraction, instance):
                with pytest.raises(UserCodeError, match="plain data"):
                    sandbox.invoke(bad.with_owner("alice"), [[1]])
            # Refused inside the worker, which therefore lives on.
            assert sandbox.invoke(DOUBLE, [[4]]) == [8]
        finally:
            sandbox.close()
