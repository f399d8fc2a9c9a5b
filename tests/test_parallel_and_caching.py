"""Parallel scan execution and the multi-level enforcement caches.

Covers the performance layers added on top of the enforcement pipeline:

- parallel scan tasks whose ``scan-task-*`` spans join the originating
  query's trace despite running on worker threads;
- the secure-plan cache (hit/miss/stale-epoch semantics, per-user keys,
  temp-state versioning, LRU eviction);
- the TTL-aware credential cache (reuse, refresh-ahead, expiry, epoch
  invalidation, out-of-band revocation);
- dispatcher prewarming, the spare-sandbox pool, and pool thread safety;
- batch-size chunking through local and governed scans;
- the ``system.access.cache_stats`` table.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.clock import VirtualClock
from repro.core.plan_cache import (
    PlanCacheKey,
    SecurePlanCache,
    fingerprint_relation,
    lift,
)
from repro.engine.batch import ColumnBatch, chunk_batch
from repro.engine.types import Field, INT, STRING, Schema
from repro.errors import PermissionDenied, TrustDomainViolation
from repro.platform import Workspace
from repro.sandbox.cluster_manager import ClusterManager
from repro.sandbox.dispatcher import Dispatcher
from repro.storage.credentials import (
    LIST,
    READ,
    CredentialCache,
    CredentialVendor,
)


# ---------------------------------------------------------------------------
# Parallel scans + trace propagation
# ---------------------------------------------------------------------------


def _make_multifile_table(admin_client, extra_inserts: int = 3) -> None:
    """Append extra commits so main.sales.orders spans several data files."""
    for i in range(extra_inserts):
        admin_client.sql(
            f"INSERT INTO main.sales.orders VALUES "
            f"({10 + 2 * i},'US',1.0,'px'),({11 + 2 * i},'EU',2.0,'py')"
        )


class TestParallelScanExecution:
    def test_multi_file_scan_uses_thread_pool(
        self, workspace, standard_cluster, admin_client
    ):
        _make_multifile_table(admin_client)
        source = standard_cluster.backend.data_source
        before = source.stats.parallel_scans
        alice = standard_cluster.connect("alice")
        rows = alice.sql("SELECT count(*) AS n FROM main.sales.orders").collect()
        assert rows == [(10,)]
        assert source.stats.parallel_scans == before + 1
        assert source.stats.executor_tasks >= 2

    def test_parallel_scan_results_match_serial(self, workspace):
        """Same table, num_executors 1 vs 4: identical ordered rows."""
        ws = workspace
        cat = ws.catalog
        serial = ws.create_standard_cluster(name="serial", num_executors=1)
        parallel = ws.create_standard_cluster(name="parallel", num_executors=4)
        admin = serial.connect("admin")
        admin.sql(
            "CREATE TABLE main.sales.parts (id int, region string, amount float,"
            " buyer string)"
        )
        for i in range(8):
            admin.sql(
                f"INSERT INTO main.sales.parts VALUES ({i},'US',{float(i)},'p{i}')"
            )
        admin.sql("GRANT USE CATALOG ON main TO analysts")
        admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
        admin.sql("GRANT SELECT ON main.sales.parts TO analysts")
        query = "SELECT id, amount FROM main.sales.parts ORDER BY id"
        rows_serial = serial.connect("alice").sql(query).collect()
        rows_parallel = parallel.connect("alice").sql(query).collect()
        assert rows_serial == rows_parallel
        assert len(rows_serial) == 8
        assert cat.get_table("main.sales.parts") is not None

    def test_scan_task_spans_join_originating_trace(
        self, workspace, standard_cluster, admin_client
    ):
        """Worker-thread spans carry the query's trace id, user and parent."""
        _make_multifile_table(admin_client)
        alice = standard_cluster.connect("alice")
        alice.sql("SELECT * FROM main.sales.orders").collect()
        trace_id = alice.last_trace_id
        telemetry = workspace.catalog.telemetry

        task_spans = telemetry.spans(trace_id=trace_id, kind="executor.task")
        assert len(task_spans) >= 2, "expected parallel scan tasks in the trace"
        assert all(s.name.startswith("scan-task-") for s in task_spans)
        assert {s.user for s in task_spans} == {"alice"}

        trace_span_ids = {s.span_id for s in telemetry.spans(trace_id=trace_id)}
        for span in task_spans:
            # Parented inside the same trace (onto the execute-stage span),
            # not floating as a root of its own.
            assert span.parent_id in trace_span_ids
        stage_spans = telemetry.spans(trace_id=trace_id, kind="pipeline.stage")
        assert stage_spans, "scan tasks must share the pipeline's trace"

    def test_worker_spans_never_leak_into_other_traces(
        self, workspace, standard_cluster, admin_client
    ):
        _make_multifile_table(admin_client)
        alice = standard_cluster.connect("alice")
        alice.sql("SELECT * FROM main.sales.orders").collect()
        first = alice.last_trace_id
        alice.sql("SELECT id FROM main.sales.orders").collect()
        second = alice.last_trace_id
        assert first != second
        telemetry = workspace.catalog.telemetry
        for trace_id in (first, second):
            tasks = telemetry.spans(trace_id=trace_id, kind="executor.task")
            assert tasks, f"trace {trace_id} lost its scan tasks"


# ---------------------------------------------------------------------------
# Secure-plan cache
# ---------------------------------------------------------------------------


def _key(fingerprint="f", user="alice", epoch=0, temp=0, principals=("alice",)):
    return PlanCacheKey(
        fingerprint=fingerprint,
        user=user,
        principals=frozenset(principals),
        policy_epoch=epoch,
        compute_id="c1",
        temp_state_version=temp,
    )


def _insert(cache, key, relation, analyzed, optimized):
    cache.insert(key, lift(relation), analyzed, optimized)


def _lookup(cache, key, relation):
    return cache.lookup(key, lift(relation))[0]


class TestSecurePlanCacheUnit:
    def test_hit_requires_identical_relation(self):
        cache = SecurePlanCache()
        relation = {"@type": "relation.read", "table": "t"}
        _insert(cache, _key(), relation, analyzed="A", optimized="O")
        entry = _lookup(cache, _key(), relation)
        assert entry is not None and entry.optimized == "O"
        # Same key, different proto (a fingerprint collision) must miss.
        assert _lookup(cache, _key(), {"@type": "relation.read", "table": "u"}) is None

    def test_epoch_bump_is_a_hard_miss_and_evicts(self):
        cache = SecurePlanCache()
        relation = {"@type": "relation.read", "table": "t"}
        _insert(cache, _key(epoch=1), relation, "A", "O")
        assert cache.lookup(_key(epoch=2), lift(relation)) == (None, "miss:stale-epoch")
        assert cache.stats.stale_epoch_misses == 1
        assert len(cache) == 0, "superseded-epoch entry must be dropped"

    def test_user_and_temp_state_partition_the_cache(self):
        cache = SecurePlanCache()
        relation = {"@type": "relation.read", "table": "t"}
        _insert(cache, _key(user="alice"), relation, "A-alice", "O-alice")
        assert _lookup(cache, _key(user="bob", principals=("bob",)), relation) is None
        assert _lookup(cache, _key(temp=1), relation) is None
        hit = _lookup(cache, _key(user="alice"), relation)
        assert hit is not None and hit.analyzed == "A-alice"

    def test_lru_eviction_at_capacity(self):
        cache = SecurePlanCache(capacity=2)
        for i in range(3):
            relation = {"table": f"t{i}"}
            _insert(cache, _key(fingerprint=f"f{i}"), relation, f"A{i}", f"O{i}")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert _lookup(cache, _key(fingerprint="f0"), {"table": "t0"}) is None
        assert _lookup(cache, _key(fingerprint="f2"), {"table": "t2"}) is not None

    def test_fingerprint_is_order_insensitive(self):
        a = fingerprint_relation({"x": 1, "y": {"b": 2, "a": 3}})
        b = fingerprint_relation({"y": {"a": 3, "b": 2}, "x": 1})
        assert a == b
        assert a != fingerprint_relation({"x": 1, "y": {"b": 2, "a": 4}})


class TestSecurePlanCacheEndToEnd:
    def test_repeated_query_hits_and_skips_reresolution(
        self, workspace, standard_cluster, admin_client
    ):
        cache = standard_cluster.backend.plan_cache
        alice = standard_cluster.connect("alice")
        query = "SELECT id FROM main.sales.orders ORDER BY id"
        first = alice.sql(query).collect()
        hits_before = cache.stats.hits
        second = alice.sql(query).collect()
        assert first == second
        assert cache.stats.hits == hits_before + 1

    def test_cached_plans_never_cross_users(
        self, workspace, standard_cluster, admin_client
    ):
        admin_client.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER "
            "(region = 'US' OR is_account_group_member('hr'))"
        )
        query = "SELECT id FROM main.sales.orders ORDER BY id"
        alice_rows = standard_cluster.connect("alice").sql(query).collect()
        # Prime alice's entry, then carol (hr member) runs the same text.
        standard_cluster.connect("alice").sql(query).collect()
        carol_rows = standard_cluster.connect("carol").sql(query).collect()
        assert alice_rows == [(1,), (3,)]
        assert carol_rows == [(1,), (2,), (3,), (4,)]

    def test_temp_view_redefinition_invalidates(
        self, workspace, standard_cluster, admin_client
    ):
        """Redefining a temp view must not serve the plan cached before it."""
        from repro.connect.client import col

        alice = standard_cluster.connect("alice")
        orders = alice.table("main.sales.orders")
        orders.filter(col("region") == "US").create_temp_view("mine")

        def ids() -> set:
            return {r[0] for r in alice.table("mine").collect()}

        assert ids() == {1, 3}
        assert ids() == {1, 3}  # cached repeat
        # Redefinition bumps the session temp-state version -> hard miss.
        orders.filter(col("region") == "EU").create_temp_view("mine")
        assert ids() == {2}
        session = standard_cluster.service.sessions.get_session(
            alice.session_id, "alice"
        )
        assert session.temp_state_version == 2

    def test_system_tables_bypass_the_plan_cache(
        self, workspace, standard_cluster, admin_client
    ):
        cache = standard_cluster.backend.plan_cache
        insertions_before = cache.stats.insertions
        admin_client.table("system.access.audit").collect()
        admin_client.table("system.access.audit").collect()
        assert cache.stats.insertions == insertions_before, (
            "system-table reads must never be cached"
        )


# ---------------------------------------------------------------------------
# Credential cache
# ---------------------------------------------------------------------------


@pytest.fixture
def vend_env():
    """A virtual clock, a vendor with a 100 s TTL, and a counting vend fn."""
    clock = VirtualClock()
    vendor = CredentialVendor(clock=clock, ttl_seconds=100.0)
    calls = []

    def vend():
        credential = vendor.issue("alice", ["s3://b/t/"], {READ, LIST})
        calls.append(credential)
        return credential

    return clock, vendor, vend, calls


class TestCredentialCache:
    def _get(self, cache, vend, epoch=0, validate=None):
        return cache.get_or_vend(
            principal="alice",
            securable="main.t",
            operations=frozenset({READ, LIST}),
            on_behalf_of=None,
            policy_epoch=epoch,
            vend=vend,
            validate=validate,
        )

    def test_reuse_within_ttl(self, vend_env):
        clock, _, vend, calls = vend_env
        cache = CredentialCache(clock=clock)
        first, reused1 = self._get(cache, vend)
        clock.advance(10.0)
        second, reused2 = self._get(cache, vend)
        assert (reused1, reused2) == (False, True)
        assert first is second and len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_refresh_ahead_revends_before_expiry(self, vend_env):
        clock, _, vend, calls = vend_env
        cache = CredentialCache(clock=clock, refresh_ahead_fraction=0.2)
        self._get(cache, vend)
        # 85 s into a 100 s TTL: 15 s (<20%) left -> refresh, not reuse.
        clock.advance(85.0)
        credential, reused = self._get(cache, vend)
        assert not reused and len(calls) == 2
        assert cache.stats.refreshes == 1
        assert not credential.is_expired(clock.now())

    def test_expired_credential_is_replaced(self, vend_env):
        clock, _, vend, calls = vend_env
        cache = CredentialCache(clock=clock, refresh_ahead_fraction=0.0)
        self._get(cache, vend)
        clock.advance(150.0)
        _, reused = self._get(cache, vend)
        assert not reused and len(calls) == 2
        assert cache.stats.expired_misses == 1

    def test_policy_epoch_bump_forces_fresh_vend(self, vend_env):
        clock, _, vend, calls = vend_env
        cache = CredentialCache(clock=clock)
        self._get(cache, vend, epoch=7)
        _, reused = self._get(cache, vend, epoch=8)
        assert not reused and len(calls) == 2
        assert cache.stats.stale_epoch_misses == 1

    def test_out_of_band_revocation_detected_by_validator(self, vend_env):
        clock, vendor, vend, calls = vend_env
        cache = CredentialCache(clock=clock)
        credential, _ = self._get(cache, vend, validate=vendor.validate)
        vendor.revoke(credential.token)
        fresh, reused = self._get(cache, vend, validate=vendor.validate)
        assert not reused and fresh is not credential
        assert cache.stats.expired_misses == 1

    def test_scan_path_reuses_cached_credential(
        self, workspace, standard_cluster, admin_client
    ):
        source = standard_cluster.backend.data_source
        alice = standard_cluster.connect("alice")
        alice.sql("SELECT id FROM main.sales.orders").collect()
        vended_before = source.stats.credentials_vended
        hits_before = source.stats.credential_cache_hits
        alice.sql("SELECT region FROM main.sales.orders").collect()
        assert source.stats.credentials_vended == vended_before
        assert source.stats.credential_cache_hits > hits_before


# ---------------------------------------------------------------------------
# Dispatcher: prewarming, spare pool, thread safety
# ---------------------------------------------------------------------------


def _dispatcher(min_pool_size: int = 0) -> Dispatcher:
    return Dispatcher(
        ClusterManager(), min_pool_size=min_pool_size
    )


class TestDispatcherPrewarm:
    def test_prewarm_moves_cold_start_off_the_query_path(self):
        dispatcher = _dispatcher()
        created = dispatcher.prewarm("s1", ["alice", "bob"])
        assert created == 2
        sandbox = dispatcher.acquire("s1", "alice")
        assert sandbox.trust_domain == "alice"
        assert dispatcher.stats.cold_starts == 0
        assert dispatcher.stats.prewarm_hits == 1
        assert dispatcher.stats.warm_acquisitions == 1

    def test_prewarm_respects_n_and_skips_pooled_domains(self):
        dispatcher = _dispatcher()
        assert dispatcher.prewarm("s1", ["a", "b", "c"], n=2) == 2
        # Already-pooled domains are not re-provisioned.
        assert dispatcher.prewarm("s1", ["a", "b", "c"]) == 1
        assert dispatcher.pool_size() == 3

    def test_spare_pool_claimed_instead_of_cold_start(self):
        dispatcher = _dispatcher(min_pool_size=2)
        assert dispatcher.spare_pool_size() == 2
        sandbox = dispatcher.acquire("s1", "alice")
        assert sandbox.trust_domain == "alice"
        assert dispatcher.spare_pool_size() == 1
        assert dispatcher.stats.cold_starts == 0
        assert dispatcher.stats.prewarm_hits == 1
        # Topping up restores the floor.
        assert dispatcher.ensure_min_pool() == 1
        assert dispatcher.spare_pool_size() == 2

    def test_spares_do_not_serve_custom_shaped_requests(self):
        dispatcher = _dispatcher(min_pool_size=1)
        dispatcher.acquire("s1", "alice", environment="env-2")
        # Pinned environment -> spare unusable -> cold start.
        assert dispatcher.spare_pool_size() == 1
        assert dispatcher.stats.cold_starts == 1

    def test_claimed_spare_still_enforces_trust_domain(self):
        from repro.engine.udf import udf as engine_udf

        @engine_udf("int")
        def f(x):
            return x

        dispatcher = _dispatcher(min_pool_size=1)
        sandbox = dispatcher.acquire("s1", "alice")
        assert sandbox.invoke(f.with_owner("alice"), [[1]]) == [1]
        with pytest.raises(TrustDomainViolation):
            sandbox.invoke(f.with_owner("eve"), [[1]])

    def test_release_session_destroys_prewarmed_sandboxes(self):
        dispatcher = _dispatcher()
        dispatcher.prewarm("s1", ["alice", "bob"])
        assert dispatcher.release_session("s1") == 2
        assert dispatcher.pool_size() == 0


class TestDispatcherThreadSafety:
    def test_concurrent_acquires_build_consistent_pool(self):
        dispatcher = _dispatcher()
        errors = []

        def worker(i: int) -> None:
            try:
                for _ in range(5):
                    sandbox = dispatcher.acquire(f"s{i % 4}", f"user{i % 3}")
                    assert sandbox.trust_domain == f"user{i % 3}"
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 4 sessions x up to 3 domains each, never more.
        assert dispatcher.pool_size() <= 12
        snapshot = dispatcher.stats_snapshot()
        assert snapshot["cold_starts"] + snapshot["warm_acquisitions"] == 60

    def test_lock_contention_is_counted(self):
        dispatcher = _dispatcher()
        dispatcher._lock.acquire()
        try:
            blocked = threading.Thread(target=dispatcher.pool_size)
            blocked.start()
            # Give the thread time to hit the held lock.
            for _ in range(1000):
                if dispatcher.stats.lock_contentions:
                    break
                threading.Event().wait(0.001)
        finally:
            dispatcher._lock.release()
        blocked.join()
        assert dispatcher.stats.lock_contentions >= 1


# ---------------------------------------------------------------------------
# Batch-size chunking
# ---------------------------------------------------------------------------


class TestBatchSizeChunking:
    def _batch(self, n: int) -> ColumnBatch:
        schema = Schema((Field("id", INT), Field("name", STRING)))
        return ColumnBatch.from_dict(
            schema, {"id": list(range(n)), "name": [f"r{i}" for i in range(n)]}
        )

    def test_chunk_batch_slices_and_preserves_rows(self):
        chunks = list(chunk_batch(self._batch(10), 4))
        assert [c.num_rows for c in chunks] == [4, 4, 2]
        assert [v for c in chunks for v in c.column("id")] == list(range(10))

    def test_zero_batch_size_means_unlimited(self):
        batch = self._batch(10)
        assert list(chunk_batch(batch, 0)) == [batch]

    def test_governed_scan_honors_cluster_batch_size(self, workspace):
        cluster = workspace.create_standard_cluster(name="tiny", batch_size=2)
        admin = cluster.connect("admin")
        admin.sql("CREATE TABLE main.sales.chunked (id int, v float)")
        admin.sql(
            "INSERT INTO main.sales.chunked VALUES "
            "(1,1.0),(2,2.0),(3,3.0),(4,4.0),(5,5.0)"
        )
        rows = admin.sql("SELECT id FROM main.sales.chunked ORDER BY id").collect()
        assert rows == [(1,), (2,), (3,), (4,), (5,)]


# ---------------------------------------------------------------------------
# Concurrent multi-user execution
# ---------------------------------------------------------------------------

NUM_CONCURRENT_USERS = 4
CONCURRENT_ROUNDS = 4


@pytest.fixture
def concurrent_workspace():
    """Four users, four region groups, one row-filtered multi-file table."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    regions = ["US", "EU", "APAC", "LATAM"]
    for i, region in enumerate(regions):
        ws.add_user(f"user{i}")
        ws.add_group(f"g_{region.lower()}", [f"user{i}"])
    cat = ws.catalog
    cat.create_catalog("main", owner="admin")
    cat.create_schema("main.sales", owner="admin")
    cluster = ws.create_standard_cluster(num_executors=4)
    admin = cluster.connect("admin")
    admin.sql("CREATE TABLE main.sales.events (id int, region string, v float)")
    # Several commits -> several files -> parallel scan tasks per query.
    for commit in range(3):
        rows = ", ".join(
            f"({commit * 4 + i}, '{regions[i]}', {float(i)})" for i in range(4)
        )
        admin.sql(f"INSERT INTO main.sales.events VALUES {rows}")
    for region in regions:
        group = f"g_{region.lower()}"
        admin.sql(f"GRANT USE CATALOG ON main TO {group}")
        admin.sql(f"GRANT USE SCHEMA ON main.sales TO {group}")
        admin.sql(f"GRANT SELECT ON main.sales.events TO {group}")
    condition = " OR ".join(
        f"(region = '{r}' AND is_account_group_member('g_{r.lower()}'))"
        for r in regions
    )
    admin.sql(f"ALTER TABLE main.sales.events SET ROW FILTER ({condition})")
    return ws, cluster, regions


class TestConcurrentMultiUser:
    def test_parallel_users_stay_isolated_with_caches_on(
        self, concurrent_workspace
    ):
        ws, cluster, regions = concurrent_workspace
        results: dict[int, list[set]] = {i: [] for i in range(NUM_CONCURRENT_USERS)}
        trace_ids: dict[int, list[str]] = {i: [] for i in range(NUM_CONCURRENT_USERS)}
        errors: list[Exception] = []
        barrier = threading.Barrier(NUM_CONCURRENT_USERS)

        def run_user(i: int) -> None:
            try:
                client = cluster.connect(f"user{i}")
                barrier.wait(timeout=30)
                for _ in range(CONCURRENT_ROUNDS):
                    rows = client.sql(
                        "SELECT region FROM main.sales.events"
                    ).collect()
                    results[i].append({r[0] for r in rows})
                    trace_ids[i].append(client.last_trace_id)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run_user, args=(i,), name=f"user-{i}")
            for i in range(NUM_CONCURRENT_USERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        # Row-filter isolation: every result of every round is exactly the
        # user's own region, no matter what ran concurrently.
        for i in range(NUM_CONCURRENT_USERS):
            assert results[i] == [{regions[i]}] * CONCURRENT_ROUNDS, (
                f"user{i} saw {results[i]}"
            )

        # Trace hygiene: each query's trace carries exactly its own user on
        # every span, including worker-thread scan tasks.
        telemetry = ws.catalog.telemetry
        for i in range(NUM_CONCURRENT_USERS):
            for trace_id in trace_ids[i]:
                users = {s.user for s in telemetry.spans(trace_id=trace_id)}
                assert users == {f"user{i}"}, (
                    f"trace {trace_id} mixed users: {users}"
                )

        # The plan cache served repeats without ever crossing users.
        cache = cluster.backend.plan_cache
        assert cache.stats.hits >= NUM_CONCURRENT_USERS * (CONCURRENT_ROUNDS - 1)


# ---------------------------------------------------------------------------
# system.access.cache_stats
# ---------------------------------------------------------------------------


class TestCacheStatsTable:
    def test_admin_reads_hit_miss_counters(
        self, workspace, standard_cluster, admin_client
    ):
        alice = standard_cluster.connect("alice")
        query = "SELECT id FROM main.sales.orders"
        alice.sql(query).collect()
        alice.sql(query).collect()
        rows = admin_client.table("system.access.cache_stats").to_dict()
        caches = set(rows["cache"])
        assert any(c.startswith("plan_cache[") for c in caches)
        assert any(c.startswith("credential_cache[") for c in caches)
        assert any(c.startswith("sandbox_pool[") for c in caches)
        by_metric = {
            (c, m): v
            for c, m, v in zip(rows["cache"], rows["metric"], rows["value"])
        }
        plan_cache = next(c for c in caches if c.startswith("plan_cache["))
        assert by_metric[(plan_cache, "hits")] >= 1.0
        assert by_metric[(plan_cache, "misses")] >= 1.0
        # The store's memos of decoded columns (raw, and the rows a row
        # filter admits): their counts reveal who read what recently, which
        # is why they live in this admin-only table.
        for memo in ("decoded_columns[store]", "governed_rows[store]"):
            assert {m for c, m in by_metric if c == memo} == {
                "hits", "misses", "fills", "rows_admitted", "rows_rejected",
                "drops", "evictions", "entries", "cells",
            }

    def test_non_admin_cannot_read_cache_stats(
        self, workspace, standard_cluster, admin_client
    ):
        alice = standard_cluster.connect("alice")
        with pytest.raises(PermissionDenied):
            alice.table("system.access.cache_stats").collect()
