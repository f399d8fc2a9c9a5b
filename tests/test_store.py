"""The governed persistence tier: tiers, ladder, and end-to-end survival.

Covers, in one place:

- checksum framing (tamper/truncation rejected);
- each tier's own contract: MemoryTier LRU, DiskTier spill files surviving
  re-instantiation;
- :class:`~repro.store.TieredStore` ladder semantics: write-through,
  memory-only pinning, promotion, corruption rejection, fault absorption;
- restart survival: a fresh cluster on the same spill directory serves
  kernels, secure plans and governed results without recomputing them;
- cross-cluster sharing of content-addressed kernels over one spill directory;
- the single-invalidation story: a policy-epoch bump (grant/revoke) and a
  data-epoch bump (governed write) are hard misses in *every* tier, and
  superseded entries are physically swept;
- a store-backend matrix property: a repeated governed query is served
  from the store with identical results, and any governance/identity
  change forces a recompute;
- the admin-only ``system.access.store_stats`` table.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.faults import FaultInjector, FaultSpec
from repro.engine.batch import ColumnBatch
from repro.engine.types import BINARY, BOOL, FLOAT, INT, STRING, Field, Schema
from repro.errors import PermissionDenied
from repro.platform import Workspace
from repro.store import (
    DiskTier,
    MemoryTier,
    TieredStore,
    frame_payload,
    unframe_payload,
)
from repro.store.artifacts import ArtifactStore
from repro.store.result_cache import GovernedResultCache, decode_payload, encode_payload

# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        assert unframe_payload(frame_payload(b"hello")) == b"hello"
        assert unframe_payload(frame_payload(b"")) == b""

    def test_tampered_payload_rejected(self):
        raw = bytearray(frame_payload(b"payload-bytes"))
        raw[-1] ^= 0xFF
        assert unframe_payload(bytes(raw)) is None

    def test_truncation_and_garbage_rejected(self):
        raw = frame_payload(b"payload")
        assert unframe_payload(raw[:-1]) is None
        assert unframe_payload(raw[: len(raw) // 2]) is None
        assert unframe_payload(b"") is None
        assert unframe_payload(b"XXXX" + raw[4:]) is None
        assert unframe_payload(None) is None


# ---------------------------------------------------------------------------
# Individual tiers
# ---------------------------------------------------------------------------


class TestMemoryTier:
    def test_lru_eviction(self):
        tier = MemoryTier(capacity=2)
        tier.put("a", b"1")
        tier.put("b", b"2")
        tier.get("a")  # touch: "b" becomes the eviction victim
        tier.put("c", b"3")
        assert tier.get("b") is None
        assert tier.get("a") == b"1"
        assert tier.get("c") == b"3"
        assert tier.stats.evictions == 1

    def test_delete_and_keys(self):
        tier = MemoryTier()
        tier.put("x", b"1")
        assert tier.keys() == ["x"]
        assert tier.delete("x") is True
        assert tier.delete("x") is False
        assert tier.keys() == []

    def test_not_persistent(self):
        assert MemoryTier.persistent is False


class TestDiskTier:
    def test_survives_reinstantiation(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.put("plan/abc/e1/id0", b"framed-bytes")
        reborn = DiskTier(tmp_path)
        assert reborn.get("plan/abc/e1/id0") == b"framed-bytes"
        assert reborn.keys() == ["plan/abc/e1/id0"]

    def test_missing_and_delete(self, tmp_path):
        tier = DiskTier(tmp_path)
        assert tier.get("nope") is None
        tier.put("k", b"v")
        assert tier.delete("k") is True
        assert tier.delete("k") is False
        assert tier.get("k") is None

    def test_mangled_file_is_a_miss(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.put("k", b"v")
        (path,) = list(tmp_path.glob("*.lgs"))
        path.write_bytes(b"not a spill file at all")
        assert tier.get("k") is None
        assert tier.keys() == []

    def test_overwrite_replaces(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.put("k", b"old")
        tier.put("k", b"new")
        assert tier.get("k") == b"new"
        assert len(tier.keys()) == 1

    def test_persistent(self):
        assert DiskTier.persistent is True


# ---------------------------------------------------------------------------
# The tiered ladder
# ---------------------------------------------------------------------------


def _ladder(tmp_path, faults=None) -> TieredStore:
    return TieredStore(
        [MemoryTier(), DiskTier(tmp_path)], faults=faults
    )


class TestTieredStore:
    def test_write_through_and_read_back(self, tmp_path):
        store = _ladder(tmp_path)
        assert store.put("k", b"payload") is True
        assert store.get("k") == b"payload"
        # Both tiers hold the framed copy.
        assert store.tiers[0].get("k") is not None
        assert store.tiers[1].get("k") is not None

    def test_memory_only_never_reaches_disk(self, tmp_path):
        store = _ladder(tmp_path)
        store.put("cred/secret", b"ssshhh", memory_only=True)
        assert store.tiers[1].get("cred/secret") is None
        assert store.get("cred/secret", memory_only=True) == b"ssshhh"
        # A ladder-wide read also finds it (memory is the first rung).
        assert store.get("cred/secret") == b"ssshhh"

    def test_lower_tier_hit_promotes(self, tmp_path):
        store = _ladder(tmp_path)
        store.put("k", b"payload")
        store.tiers[0].clear()  # simulate a restart: memory is gone
        assert store.get("k") == b"payload"
        assert store.stats.promotions == 1
        assert store.tiers[0].get("k") is not None  # copied back up

    def test_corrupt_copy_rejected_and_healed_from_below(self, tmp_path):
        store = _ladder(tmp_path)
        store.put("k", b"payload")
        store.tiers[0].put("k", b"garbage-not-a-frame")
        assert store.get("k") == b"payload"  # served by the disk tier
        assert store.stats.corruption_rejected == 1
        # The bad memory copy was deleted and replaced by the good one.
        assert unframe_payload(store.tiers[0].get("k")) == b"payload"

    def test_all_copies_corrupt_is_a_miss(self, tmp_path):
        store = _ladder(tmp_path)
        store.put("k", b"payload")
        store.tiers[0].put("k", b"bad")
        # Mangle the spill file's framed region too.
        (path,) = list(tmp_path.glob("*.lgs"))
        path.write_bytes(path.read_bytes()[:-3] + b"zzz")
        assert store.get("k") is None
        assert store.stats.corruption_rejected == 2

    def test_get_fault_absorbed_as_miss(self, tmp_path):
        faults = FaultInjector()
        store = _ladder(tmp_path, faults=faults)
        store.put("k", b"payload")
        faults.arm("store.get", FaultSpec(one_shot=True))
        assert store.get("k") is None  # absorbed, never raised
        assert store.stats.fault_drops == 1
        assert store.get("k") == b"payload"  # next read is fine

    def test_put_fault_absorbed_as_skipped_write(self, tmp_path):
        faults = FaultInjector()
        store = _ladder(tmp_path, faults=faults)
        faults.arm("store.put", FaultSpec(one_shot=True))
        assert store.put("k", b"payload") is False
        assert store.get("k") is None
        assert store.put("k", b"payload") is True

    def test_injected_corruption_is_checksum_rejected(self, tmp_path):
        faults = FaultInjector()
        store = _ladder(tmp_path, faults=faults)
        store.put("k", b"payload")
        faults.arm("store.get", FaultSpec(kind="corrupt", one_shot=True))
        # The corrupt fault mangles the first copy read; the checksum
        # rejects it and the ladder falls through to the intact disk copy.
        assert store.get("k") == b"payload"
        assert store.stats.corruption_rejected == 1

    def test_evict_and_prefix_evict(self, tmp_path):
        store = _ladder(tmp_path)
        store.put("result/f1/e1/a", b"1")
        store.put("result/f1/e2/a", b"2")
        store.put("result/f2/e1/a", b"3")
        assert store.evict("result/f2/e1/a") == 2  # one copy per tier
        assert store.evict_prefix("result/f1/e1") == 2
        assert store.keys() == ["result/f1/e2/a"]

    def test_stats_snapshot_flattens_tiers(self, tmp_path):
        store = _ladder(tmp_path)
        store.put("k", b"v")
        store.get("k")
        snap = store.stats_snapshot()
        assert snap["hits"] == 1
        assert snap["puts"] == 1
        assert snap["persistent"] == 1.0
        assert snap["memory.puts"] == 1
        assert snap["disk.puts"] == 1


# ---------------------------------------------------------------------------
# End-to-end: clusters riding the store
# ---------------------------------------------------------------------------

_SETUP_SQL = (
    "CREATE TABLE main.sales.orders "
    "(id int, region string, amount float)",
    "INSERT INTO main.sales.orders VALUES "
    "(1,'US',10.0),(2,'EU',20.0),(3,'US',30.0),(4,'APAC',40.0)",
    "GRANT USE CATALOG ON main TO analysts",
    "GRANT USE SCHEMA ON main.sales TO analysts",
    "GRANT SELECT ON main.sales.orders TO analysts",
)

#: A query that exercises kernels (filter + computed projection), the plan
#: cache, credential vending and the result cache in one go.
_QUERY = (
    "SELECT region, amount * 2.0 AS doubled FROM main.sales.orders "
    "WHERE amount > 5.0"
)


def _make_workspace(**kwargs) -> Workspace:
    ws = Workspace(**kwargs)
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("bob")
    ws.add_group("analysts", ["alice", "bob"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.sales", owner="admin")
    # Hit-count assertions below are strict: the chaos CI leg arms
    # probabilistic store.get/store.put faults process-wide, which the
    # store absorbs as misses by design — fine for correctness, fatal for
    # exact-count asserts. Disarm just the store points for these tests.
    for point in ("store.get", "store.put", "store.evict"):
        ws.catalog.faults.disarm(point)
    return ws


def _seed(cluster):
    admin = cluster.connect("admin")
    for sql in _SETUP_SQL:
        admin.sql(sql)
    return admin


class TestRestartSurvival:
    def test_fresh_cluster_on_same_store_dir_serves_everything(self, tmp_path):
        store_dir = str(tmp_path / "spill")
        ws1 = _make_workspace(
            store_backend="disk", store_dir=store_dir, result_cache_enabled=True
        )
        c1 = ws1.create_standard_cluster()
        _seed(c1)
        alice = c1.connect("alice")
        first = alice.sql(_QUERY).collect()
        assert c1.backend.result_cache.stats.stored == 1
        again = alice.sql(_QUERY).collect()
        assert again == first
        assert c1.backend.result_cache.stats.hits == 1
        ws1.shutdown()

        # "Restart": a brand-new workspace and cluster, same spill dir and
        # same cluster name (the compute id is part of every plan/result
        # key), replaying the same governance history so both epochs line
        # up with what the store was warmed under.
        ws2 = _make_workspace(
            store_backend="disk", store_dir=store_dir, result_cache_enabled=True
        )
        c2 = ws2.create_standard_cluster()
        _seed(c2)
        alice2 = c2.connect("alice")
        revived = alice2.sql(_QUERY).collect()
        assert revived == first
        assert c2.backend.plan_cache.stats.persistent_hits >= 1
        assert c2.backend.kernel_cache.stats.persistent_hits >= 1
        assert c2.backend.result_cache.stats.hits == 1
        assert c2.backend.result_cache.stats.stored == 0  # nothing recomputed
        ws2.shutdown()

    def test_store_backend_validation(self):
        ws = _make_workspace(store_backend="disk")  # no store_dir
        with pytest.raises(ValueError, match="store_dir"):
            ws.create_standard_cluster()
        with pytest.raises(ValueError, match="store_backend"):
            _make_workspace(store_backend="wat").create_standard_cluster()
        with pytest.raises(ValueError, match="result_cache"):
            _make_workspace(
                store_backend="none", result_cache_enabled=True
            ).create_standard_cluster()

    def test_store_dir_alone_implies_disk_backend(self, tmp_path):
        ws = _make_workspace(store_dir=str(tmp_path / "s"))
        cluster = ws.create_standard_cluster()
        assert cluster.backend.artifact_store.has_persistent
        ws.shutdown()

    def test_backend_none_disables_the_store(self):
        ws = _make_workspace(store_backend="none")
        cluster = ws.create_standard_cluster()
        assert cluster.backend.artifact_store is None
        assert cluster.backend.result_cache is None
        ws.shutdown()


class TestCrossClusterSharing:
    def test_two_clusters_share_kernels_over_one_spill_dir(self, tmp_path):
        ws = _make_workspace(store_backend="disk", store_dir=str(tmp_path / "s"))
        c1 = ws.create_standard_cluster(name="fleet-a")
        c2 = ws.create_standard_cluster(name="fleet-b")
        _seed(c1)
        alice1 = c1.connect("alice")
        first = alice1.sql(_QUERY).collect()
        assert c1.backend.kernel_cache.stats.persistent_hits == 0
        # The second cluster compiles nothing: kernels are content-addressed
        # (no epoch, no compute id in the key), so the fleet shares them.
        alice2 = c2.connect("alice")
        assert alice2.sql(_QUERY).collect() == first
        assert c2.backend.kernel_cache.stats.persistent_hits >= 1
        # Plans and results are compute-scoped by key: no cross-serving.
        assert c2.backend.plan_cache.stats.persistent_hits == 0
        ws.shutdown()


class TestEpochInvalidation:
    def test_policy_epoch_bump_is_a_hard_miss_and_sweeps_tiers(self, tmp_path):
        ws = _make_workspace(
            store_backend="disk",
            store_dir=str(tmp_path / "spill"),
            result_cache_enabled=True,
        )
        cluster = ws.create_standard_cluster()
        admin = _seed(cluster)
        alice = cluster.connect("alice")
        first = alice.sql(_QUERY).collect()
        assert alice.sql(_QUERY).collect() == first
        cache = cluster.backend.result_cache
        assert cache.stats.hits == 1
        store = cluster.backend.artifact_store.store
        stale_keys = [k for k in store.keys() if k.startswith("result/")]
        assert stale_keys

        # Any governance change bumps the policy epoch: hard miss.
        admin.sql("GRANT SELECT ON main.sales.orders TO hr")
        recomputed = alice.sql(_QUERY).collect()
        assert recomputed == first
        assert cache.stats.hits == 1  # unchanged: the bump forced recompute
        assert cache.stats.stored == 2
        # The superseded-epoch entries were physically swept from all tiers.
        for key in stale_keys:
            for tier in store.tiers:
                assert tier.get(key) is None
        assert cache.stats.stale_evicted >= 1
        ws.shutdown()

    def test_governed_write_bumps_data_epoch_and_invalidates(self, tmp_path):
        ws = _make_workspace(
            store_backend="disk",
            store_dir=str(tmp_path / "spill"),
            result_cache_enabled=True,
        )
        cluster = ws.create_standard_cluster()
        admin = _seed(cluster)
        alice = cluster.connect("alice")
        before = alice.sql(_QUERY).collect()
        admin.sql("INSERT INTO main.sales.orders VALUES (5,'US',50.0)")
        after = alice.sql(_QUERY).collect()
        assert len(after) == len(before) + 1
        assert cluster.backend.result_cache.stats.hits == 0
        # The new state is cached under the new data epoch.
        assert alice.sql(_QUERY).collect() == after
        assert cluster.backend.result_cache.stats.hits == 1
        ws.shutdown()


class TestResultCacheGovernance:
    @pytest.mark.parametrize("store_backend", ["memory", "disk"])
    def test_repeat_serves_from_store_and_changes_recompute(
        self, tmp_path, store_backend
    ):
        kwargs = {"store_backend": store_backend, "result_cache_enabled": True}
        if store_backend == "disk":
            kwargs["store_dir"] = str(tmp_path / "spill")
        ws = _make_workspace(**kwargs)
        cluster = ws.create_standard_cluster()
        admin = _seed(cluster)
        alice = cluster.connect("alice")
        cache = cluster.backend.result_cache

        first = alice.sql(_QUERY).collect()
        assert cache.stats.stored == 1
        assert alice.sql(_QUERY).collect() == first
        assert cache.stats.hits == 1

        # A different principal never sees another identity's entry.
        bob = cluster.connect("bob")
        assert bob.sql(_QUERY).collect() == first  # same grants, own key
        assert cache.stats.hits == 1
        assert cache.stats.stored == 2

        # A row filter changes what alice may see: epoch bump, recompute.
        admin.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')"
        )
        filtered = alice.sql(_QUERY).collect()
        assert len(filtered) == 2
        assert cache.stats.hits == 1
        ws.shutdown()

    def test_user_code_queries_are_ineligible_by_construction(self, tmp_path):
        from repro.connect.client import udf as connect_udf

        @connect_udf("float", deterministic=False)
        def jitter(x):
            return x

        ws = _make_workspace(
            store_backend="disk",
            store_dir=str(tmp_path / "spill"),
            result_cache_enabled=True,
        )
        cluster = ws.create_standard_cluster()
        _seed(cluster)
        alice = cluster.connect("alice")
        alice.register_udf(jitter)
        cache = cluster.backend.result_cache
        alice.sql("SELECT jitter(amount) AS r FROM main.sales.orders").collect()
        assert cache.stats.ineligible >= 1
        assert cache.stats.stored == 0
        ws.shutdown()

    def test_store_stats_table_is_admin_only(self, tmp_path):
        ws = _make_workspace(
            store_backend="disk",
            store_dir=str(tmp_path / "spill"),
            result_cache_enabled=True,
        )
        cluster = ws.create_standard_cluster()
        admin = _seed(cluster)
        alice = cluster.connect("alice")
        alice.sql(_QUERY).collect()
        alice.sql(_QUERY).collect()
        rows = admin.table("system.access.store_stats").collect()
        metrics = {(scope, metric): value for scope, metric, value in rows}
        assert metrics[("store[standard]", "result_puts")] >= 1.0
        assert metrics[("result_cache[standard]", "hits")] >= 1.0
        with pytest.raises(PermissionDenied):
            alice.table("system.access.store_stats").collect()
        ws.shutdown()


# ---------------------------------------------------------------------------
# Property: cached replay is always identical to fresh execution
# ---------------------------------------------------------------------------


class TestReplayProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        threshold=st.sampled_from([0.0, 5.0, 10.0, 25.0, 35.0, 100.0]),
        region=st.sampled_from(["US", "EU", "APAC", "MARS"]),
    )
    def test_cached_result_equals_fresh_execution(self, threshold, region):
        ws = _PROPERTY_WORKSPACE[0]
        if ws is None:
            ws = _make_workspace(store_backend="memory", result_cache_enabled=True)
            _seed(ws.create_standard_cluster())
            _PROPERTY_WORKSPACE[0] = ws
        cluster = ws.clusters["standard"]
        alice = cluster.connect("alice")
        query = (
            "SELECT id, amount FROM main.sales.orders "
            f"WHERE amount > {threshold} AND region = '{region}'"
        )
        hits_before = cluster.backend.result_cache.stats.hits
        fresh = alice.sql(query).collect()
        replay = alice.sql(query).collect()
        assert replay == fresh
        assert cluster.backend.result_cache.stats.hits > hits_before


#: Lazily built shared workspace for the hypothesis property above (one
#: cluster across all examples keeps the property fast).
_PROPERTY_WORKSPACE: list = [None]


class TestResultPayload:
    """Result-cache payloads: a JSON schema plus one column-chunked frame."""

    def test_roundtrip_is_exact(self):
        schema = Schema((
            Field("id", INT, nullable=False, qualifier="t"),
            Field("id", FLOAT),
            Field("s", STRING),
            Field("b", BOOL),
            Field("raw", BINARY),
        ))
        batch = ColumnBatch(schema, [
            [1, 2**70, -3],
            [float("nan"), -0.0, None],
            ["ç", None, ""],
            [True, None, False],
            [b"\x00", None, b"x"],
        ])
        decoded = decode_payload(encode_payload(batch))
        assert decoded.schema == schema
        assert repr(decoded.columns) == repr(batch.columns)

    def test_planted_global_is_a_counted_miss(self, tmp_path):
        from repro.attacks.storage_tamper import Gadget

        artifacts = ArtifactStore(TieredStore([MemoryTier()]))
        cache = GovernedResultCache(artifacts)
        marker = tmp_path / "ran"
        armed = ColumnBatch(Schema((Field("x", INT),)), [[Gadget(str(marker))]])
        artifacts.put_result("result/k", encode_payload(armed))
        assert cache.lookup("result/k") is None
        assert cache.stats.decode_errors == 1 and cache.stats.misses == 1
        assert not marker.exists()
        assert artifacts.get_result("result/k") is None  # evicted


#: What the previous code generator persisted for ``_AVG_QUERY``'s pipeline:
#: a ``_cell`` parameter (the deleted last-key memo) and tuple ``avg``
#: states under 1-tuple keys. Rehydrating it into today's calling
#: convention would fail the query or corrupt its states.
_OLD_GENERATOR_PIPELINE = """def _kernel(_cols, _n, _ctx, _env, _opq, _groups, _cell):
    _c0 = _cols[0]
    _c1 = _cols[1]
    _get = _groups.get
    _lk = _cell[0]
    _ls = _cell[1]
    for _i in range(_n):
        _l0 = _c0[_i]
        _l1 = _c1[_i]
        _key = (_l0,)
        if _ls is not None and _key == _lk:
            _st = _ls
        else:
            _st = _get(_key)
            if _st is None:
                _st = [(0.0, 0)]
                _groups[_key] = _st
            _lk = _key
            _ls = _st
        if _l1 is not None:
            _s0 = _st[0]
            _st[0] = (_s0[0] + _l1, _s0[1] + 1)
    _cell[0] = _lk
    _cell[1] = _ls
    return []"""

_AVG_QUERY = (
    "SELECT region, avg(amount) AS a FROM main.sales.orders "
    "GROUP BY region ORDER BY region"
)


class TestGeneratorVersion:
    def test_an_older_generators_payload_is_never_rehydrated(
        self, tmp_path, monkeypatch
    ):
        import repro.engine.compile as compile_mod

        store_dir = str(tmp_path / "spill")
        # Warm the store under the unversioned key scheme (the version
        # prefix emptied), then plant the older generator's pipeline source
        # under exactly the key that scheme reads back.
        monkeypatch.setattr(compile_mod, "GENERATOR_VERSION", "")
        ws1 = _make_workspace(store_backend="disk", store_dir=store_dir)
        c1 = ws1.create_standard_cluster(engine_fuse_operators=True)
        _seed(c1)
        expected = c1.connect("alice").sql(_AVG_QUERY).collect()
        assert expected == [("APAC", 40.0), ("EU", 20.0), ("US", 20.0)]
        store = c1.backend.artifact_store
        planted = 0
        for key in store.store.keys():
            if not key.startswith("kernel/"):
                continue
            fingerprint = key.split("/", 1)[1]
            payload = store.get_kernel_payload(fingerprint)
            if "_groups" in payload["source"]:
                payload["source"] = _OLD_GENERATOR_PIPELINE
                store.put_kernel_payload(fingerprint, payload)
                planted += 1
        assert planted == 1
        ws1.shutdown()
        monkeypatch.undo()

        ws2 = _make_workspace(store_backend="disk", store_dir=store_dir)
        c2 = ws2.create_standard_cluster(engine_fuse_operators=True)
        _seed(c2)
        stats = c2.backend.kernel_cache.stats
        hits_before = stats.persistent_hits
        assert c2.connect("alice").sql(_AVG_QUERY).collect() == expected
        assert stats.persistent_hits == hits_before  # missed, recompiled
        assert stats.compile_errors == 0
        assert stats.fusion_hits > 0
        ws2.shutdown()
