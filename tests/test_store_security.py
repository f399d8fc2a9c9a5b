"""Security invariants of the governed persistence tier.

The store persists warmed state across process and cluster boundaries —
exactly the kind of layer that quietly turns into an exfiltration path.
Three invariants hold by construction and are enforced here:

1. **Credentials never touch a persistent tier.** They are pinned
   ``memory_only``; no ``cred/`` key ever appears in the disk spill
   directory or the shared KV, and no vended token's bytes appear anywhere
   in the spill files.
2. **Result bytes are identity-scoped.** A cached result key embeds a
   digest of (user, effective principals, compute id), so one principal's
   governed rows are unreachable through another principal's key — a
   row-filtered user can never be served the unfiltered user's bytes.
3. **Policy changes cut through the cache.** A revoke denies immediately
   even when the store still physically holds the revoked user's results.
"""

from __future__ import annotations

import pickle

from pathlib import Path

import pytest

from repro.errors import PermissionDenied
from repro.platform import Workspace
from repro.storage.credentials import TemporaryCredential
from repro.store import ArtifactStore, DiskTier, MemoryTier, TieredStore

_SETUP_SQL = (
    "CREATE TABLE main.sales.orders "
    "(id int, region string, amount float, buyer string)",
    "INSERT INTO main.sales.orders VALUES "
    "(1,'US',10.0,'buyer-pii-aaa'),(2,'EU',20.0,'buyer-pii-bbb'),"
    "(3,'US',30.0,'buyer-pii-ccc'),(4,'APAC',40.0,'buyer-pii-ddd')",
    "GRANT USE CATALOG ON main TO analysts",
    "GRANT USE SCHEMA ON main.sales TO analysts",
    "GRANT SELECT ON main.sales.orders TO analysts",
)


def _make_workspace(**kwargs) -> Workspace:
    ws = Workspace(**kwargs)
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("bob")
    ws.add_group("analysts", ["alice", "bob"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.sales", owner="admin")
    for point in ("store.get", "store.put", "store.evict"):
        ws.catalog.faults.disarm(point)
    return ws


def _seed(cluster):
    admin = cluster.connect("admin")
    for sql in _SETUP_SQL:
        admin.sql(sql)
    return admin


def _spill_bytes(spill_dir: str) -> bytes:
    return b"".join(
        path.read_bytes() for path in sorted(Path(spill_dir).glob("*.lgs"))
    )


class TestCredentialPinning:
    def test_no_credential_material_in_the_spill_directory(self, tmp_path):
        spill = str(tmp_path / "spill")
        ws = _make_workspace(
            store_backend="disk", store_dir=spill, result_cache_enabled=True
        )
        cluster = ws.create_standard_cluster()
        _seed(cluster)
        for user in ("alice", "bob"):
            client = cluster.connect(user)
            client.table("main.sales.orders").collect()
            client.sql(
                "SELECT region, amount FROM main.sales.orders WHERE amount > 0"
            ).collect()

        # Queries did vend credentials and the cache did ride the store.
        vendor = ws.catalog.vendor
        assert vendor.issued_count > 0
        assert cluster.backend.artifact_store.stats.cred_puts > 0

        blob = _spill_bytes(spill)
        assert blob, "expected warmed artifacts in the spill directory"
        for credential in vendor.live_credentials():
            assert credential.token.encode() not in blob
            assert pickle.dumps(credential) not in blob
        # And not even the namespace: no cred/ key in any persistent tier.
        memory, disk = cluster.backend.artifact_store.store.tiers
        assert not [k for k in disk.keys() if k.startswith("cred/")]
        # The memory tier *does* hold them — that's the pin, not a leak.
        assert [k for k in memory.keys() if k.startswith("cred/")]
        ws.shutdown()

    def test_put_credential_is_memory_only_at_the_facade(self, tmp_path):
        disk = DiskTier(tmp_path)
        store = TieredStore([MemoryTier(), disk])
        artifacts = ArtifactStore(store)
        credential = TemporaryCredential(
            token="cred-deadbeef0123",
            identity="alice",
            prefixes=("s3://bucket/table/",),
            operations=frozenset({"READ"}),
            issued_at=0.0,
            expires_at=900.0,
        )
        artifacts.put_credential(("alice", "t", frozenset(), None), 3, credential)
        assert disk.keys() == []
        got = artifacts.get_credential(("alice", "t", frozenset(), None), 3)
        assert got == credential
        # A different policy epoch is a different key: hard miss.
        assert artifacts.get_credential(("alice", "t", frozenset(), None), 4) is None


class TestResultIsolation:
    def test_row_filtered_user_never_gets_another_users_bytes(self, tmp_path):
        ws = _make_workspace(
            store_backend="disk",
            store_dir=str(tmp_path / "spill"),
            result_cache_enabled=True,
        )
        cluster = ws.create_standard_cluster()
        admin = _seed(cluster)
        # alice sees everything; bob is filtered to his own region.
        admin.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER "
            "(region = 'US' OR current_user() = 'alice')"
        )
        query = "SELECT id, region, amount FROM main.sales.orders ORDER BY id"
        alice = cluster.connect("alice")
        bob = cluster.connect("bob")
        alice_rows = alice.sql(query).collect()
        assert len(alice_rows) == 4
        cache = cluster.backend.result_cache
        assert cache.stats.stored == 1

        # bob runs the *same text*: different identity digest, hard miss —
        # his result is recomputed under his own row filter.
        bob_rows = bob.sql(query).collect()
        assert cache.stats.hits == 0
        assert cache.stats.stored == 2
        assert len(bob_rows) == 2
        assert {r[1] for r in bob_rows} == {"US"}

        # Replays hit each identity's own entry, still disjoint.
        assert alice.sql(query).collect() == alice_rows
        assert bob.sql(query).collect() == bob_rows
        assert cache.stats.hits == 2
        ws.shutdown()

    def test_revoke_denies_even_with_warm_results_on_disk(self, tmp_path):
        ws = _make_workspace(
            store_backend="disk",
            store_dir=str(tmp_path / "spill"),
            result_cache_enabled=True,
        )
        cluster = ws.create_standard_cluster()
        admin = _seed(cluster)
        alice = cluster.connect("alice")
        query = "SELECT id FROM main.sales.orders"
        alice.sql(query).collect()
        store = cluster.backend.artifact_store.store
        assert [k for k in store.keys() if k.startswith("result/")]

        admin.sql("REVOKE SELECT ON main.sales.orders FROM analysts")
        with pytest.raises(PermissionDenied):
            alice.sql(query).collect()
        # The denial happened at analysis; the result cache never served.
        assert cluster.backend.result_cache.stats.hits == 0
        ws.shutdown()

    def test_masked_results_cache_the_masked_bytes(self, tmp_path):
        ws = _make_workspace(
            store_backend="disk",
            store_dir=str(tmp_path / "spill"),
            result_cache_enabled=True,
        )
        cluster = ws.create_standard_cluster()
        admin = _seed(cluster)
        admin.sql(
            "ALTER TABLE main.sales.orders ALTER COLUMN buyer SET MASK ('***')"
        )
        alice = cluster.connect("alice")
        query = "SELECT id, buyer FROM main.sales.orders ORDER BY id"
        masked = alice.sql(query).collect()
        assert {r[1] for r in masked} == {"***"}
        # What went to disk is the already-masked bytes — raw buyer values
        # exist nowhere in the spill directory.
        blob = _spill_bytes(str(tmp_path / "spill"))
        for suffix in ("aaa", "bbb", "ccc", "ddd"):
            assert f"buyer-pii-{suffix}".encode() not in blob
        assert alice.sql(query).collect() == masked
        assert cluster.backend.result_cache.stats.hits == 1
        ws.shutdown()
