"""One contract over the ``system.access.*`` registry.

Every table is a declared entry (``repro.catalog.system_tables.TABLES``);
these tests are parametrised over the registry, so a new table is held to
the same gate, schema and admission rules the moment it is declared:

- admin tables refuse non-admins *and* admins down-scoped to a group;
- user-scoped tables hand non-admins only their own rows;
- the resolved relation carries exactly the declared schema;
- reads bypass the secure-plan cache and ride the system lane.

Plus the stats-provider lifecycle: a cluster's scopes leave every
``*_stats`` table when it shuts down.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.catalog.system_tables import ADMIN, TABLES, USER_SCOPED
from repro.errors import PermissionDenied

ADMIN_TABLES = [t for t in TABLES if t.visibility == ADMIN]
USER_SCOPED_TABLES = [t for t in TABLES if t.visibility == USER_SCOPED]


def _by_name(table):
    return table.name


@pytest.fixture
def down_scoped_admin(workspace, admin_client):
    """``admin`` attached to a group-assigned dedicated cluster: the
    context is down-scoped to the group, so the admin bypass is off."""
    workspace.add_group("ops", ["admin"])
    cluster = workspace.create_dedicated_cluster(assigned_group="ops")
    return cluster.connect("admin")


def test_catalog_registry_holds_exactly_the_declared_tables(workspace):
    assert list(workspace.catalog.system_tables) == list(TABLES)
    assert {t.visibility for t in TABLES} <= {ADMIN, USER_SCOPED}
    assert ADMIN_TABLES and USER_SCOPED_TABLES


@pytest.mark.parametrize("table", ADMIN_TABLES, ids=_by_name)
def test_admin_table_refuses_non_admin_and_down_scoped_admin(
    table, admin_client, alice_client, down_scoped_admin
):
    admin_client.table(table.name).collect()  # the undiminished admin may
    with pytest.raises(PermissionDenied):
        alice_client.table(table.name).collect()
    with pytest.raises(PermissionDenied):
        down_scoped_admin.table(table.name).collect()


@pytest.mark.parametrize("table", USER_SCOPED_TABLES, ids=_by_name)
def test_user_scoped_table_returns_only_the_callers_rows(
    table, standard_cluster, admin_client, alice_client, down_scoped_admin
):
    carol = standard_cluster.connect("carol")
    alice_client.table("main.sales.orders").collect()
    carol.table("main.sales.orders").collect()

    def users_seen(client) -> set[str]:
        return set(client.table(table.name).to_dict()["user"])

    assert users_seen(alice_client) == {"alice"}
    assert users_seen(carol) == {"carol"}
    assert users_seen(admin_client) >= {"admin", "alice", "carol"}
    # Down-scoping removes the see-everything bypass too.
    assert users_seen(down_scoped_admin) == {"admin"}


def test_query_profile_reads_only_the_viewers_ring_while_others_run(
    workspace, standard_cluster, admin_client, alice_client
):
    """Two other sessions keep emitting spans — carol on the shared cluster,
    alice's eFGAC sub-plans under the serverless gateway — while alice
    reads her profile: she sees her own spans (the gateway's child-trace
    spans included) and nobody else's, and no read ever trips over a
    concurrent ``finish_span``."""
    import json
    import threading

    admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
    carol = standard_cluster.connect("carol")
    dedicated = workspace.create_dedicated_cluster(assigned_user="alice").connect("alice")
    stop, errors = threading.Event(), []

    def keep_querying(client):
        try:
            while not stop.is_set():
                assert len(client.table("main.sales.orders").collect()) == 2
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=keep_querying, args=(client,))
        for client in (carol, dedicated)
    ]
    for thread in threads:
        thread.start()
    try:
        for _ in range(20):
            rows = alice_client.sql(
                "SELECT * FROM system.access.query_profile"
            ).to_dict()
            assert set(rows["user"]) <= {"alice"}
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors, errors
    rows = alice_client.table("system.access.query_profile").to_dict()
    assert set(rows["user"]) == {"alice"}
    clusters = {json.loads(a).get("cluster", "") for a in rows["attributes"]}
    assert any(c.startswith("serverless") for c in clusters), clusters
    assert dedicated.last_trace_id in rows["trace_id"]
    assert carol.last_trace_id not in rows["trace_id"]
    assert carol.last_trace_id in admin_client.table(
        "system.access.query_profile"
    ).to_dict()["trace_id"]


@pytest.mark.parametrize("table", TABLES, ids=_by_name)
def test_relation_schema_is_the_declared_schema(table, admin_client):
    frame = admin_client.table(table.name)
    # The analyzer qualifies each column with the table's short name.
    short = table.name.rpartition(".")[2]
    assert frame.schema() == [
        {"name": f"{short}.{field.name}", "type": field.dtype.name}
        for field in table.schema
    ]
    assert list(frame.to_dict()) == table.schema.names


@pytest.mark.parametrize("table", TABLES, ids=_by_name)
def test_read_bypasses_plan_cache_and_rides_the_system_lane(
    table, standard_cluster, admin_client
):
    cache = standard_cluster.backend.plan_cache
    manager = standard_cluster.workload_manager
    insertions, lookups = cache.stats.insertions, cache.stats.hits + cache.stats.misses
    bypassed, admitted = manager.system_bypass, manager.admitted_total
    admin_client.table(table.name).collect()
    admin_client.sql(f"SELECT * FROM {table.name}").collect()
    assert cache.stats.insertions == insertions
    assert cache.stats.hits + cache.stats.misses == lookups
    assert manager.system_bypass == bypassed + 2
    assert manager.admitted_total == admitted


def test_ordinary_table_under_a_system_catalog_is_not_a_system_table(
    workspace, standard_cluster, admin_client, alice_client
):
    """Classification asks the registry, not the name's prefix: a table an
    admin created as ``system.tenant.t`` is admitted and plan-cached like
    any other, while ``system.access.audit`` keeps the system lane."""
    workspace.catalog.create_catalog("system", owner="admin")
    workspace.catalog.create_schema("system.tenant", owner="admin")
    admin_client.sql("CREATE TABLE system.tenant.t (id int)")
    admin_client.sql("INSERT INTO system.tenant.t VALUES (1), (2)")
    for grant in (
        "GRANT USE CATALOG ON system TO analysts",
        "GRANT USE SCHEMA ON system.tenant TO analysts",
        "GRANT SELECT ON system.tenant.t TO analysts",
    ):
        admin_client.sql(grant)
    cache = standard_cluster.backend.plan_cache
    manager = standard_cluster.workload_manager
    hits, bypassed, admitted = cache.stats.hits, manager.system_bypass, manager.admitted_total
    for _ in range(2):
        assert sorted(alice_client.sql("SELECT id FROM system.tenant.t").collect()) == [
            (1,), (2,)
        ]
    assert cache.stats.hits == hits + 1
    assert (manager.system_bypass, manager.admitted_total) == (bypassed, admitted + 2)
    admin_client.table("system.access.audit").collect()
    assert manager.system_bypass == bypassed + 1


# ---------------------------------------------------------------------------
# Stats-provider lifecycle
# ---------------------------------------------------------------------------


def _scopes(catalog) -> set[str]:
    """Every scope currently reported by any of the six stats tables."""
    snapshots = (
        catalog.cache_stats(),
        catalog.workload_stats(),
        catalog.fault_stats(),
        catalog.store_stats(),
        catalog.attack_stats(),
        catalog.txn_stats(),
    )
    return {scope for snapshot in snapshots for scope in snapshot}


class TestShutdownUnregistersStatsProviders:
    def test_dead_cluster_leaves_every_stats_table(self, workspace):
        survivor = workspace.create_standard_cluster(name="survivor")
        doomed = workspace.create_standard_cluster(name="doomed")
        catalog = workspace.catalog
        families = {
            "workload", "sandbox_pool", "kernel_cache", "plan_cache",
            "credential_cache", "recovery",
        }
        for name in ("survivor", "doomed"):
            assert {f"{family}[{name}]" for family in families} <= _scopes(catalog)

        doomed.shutdown()
        remaining = _scopes(catalog)
        assert not {s for s in remaining if s.endswith("[doomed]")}
        assert {f"{family}[survivor]" for family in families} <= remaining
        assert "faults[catalog]" in remaining

        doomed.shutdown()  # idempotent
        assert _scopes(catalog) == remaining
        survivor.shutdown()

    def test_catalog_no_longer_pins_a_dead_clusters_caches(self, workspace):
        cluster = workspace.create_standard_cluster(name="doomed")
        pinned = [
            weakref.ref(cluster.backend),
            weakref.ref(cluster.backend.kernel_cache),
            weakref.ref(cluster.backend.plan_cache),
        ]
        cluster.shutdown()
        del workspace.clusters["doomed"], cluster
        gc.collect()
        assert [ref() for ref in pinned] == [None, None, None]

    def test_shutdown_spares_a_successor_that_reused_the_name(self, workspace):
        first = workspace.create_standard_cluster(name="reused")
        second = workspace.create_standard_cluster(name="reused")
        first.shutdown()
        assert "plan_cache[reused]" in workspace.catalog.cache_stats()
        second.shutdown()
        assert "plan_cache[reused]" not in workspace.catalog.cache_stats()

    def test_serverless_scale_down_fully_retires_the_backend(self, workspace):
        gateway = workspace.serverless
        client = workspace.connect_serverless("alice")
        assert "plan_cache[serverless-0]" in workspace.catalog.cache_stats()
        backend = gateway._clusters[0].backend
        backend.data_source._task_pool()  # a scan ran: the pool exists
        client.close()
        assert gateway.scale_down_idle() == 1
        assert not {s for s in _scopes(workspace.catalog) if "serverless-0" in s}
        assert backend.data_source._pool_cell[0] is None
