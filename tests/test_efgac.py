"""Tests for external FGAC (§3.4): rewriting, pushdown, result modes."""

import pytest

from repro.common.faults import FaultSpec
from repro.connect.client import col, udf
from repro.engine.logical import RemoteScan
from repro.errors import LakeguardError, PermissionDenied


@pytest.fixture
def governed_workspace(workspace, standard_cluster, admin_client):
    admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
    return workspace


@pytest.fixture
def dedicated(governed_workspace):
    return governed_workspace.create_dedicated_cluster(
        assigned_user="alice", name="alice-ded"
    )


def remote_scans(plan):
    return [n for n in plan.walk() if isinstance(n, RemoteScan)]


class TestRouting:
    def test_governed_table_becomes_remote_scan(self, dedicated):
        alice = dedicated.connect("alice")
        alice.table("main.sales.orders").collect()
        plan = dedicated.backend.last_result.optimized_plan
        assert remote_scans(plan), "policy table must be processed remotely"

    def test_ungoverned_table_scans_locally(self, workspace, standard_cluster, admin_client):
        ded = workspace.create_dedicated_cluster(assigned_user="alice", name="d2")
        alice = ded.connect("alice")
        alice.table("main.sales.orders").collect()  # no policies on it here
        plan = ded.backend.last_result.optimized_plan
        assert not remote_scans(plan)

    def test_direct_credential_refused_on_dedicated(self, dedicated, governed_workspace):
        cat = governed_workspace.catalog
        ctx = cat.principals.context_for("alice")
        with pytest.raises(PermissionDenied):
            cat.vend_credential(ctx, "main.sales.orders", {"READ"}, dedicated.backend.caps)

    def test_view_always_remote_on_dedicated(self, workspace, standard_cluster, admin_client):
        admin_client.sql(
            "CREATE VIEW main.sales.v AS SELECT id FROM main.sales.orders"
        )
        admin_client.sql("GRANT SELECT ON main.sales.v TO analysts")
        ded = workspace.create_dedicated_cluster(assigned_user="alice", name="d3")
        alice = ded.connect("alice")
        rows = alice.table("main.sales.v").collect()
        assert len(rows) == 4
        assert remote_scans(ded.backend.last_result.optimized_plan)


class TestEquivalence:
    """Invariant 6: dedicated (remote) results == standard (local) results."""

    QUERIES = [
        "SELECT id, amount FROM main.sales.orders",
        "SELECT id FROM main.sales.orders WHERE amount > 15",
        "SELECT region, sum(amount) AS t, count(*) AS n FROM main.sales.orders GROUP BY region",
        "SELECT count(DISTINCT region) AS r FROM main.sales.orders",
        "SELECT upper(region) AS u FROM main.sales.orders WHERE id < 4",
        "SELECT id FROM main.sales.orders ORDER BY id LIMIT 2",
        "SELECT avg(amount) AS m FROM main.sales.orders",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_same_results(self, standard_cluster, dedicated, query):
        std = sorted(standard_cluster.connect("alice").sql(query).collect())
        ded = sorted(dedicated.connect("alice").sql(query).collect())
        assert std == ded


class TestPushdown:
    def test_filter_pushed(self, dedicated):
        alice = dedicated.connect("alice")
        alice.sql("SELECT id FROM main.sales.orders WHERE amount > 15").collect()
        scan = remote_scans(dedicated.backend.last_result.optimized_plan)[0]
        assert scan.pushed.get("filters", 0) >= 1

    def test_projection_pushed(self, dedicated):
        alice = dedicated.connect("alice")
        alice.sql("SELECT id FROM main.sales.orders").collect()
        scan = remote_scans(dedicated.backend.last_result.optimized_plan)[0]
        assert scan.pushed.get("projections", 0) >= 1

    def test_partial_aggregate_pushed(self, dedicated):
        alice = dedicated.connect("alice")
        alice.sql(
            "SELECT region, sum(amount) AS t FROM main.sales.orders GROUP BY region"
        ).collect()
        scan = remote_scans(dedicated.backend.last_result.optimized_plan)[0]
        assert scan.pushed.get("partial_aggregates", 0) == 1

    def test_limit_pushed(self, dedicated):
        alice = dedicated.connect("alice")
        alice.sql("SELECT id FROM main.sales.orders LIMIT 1").collect()
        scan = remote_scans(dedicated.backend.last_result.optimized_plan)[0]
        assert scan.pushed.get("limits", 0) == 1

    def test_pushdown_reduces_rows_shipped(self, dedicated):
        alice = dedicated.connect("alice")
        stats = dedicated.backend.remote_executor.stats
        alice.sql("SELECT id FROM main.sales.orders WHERE amount > 25").collect()
        # Only 1 of the 2 policy-visible rows crosses the wire.
        assert stats.rows_received == 1

    def test_udf_never_pushed_to_remote(self, dedicated):
        """User code stays on the origin cluster — the remote endpoint is
        a trusted multi-user service."""

        @udf("float")
        def squared(x):
            return x * x

        alice = dedicated.connect("alice")
        rows = alice.table("main.sales.orders").select(
            squared(col("amount")).alias("sq")
        ).collect()
        assert sorted(rows) == [(100.0,), (900.0,)]
        plan = dedicated.backend.last_result.optimized_plan
        scan = remote_scans(plan)[0]
        # The projection containing the UDF was NOT folded into the payload:
        # the remote payload contains no python_udf node.
        assert b"python_udf" not in repr(scan.payload).encode()

    def test_aggregate_states_cross_as_bytes(self, dedicated, governed_workspace):
        """Partial aggregation ships opaque states, not raw rows."""
        alice = dedicated.connect("alice")
        stats = dedicated.backend.remote_executor.stats
        before = stats.rows_received
        alice.sql(
            "SELECT region, avg(amount) AS m FROM main.sales.orders GROUP BY region"
        ).collect()
        # One group ('US') → one state row shipped instead of two data rows.
        assert stats.rows_received - before == 1


class TestResultModes:
    def _big_table(self, workspace, admin_client, rows=3000):
        cat = workspace.catalog
        from repro.engine.types import INT, STRING, schema_of

        cat.create_table("main.sales.big", schema_of(id=INT, region=STRING), owner="admin")
        ctx = cat.principals.context_for("admin")
        cat.write_table(
            "main.sales.big",
            {"id": list(range(rows)), "region": ["US"] * rows},
            ctx,
        )
        admin_client.sql("GRANT SELECT ON main.sales.big TO analysts")
        admin_client.sql("ALTER TABLE main.sales.big SET ROW FILTER (region = 'US')")

    def test_small_results_inline(self, dedicated):
        alice = dedicated.connect("alice")
        alice.sql("SELECT id FROM main.sales.orders").collect()
        stats = dedicated.backend.remote_executor.stats
        assert stats.inline_results == 1
        assert stats.staged_results == 0

    def test_large_results_staged_through_storage(
        self, governed_workspace, dedicated, standard_cluster, admin_client
    ):
        self._big_table(governed_workspace, admin_client)
        alice = dedicated.connect("alice")
        rows = alice.sql("SELECT id FROM main.sales.big").collect()
        assert len(rows) == 3000
        stats = dedicated.backend.remote_executor.stats
        assert stats.staged_results == 1
        assert stats.bytes_staged > 0

    def test_staging_cleaned_up(self, governed_workspace, dedicated, admin_client):
        self._big_table(governed_workspace, admin_client, rows=2000)
        alice = dedicated.connect("alice")
        alice.sql("SELECT id FROM main.sales.big").collect()
        store = governed_workspace.catalog.store
        assert store.object_count("s3://unity-staging") == 0


class TestDownScopedEfgac:
    def test_group_cluster_uses_group_rights_remotely(
        self, governed_workspace, admin_client
    ):
        """Down-scoping survives the eFGAC hop: the remote side enforces
        with the user's own identity (row filters), and the query succeeds
        only because the group has access."""
        ws = governed_workspace
        ded = ws.create_dedicated_cluster(assigned_group="analysts", name="team-ded")
        alice = ded.connect("alice")
        rows = alice.table("main.sales.orders").collect()
        assert len(rows) == 2  # row filter still applies remotely


class TestFaultsAfterATemplateHit:
    """A ``storage.get`` fault inside a template hit's remote read — the
    serverless scan or a staged part — must not poison the cached entry."""

    def test_the_next_run_hits_and_is_correct(
        self, governed_workspace, dedicated, admin_client
    ):
        TestResultModes()._big_table(governed_workspace, admin_client)
        faults = governed_workspace.catalog.faults
        alice = dedicated.connect("alice")

        def run(floor):
            rows = alice.sql(f"SELECT id FROM main.sales.big WHERE id > {floor}").collect()
            assert sorted(rows) == [(i,) for i in range(floor + 1, 3000)]
            spans = dedicated.backend.telemetry.spans(
                trace_id=alice.last_trace_id, name="stage:parse"
            )
            return spans[0].attributes["plan_cache"]

        run(10)
        assert run(20) == "hit"  # 2979 rows: the result is staged
        faults.arm("storage.get", FaultSpec(probability=0.0))
        run(30)
        gets = faults.call_count("storage.get")
        faults.disarm("storage.get")
        assert gets >= 2
        for k in range(gets):
            faults.arm("storage.get", FaultSpec(kind="raise", one_shot=True, after_calls=k))
            try:
                run(40 + k)
            except LakeguardError:
                pass  # a staged part is read once: its fault fails the query
            faults.disarm("storage.get")
            assert run(100 + k) == "hit", k
