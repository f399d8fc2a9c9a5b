"""``system.access.query_profile``: user-scoped span introspection.

Unlike ``system.access.audit`` (admins only), every user may read their own
query profiles — but never another principal's. Admins see everything.
"""

from __future__ import annotations

import pytest

from repro.errors import PermissionDenied

PROFILE = "system.access.query_profile"


@pytest.fixture
def traced(workspace, standard_cluster, admin_client):
    """Alice has run one governed query; her trace is on record."""
    alice = standard_cluster.connect("alice")
    alice.table("main.sales.orders").collect()
    return alice


class TestQueryProfileAccess:
    def test_user_sees_own_profile_rows(self, traced, standard_cluster):
        first_trace = traced.last_trace_id
        rows = traced.table(PROFILE).to_dict()
        assert set(rows["user"]) == {"alice"}
        assert first_trace in rows["trace_id"], "alice must see her own spans"

    def test_profile_rows_cover_the_whole_pipeline(
        self, traced, standard_cluster
    ):
        rows = traced.table(PROFILE).to_dict()
        assert {"service.operation", "pipeline.stage", "credential.vend"} <= set(
            rows["kind"]
        )

    def test_non_admin_cannot_see_other_users_profiles(
        self, traced, standard_cluster
    ):
        bob = standard_cluster.connect("bob")
        rows = bob.table(PROFILE).to_dict()
        assert "alice" not in set(rows["user"])

    def test_admin_sees_all_users_profiles(
        self, traced, standard_cluster, admin_client
    ):
        rows = admin_client.table(PROFILE).to_dict()
        assert "alice" in set(rows["user"])

    def test_profiles_are_readable_but_audit_stays_admin_only(
        self, traced, standard_cluster
    ):
        with pytest.raises(PermissionDenied):
            traced.table("system.access.audit").collect()

    def test_durations_and_attributes_are_materialized(
        self, traced, standard_cluster
    ):
        import json

        rows = traced.table(PROFILE).to_dict()
        assert all(d >= 0.0 for d in rows["duration_ms"])
        stage_attrs = [
            json.loads(a)
            for a, k in zip(rows["attributes"], rows["kind"])
            if k == "pipeline.stage"
        ]
        assert any("stage" in a for a in stage_attrs)


class TestPipelineSinkAttribute:
    #: One governed query per loop kind, each through a fused pipeline.
    QUERIES = {
        "aggregate": "SELECT region, count(*) AS n FROM main.sales.orders "
        "WHERE amount > 5.0 GROUP BY region",
        "collect": "SELECT id, amount * 2.0 AS d FROM main.sales.orders WHERE amount > 5.0",
        "topk": "SELECT id, amount FROM main.sales.orders WHERE amount > 5.0 "
        "ORDER BY amount DESC LIMIT 2",
        "limit": "SELECT id FROM main.sales.orders WHERE amount > 5.0 LIMIT 3",
        "join_probe": "SELECT a.id, b.buyer FROM main.sales.orders a "
        "JOIN main.sales.orders b ON a.id = b.id WHERE a.amount > 5.0",
    }

    def test_kernel_pipeline_spans_name_their_sink_and_no_value(
        self, workspace, admin_client
    ):
        """``query_profile`` shows which loop ran: each ``kernel:pipeline``
        span carries its ``sink`` beside the kernel fingerprint (and the
        cluster every span names), and never a LIMIT, a row count or a
        value."""
        import json

        cluster = workspace.create_standard_cluster(name="sinks")
        alice = cluster.connect("alice")
        for sink, query in self.QUERIES.items():
            alice.sql(query).collect()
            ran = alice.last_trace_id
            rows = alice.table(PROFILE).to_dict()
            attributes = [
                json.loads(attrs)
                for attrs, name, trace in zip(
                    rows["attributes"], rows["name"], rows["trace_id"]
                )
                if name == "kernel:pipeline" and trace == ran
            ]
            assert sink in {a["sink"] for a in attributes}, sink
            assert all(
                set(a) == {"cluster", "fingerprint", "sink"} for a in attributes
            ), attributes
