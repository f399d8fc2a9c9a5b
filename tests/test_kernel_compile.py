"""Compiled expression kernels: compiled ≡ interpreted, caching, fallback.

Covers the compilation layer end to end:

- property tests (hypothesis) proving the generated kernels match the
  interpreter exactly — including SQL three-valued logic, NULL-on-zero
  division, LIKE/IN NULL propagation, and fused filter→project;
- governed equivalence: the same FGAC-protected query (row filter +
  column mask + UDF) returns identical rows with ``engine_compile`` on
  and off;
- automatic interpreter fallback when lowering fails, with the failure
  counted in ``system.access.cache_stats``;
- planner fusion rules (fused ``PhysFilterProject`` only when no user
  code is involved);
- kernel-cache reuse across structurally congruent plans, and physical
  plans (kernels attached) riding the secure-plan cache until the policy
  epoch bumps.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.connect.client import col as ccol, udf
from repro.engine.analyzer import DictResolver
from repro.engine.batch import ColumnBatch
from repro.engine.compile import (
    KernelCache,
    KernelCompiler,
    expression_fingerprint,
)
from repro.engine.executor import ExecutionConfig, QueryEngine
from repro.engine.expressions import (
    Alias,
    Arithmetic,
    BooleanOp,
    BoundRef,
    CaseWhen,
    Cast,
    Comparison,
    EvalContext,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    col,
    lit,
)
from repro.engine.logical import Filter, LocalRelation, Project, UnresolvedRelation
from repro.engine.physical import PhysFilter, PhysFilterProject, PhysProject
from repro.engine.types import FLOAT, INT, STRING, Field, Schema
from repro.engine.udf import udf as engine_udf

SCHEMA = Schema((Field("x", INT), Field("y", FLOAT), Field("s", STRING)))

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.integers(-50, 50), st.none()),
        st.one_of(
            st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False), st.none()
        ),
        st.one_of(st.sampled_from(["alpha", "Beta", "g_mm", ""]), st.none()),
    ),
    max_size=40,
)

X = BoundRef(0, "x", INT)
Y = BoundRef(1, "y", FLOAT)
S = BoundRef(2, "s", STRING)

numeric_expr = st.recursive(
    st.one_of(
        st.just(X),
        st.just(Y),
        st.integers(-10, 10).map(Literal),
        # A NULL literal defaults to STRING; Cast retypes it so it can sit
        # inside arithmetic like any analyzed NULL would.
        st.just(Cast(Literal(None), INT)),
    ),
    lambda inner: st.builds(
        Arithmetic, st.sampled_from(["+", "-", "*", "/", "%"]), inner, inner
    ),
    max_leaves=8,
)

bool_expr = st.recursive(
    st.builds(
        Comparison, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        numeric_expr, numeric_expr,
    ),
    lambda inner: st.one_of(
        st.builds(BooleanOp, st.sampled_from(["AND", "OR"]), inner, inner),
        st.builds(Not, inner),
        st.builds(IsNull, inner),
    ),
    max_leaves=8,
)

string_expr = st.one_of(
    st.builds(InList, st.just(S), st.just(("alpha", "g_mm")), st.booleans()),
    st.builds(Like, st.just(S), st.sampled_from(["%a%", "B_ta", "g\\_mm"])),
    st.builds(FunctionCall, st.sampled_from(["upper", "length", "trim"]),
              st.just((S,))),
    st.builds(
        lambda c: FunctionCall("concat", (S, c)),
        st.sampled_from([Literal("!"), Literal(None)]),
    ),
)

any_expr = st.one_of(
    numeric_expr,
    bool_expr,
    string_expr,
    st.builds(
        lambda cond, then, other: CaseWhen([(cond, then)], other),
        bool_expr, numeric_expr, st.one_of(numeric_expr, st.just(None)),
    ),
)


def make_batch(rows) -> ColumnBatch:
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], []]
    return ColumnBatch(SCHEMA, columns)


# ---------------------------------------------------------------------------
# Property: compiled ≡ interpreted
# ---------------------------------------------------------------------------


class TestCompiledEqualsInterpreted:
    @given(rows=rows_strategy, exprs=st.lists(any_expr, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_projection_kernel_matches_interpreter(self, rows, exprs):
        batch = make_batch(rows)
        ctx = EvalContext(user="alice", groups=frozenset({"analysts"}))
        kernel = KernelCompiler().compile_projection(tuple(exprs))
        if kernel is None:
            return  # trivially skipped lists have no kernel to compare
        compiled = kernel.eval_all(batch, ctx)
        interpreted = [e.eval(batch, ctx) for e in exprs]
        assert compiled == interpreted

    @given(rows=rows_strategy, cond=bool_expr)
    @settings(max_examples=100, deadline=None)
    def test_predicate_kernel_matches_interpreter(self, rows, cond):
        batch = make_batch(rows)
        ctx = EvalContext()
        kernel = KernelCompiler().compile_predicate(cond)
        if kernel is None:
            return
        [mask] = kernel.eval_all(batch, ctx)
        assert mask == cond.eval(batch, ctx)

    @given(
        rows=rows_strategy,
        cond=bool_expr,
        exprs=st.lists(any_expr, min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_fused_filter_project_matches_two_step_interpreter(
        self, rows, cond, exprs
    ):
        batch = make_batch(rows)
        ctx = EvalContext()
        kernel = KernelCompiler().compile_filter_projection(cond, tuple(exprs))
        assert kernel is not None, "no opaque nodes: fusion must succeed"
        fused = kernel.eval_all(batch, ctx)
        filtered = batch.filter(cond.eval(batch, ctx))
        expected = [e.eval(filtered, ctx) for e in exprs]
        assert fused == expected

    def test_three_valued_logic_and_division_by_zero(self):
        """Pinned NULL-semantics table: the classic SQL edge cases."""
        batch = make_batch([(None, 0.0, None), (4, 2.0, "alpha"), (0, None, "")])
        ctx = EvalContext()
        cases = [
            BooleanOp("AND", IsNull(X, negated=True), Comparison(">", X, lit(1))),
            BooleanOp("OR", IsNull(X), Comparison("<", Y, lit(0.0))),
            Arithmetic("/", lit(10), X),        # x=0 and x=NULL both -> NULL
            Arithmetic("%", X, Cast(Literal(None), INT)),
            Like(S, "%a%"),                     # NULL input -> NULL
            InList(X, (0, 4), negated=True),
            Not(Comparison("=", Y, lit(2.0))),
        ]
        kernel = KernelCompiler().compile_projection(tuple(cases))
        assert kernel is not None
        assert kernel.eval_all(batch, ctx) == [e.eval(batch, ctx) for e in cases]

    def test_current_user_and_group_membership_come_from_context(self):
        from repro.engine.expressions import CurrentUser, IsAccountGroupMember

        batch = make_batch([(1, 1.0, "alpha"), (2, 2.0, "Beta")])
        expr = CaseWhen(
            [(IsAccountGroupMember("hr"), S)],
            FunctionCall("concat", (CurrentUser(), lit(":redacted"))),
        )
        kernel = KernelCompiler().compile_projection((expr,))
        assert kernel is not None
        hr = EvalContext(user="carol", groups=frozenset({"hr"}))
        outsider = EvalContext(user="bob", groups=frozenset())
        assert kernel.eval_all(batch, hr) == [expr.eval(batch, hr)]
        assert kernel.eval_all(batch, outsider) == [expr.eval(batch, outsider)]
        assert kernel.eval_all(batch, outsider)[0] == [
            "bob:redacted", "bob:redacted"
        ]


# ---------------------------------------------------------------------------
# Engine-level equivalence: compile on vs off
# ---------------------------------------------------------------------------


def _make_engine(rows, enabled: bool) -> QueryEngine:
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], []]
    data = LocalRelation(SCHEMA, columns)
    return QueryEngine(
        DictResolver({"t": data}),
        config=ExecutionConfig(compile_enabled=enabled),
    )


class TestEngineEquivalence:
    @given(rows=rows_strategy, threshold=st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_query_results_identical_with_and_without_compilation(
        self, rows, threshold
    ):
        plan = Project(
            Filter(
                UnresolvedRelation("t"),
                BooleanOp(
                    "AND",
                    Comparison(">", col("x"), lit(threshold)),
                    Not(IsNull(col("y"))),
                ),
            ),
            (
                Alias(Arithmetic("*", col("x"), lit(2)), "dx"),
                Alias(FunctionCall("upper", (col("s"),)), "us"),
            ),
        )
        compiled = _make_engine(rows, True).execute(plan).rows()
        interpreted = _make_engine(rows, False).execute(plan).rows()
        assert compiled == interpreted

    def test_sort_join_aggregate_paths_match(self):
        rows = [(i % 3, float(i), f"s{i % 2}") for i in range(20)]
        from repro.engine.aggregates import AggregateCall
        from repro.engine.logical import Aggregate, Join, Sort
        from repro.engine.expressions import SortOrder

        base = UnresolvedRelation("t")
        grouping = Alias(Arithmetic("%", col("x"), lit(2)), "g")
        plan = Sort(
            Aggregate(
                Filter(base, Comparison(">=", col("y"), lit(2.0))),
                groupings=(grouping,),
                aggregates=(grouping, AggregateCall("sum", col("y"))),
            ),
            (SortOrder(col("g")),),
        )
        assert (
            _make_engine(rows, True).execute(plan).rows()
            == _make_engine(rows, False).execute(plan).rows()
        )
        join = Join(
            Filter(base, Comparison("<", col("x"), lit(2))),
            Project(base, (Alias(col("x"), "x2"), Alias(col("s"), "s2"))),
            how="inner",
            condition=Comparison("=", col("x"), col("x2")),
        )
        lhs = sorted(_make_engine(rows, True).execute(join).rows())
        rhs = sorted(_make_engine(rows, False).execute(join).rows())
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Planner wiring and fusion
# ---------------------------------------------------------------------------


class TestPlannerWiring:
    def _analyzed(self, plan):
        engine = _make_engine([(1, 1.0, "a")], True)
        return engine, engine.analyze(plan)

    def test_filter_project_fuses_into_single_operator(self):
        plan = Project(
            Filter(UnresolvedRelation("t"), Comparison(">", col("x"), lit(0))),
            (Alias(Arithmetic("+", col("x"), lit(1)), "x1"),),
        )
        engine, analyzed = self._analyzed(plan)
        operator = engine.plan_physical(analyzed)
        assert isinstance(operator, PhysFilterProject)

    def test_udf_in_projection_prevents_fusion(self):
        @engine_udf("int")
        def bump(v):
            return v + 1

        plan = Project(
            Filter(UnresolvedRelation("t"), Comparison(">", col("x"), lit(0))),
            (Alias(bump(col("x")), "x1"),),
        )
        engine, analyzed = self._analyzed(plan)
        operator = engine.plan_physical(analyzed)
        # Unfused: the UDF must only ever see post-filter rows.
        assert isinstance(operator, PhysProject)
        assert isinstance(operator.children[0], PhysFilter)

    def test_compile_disabled_plans_plain_operators(self):
        plan = Project(
            Filter(UnresolvedRelation("t"), Comparison(">", col("x"), lit(0))),
            (Alias(Arithmetic("+", col("x"), lit(1)), "x1"),),
        )
        engine = _make_engine([(1, 1.0, "a")], False)
        assert engine.kernel_compiler is None
        operator = engine.plan_physical(engine.analyze(plan))
        assert isinstance(operator, PhysProject)
        assert operator._kernel is None
        assert operator.children[0]._kernel is None


# ---------------------------------------------------------------------------
# Fallback and cache behaviour
# ---------------------------------------------------------------------------


class TestFallbackAndCache:
    def test_compile_failure_falls_back_and_is_counted(self, monkeypatch):
        import repro.engine.compile as compile_mod

        def boom(*args, **kwargs):
            raise RuntimeError("codegen exploded")

        monkeypatch.setattr(compile_mod, "_generate_projection", boom)
        compiler = KernelCompiler()
        kernel = compiler.compile_projection(
            (Arithmetic("+", BoundRef(0, "x", INT), Literal(1)),)
        )
        assert kernel is None
        assert compiler.cache.stats.compile_errors == 1

    def test_query_still_runs_when_compiler_always_fails(self, monkeypatch):
        import repro.engine.compile as compile_mod

        def boom(*args, **kwargs):
            raise RuntimeError("codegen exploded")

        monkeypatch.setattr(compile_mod, "_generate_projection", boom)
        monkeypatch.setattr(compile_mod, "_generate_filter_projection", boom)
        rows = [(1, 1.0, "a"), (2, 2.0, "b")]
        plan = Project(
            Filter(UnresolvedRelation("t"), Comparison(">", col("x"), lit(1))),
            (Alias(Arithmetic("*", col("x"), lit(10)), "v"),),
        )
        result = _make_engine(rows, True).execute(plan)
        assert result.rows() == [(20,)]

    def test_trivial_projection_is_not_compiled(self):
        compiler = KernelCompiler()
        assert compiler.compile_projection((BoundRef(0, "x", INT),)) is None
        assert compiler.compile_projection((Alias(Literal(7), "c"),)) is None

    def test_congruent_plans_share_one_artifact(self):
        compiler = KernelCompiler()
        first = compiler.compile_projection(
            (Arithmetic("+", BoundRef(0, "x", INT), Literal(3)),)
        )
        second = compiler.compile_projection(
            (Arithmetic("+", BoundRef(0, "x", INT), Literal(3)),)
        )
        assert first.artifact is second.artifact
        assert compiler.cache.stats.hits == 1
        assert compiler.cache.stats.insertions == 1

    def test_constant_folding_reaches_the_fingerprint(self):
        folded = expression_fingerprint(
            (Arithmetic("+", Literal(2), Literal(3)),)
        )
        direct = expression_fingerprint((Literal(5),))
        compiler = KernelCompiler()
        compiler.compile_projection(
            (Arithmetic("*", BoundRef(0, "x", INT),
                        Arithmetic("+", Literal(2), Literal(3))),)
        )
        compiler.compile_projection(
            (Arithmetic("*", BoundRef(0, "x", INT), Literal(5)),)
        )
        assert folded != direct  # folding happens in the compiler, not here
        assert compiler.cache.stats.hits == 1  # ...so both forms share a key

    def test_kernel_cache_is_lru_bounded(self):
        cache = KernelCache(capacity=2)
        compiler = KernelCompiler(cache=cache)
        # Distinct column positions: literal values alone no longer make a
        # distinct kernel (they bind through the env).
        for k in range(4):
            compiler.compile_projection(
                (Arithmetic("+", BoundRef(k, f"x{k}", INT), Literal(1)),)
            )
        assert len(cache) == 2
        assert cache.stats.evictions == 2


# ---------------------------------------------------------------------------
# Governed end-to-end: FGAC + UDFs, compile on vs off
# ---------------------------------------------------------------------------


@pytest.fixture
def governed_pair(workspace):
    """Two clusters over one catalog: engine_compile on and off."""
    compiled = workspace.create_standard_cluster(name="compiled")
    interpreted = workspace.create_standard_cluster(
        name="interpreted", engine_compile=False
    )
    admin = compiled.connect("admin")
    admin.sql(
        "CREATE TABLE main.sales.orders "
        "(id int, region string, amount float, buyer string)"
    )
    admin.sql(
        "INSERT INTO main.sales.orders VALUES "
        "(1,'US',10.0,'p1'),(2,'EU',20.0,'p2'),"
        "(3,'US',30.0,'p3'),(4,'APAC',40.0,'p4')"
    )
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
    admin.sql("GRANT SELECT ON main.sales.orders TO analysts")
    admin.sql(
        "ALTER TABLE main.sales.orders SET ROW FILTER "
        "(region = 'US' OR is_account_group_member('hr'))"
    )
    admin.sql(
        "ALTER TABLE main.sales.orders ALTER COLUMN buyer SET MASK "
        "(CASE WHEN is_account_group_member('hr') THEN buyer ELSE '***' END)"
    )
    return compiled, interpreted


class TestGovernedEquivalence:
    QUERY = (
        "SELECT id, upper(region) AS r, amount * 2 AS a2, buyer "
        "FROM main.sales.orders WHERE amount > 5.0 ORDER BY id"
    )

    def test_fgac_results_identical_compiled_vs_interpreted(self, governed_pair):
        compiled, interpreted = governed_pair
        for user in ("alice", "carol"):
            rows_c = compiled.connect(user).sql(self.QUERY).collect()
            rows_i = interpreted.connect(user).sql(self.QUERY).collect()
            assert rows_c == rows_i
        # And the policies actually bit: alice sees masked US rows only.
        rows = compiled.connect("alice").sql(self.QUERY).collect()
        assert rows == [(1, "US", 20.0, "***"), (3, "US", 60.0, "***")]

    def test_udf_over_masked_column_identical(self, governed_pair):
        compiled, interpreted = governed_pair

        @udf("string")
        def tag(buyer):
            return f"<{buyer}>"

        results = []
        for cluster in governed_pair:
            client = cluster.connect("alice")
            rows = (
                client.table("main.sales.orders")
                .select(ccol("id"), tag(ccol("buyer")))
                .collect()
            )
            results.append(sorted(rows))
        assert results[0] == results[1]
        assert all(r[1] == "<***>" for r in results[0])  # UDF saw masked data

    def test_kernel_cache_stats_surface_in_system_table(self, governed_pair):
        compiled, interpreted = governed_pair
        admin = compiled.connect("admin")
        compiled.connect("alice").sql(self.QUERY).collect()
        rows = admin.sql(
            "SELECT cache, metric, value FROM system.access.cache_stats"
        ).collect()
        caches = {r[0] for r in rows}
        assert "kernel_cache[compiled]" in caches
        assert "kernel_cache[interpreted]" not in caches  # knob off => no cache
        stats = compiled.backend.kernel_cache.stats_snapshot()
        assert stats["insertions"] > 0
        assert interpreted.backend.kernel_cache is None

    def test_repeat_query_hits_kernel_and_physical_plan_cache(
        self, governed_pair, workspace
    ):
        compiled, _ = governed_pair
        alice = compiled.connect("alice")
        alice.sql(self.QUERY).collect()
        first_rows = alice.sql(self.QUERY).collect()
        telemetry = workspace.catalog.telemetry
        trace = alice.last_trace_id
        encode = [
            s
            for s in telemetry.spans(trace_id=trace, kind="pipeline.stage")
            if s.name == "stage:encode-plan"
        ]
        assert encode and encode[0].attributes.get("physical_cache") == "hit"
        # A policy change bumps the epoch: the ridden physical plan (and its
        # kernels) must not survive it.
        compiled.connect("admin").sql(
            "ALTER TABLE main.sales.orders SET ROW FILTER (region = 'EU')"
        )
        rows = alice.sql(self.QUERY).collect()
        assert rows == [(2, "EU", 40.0, "***")]
        assert rows != first_rows
        encode = [
            s
            for s in telemetry.spans(
                trace_id=alice.last_trace_id, kind="pipeline.stage"
            )
            if s.name == "stage:encode-plan"
        ]
        assert encode[0].attributes.get("physical_cache") != "hit"

    def test_compile_spans_and_kernel_spans_join_the_trace(
        self, governed_pair, workspace
    ):
        compiled, _ = governed_pair
        alice = compiled.connect("alice")
        alice.sql("SELECT id, amount + 1.0 AS a FROM main.sales.orders").collect()
        telemetry = workspace.catalog.telemetry
        trace = alice.last_trace_id
        compile_spans = telemetry.spans(trace_id=trace, kind="engine.compile")
        kernel_spans = telemetry.spans(trace_id=trace, kind="engine.kernel")
        assert compile_spans, "first compilation must be traced"
        assert kernel_spans, "kernel execution must be traced"
        assert all(s.name == "kernel-compile" for s in compile_spans)
        assert {s.name for s in kernel_spans} <= {
            "kernel:filter", "kernel:project", "kernel:filter-project",
            "kernel:pipeline",
        }
