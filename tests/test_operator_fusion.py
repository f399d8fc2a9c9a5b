"""Whole-operator fusion: fused pipelines ≡ unfused interpretation.

Pins the tentpole contract of operator codegen — that fusing a
scan→filter→project→aggregate chain (plus sort-key and join-key sinks)
into one generated loop never changes a single byte of output:

- property tests (hypothesis) proving ``CompiledPipeline.accumulate``
  matches :func:`interpret_pipeline` group-for-group and state-for-state,
  over NULL-riddled rows, division by zero, composed filters, multi-key
  groupings, every inlinable aggregate, and empty batches;
- engine-level properties: the same logical plan returns identical rows
  with ``fuse_operators`` on, off, and with compilation disabled entirely;
- governed end-to-end equivalence: FGAC queries (row filters, column
  masks, sandboxed UDFs splitting the chain) return identical rows on
  fused and unfused clusters — on both ``worker_backend="thread"`` and
  ``"process"``;
- partial-state exchange: :func:`pipeline_partial_columns` round-trips
  through pickle to the exact states the interpreter would ship.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.connect.client import udf as client_udf
from repro.engine.aggregates import AGGREGATE_FUNCTIONS, AggregateCall
from repro.engine.analyzer import DictResolver
from repro.engine.batch import ColumnBatch, chunk_batch
from repro.engine.compile import (
    KernelCompiler,
    PipelineSpec,
    expression_fingerprint,
    interpret_pipeline,
    pipeline_partial_columns,
)
from repro.engine.executor import ExecutionConfig, QueryEngine
from repro.engine.expressions import (
    Alias,
    Arithmetic,
    BooleanOp,
    BoundRef,
    Cast,
    Comparison,
    EvalContext,
    InList,
    IsAccountGroupMember,
    IsNull,
    Literal,
    Not,
    SortOrder,
    col,
    lit,
)
from repro.errors import ExecutionError
from repro.engine.logical import (
    Aggregate,
    Filter,
    Join,
    LocalRelation,
    Project,
    Sort,
    UnresolvedRelation,
)
from repro.engine.types import FLOAT, INT, STRING, Field, Schema
from repro.platform import Workspace

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
        st.just(Cast(Literal(None), INT)),
    ),
    lambda inner: st.builds(
        Arithmetic, st.sampled_from(["+", "-", "*", "/", "%"]), inner, inner
    ),
    max_leaves=6,
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
    max_leaves=6,
)

grouping_expr = st.one_of(
    st.just(S),
    st.builds(lambda: Arithmetic("%", X, Literal(3))),
    numeric_expr,
)

#: ``(func_name, input_expr_or_None)`` — ``None`` models ``COUNT(*)``.
agg_call = st.one_of(
    st.just(("count", None)),
    st.tuples(
        st.sampled_from(
            ["count", "sum", "min", "max", "avg", "count_distinct"]
        ),
        numeric_expr,
    ),
)


def make_batch(rows) -> ColumnBatch:
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], []]
    return ColumnBatch(SCHEMA, columns)


def _make_spec(cond, groupings, aggs) -> PipelineSpec:
    return PipelineSpec(
        condition=cond,
        groupings=tuple(groupings),
        agg_specs=tuple((name, inp is not None) for name, inp in aggs),
        agg_inputs=tuple(
            inp if inp is not None else Literal(True) for _, inp in aggs
        ),
    )


# ---------------------------------------------------------------------------
# Property: generated pipeline loop ≡ interpreter, state for state
# ---------------------------------------------------------------------------


class TestPipelineEqualsInterpreter:
    @given(
        rows=rows_strategy,
        cond=st.one_of(st.none(), bool_expr),
        groupings=st.lists(grouping_expr, max_size=2),
        aggs=st.lists(agg_call, min_size=1, max_size=3),
        chunk=st.integers(1, 17),
    )
    @settings(max_examples=150, deadline=None)
    def test_accumulate_matches_interpreter(
        self, rows, cond, groupings, aggs, chunk
    ):
        spec = _make_spec(cond, groupings, aggs)
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        assert pipeline is not None, "no opaque nodes: lowering must succeed"
        ctx = EvalContext(user="alice", groups=frozenset({"analysts"}))
        compiled: dict[tuple, list] = {}
        interpreted: dict[tuple, list] = {}
        cell = [None, None]  # last-key memo persists across batches
        for batch in chunk_batch(make_batch(rows), chunk):
            pipeline.accumulate(batch, ctx, compiled, cell)
            interpret_pipeline(spec, batch, ctx, interpreted)
        # set (generated loop) vs frozenset (algebra) compare equal, every
        # other state is a scalar or tuple: plain == is exact.
        assert compiled == interpreted
        assert list(compiled) == list(interpreted)  # same insertion order

    @given(
        rows=rows_strategy,
        groupings=st.lists(grouping_expr, max_size=2),
        aggs=st.lists(agg_call, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_partial_columns_round_trip_exact_states(
        self, rows, groupings, aggs
    ):
        spec = _make_spec(None, groupings, aggs)
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        assert pipeline is not None
        ctx = EvalContext()
        groups: dict[tuple, list] = {}
        pipeline.accumulate(make_batch(rows), ctx, groups, [None, None])
        columns = pipeline_partial_columns(spec, groups)
        assert len(columns) == len(groupings) + len(aggs)
        keys = list(groups)
        for i in range(len(groupings)):
            assert columns[i] == [key[i] for key in keys]
        for j in range(len(aggs)):
            shipped = [pickle.loads(blob) for blob in columns[len(groupings) + j]]
            assert shipped == [groups[key][j] for key in keys]

    def test_null_keys_div_by_zero_and_empty_batches(self):
        """Pinned edge table: the cases fusion must never get wrong."""
        spec = _make_spec(
            Comparison("!=", X, lit(99)),
            (S, Arithmetic("%", X, lit(2))),
            [
                ("count", None),
                ("sum", Arithmetic("/", lit(10), X)),   # x=0 -> NULL, skipped
                ("avg", Y),
                ("count_distinct", S),
            ],
        )
        rows = [
            (None, 1.0, None),     # NULL key components
            (0, None, "alpha"),    # division by zero, NULL avg input
            (4, 2.0, "alpha"),
            (4, 3.0, None),
            (-3, -1.0, ""),        # negative modulo
        ]
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        assert pipeline is not None
        ctx = EvalContext()
        compiled: dict[tuple, list] = {}
        interpreted: dict[tuple, list] = {}
        cell = [None, None]
        empty = make_batch([])
        for batch in (empty, make_batch(rows), empty):
            pipeline.accumulate(batch, ctx, compiled, cell)
            interpret_pipeline(spec, batch, ctx, interpreted)
        assert compiled == interpreted
        assert compiled  # the data really produced groups

    def test_finalized_values_match_aggregate_algebra(self):
        spec = _make_spec(
            None, (S,), [("sum", Y), ("avg", Y), ("count_distinct", X)]
        )
        rows = [(1, 2.0, "a"), (1, 4.0, "a"), (2, None, "b"), (None, 1.0, "b")]
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        groups: dict[tuple, list] = {}
        pipeline.accumulate(make_batch(rows), EvalContext(), groups, [None, None])
        funcs = [AGGREGATE_FUNCTIONS[name] for name, _ in spec.agg_specs]
        final = {
            key: tuple(f.final(s) for f, s in zip(funcs, states))
            for key, states in groups.items()
        }
        # NULL x in group "b" is ignored by DISTINCT, like every aggregate.
        assert final == {("a",): (6.0, 3.0, 1), ("b",): (1.0, 1.0, 1)}



# ---------------------------------------------------------------------------
# Policy-shaped predicates: inline short-circuit code ≡ interpreter 3VL
# ---------------------------------------------------------------------------

#: One compiler for every example below: thresholds and IN-lists vary per
#: example, so congruent trees keep rebinding one cached artifact — a wrong
#: env binding would show as a mismatch against the interpreter.
SHARED_COMPILER = KernelCompiler()

in_list_values = st.lists(
    st.sampled_from(["alpha", "Beta", "g_mm", "", "zz"]), min_size=1, max_size=3
).map(tuple)


def _policy_predicate(first, second, negated, op, threshold):
    """``((s IN a AND member(g1)) OR (s [NOT] IN b AND member(g2))) AND y <op> t``
    — the row-filter shape the e2e fixture (and the paper's examples) use,
    conjoined with a user comparison like a fused chain composes it."""
    return BooleanOp(
        "AND",
        BooleanOp(
            "OR",
            BooleanOp("AND", InList(S, first), IsAccountGroupMember("g1")),
            BooleanOp(
                "AND", InList(S, second, negated), IsAccountGroupMember("g2")
            ),
        ),
        Comparison(op, Y, Literal(threshold)),
    )


class TestShortCircuitPredicates:
    @pytest.mark.parametrize(
        "groups", [(), ("g1",), ("g2",), ("g1", "g2")], ids=str
    )
    @given(
        rows=rows_strategy,
        first=in_list_values,
        second=in_list_values,
        negated=st.booleans(),
        op=st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        threshold=st.floats(-50, 50, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_policy_predicate_matches_interpreter_for_every_membership(
        self, groups, rows, first, second, negated, op, threshold
    ):
        predicate = _policy_predicate(first, second, negated, op, threshold)
        batch = make_batch(rows)
        ctx = EvalContext(user="u", groups=frozenset(groups))
        expected_mask = predicate.eval(batch, ctx)

        mask_kernel = SHARED_COMPILER.compile_predicate(predicate)
        assert mask_kernel is not None
        # Exact 3VL: NULL stays NULL, never collapses to False.
        assert mask_kernel.eval_all(batch, ctx)[0] == expected_mask

        fused = SHARED_COMPILER.compile_filter_projection(predicate, (X, S))
        assert fused is not None
        kept = batch.filter(expected_mask)
        assert fused.eval_all(batch, ctx) == [kept.columns[0], kept.columns[2]]

        spec = _make_spec(predicate, (S,), [("count", None), ("sum", Y)])
        pipeline = SHARED_COMPILER.compile_pipeline_spec(spec)
        assert pipeline is not None
        compiled: dict[tuple, list] = {}
        interpreted: dict[tuple, list] = {}
        pipeline.accumulate(batch, ctx, compiled, [None, None])
        interpret_pipeline(spec, batch, ctx, interpreted)
        assert compiled == interpreted

    def test_fast_path_is_inline_and_membership_goes_first(self):
        """The generated fast path really is one short-circuit expression:
        no ``bool()`` calls, and the row-invariant group flag leads each
        conjunction so most rows never reach the IN probe."""
        predicate = _policy_predicate(("alpha",), ("Beta",), False, ">", 1.0)
        kernel = KernelCompiler().compile_filter_projection(predicate, (X,))
        fast_body = kernel.artifact.source.split("else:")[0]
        assert "bool(" not in fast_body
        assert "(_g0 and (" in fast_body and "(_g1 and (" in fast_body

    def test_non_boolean_operands_are_still_normalized(self):
        """AND/OR over a truthy non-bool value yields a real bool, like the
        interpreter's ``bool(a) and bool(b)``."""
        flag = BoundRef(0, "x", INT)  # an int used as a truth value
        predicate = BooleanOp("OR", flag, Comparison(">", Y, lit(0.0)))
        batch = make_batch([(2, -1.0, "a"), (0, -1.0, "a"), (0, 1.0, "a")])
        kernel = KernelCompiler().compile_predicate(predicate)
        out = kernel.eval_all(batch, EvalContext())[0]
        assert out == predicate.eval(batch, EvalContext()) == [True, False, True]
        assert all(type(v) is bool for v in out)


class TestConjunctGating:
    """A fused chain tests its stacked filters one after another, so an
    upper stage's raising expression never runs on a row the policy row
    filter (composed in first) rejected — no hidden value in an error."""

    ROWS = [(1, 1.0, "7"), (2, 2.0, "secret"), (3, 3.0, "9")]
    POLICY = Comparison("!=", X, lit(2))           # hides the 'secret' row
    USER = Comparison(">", Cast(S, INT), lit(8))   # raises on 'secret'

    def test_filter_projection_never_casts_a_rejected_row(self):
        condition = BooleanOp("AND", self.POLICY, self.USER)
        kernel = KernelCompiler().compile_filter_projection(condition, (X,))
        assert kernel.eval_all(make_batch(self.ROWS), EvalContext()) == [[3]]
        # The other order is the user's own problem: the cast runs first.
        flipped = BooleanOp("AND", self.USER, self.POLICY)
        kernel = KernelCompiler().compile_filter_projection(flipped, (X,))
        with pytest.raises(ExecutionError, match="secret"):
            kernel.eval_all(make_batch(self.ROWS), EvalContext())

    def test_pipeline_and_its_interpreter_twin_gate_identically(self):
        spec = _make_spec(
            BooleanOp("AND", self.POLICY, self.USER), (), [("count", None)]
        )
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        compiled: dict[tuple, list] = {}
        interpreted: dict[tuple, list] = {}
        pipeline.accumulate(
            make_batch(self.ROWS), EvalContext(), compiled, [None, None]
        )
        interpret_pipeline(spec, make_batch(self.ROWS), EvalContext(), interpreted)
        assert compiled == interpreted == {(): [1]}


class TestEnvBoundLiterals:
    """Literal values bind through the env: a fresh constant reuses the
    cached artifact, and anything codegen branches on stays structural."""

    def test_fresh_literal_hits_the_cache_and_binds_its_own_value(self):
        compiler = KernelCompiler()
        batch = make_batch([(1, 1.0, "a"), (5, 5.0, "b"), (9, 9.0, "c")])
        for threshold, expected in ((0, [1, 5, 9]), (4, [5, 9]), (8, [9])):
            kernel = compiler.compile_filter_projection(
                Comparison(">", X, lit(threshold)), (X,)
            )
            assert kernel.eval_all(batch, EvalContext()) == [expected]
        assert compiler.cache.stats.insertions == 2  # 0 is structural (x / 0)
        assert compiler.cache.stats.hits == 1

    def test_equality_pattern_of_literals_is_structural(self):
        """CSE merges ``x > 5`` with ``x > 5``; the cached code must not be
        served to a tree that says ``x > 7`` in the second spot."""
        shared = lit(5)
        same = (Comparison(">", X, shared), Comparison(">", X, shared))
        equal = (Comparison(">", X, lit(5)), Comparison(">", X, lit(5)))
        differ = (Comparison(">", X, lit(5)), Comparison(">", X, lit(7)))
        assert expression_fingerprint(same) == expression_fingerprint(equal)
        assert expression_fingerprint(same) != expression_fingerprint(differ)
        compiler = KernelCompiler()
        batch = make_batch([(6, 0.0, "a"), (8, 0.0, "a")])
        for exprs in (same, equal, differ):
            kernel = compiler.compile_projection(exprs)
            assert kernel.eval_all(batch, EvalContext()) == [
                e.eval(batch, EvalContext()) for e in exprs
            ]

    def test_literal_type_null_bool_and_zero_stay_structural(self):
        def fp(value):
            return expression_fingerprint((Arithmetic("/", X, value),))

        assert fp(lit(2)) == fp(lit(3))            # value only: one artifact
        variants = {
            fp(lit(2)), fp(lit(2.0)), fp(lit(0)), fp(Cast(Literal(None), INT))
        }
        assert len(variants) == 4
        true_, false_ = (
            expression_fingerprint((BooleanOp("AND", Literal(b), IsNull(X)),))
            for b in (True, False)
        )
        assert true_ != false_

    @given(
        rows=rows_strategy,
        divisor=st.integers(-3, 3),
        threshold=st.integers(-20, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_rebound_artifact_matches_interpreter(self, rows, divisor, threshold):
        exprs = (
            Arithmetic("/", X, Literal(divisor)),
            Comparison("<", Arithmetic("+", X, Literal(threshold)), Literal(threshold)),
        )
        kernel = SHARED_COMPILER.compile_projection(exprs)
        batch = make_batch(rows)
        assert kernel.eval_all(batch, EvalContext()) == [
            e.eval(batch, EvalContext()) for e in exprs
        ]


# ---------------------------------------------------------------------------
# Engine-level: fused ≡ unfused ≡ interpreted over whole plans
# ---------------------------------------------------------------------------


def _engine(rows, *, compile_enabled=True, fuse=True) -> QueryEngine:
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], []]
    data = LocalRelation(SCHEMA, columns)
    return QueryEngine(
        DictResolver({"t": data}),
        config=ExecutionConfig(
            compile_enabled=compile_enabled, fuse_operators=fuse
        ),
    )


def _three_ways(rows, plan) -> list[list[tuple]]:
    """Rows from the fused, unfused-compiled, and interpreted engines."""
    return [
        _engine(rows, fuse=True).execute(plan).rows(),
        _engine(rows, fuse=False).execute(plan).rows(),
        _engine(rows, compile_enabled=False).execute(plan).rows(),
    ]


class TestEngineFusionEquivalence:
    @given(rows=rows_strategy, threshold=st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_aggregation_chain_identical_three_ways(self, rows, threshold):
        g = Alias(Arithmetic("%", col("x"), lit(3)), "g")
        plan = Aggregate(
            Filter(
                UnresolvedRelation("t"),
                Comparison(">", col("x"), lit(threshold)),
            ),
            groupings=(g,),
            aggregates=(
                g,
                AggregateCall("count", None),
                AggregateCall("sum", col("x")),
                AggregateCall("min", col("y")),
                AggregateCall("avg", col("x")),
            ),
        )
        fused, unfused, interpreted = _three_ways(rows, plan)
        assert fused == unfused == interpreted

    @given(rows=rows_strategy)
    @settings(max_examples=50, deadline=None)
    def test_projected_global_aggregate_identical_three_ways(self, rows):
        plan = Aggregate(
            Project(
                Filter(UnresolvedRelation("t"), Not(IsNull(col("x")))),
                (Alias(Arithmetic("*", col("x"), lit(2)), "dx"),),
            ),
            groupings=(),
            aggregates=(
                AggregateCall("count", None),
                AggregateCall("max", col("dx")),
                AggregateCall("count", col("dx"), distinct=True),
            ),
        )
        fused, unfused, interpreted = _three_ways(rows, plan)
        assert fused == unfused == interpreted

    @given(rows=rows_strategy, threshold=st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_sort_key_sink_identical_three_ways(self, rows, threshold):
        plan = Sort(
            Project(
                Filter(
                    UnresolvedRelation("t"),
                    BooleanOp(
                        "AND",
                        Comparison(">", col("x"), lit(threshold)),
                        Not(IsNull(col("y"))),
                    ),
                ),
                (Alias(col("x"), "x"), Alias(col("s"), "s")),
            ),
            (SortOrder(Arithmetic("*", col("x"), lit(-1))), SortOrder(col("s"))),
        )
        fused, unfused, interpreted = _three_ways(rows, plan)
        assert fused == unfused == interpreted

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_join_key_sink_identical_three_ways(self, rows):
        base = UnresolvedRelation("t")
        plan = Join(
            Filter(base, Comparison("<", col("x"), lit(10))),
            Project(base, (Alias(col("x"), "x2"), Alias(col("y"), "y2"))),
            how="inner",
            condition=Comparison("=", col("x"), col("x2")),
        )
        fused, unfused, interpreted = _three_ways(rows, plan)
        assert fused == unfused == interpreted  # rows AND probe order

    @pytest.mark.parametrize(
        "how", ["inner", "left", "right", "full", "semi", "anti"]
    )
    @pytest.mark.parametrize("keys", [("x",), ("x", "s")])
    @given(rows=rows_strategy)
    @settings(max_examples=25, deadline=None)
    def test_hash_probe_equals_nested_loop_for_every_join_type(
        self, how, keys, rows
    ):
        """Single-key (bare dict keys) and multi-key (tuple keys) probes
        match the nested-loop join pair for pair — NULL keys never match,
        duplicate keys fan out in (left, right) order — fused, unfused and
        interpreted."""
        base = UnresolvedRelation("t")
        left = Filter(base, Comparison("<", col("x"), lit(40)))
        right = Project(
            base,
            (Alias(col("x"), "x2"), Alias(col("s"), "s2"), Alias(col("y"), "y2")),
        )
        equalities = [Comparison("=", col(k), col(k + "2")) for k in keys]
        hashed = equalities[0]
        for eq in equalities[1:]:
            hashed = BooleanOp("AND", hashed, eq)
        # The same 3VL predicate in a shape the planner cannot split into
        # key pairs, which forces the nested-loop path:
        # NOT (a != b OR c != d) is TRUE exactly when every pair is equal
        # and non-NULL.
        differs = [Comparison("!=", col(k), col(k + "2")) for k in keys]
        any_differs = differs[0]
        for d in differs[1:]:
            any_differs = BooleanOp("OR", any_differs, d)
        looped = Not(any_differs)
        expected = (
            _engine(rows, compile_enabled=False)
            .execute(Join(left, right, how=how, condition=looped))
            .rows()
        )
        fused, unfused, interpreted = _three_ways(
            rows, Join(left, right, how=how, condition=hashed)
        )
        assert fused == unfused == interpreted == expected

    def test_udf_splits_the_chain_but_results_match(self):
        from repro.engine.udf import udf as engine_udf

        @engine_udf("int")
        def bump(v):
            return (v or 0) + 1

        rows = [(i % 5, float(i), "s") for i in range(23)]
        g = Alias(col("b"), "b")
        plan = Aggregate(
            Project(
                Filter(UnresolvedRelation("t"), Comparison(">=", col("x"), lit(1))),
                (Alias(bump(col("x")), "b"),),
            ),
            groupings=(g,),
            aggregates=(g, AggregateCall("count", None)),
        )
        fused, unfused, interpreted = _three_ways(rows, plan)
        assert fused == unfused == interpreted

    def test_empty_input_identical_three_ways(self):
        plan = Aggregate(
            Filter(UnresolvedRelation("t"), Comparison(">", col("x"), lit(0))),
            groupings=(),
            aggregates=(
                AggregateCall("count", None),
                AggregateCall("sum", col("y")),
            ),
        )
        fused, unfused, interpreted = _three_ways([], plan)
        assert fused == unfused == interpreted == [(0, None)]


# ---------------------------------------------------------------------------
# Governed end-to-end, on both worker backends
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["thread", "process"])
def fusion_clusters(request):
    """Fused, unfused, and fully interpreted clusters over one governed
    catalog, one trio per worker backend."""
    backend = request.param
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("carol")
    ws.add_group("analysts", ["alice", "carol"])
    ws.add_group("hr", ["carol"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.sales", owner="admin")
    fused = ws.create_standard_cluster(
        name=f"fused-{backend}",
        worker_backend=backend,
        num_executors=2,
        engine_fuse_operators=True,
    )
    unfused = ws.create_standard_cluster(
        name=f"unfused-{backend}",
        worker_backend=backend,
        num_executors=2,
        engine_fuse_operators=False,
    )
    interpreted = ws.create_standard_cluster(
        name=f"interpreted-{backend}",
        worker_backend=backend,
        num_executors=2,
        engine_compile=False,
    )
    admin = fused.connect("admin")
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
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
    admin.sql("GRANT SELECT ON main.sales.orders TO analysts")
    admin.sql("GRANT SELECT ON main.sales.regions TO analysts")
    admin.sql(
        "ALTER TABLE main.sales.orders SET ROW FILTER "
        "(region = 'US' OR is_account_group_member('hr'))"
    )
    admin.sql(
        "ALTER TABLE main.sales.orders ALTER COLUMN buyer SET MASK "
        "(CASE WHEN is_account_group_member('hr') THEN buyer ELSE '***' END)"
    )
    yield fused, unfused, interpreted
    ws.shutdown()


GOVERNED_QUERIES = [
    # grouped aggregation under a row filter (NULL region for carol)
    "SELECT region, count(*) AS n, sum(amount) AS s, min(amount) AS lo, "
    "max(amount) AS hi FROM main.sales.orders GROUP BY region ORDER BY region",
    # global aggregate, empty grouping
    "SELECT count(*) AS n, avg(amount) AS a, count(DISTINCT region) AS r "
    "FROM main.sales.orders",
    # empty result set after the filter
    "SELECT region, count(*) AS n FROM main.sales.orders "
    "WHERE amount > 1000.0 GROUP BY region",
    # division by zero inside the fused chain -> NULL, never an error
    "SELECT id, amount / (id - id) AS z FROM main.sales.orders ORDER BY id",
    # aggregate over the masked column: policy expressions ride the pipeline
    "SELECT count(DISTINCT buyer) AS b FROM main.sales.orders",
    # sort-key sink over a filtered projection
    "SELECT id, amount * -1.0 AS neg FROM main.sales.orders "
    "WHERE amount IS NOT NULL ORDER BY neg, id",
    # join-key sink across two governed tables
    "SELECT o.id, r.zone FROM main.sales.orders o "
    "JOIN main.sales.regions r ON o.region = r.region ORDER BY o.id",
    # bounded top-k over the absorbed row filter: ties, NULL amount, OFFSET
    "SELECT id, amount FROM main.sales.orders WHERE id < 100 "
    "ORDER BY amount DESC LIMIT 2 OFFSET 1",
    # a chain with no sink: row filter + WHERE + mask + projection, one loop;
    # the twin differs only in its literal (same artifact, fresh binding —
    # on the process backend a worker must not reuse the first one's value)
    "SELECT id, amount * 1.1 AS boosted, buyer FROM main.sales.orders "
    "WHERE amount > 15.0",
    "SELECT id, amount * 1.1 AS boosted, buyer FROM main.sales.orders "
    "WHERE amount > 25.0",
    # nothing above the scan to absorb its filter: the scan's own kernel
    "SELECT * FROM main.sales.orders",
    # pushed filter on a pruned-away column: the unfolded scan remaps refs
    "SELECT zone + 1 AS z FROM main.sales.regions WHERE region != 'EU'",
    "SELECT zone FROM main.sales.regions WHERE zone > 1 ORDER BY zone DESC",
]


class TestGovernedFusionEquivalence:
    @pytest.mark.parametrize("query", GOVERNED_QUERIES)
    def test_rows_identical_fused_unfused_interpreted(
        self, fusion_clusters, query
    ):
        fused, unfused, interpreted = fusion_clusters
        for user in ("alice", "carol"):
            results = [
                cluster.connect(user).sql(query).collect()
                for cluster in (fused, unfused, interpreted)
            ]
            assert results[0] == results[1] == results[2]

    def test_policies_bite_identically_when_fused(self, fusion_clusters):
        fused, _, _ = fusion_clusters
        query = (
            "SELECT region, count(*) AS n FROM main.sales.orders "
            "GROUP BY region ORDER BY region"
        )
        alice = fused.connect("alice").sql(query).collect()
        carol = fused.connect("carol").sql(query).collect()
        assert alice == [("US", 2)]          # row filter applied inside the loop
        assert len(carol) == 4               # hr sees every region, NULL first

    def test_absorbed_row_filter_answers_are_the_same_on_both_backends(
        self, fusion_clusters
    ):
        """Pinned answers (the fixture runs per backend, so thread ≡ process
        follows) for the shapes whose row filter now runs inside the fused
        loop or the scan's own kernel."""
        fused, _, _ = fusion_clusters
        alice, carol = fused.connect("alice"), fused.connect("carol")
        top = (
            "SELECT id, amount FROM main.sales.orders WHERE id < 100 "
            "ORDER BY amount DESC LIMIT 2 OFFSET 1"
        )
        assert alice.sql(top).collect() == [(1, 10.5)]
        assert carol.sql(top).collect() == [(4, 40.0), (3, 30.0)]
        chain = "SELECT id, buyer FROM main.sales.orders WHERE amount > {}"
        assert alice.sql(chain.format(15.0)).collect() == [(3, "***")]
        assert alice.sql(chain.format(5.0)).collect() == [(1, "***"), (3, "***")]
        assert carol.sql(chain.format(25.0)).collect() == [
            (3, "alice"), (4, "carol"), (5, "p5")
        ]
        bare = "SELECT id FROM main.sales.orders"
        assert alice.sql(bare).collect() == [(1,), (3,)]
        assert len(carol.sql(bare).collect()) == 6

    def test_udf_split_chain_matches_across_clusters(self, fusion_clusters):
        @client_udf("float")
        def with_tax(amount):
            return amount * 1.19 if amount is not None else -1.0

        query = (
            "SELECT region, sum(with_tax(amount)) AS gross "
            "FROM main.sales.orders WHERE id >= 1 "
            "GROUP BY region ORDER BY region"
        )
        results = []
        for cluster in fusion_clusters:
            client = cluster.connect("carol")
            client.register_udf(with_tax)
            results.append(client.sql(query).collect())
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 4  # the UDF really ran over governed rows

    def test_fusion_counters_tick_only_on_the_fused_cluster(
        self, fusion_clusters
    ):
        fused, unfused, _ = fusion_clusters
        query = (
            "SELECT region, count(*) AS n FROM main.sales.orders "
            "GROUP BY region ORDER BY region"
        )
        fused.connect("alice").sql(query).collect()
        unfused.connect("alice").sql(query).collect()
        assert fused.backend.kernel_cache.stats.fusion_hits > 0
        assert unfused.backend.kernel_cache.stats.fusion_hits == 0
        assert unfused.backend.kernel_cache.stats.fusion_misses == 0

    def test_fusion_counters_and_source_lines_reach_system_table(
        self, fusion_clusters
    ):
        fused, _, _ = fusion_clusters
        fused.connect("alice").sql(
            "SELECT region, count(*) AS n FROM main.sales.orders "
            "GROUP BY region"
        ).collect()
        rows = fused.connect("admin").sql(
            "SELECT cache, metric, value FROM system.access.cache_stats"
        ).collect()
        cache_name = f"kernel_cache[{fused.name}]"
        metrics = {r[1]: r[2] for r in rows if r[0] == cache_name}
        assert metrics["fusion_hits"] >= 1
        assert "fusion_misses" in metrics
        assert metrics["source_lines"] > 0


# ---------------------------------------------------------------------------
# Debug knob: generated sources dumped to disk
# ---------------------------------------------------------------------------


class TestDumpKernels:
    def test_dump_knob_writes_pipeline_source(self, tmp_path, monkeypatch):
        from repro.engine.compile import ENV_DUMP_KERNELS

        monkeypatch.setenv(ENV_DUMP_KERNELS, str(tmp_path / "kernels"))
        spec = _make_spec(
            Comparison(">", X, lit(0)), (S,), [("sum", Y), ("count", None)]
        )
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        assert pipeline is not None
        dumps = list((tmp_path / "kernels").glob("kernel_*.py"))
        assert len(dumps) == 1
        assert dumps[0].read_text() == pipeline.artifact.source + "\n"

    def test_dump_knob_failure_never_fails_compilation(self, monkeypatch):
        from repro.engine.compile import ENV_DUMP_KERNELS

        # A file path where a directory is needed: mkdir raises, compile
        # must still succeed (the knob is best effort).
        monkeypatch.setenv(ENV_DUMP_KERNELS, "/dev/null/nope")
        spec = _make_spec(None, (S,), [("count", None)])
        assert KernelCompiler().compile_pipeline_spec(spec) is not None
