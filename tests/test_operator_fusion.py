"""Pipelines: one loop per chain and sink, compiled ≡ interpreted ≡ model.

Pins the contract of operator codegen — that running a scan→filter→project
chain and its sink (aggregate, collect, top-k, LIMIT, through a join probe
or not) as one generated loop never changes a single byte of output:

- property tests (hypothesis) proving ``CompiledPipeline.accumulate``
  matches :func:`interpret_pipeline` group-for-group and state-for-state,
  over NULL-riddled rows, division by zero, composed filters, multi-key
  groupings, every inlinable aggregate, and empty batches;
- engine-level properties: the same logical plan returns identical rows
  compiled, with every pipeline refused (interpreted) and with compilation
  disabled — one plan shape in all three;
- a plain-Python row model (list-comprehension filters, ``sorted`` with
  explicit NULL ranks, nested-loop joins) that every sink's answer must
  meet: it shares nothing with the planner's chain composition, which the
  compiled and interpreted legs share;
- governed end-to-end equivalence: FGAC queries (row filters, column
  masks, sandboxed UDFs splitting the chain) return identical rows on
  compiled and interpreted clusters.
"""

from __future__ import annotations

import operator

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
)
from repro.engine.executor import ExecutionConfig, QueryEngine
from repro.engine.physical import PhysicalPlanner, PhysPipeline
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
    conjoin,
    lit,
)
from repro.errors import ExecutionError
from repro.engine.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    LocalRelation,
    Project,
    Sort,
    UnresolvedRelation,
)
from repro.engine.types import FLOAT, INT, STRING, Field, Schema
from repro.platform import Workspace
from tests.oracles import all_same, plan_shape, same

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


def compile_collect(compiler, exprs, condition=None):
    """The ``collect`` loop of ``exprs`` over the rows ``condition`` admits."""
    return compiler.compile_pipeline_spec(
        PipelineSpec(condition, sink="collect", outputs=tuple(exprs))
    )


def run(kernel, batch, ctx):
    """Every output column of one ``collect`` loop call."""
    return kernel.accumulate(batch, ctx, None)


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
        loop_groups: dict = {}
        interpreted: dict[tuple, list] = {}
        for batch in chunk_batch(make_batch(rows), chunk):
            pipeline.accumulate(batch, ctx, loop_groups)
            interpret_pipeline(spec, batch, ctx, interpreted)
        compiled = pipeline.algebra_groups(loop_groups)
        # Item by item in insertion order; set (generated loop) and
        # frozenset (algebra) states compare equal.
        assert same(compiled, interpreted)

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
        loop_groups: dict = {}
        interpreted: dict[tuple, list] = {}
        empty = make_batch([])
        for batch in (empty, make_batch(rows), empty):
            pipeline.accumulate(batch, ctx, loop_groups)
            interpret_pipeline(spec, batch, ctx, interpreted)
        compiled = pipeline.algebra_groups(loop_groups)
        assert compiled == interpreted
        assert compiled  # the data really produced groups

    def test_finalized_values_match_aggregate_algebra(self):
        spec = _make_spec(
            None, (S,), [("sum", Y), ("avg", Y), ("count_distinct", X)]
        )
        rows = [(1, 2.0, "a"), (1, 4.0, "a"), (2, None, "b"), (None, 1.0, "b")]
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        loop_groups: dict = {}
        pipeline.accumulate(make_batch(rows), EvalContext(), loop_groups)
        groups = pipeline.algebra_groups(loop_groups)
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

        mask_kernel = compile_collect(SHARED_COMPILER, (predicate,))
        assert mask_kernel is not None
        # Exact 3VL: NULL stays NULL, never collapses to False.
        assert same(run(mask_kernel, batch, ctx)[0], expected_mask)

        fused = compile_collect(SHARED_COMPILER, (X, S), predicate)
        assert fused is not None
        kept = batch.filter(expected_mask)
        assert same(run(fused, batch, ctx), [kept.columns[0], kept.columns[2]])

        spec = _make_spec(predicate, (S,), [("count", None), ("sum", Y)])
        pipeline = SHARED_COMPILER.compile_pipeline_spec(spec)
        assert pipeline is not None
        loop_groups: dict = {}
        interpreted: dict[tuple, list] = {}
        pipeline.accumulate(batch, ctx, loop_groups)
        compiled = pipeline.algebra_groups(loop_groups)
        interpret_pipeline(spec, batch, ctx, interpreted)
        assert same(compiled, interpreted)

    def test_fast_path_is_inline_and_membership_goes_first(self):
        """The generated fast path really is one short-circuit expression:
        no ``bool()`` calls, and the row-invariant group flag leads each
        conjunction so most rows never reach the IN probe."""
        predicate = _policy_predicate(("alpha",), ("Beta",), False, ">", 1.0)
        kernel = compile_collect(KernelCompiler(), (X,), predicate)
        fast_body = kernel.artifact.source.split("else:")[0]
        assert "bool(" not in fast_body
        assert "(_g0 and (" in fast_body and "(_g1 and (" in fast_body

    def test_non_boolean_operands_are_still_normalized(self):
        """AND/OR over a truthy non-bool value yields a real bool, like the
        interpreter's ``bool(a) and bool(b)``."""
        flag = BoundRef(0, "x", INT)  # an int used as a truth value
        predicate = BooleanOp("OR", flag, Comparison(">", Y, lit(0.0)))
        batch = make_batch([(2, -1.0, "a"), (0, -1.0, "a"), (0, 1.0, "a")])
        kernel = compile_collect(KernelCompiler(), (predicate,))
        out = run(kernel, batch, EvalContext())[0]
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
        kernel = compile_collect(KernelCompiler(), (X,), condition)
        assert run(kernel, make_batch(self.ROWS), EvalContext()) == [[3]]
        # The other order is the user's own problem: the cast runs first.
        flipped = BooleanOp("AND", self.USER, self.POLICY)
        kernel = compile_collect(KernelCompiler(), (X,), flipped)
        with pytest.raises(ExecutionError, match="secret"):
            run(kernel, make_batch(self.ROWS), EvalContext())

    def test_pipeline_and_its_interpreter_twin_gate_identically(self):
        spec = _make_spec(
            BooleanOp("AND", self.POLICY, self.USER), (), [("count", None)]
        )
        pipeline = KernelCompiler().compile_pipeline_spec(spec)
        loop_groups: dict = {}
        interpreted: dict[tuple, list] = {}
        pipeline.accumulate(make_batch(self.ROWS), EvalContext(), loop_groups)
        compiled = pipeline.algebra_groups(loop_groups)
        interpret_pipeline(spec, make_batch(self.ROWS), EvalContext(), interpreted)
        assert compiled == interpreted == {(): [1]}


class TestEnvBoundLiterals:
    """Literal values bind through the env: a fresh constant reuses the
    cached artifact, and anything codegen branches on stays structural."""

    def test_fresh_literal_hits_the_cache_and_binds_its_own_value(self):
        compiler = KernelCompiler()
        batch = make_batch([(1, 1.0, "a"), (5, 5.0, "b"), (9, 9.0, "c")])
        for threshold, expected in ((0, [1, 5, 9]), (4, [5, 9]), (8, [9])):
            kernel = compile_collect(compiler, (X,), Comparison(">", X, lit(threshold)))
            assert run(kernel, batch, EvalContext()) == [expected]
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
            kernel = compile_collect(compiler, exprs)
            assert run(kernel, batch, EvalContext()) == [
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
        kernel = compile_collect(SHARED_COMPILER, exprs)
        batch = make_batch(rows)
        assert same(
            run(kernel, batch, EvalContext()),
            [e.eval(batch, EvalContext()) for e in exprs],
        )


# ---------------------------------------------------------------------------
# Engine-level: compiled ≡ refused ≡ interpreted over whole plans
# ---------------------------------------------------------------------------


def _engine(rows, *, compile_enabled=True, batch_size=4096, compiler=None) -> QueryEngine:
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], []]
    data = LocalRelation(SCHEMA, columns)
    return QueryEngine(
        DictResolver({"t": data}),
        config=ExecutionConfig(batch_size=batch_size, compile_enabled=compile_enabled),
        kernel_compiler=compiler,
    )


class _RefusingCompiler(KernelCompiler):
    """Refuses every pipeline, so each one the planner builds runs through
    :func:`interpret_pipeline` (the compile-refused fallback)."""

    def compile_pipeline_spec(self, spec):
        return None


def _three_ways(rows, plan, batch_size=4096) -> list[list[tuple]]:
    """Rows from the compiled engine, the engine with every pipeline refused
    (interpreted) and the engine with compilation disabled, all over
    ``batch_size``-row batches. The compiled leg must really have compiled,
    the refused leg counted its misses, and all three planned one shape."""
    compiled = _engine(rows, batch_size=batch_size)
    refused = _engine(rows, batch_size=batch_size, compiler=_RefusingCompiler())
    disabled = _engine(rows, batch_size=batch_size, compile_enabled=False)
    engines = (compiled, refused, disabled)
    results = [engine.execute(plan).rows() for engine in engines]
    _assert_really_fused(compiled.kernel_compiler.cache.stats)
    assert refused.kernel_compiler.cache.stats.fusion_misses > 0
    shapes = {plan_shape(_physical(engine, plan)) for engine in engines}
    assert len(shapes) == 1, shapes
    return results


def _four_ways(rows, plan, batch_size, sink, model) -> list[list[tuple]]:
    """:func:`_three_ways` plus the row model's answer; the plan holds a
    ``sink`` loop."""
    assert sink in _sinks(_engine(rows), plan)
    return [*_three_ways(rows, plan, batch_size), model]


def _physical(engine, plan):
    return engine.plan_physical(engine.optimize(engine.analyze(plan)))


def _sinks(engine, plan) -> set[str]:
    """The ``kernel:pipeline`` sink labels of every loop ``plan`` plans."""
    labels, stack = set(), [_physical(engine, plan)]
    while stack:
        op = stack.pop()
        spec = getattr(op, "spec", None)
        if spec is not None:
            labels.add(spec.label)
        stack.extend(op.children)
    return labels


def _assert_really_fused(stats) -> None:
    """The compiled leg compiled: a generator bug falls back to the
    interpreter silently, and would then "match" it without testing
    anything."""
    assert stats.compile_errors == 0
    assert stats.fusion_hits > 0


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
        compiled, refused, interpreted = _three_ways(rows, plan)
        assert all_same(compiled, refused, interpreted)

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
        compiled, refused, interpreted = _three_ways(rows, plan)
        assert all_same(compiled, refused, interpreted)

    @given(rows=rows_strategy, threshold=st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_sort_key_sink_identical_three_ways(self, rows, threshold):
        """A whole ORDER BY over a chain: the keys are the unbounded
        ``topk`` sink's, computed in the chain's loop."""
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
        compiled, refused, interpreted = _three_ways(rows, plan)
        assert all_same(compiled, refused, interpreted)
        assert _sinks(_engine(rows), plan) == {"topk"}

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_join_key_sink_identical_three_ways(self, rows):
        """The join's keys are computed in the probe side's loop, which
        probes the hashed build side itself: one ``join_probe`` loop, over
        a build side of bare columns (a narrowed source) and a computed one
        (its own ``collect`` loop) alike."""
        base = UnresolvedRelation("t")
        for right, loops in (
            (Project(base, (Alias(col("x"), "x2"), Alias(col("s"), "y2"))), {"join_probe"}),
            (
                Project(
                    base,
                    (Alias(col("x"), "x2"), Alias(Arithmetic("*", col("y"), lit(2.0)), "y2")),
                ),
                {"join_probe", "collect"},
            ),
        ):
            plan = Join(
                Filter(base, Comparison("<", col("x"), lit(10))),
                right,
                how="inner",
                condition=Comparison("=", col("x"), col("x2")),
            )
            compiled, refused, interpreted = _three_ways(rows, plan)
            assert all_same(compiled, refused, interpreted)  # rows AND probe order
            assert _sinks(_engine(rows), plan) == loops

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
        match the row model's nested-loop join pair for pair — NULL keys
        never match, duplicate keys fan out in (left, right) order —
        compiled, refused and interpreted."""
        base = UnresolvedRelation("t")
        left = Filter(base, Comparison("<", col("x"), lit(40)))
        right = Project(
            base,
            (
                Alias(col("x"), "x2"),
                Alias(col("s"), "s2"),
                Alias(Arithmetic("*", col("y"), lit(2.0)), "y2"),  # fuses
            ),
        )
        hashed = conjoin([Comparison("=", col(k), col(k + "2")) for k in keys])
        expected = model_join(
            [r for r in rows if r[0] is not None and r[0] < 40],
            [(r[0], r[2], None if r[1] is None else r[1] * 2.0) for r in rows],
            how,
            _equal([(0, 0)] + ([(2, 1)] if "s" in keys else [])),
        )
        compiled, refused, interpreted = _three_ways(
            rows, Join(left, right, how=how, condition=hashed)
        )
        assert all_same(compiled, refused, interpreted, expected)

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
        compiled, refused, interpreted = _three_ways(rows, plan)
        assert compiled == refused == interpreted

    def test_a_udf_conjunct_only_sees_rows_the_conjuncts_left_of_it_admit(self):
        """``WHERE x > 3 AND boom(x) = 1`` is one Filter with user code in
        it: ``boom`` runs only on the rows ``x > 3`` admitted (it raises on
        any other), compiled, refused and interpreted."""
        from repro.engine.udf import udf as engine_udf

        @engine_udf("int")
        def boom(v):
            if v is None or v <= 3:
                raise ValueError(f"saw filtered row {v}")
            return 1

        rows = [(i, float(i), "s") for i in range(8)]
        plan = Project(
            Filter(
                UnresolvedRelation("t"),
                BooleanOp(
                    "AND",
                    Comparison(">", col("x"), lit(3)),
                    Comparison("=", boom(col("x")), lit(1)),
                ),
            ),
            (Alias(col("x"), "x"),),
        )
        for engine in (
            _engine(rows),
            _engine(rows, compiler=_RefusingCompiler()),
            _engine(rows, compile_enabled=False),
        ):
            assert engine.execute(plan).rows() == [(4,), (5,), (6,), (7,)]

    def test_empty_input_identical_three_ways(self):
        plan = Aggregate(
            Filter(UnresolvedRelation("t"), Comparison(">", col("x"), lit(0))),
            groupings=(),
            aggregates=(
                AggregateCall("count", None),
                AggregateCall("sum", col("y")),
            ),
        )
        compiled, refused, interpreted = _three_ways([], plan)
        assert compiled == refused == interpreted == [(0, None)]


# ---------------------------------------------------------------------------
# Sinks: top-k, LIMIT and join probes ≡ their interpreter twin ≡ a row model
# ---------------------------------------------------------------------------

#: Few distinct values per column: ties (and NULLs) everywhere, so the
#: top-k's tie order and the probes' duplicate keys are exercised. The row
#: count is drawn uniformly (hypothesis favours short lists), so a bounded
#: top-k or LIMIT usually fills before the input ends.
tie_rows = st.integers(0, 40).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.one_of(st.integers(-3, 3), st.none()),
            st.one_of(st.sampled_from([0.5, 1.5, -2.0]), st.none()),
            st.one_of(st.sampled_from(["alpha", "Beta", ""]), st.none()),
        ),
        min_size=n,
        max_size=n,
    )
)

#: ``(column, nulls first)`` per ORDER BY term; ``neg`` is ``x * -1``.
order_terms = st.lists(
    st.tuples(st.sampled_from(["x", "y", "s", "neg"]), st.booleans()),
    min_size=1,
    max_size=2,
)


def _chain(threshold):
    """``SELECT x, y, s FROM t WHERE x IS NULL OR x > threshold``."""
    return Project(
        Filter(
            UnresolvedRelation("t"),
            BooleanOp(
                "OR", IsNull(col("x")), Comparison(">", col("x"), lit(threshold))
            ),
        ),
        (Alias(col("x"), "x"), Alias(col("y"), "y"), Alias(col("s"), "s")),
    )


# The row model: plain Python over the row tuples, computed straight from
# the input. It shares nothing with the planner (no chain composition, no
# scan narrowing, no join probe), which every engine leg goes through.


def _passing(rows, threshold):
    return [r for r in rows if r[0] is None or r[0] > threshold]


def _null_ranked(value, ascending, nulls_first):
    """A sort key placing NULL where ``nulls_first`` wants it, under a pass
    in this direction."""
    if value is None:
        return (0 if nulls_first == ascending else 2, 0)
    return (1, value)


def model_sort(rows, terms):
    """``rows`` ordered by ``terms`` — ``(key, ascending, nulls first)`` —
    one stable ``sorted`` pass per term, least significant first (ties keep
    their input order)."""
    for key, ascending, nulls_first in reversed(terms):
        rows = sorted(
            rows,
            key=lambda r: _null_ranked(key(r), ascending, nulls_first),
            reverse=not ascending,
        )
    return rows


def _equal(pairs):
    """The match predicate of ``(left, right)`` column positions that must
    be equal and not NULL."""
    return lambda l, r: all(l[i] is not None and l[i] == r[j] for i, j in pairs)


def model_join(left, right, how, match):
    """Nested-loop join of 3-column row tuples: ``match(l, r)`` says whether
    a pair matches. Rows follow the preserved side (the right one for
    RIGHT), a FULL join's unmatched right rows last."""
    nulls = (None,) * 3
    if how == "right":
        return [
            row
            for r in right
            for row in ([l + r for l in left if match(l, r)] or [nulls + r])
        ]
    out = []
    for l in left:
        hits = [l + r for r in right if match(l, r)]
        if how in ("semi", "anti"):
            out += [l] if bool(hits) == (how == "semi") else []
        else:
            out += hits or ([l + nulls] if how in ("left", "full") else [])
    if how == "full":
        out += [nulls + r for r in right if not any(match(l, r) for l in left)]
    return out


def model_aggregate(rows, key, value):
    """``key, count(*), sum(value)`` per group, groups in first-seen order;
    the sum skips NULL and adds left to right."""
    groups: dict = {}
    for row in rows:
        count, total = groups.get(key(row), (0, None))
        v = value(row)
        if v is not None:
            total = v if total is None else total + v
        groups[key(row)] = (count + 1, total)
    return [(k, n, total) for k, (n, total) in groups.items()]


_THETA = {"<": operator.lt, "<=": operator.le, "!=": operator.ne}

_MODEL_KEYS = {
    "x": lambda r: r[0],
    "y": lambda r: r[1],
    "s": lambda r: r[2],
    "neg": lambda r: None if r[0] is None else r[0] * -1,
}


class TestSinkEquivalence:
    @given(
        rows=tie_rows,
        terms=order_terms,
        descending=st.booleans(),
        # Small k fills the heap (its threshold and ties at work); 45 is
        # above any row count.
        k=st.one_of(st.none(), st.integers(0, 6), st.just(45)),
        offset=st.integers(0, 5),
        threshold=st.integers(-4, 2),
        batch_size=st.integers(1, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_topk_sink_identical_four_ways(
        self, rows, terms, descending, k, offset, threshold, batch_size
    ):
        """ORDER BY one or two terms in one direction, NULLs first or last
        per term, ``LIMIT k OFFSET n`` (k of 0, k above the row count, or no
        LIMIT: the whole sort): ``sorted(...)[offset:offset + k]``, tie
        order included, across batch boundaries."""
        keys = {"x": col("x"), "y": col("y"), "s": col("s"),
                "neg": Arithmetic("*", col("x"), lit(-1))}
        plan = Sort(
            _chain(threshold),
            [SortOrder(keys[name], not descending, first) for name, first in terms],
        )
        model = model_sort(
            _passing(rows, threshold),
            [(_MODEL_KEYS[name], not descending, first) for name, first in terms],
        )
        if k is not None:
            plan = Limit(plan, k, offset)
            model = model[offset : offset + k]
        results = _four_ways(rows, plan, batch_size, "topk", model)
        assert all_same(*results)

    @given(
        rows=tie_rows,
        limit=st.one_of(st.integers(0, 8), st.just(45)),
        offset=st.integers(0, 8),
        threshold=st.integers(-4, 2),
        batch_size=st.integers(1, 9),
    )
    @settings(max_examples=100, deadline=None)
    def test_limit_sink_identical_four_ways(
        self, rows, limit, offset, threshold, batch_size
    ):
        plan = Limit(_chain(threshold), limit, offset)
        model = _passing(rows, threshold)[offset : offset + limit]
        results = _four_ways(rows, plan, batch_size, "limit", model)
        assert all_same(*results)

    @pytest.mark.parametrize(
        "how", ["inner", "left", "right", "full", "semi", "anti"]
    )
    @pytest.mark.parametrize(
        ("sink", "condition"),
        [
            # An equi-join's legs keep their ids: ``[sink-how]``.
            pytest.param(sink, condition, id=sink if condition == "equi" else f"{sink}-{condition}")
            for condition in ("equi", "residual", "non-equi", "cross")
            for sink in ("collect", "aggregate", "topk", "limit")
        ],
    )
    @given(
        rows=tie_rows,
        keys=st.sampled_from([("x",), ("x", "s")]),
        build_filter=st.integers(-4, 4),
        null_keys=st.booleans(),
        above=st.booleans(),
        theta=st.sampled_from(["<", "<=", "!="]),
        batch_size=st.integers(1, 9),
    )
    @settings(max_examples=20, deadline=None)
    def test_join_probe_identical_four_ways(
        self, how, keys, sink, condition, rows, build_filter, null_keys, above,
        theta, batch_size,
    ):
        """Every join type under every sink and every kind of condition,
        over duplicate build keys, NULL build keys (``null_keys``) and an
        empty build side (the build filter ``x < -4`` without them), with or
        without a filter above the join (the loop's ``matched`` test). The
        conditions: equalities on ``keys``; the same and ``y <theta> y2``,
        a residual that fails some key-matched pairs (few distinct ``y``);
        ``y <theta> y2`` alone (non-equi: one bucket); and every pair (a
        CROSS JOIN for INNER, ``ON TRUE`` otherwise). A FULL join's loop
        only collects (its unmatched build rows come after the probe), so
        under the other sinks it feeds the sink's own operator."""
        base = UnresolvedRelation("t")
        left = Filter(base, BooleanOp("OR", IsNull(col("y")), Comparison(">", col("y"), lit(0.0))))
        kept = Comparison("<", col("x"), lit(build_filter))
        if null_keys:
            kept = BooleanOp("OR", IsNull(col("x")), kept)
        right = Project(
            Filter(base, kept),
            (Alias(col("x"), "x2"), Alias(col("s"), "s2"), Alias(col("y"), "y2")),
        )
        equal = [Comparison("=", col(k), col(k + "2")) for k in keys]
        versus = Comparison(theta, col("y"), col("y2"))
        keyed = _equal([(0, 0)] + ([(2, 1)] if "s" in keys else []))

        def compared(l, r):  # y <theta> y2; NULL does not match
            return None not in (l[1], r[2]) and _THETA[theta](l[1], r[2])

        on, match = {
            "equi": (conjoin(equal), keyed),
            "residual": (conjoin([*equal, versus]), lambda l, r: keyed(l, r) and compared(l, r)),
            "non-equi": (versus, compared),
            "cross": (None if how == "inner" else lit(True), lambda l, r: True),
        }[condition]
        plan = Join(left, right, how="cross" if on is None else how, condition=on)
        model = model_join(
            [r for r in rows if r[1] is None or r[1] > 0.0],
            [
                (r[0], r[2], r[1])
                for r in rows
                if (null_keys and r[0] is None) or (r[0] is not None and r[0] < build_filter)
            ],
            how,
            match,
        )
        semi = how in ("semi", "anti")
        if above:
            # Over both sides (over the left alone for SEMI / ANTI), so no
            # rule pushes it below the join: 3VL, a NULL drops the row.
            if semi:
                plan = Filter(plan, BooleanOp("OR", IsNull(col("y")), Comparison("<", col("y"), lit(1.0))))
                model = [r for r in model if r[1] is None or r[1] < 1.0]
            else:
                plan = Filter(plan, BooleanOp("OR", IsNull(col("y2")), Comparison("!=", col("y"), col("y2"))))
                model = [r for r in model if r[5] is None or (r[1] is not None and r[1] != r[5])]
        out, model_out = (col("x"), _MODEL_KEYS["x"]) if semi else (col("y2"), lambda r: r[5])
        if sink == "aggregate":
            plan = Aggregate(
                plan,
                groupings=(col("s"),),
                aggregates=(col("s"), AggregateCall("count", None), AggregateCall("sum", out)),
            )
            model = model_aggregate(model, _MODEL_KEYS["s"], model_out)
        elif sink == "topk":
            plan = Limit(Sort(plan, (SortOrder(out, False), SortOrder(col("x")))), 7, 2)
            model = model_sort(model, [(model_out, False, True), (_MODEL_KEYS["x"], True, True)])[2:9]
        elif sink == "limit":
            plan = Limit(plan, 9, 3)
            model = model[3:12]
        results = _four_ways(rows, plan, batch_size, "join_probe", model)
        assert all_same(*results)

    def test_k_n_and_offset_share_one_artifact(self):
        """``k``, ``n`` and ``offset`` reach the loop through its sink state:
        top-k and LIMIT queries that differ only in them reuse one artifact."""
        rows = [(i % 5, float(i % 3), "s") for i in range(30)]
        engine = _engine(rows, batch_size=7)
        stats = engine.kernel_compiler.cache.stats
        for sink, make in (
            ("topk", lambda k, off: Limit(Sort(_chain(-4), [SortOrder(col("y"), False)]), k, off)),
            ("limit", lambda k, off: Limit(_chain(-4), k, off)),
        ):
            assert _sinks(engine, make(3, 0)) == {sink}
            engine.execute(make(3, 0))
            compiled = stats.insertions
            for k, off in ((5, 1), (1, 4), (40, 0)):
                engine.execute(make(k, off))
            assert stats.insertions == compiled


# ---------------------------------------------------------------------------
# One plan shape: the compiler decides only how each loop runs
# ---------------------------------------------------------------------------


def _bump_udf():
    from repro.engine.udf import udf as engine_udf

    @engine_udf("int")
    def bump(v):
        return (v or 0) + 1

    return bump


def _joined(condition, how="inner"):
    base = UnresolvedRelation("t")
    right = Project(
        Filter(base, Comparison("<", col("x"), lit(2))),
        (Alias(col("x"), "x2"), Alias(col("s"), "s2"), Alias(col("y"), "y2")),
    )
    return Join(Filter(base, Not(IsNull(col("y")))), right, how=how, condition=condition)


#: Plans around the operators no loop runs (a mixed-direction or user-code
#: sort, UDF stages), and joins of every kind — with a residual, non-equi,
#: cross, FULL under an aggregate, user code in a key — each a probe loop.
SHAPES = {
    "mixed-direction-top": lambda: Limit(
        Sort(_chain(-2), (SortOrder(col("x"), False), SortOrder(col("y")))), 4, 1
    ),
    "opaque-sort-key": lambda: Sort(_chain(-2), (SortOrder(_bump_udf()(col("x"))),)),
    "residual-join": lambda: _joined(
        BooleanOp("AND", Comparison("=", col("x"), col("x2")), Comparison("<", col("y"), col("y2")))
    ),
    "non-equi-join": lambda: _joined(Comparison("<", col("x"), col("x2")), "left"),
    "cross-join": lambda: _joined(None, "cross"),
    "full-residual-join-count": lambda: Aggregate(
        _joined(
            BooleanOp("AND", Comparison("=", col("x"), col("x2")), Comparison("<", col("y"), col("y2"))),
            "full",
        ),
        groupings=(),
        aggregates=(AggregateCall("count", None),),
    ),
    "udf-key-join": lambda: _joined(Comparison("=", _bump_udf()(col("x")), col("x2")), "left"),
    "udf-filter": lambda: Project(
        Filter(_chain(-2), Comparison(">", _bump_udf()(col("x")), lit(0))),
        (Alias(Arithmetic("*", col("y"), lit(2.0)), "y2"),),
    ),
    "udf-project": lambda: Aggregate(
        Project(_chain(-2), (Alias(_bump_udf()(col("x")), "b"), Alias(col("s"), "s"))),
        groupings=(col("s"),),
        aggregates=(col("s"), AggregateCall("max", col("b"))),
    ),
    "having-over-aggregate": lambda: Filter(
        Aggregate(
            _chain(-4),
            groupings=(col("s"),),
            aggregates=(col("s"), Alias(AggregateCall("count", None), "n")),
        ),
        Comparison(">", col("n"), lit(1)),
    ),
}


class TestOnePlanShape:
    ROWS = [(i % 5 - 1 if i % 6 else None, float(i % 4), "ab"[i % 2]) for i in range(24)]

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_compiled_and_interpreted_runs_plan_alike(self, name):
        """Compilation on and off plan the same operators and loops — the
        chains around a PhysSort or a UDF stage included — and return the
        same rows. Every join, whatever its condition, is a probe loop."""
        plan = SHAPES[name]()
        compiled, disabled = _engine(self.ROWS), _engine(self.ROWS, compile_enabled=False)
        shape = plan_shape(_physical(compiled, plan))
        assert shape == plan_shape(_physical(disabled, plan))
        assert all_same(compiled.execute(plan).rows(), disabled.execute(plan).rows())
        assert _sinks(compiled, plan), "every case runs a loop beside its operator"
        if "join" in name:
            assert "join_probe" in _sinks(compiled, plan)


class TestBoundedTopK:
    """``ORDER BY … LIMIT`` with a projection between the LIMIT and its sort
    (the optimizer's shape above a join) is one bounded top-k."""

    ROWS = [(i % 7, float(i % 11), "abc"[i % 3]) for i in range(60)]

    @staticmethod
    def _plan():
        base = UnresolvedRelation("t")
        right = Project(base, (Alias(col("x"), "x2"), Alias(col("s"), "s2"), Alias(col("y"), "y2")))
        joined = Join(base, right, how="inner", condition=Comparison("=", col("x"), col("x2")))
        return Limit(
            Project(
                Sort(joined, (SortOrder(col("y"), False),)),
                (Alias(col("y"), "y"), Alias(col("s2"), "label")),
            ),
            3,
            2,
        )

    @pytest.mark.parametrize("compiler", [KernelCompiler, _RefusingCompiler], ids=["compiled", "refused"])
    def test_one_bounded_topk_over_the_join(self, compiler, monkeypatch):
        from repro.engine import physical

        engine = _engine(self.ROWS, batch_size=16, compiler=compiler())
        root = _physical(engine, self._plan())
        assert isinstance(root, PhysPipeline)
        assert (root.spec.sink, root.spec.label) == ("topk", "join_probe")
        assert not any(isinstance(child, PhysPipeline) for child in root.children)
        held = []
        original = physical.topk_rows

        def recording(spec, state, limit, offset):
            held.append(len(state[0]) + len(state[1]))
            return original(spec, state, limit, offset)

        monkeypatch.setattr(physical, "topk_rows", recording)
        rows = engine.execute(self._plan()).rows()
        assert held and max(held) <= 3 + 2
        joined = model_join(
            self.ROWS, [(r[0], r[2], r[1]) for r in self.ROWS], "inner", _equal([(0, 0)])
        )
        assert len(joined) > 100  # an unbounded sort would have held them all
        expected = model_sort(joined, [(lambda r: r[1], False, True)])[2:5]
        assert rows == [(r[1], r[4]) for r in expected]


# ---------------------------------------------------------------------------
# Governed end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fusion_clusters():
    """A compiled and a fully interpreted cluster over one governed
    catalog."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("carol")
    ws.add_group("analysts", ["alice", "carol"])
    ws.add_group("hr", ["carol"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.sales", owner="admin")
    fused = ws.create_standard_cluster(name="fused", num_executors=2)
    interpreted = ws.create_standard_cluster(
        name="interpreted",
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
    yield fused, interpreted
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
    # the twin differs only in its literal (same artifact, fresh binding)
    "SELECT id, amount * 1.1 AS boosted, buyer FROM main.sales.orders "
    "WHERE amount > 15.0",
    "SELECT id, amount * 1.1 AS boosted, buyer FROM main.sales.orders "
    "WHERE amount > 25.0",
    # nothing above the governed scan: the row filter in its policy slot
    "SELECT * FROM main.sales.orders",
    # pushed filter on a pruned-away column: the unfolded scan remaps refs
    "SELECT zone + 1 AS z FROM main.sales.regions WHERE region != 'EU'",
    "SELECT zone FROM main.sales.regions WHERE zone > 1 ORDER BY zone DESC",
]


class TestGovernedFusionEquivalence:
    @pytest.mark.parametrize("query", GOVERNED_QUERIES)
    def test_rows_identical_compiled_and_interpreted(self, fusion_clusters, query):
        fused, interpreted = fusion_clusters
        for user in ("alice", "carol"):
            results = [
                cluster.connect(user).sql(query).collect()
                for cluster in (fused, interpreted)
            ]
            assert results[0] == results[1]
            # The same optimized plan, planned with and without a compiler.
            optimized = fused.backend.last_result.optimized_plan
            assert plan_shape(PhysicalPlanner(KernelCompiler()).plan(optimized)) == (
                plan_shape(PhysicalPlanner(None).plan(optimized))
            )
        _assert_really_fused(fused.backend.kernel_cache.stats)

    def test_policies_bite_identically_when_fused(self, fusion_clusters):
        fused, _ = fusion_clusters
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
        """Pinned answers for the shapes whose row filter runs in the scan's
        policy slot, below the loop."""
        fused, _ = fusion_clusters
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
        assert results[0] == results[1]
        assert len(results[0]) == 4  # the UDF really ran over governed rows

    def test_fusion_counters_tick_only_on_the_fused_cluster(
        self, fusion_clusters
    ):
        fused, interpreted = fusion_clusters
        query = (
            "SELECT region, count(*) AS n FROM main.sales.orders "
            "GROUP BY region ORDER BY region"
        )
        fused.connect("alice").sql(query).collect()
        interpreted.connect("alice").sql(query).collect()
        assert fused.backend.kernel_cache.stats.fusion_hits > 0
        assert interpreted.backend.kernel_cache is None

    def test_fusion_counters_and_source_lines_reach_system_table(
        self, fusion_clusters
    ):
        fused, _ = fusion_clusters
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
