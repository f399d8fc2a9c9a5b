"""Property-based tests (hypothesis) for engine invariants."""

from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from repro.engine.analyzer import DictResolver
from repro.engine.executor import QueryEngine
from repro.engine.expressions import (
    Alias,
    Arithmetic,
    BooleanOp,
    Comparison,
    col,
    lit,
)
from repro.engine.logical import (
    Aggregate,
    Distinct,
    Filter,
    Limit,
    LocalRelation,
    Project,
    Sort,
    UnresolvedRelation,
)
from repro.engine.aggregates import AggregateCall
from repro.engine.expressions import SortOrder
from repro.engine.optimizer import OptimizerConfig
from repro.engine.types import FLOAT, INT, STRING, Field, Schema

SCHEMA = Schema((Field("k", STRING), Field("x", INT), Field("y", FLOAT)))

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", None]),
        st.one_of(st.integers(-100, 100), st.none()),
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), st.none()
        ),
    ),
    max_size=60,
)


def make_engine(rows, **engine_kwargs):
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], []]
    data = LocalRelation(SCHEMA, columns)
    return QueryEngine(DictResolver({"t": data}), **engine_kwargs)


def rel():
    return UnresolvedRelation("t")


class TestFilterSemantics:
    @given(rows=rows_strategy, threshold=st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_filter_matches_python_semantics(self, rows, threshold):
        engine = make_engine(rows)
        result = engine.execute(
            Filter(rel(), Comparison(">", col("x"), lit(threshold)))
        )
        expected = [r for r in rows if r[1] is not None and r[1] > threshold]
        assert sorted(result.rows(), key=repr) == sorted(expected, key=repr)

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_filter_never_invents_rows(self, rows):
        engine = make_engine(rows)
        result = engine.execute(Filter(rel(), Comparison("=", col("k"), lit("a"))))
        source = sorted(rows, key=repr)
        for row in result.rows():
            assert row in rows


class TestOptimizerEquivalence:
    @given(rows=rows_strategy, threshold=st.integers(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_optimized_equals_unoptimized(self, rows, threshold):
        plan = Project(
            Filter(
                rel(),
                BooleanOp(
                    "AND",
                    Comparison(">", col("x"), lit(threshold)),
                    Comparison("!=", col("k"), lit("c")),
                ),
            ),
            [col("k"), Alias(Arithmetic("+", col("x"), lit(1)), "x1")],
        )
        full = make_engine(rows)
        bare = make_engine(
            rows,
            optimizer_config=OptimizerConfig(
                constant_folding=False,
                filter_pushdown=False,
                column_pruning=False,
                collapse_projects=False,
                udf_fusion=False,
            ),
        )
        assert sorted(full.execute(plan).rows(), key=repr) == sorted(
            bare.execute(plan).rows(), key=repr
        )


class TestAggregateProperties:
    @given(rows=rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_counts_sum_to_row_count(self, rows):
        engine = make_engine(rows)
        result = engine.execute(
            Aggregate(
                rel(),
                [col("k")],
                [col("k"), Alias(AggregateCall("count", None), "n")],
            )
        )
        assert sum(r[1] for r in result.rows()) == len(rows)

    @given(rows=rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sum_matches_python(self, rows):
        engine = make_engine(rows)
        result = engine.execute(
            Aggregate(rel(), [], [Alias(AggregateCall("sum", col("x")), "s")])
        )
        values = [r[1] for r in rows if r[1] is not None]
        expected = sum(values) if values else None
        assert result.rows() == [(expected,)]

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_min_le_max(self, rows):
        engine = make_engine(rows)
        result = engine.execute(
            Aggregate(
                rel(),
                [],
                [
                    Alias(AggregateCall("min", col("x")), "lo"),
                    Alias(AggregateCall("max", col("x")), "hi"),
                ],
            )
        )
        lo, hi = result.rows()[0]
        assert (lo is None) == (hi is None)
        if lo is not None:
            assert lo <= hi


class TestPartialFinalEquivalence:
    """Partial+final aggregation (the eFGAC split) equals complete mode."""

    @given(rows=rows_strategy)
    @settings(max_examples=50, deadline=None)
    def test_split_aggregation_matches_complete(self, rows):
        engine = make_engine(rows)
        outputs = [
            col("k"),
            Alias(AggregateCall("sum", col("x")), "s"),
            Alias(AggregateCall("count", None), "n"),
            Alias(AggregateCall("avg", col("y")), "m"),
        ]
        complete = engine.execute(Aggregate(rel(), [col("k")], outputs))

        # The split pipeline: partial over the data, final over the states.
        analyzed = engine.analyze(Aggregate(rel(), [col("k")], outputs))
        partial = Aggregate(
            analyzed.child, analyzed.groupings, analyzed.aggregates, mode="partial"
        )
        from repro.engine.expressions import BoundRef

        final_groupings = [
            BoundRef(i, g.output_name(), g.dtype)
            for i, g in enumerate(analyzed.groupings)
        ]
        final = Aggregate(partial, final_groupings, analyzed.aggregates, mode="final")
        split = engine.execute_optimized(final)
        assert sorted(complete.rows(), key=repr) == sorted(split.rows(), key=repr)


class TestSortLimitDistinct:
    @given(rows=rows_strategy, n=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_limit_bounds_output(self, rows, n):
        engine = make_engine(rows)
        result = engine.execute(Limit(rel(), n))
        assert result.batch.num_rows == min(n, len(rows))

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sort_is_permutation(self, rows):
        engine = make_engine(rows)
        result = engine.execute(
            Sort(rel(), [SortOrder(col("x"), ascending=True, nulls_first=True)])
        )
        assert sorted(result.rows(), key=repr) == sorted(rows, key=repr)

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sort_orders_non_nulls(self, rows):
        engine = make_engine(rows)
        result = engine.execute(
            Sort(rel(), [SortOrder(col("x"), ascending=True, nulls_first=True)])
        )
        xs = [r[1] for r in result.rows() if r[1] is not None]
        assert xs == sorted(xs)

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", None]),
                st.one_of(st.integers(-2, 2), st.none()),  # few values: ties
                st.one_of(st.sampled_from([-1.5, 0.0, 2.5]), st.none()),
            ),
            max_size=30,
        ),
        orders=st.lists(
            st.tuples(st.integers(0, 2), st.booleans(), st.booleans()),
            min_size=1,
            max_size=3,
        ),
        limit=st.integers(0, 12),
        offset=st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_order_by_limit_equals_stable_full_sort_then_slice(
        self, rows, orders, limit, offset
    ):
        """ORDER BY … LIMIT/OFFSET (bounded top-k when every key sorts one
        way, sort-then-slice otherwise) returns exactly the slice of a
        stable comparison sort: NULLs where ``nulls_first`` says whatever
        the direction, ties in input order."""

        def compare(a, b):
            for index, ascending, nulls_first in orders:
                va, vb = a[index], b[index]
                if va is None and vb is None:
                    continue
                if va is None or vb is None:
                    return -1 if (va is None) == nulls_first else 1
                if va != vb:
                    return (-1 if va < vb else 1) * (1 if ascending else -1)
            return 0

        expected = sorted(rows, key=cmp_to_key(compare))
        sort = Sort(
            rel(),
            [
                SortOrder(col(SCHEMA.fields[index].name), ascending, nulls_first)
                for index, ascending, nulls_first in orders
            ],
        )
        assert make_engine(rows).execute(sort).rows() == expected
        top = make_engine(rows).execute(Limit(sort, limit, offset)).rows()
        assert top == expected[offset : offset + limit]

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distinct_idempotent(self, rows):
        engine = make_engine(rows)
        once = engine.execute(Distinct(rel())).rows()
        twice_engine = make_engine(once)
        twice = twice_engine.execute(Distinct(rel())).rows()
        assert sorted(once, key=repr) == sorted(twice, key=repr)
        assert len(set(once)) == len(once)
