"""Access paths in the memo entries (DESIGN.md §6, §8).

A compiled loop over a bare scan may read, from each file's memo entry, a
slice of a sorted index of one numeric column (its leading ``col op value``
conjuncts, and of a top-k by that column only the top) or the entry's runs
of one GROUP BY column. Covered here:

- a hypothesis property: every sink (``collect``, ``limit``, ``topk`` both
  ways, ``aggregate``, an inner and a ``full`` join probe) answers the same
  through the paths, on a cluster whose compiler refuses every loop (no
  path), and in a plain-Python row model — over NULL, NaN, ``-0.0``, ``1`` /
  ``1.0`` keys, ties, OFFSET, literals at 0 and at both signs, three files
  per table, with and without a row filter;
- when a path applies: never on a masked column, a leading conjunct that
  is not ``col op value``, an entry under the size floor, or runs through a
  node that can raise; a workload with no indexable predicate builds
  nothing; a drop or an eviction takes the paths' cells with the entry.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.connect.client import udf
from repro.platform import Workspace
from repro.storage.object_store import PATH_MIN_ROWS, DecodedColumns
from tests.oracles import same
from tests.test_operator_fusion import model_join, model_sort

FILES = 3
#: Rows per file: after the row filter hides about a fifth, every entry
#: still holds more than the size floor.
FILE_ROWS = 1700
X_VALUES = (-2.5, -1.0, -0.0, 0.0, 0.5, 1, 1.0, 2.0, 3.5, 7.25)
G_VALUES = (1, 1.0, -0.0, 0.0, 2.5, None)
LITERALS = ("0", "0.0", "-0.0", "0.5", "-1", "1", "2.0", "-2.5", "3.5", "9", "-9")
OPS = ("=", "<", "<=", ">", ">=")
U = "main.s.u"
U_ROWS = [(a, f"l{a}{i}") for i, a in enumerate((1, 1, -2, 0, None, 3, 9))]


def _file_rows(seed: int, nan: bool) -> list[list[tuple]]:
    """``FILES`` files of ``(id, a, x, g, s)`` rows: few distinct values
    (ties everywhere), NULLs, ``-0.0`` beside ``0.0``, ``1`` beside ``1.0``
    in the FLOAT columns, and with ``nan`` some NaN in ``x``."""
    rng = random.Random(f"access-paths:{seed}:{nan}")
    files, next_id = [], 0
    for _ in range(FILES):
        rows = []
        for _ in range(FILE_ROWS):
            x = None if rng.random() < 0.05 else rng.choice(X_VALUES)
            if nan and rng.random() < 0.01:
                x = float("nan")
            a = None if rng.random() < 0.05 else rng.randrange(-3, 4)
            s = rng.choice(("p", "q", "p", "q", "hidden"))
            rows.append((next_id, a, x, rng.choice(G_VALUES), s))
            next_id += 1
        files.append(rows)
    return files


class _Lake:
    """One workspace: tables made on first use, a compiled cluster (one
    executor, so a scan reads files in commit order, as the model does) and
    one whose compiler refuses every loop (so nothing reads a path)."""

    def __init__(self) -> None:
        ws = self.ws = Workspace()
        ws.add_user("admin", admin=True)
        ws.add_user("alice")
        ws.add_group("analysts", ["alice"])
        ws.catalog.create_catalog("main", owner="admin")
        ws.catalog.create_schema("main.s", owner="admin")
        self.cluster = ws.create_standard_cluster(num_executors=1)
        refused = ws.create_standard_cluster(name="refused", num_executors=1)
        refused.backend._kernel_compiler.compile_pipeline_spec = lambda *a, **k: None
        self.admin = self.cluster.connect("admin")
        self.alice = self.cluster.connect("alice")
        self.alice_refused = refused.connect("alice")
        self.admin_ctx = ws.catalog.principals.context_for("admin")
        for grant in ("USE CATALOG ON main", "USE SCHEMA ON main.s"):
            self.admin.sql(f"GRANT {grant} TO analysts")
        self.admin.sql(f"CREATE TABLE {U} (a int, label string)")
        self._load(U, [U_ROWS], ("a", "label"))

    def _load(self, name: str, files: list[list[tuple]], names: tuple[str, ...]) -> None:
        for rows in files:
            columns = {n: [r[i] for r in rows] for i, n in enumerate(names)}
            self.ws.catalog.write_table(name, columns, self.admin_ctx)
        self.admin.sql(f"GRANT SELECT ON {name} TO analysts")

    def table(self, name: str, files: list[list[tuple]], governed: bool) -> None:
        self.admin.sql(f"CREATE TABLE {name} (id int, a int, x float, g float, s string)")
        self._load(name, files, ("id", "a", "x", "g", "s"))
        if governed:
            self.admin.sql(f"ALTER TABLE {name} SET ROW FILTER (s IN ('p', 'q'))")

    def stats(self, governed: bool = True) -> dict:
        store = self.ws.catalog.store
        return (store.governed if governed else store.decoded).path_stats()


@pytest.fixture(scope="module")
def lake():
    made = _Lake()
    yield made
    made.ws.shutdown()


@lru_cache(maxsize=None)
def _made(lake: _Lake, seed: int, governed: bool, nan: bool) -> tuple[str, list[tuple]]:
    """The table of ``(seed, governed, nan)``, and the rows alice sees of
    it, in scan order."""
    name = f"main.s.t{seed}{'g' if governed else 'r'}{'n' if nan else ''}"
    files = _file_rows(seed, nan)
    lake.table(name, files, governed)
    rows = [r for f in files for r in f if not governed or r[4] != "hidden"]
    return name, rows


# ---------------------------------------------------------------------------
# The row model
# ---------------------------------------------------------------------------

_MODEL_OPS = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
_COLUMN = {"id": 0, "a": 1, "x": 2, "g": 3}


def _predicate(column: str, bounds: list[tuple[str, str]], extra: bool, q: str = ""):
    """SQL text (columns qualified by ``q``) and row test of ``column``'s
    ``bounds`` — ``(op, literal)`` pairs, the first one written mirrored
    (``literal op' column``) — and, with ``extra``, one more conjunct that
    is no bound."""
    mirror = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
    parts = [f"{lit} {mirror[op]} {q}{column}" if i == 0 else f"{q}{column} {op} {lit}"
             for i, (op, lit) in enumerate(bounds)]
    if extra:
        parts.append(f"{q}s = 'p'")
    at = _COLUMN[column]

    def test(row) -> bool:
        value = row[at]
        return (
            value is not None
            and all(_MODEL_OPS[op](value, float(lit)) for op, lit in bounds)
            and (not extra or row[4] == "p")
        )

    return " AND ".join(parts), test


def _aggregate(rows):
    """``g, count(*), sum(x), min(x), max(x)`` per group in first-seen order,
    each group keyed by its first row's ``g``; the sum adds left to right,
    min / max keep the earlier value on ties, NULLs are skipped."""
    groups: dict = {}
    for row in rows:
        key, x = row[3], row[2]
        state = groups.setdefault(key, [key, 0, None, None, None])
        state[1] += 1
        if x is not None:
            state[2] = x if state[2] is None else state[2] + x
            state[3] = x if state[3] is None else (x if x < state[3] else state[3])
            state[4] = x if state[4] is None else (x if x > state[4] else state[4])
    return [tuple(state) for state in groups.values()]


def _query(sink: str, table: str, where: str, rows, order, k: int, offset: int):
    """SQL text of ``sink`` over ``table``'s rows passing ``where``, and
    the model's answer from those ``rows``."""
    if sink == "collect":
        return f"SELECT id, x, g FROM {table} WHERE {where}", [(r[0], r[2], r[3]) for r in rows]
    if sink == "limit":
        sql = f"SELECT id, x FROM {table} WHERE {where} LIMIT {k} OFFSET {offset}"
        return sql, [(r[0], r[2]) for r in rows][offset : offset + k]
    if sink == "topk":
        column, descending, nulls_first = order
        sql = (
            f"SELECT id, {column} FROM {table} WHERE {where} ORDER BY {column} "
            f"{'DESC' if descending else 'ASC'} NULLS {'FIRST' if nulls_first else 'LAST'} "
            f"LIMIT {k} OFFSET {offset}"
        )
        at = _COLUMN[column]
        ranked = model_sort(rows, [(lambda r: r[at], not descending, nulls_first)])
        return sql, [(r[0], r[at]) for r in ranked][offset : offset + k]
    if sink == "aggregate":
        sql = (
            f"SELECT g, count(*), sum(x), min(x), max(x) FROM {table} "
            f"WHERE {where} GROUP BY g"
        )
        return sql, _aggregate(rows)
    left = [(r[0], r[1], r[2]) for r in rows]
    right = [(None, a, label) for a, label in U_ROWS]
    match = lambda l, r: l[1] is not None and l[1] == r[1]  # noqa: E731
    if sink in ("inner", "inner-topk"):
        sql = (
            f"SELECT t.id, t.x, u.label FROM {table} t JOIN {U} u ON t.a = u.a "
            f"WHERE {where}"
        )
        joined = [(row[0], row[2], row[5]) for row in model_join(left, right, "inner", match)]
        if sink == "inner":
            return sql, joined
        # A top-k by the unique t.id over the probe: a slice of the top k
        # source rows would miss the joined rows of the ones after them.
        _, descending, nulls_first = order
        sql += (
            f" ORDER BY t.id {'DESC' if descending else 'ASC'} "
            f"NULLS {'FIRST' if nulls_first else 'LAST'} LIMIT {k} OFFSET {offset}"
        )
        ranked = model_sort(joined, [(lambda r: r[0], not descending, nulls_first)])
        return sql, ranked[offset : offset + k]
    else:
        sql = (
            f"SELECT t.id, t.x, u.label FROM (SELECT id, a, x FROM {table} "
            f"WHERE {where}) t FULL JOIN {U} u ON t.a = u.a"
        )
        joined = model_join(left, right, "full", match)
    return sql, [(row[0], row[2], row[5]) for row in joined]


def _exact(a, b) -> bool:
    """Equal under :func:`same`, and of the same types (``1`` is not ``1.0``)."""
    return same(a, b) and repr(a) == repr(b)


bounds_of = st.lists(st.tuples(st.sampled_from(OPS), st.sampled_from(LITERALS)), min_size=1, max_size=2)


class TestAccessPathsEqualTheWholeEntryLoop:
    @given(
        seed=st.integers(0, 2),
        governed=st.booleans(),
        nan=st.booleans(),
        sink=st.sampled_from(
            ["collect", "limit", "topk", "aggregate", "inner", "inner-topk", "full"]
        ),
        column=st.sampled_from(["x", "a"]),
        bounds=bounds_of,
        extra=st.booleans(),
        order=st.tuples(st.sampled_from(["x", "a"]), st.booleans(), st.booleans()),
        k=st.sampled_from([1, 3, 20, 5000]),
        offset=st.sampled_from([0, 2, 7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_sink_answers_as_the_model(
        self, lake, seed, governed, nan, sink, column, bounds, extra, order, k, offset
    ):
        table, rows = _made(lake, seed, governed, nan)
        if sink == "inner-topk":
            # Lower bounds on the top-k's unique order column: wide slices,
            # whose top the probe must not stop at.
            column, bounds = "id", [(op.replace("<", ">"), lit) for op, lit in bounds]
        where, test = _predicate(column, bounds, extra, "t." if "inner" in sink else "")
        if "topk" in sink and (nan or not extra):
            # The top of the slice is read; and NaN orders with nothing.
            order = (column, *order[1:])
        sql, model = _query(sink, table, where, [r for r in rows if test(r)], order, k, offset)
        # First probe of a path, its build on the second, a read on the third.
        answers = [lake.alice.sql(sql).collect() for _ in range(3)]
        answers.append(lake.alice_refused.sql(sql).collect())
        for answer in answers:
            assert _exact(answer, model), (sql, answer[:5], model[:5])


# ---------------------------------------------------------------------------
# When a path applies
# ---------------------------------------------------------------------------


def _builds(lake: _Lake, governed: bool = True) -> tuple[int, int, int]:
    stats = lake.stats(governed)
    return stats["index_builds"], stats["run_builds"], stats["path_cells"]


def _run(lake: _Lake, sql: str, times: int = 3) -> list[list[tuple]]:
    return [lake.alice.sql(sql).collect() for _ in range(times)]


class TestWhenAPathApplies:
    def test_every_sink_reads_a_path(self, lake):
        """Selective bounds read slices, a top-k reads the top of one, a
        GROUP BY bare column reads runs — on both memos."""
        for governed in (True, False):
            table, _ = _made(lake, 0, governed, False)
            for sql, kind in [
                (f"SELECT id, x FROM {table} WHERE x > 3", "slices_read"),
                (f"SELECT id, a FROM {table} WHERE a = 2 LIMIT 4 OFFSET 1", "slices_read"),
                (f"SELECT id, x FROM {table} WHERE x < 7 ORDER BY x DESC LIMIT 5", "slices_read"),
                (f"SELECT g, count(*), max(x) FROM {table} WHERE x > -2 GROUP BY g", "runs_read"),
            ]:
                _run(lake, sql, 2)
                before = lake.stats(governed)[kind]
                _run(lake, sql, 1)
                assert lake.stats(governed)[kind] == before + FILES, sql

    def test_nothing_is_built_for_a_predicate_outside_the_shape(self, lake):
        """``x * 2 > v``, an OR, a UDF, a non-number, a bare-column GROUP BY
        whose loop can raise, and a GROUP BY of an expression build nothing;
        the answers still match each other."""
        table, _ = _made(lake, 3, True, False)

        @udf("float")
        def halve(x):
            return None if x is None else x / 2

        lake.alice.register_udf(halve)
        before = _builds(lake)
        for sql in [
            f"SELECT id FROM {table} WHERE x * 2 > 6",
            f"SELECT id FROM {table} WHERE x > 3 OR a = 1",
            f"SELECT id FROM {table} WHERE halve(x) > 3",
            f"SELECT id FROM {table} WHERE s = 'p'",
            f"SELECT g, sum(x * 2) FROM {table} GROUP BY g",
            f"SELECT g, count(*) FROM {table} WHERE CAST(a AS FLOAT) > 0 GROUP BY g",
            f"SELECT a + 1, count(*) FROM {table} GROUP BY a + 1",
        ]:
            first, *rest = _run(lake, sql)
            assert all(_exact(first, r) for r in rest), sql
        assert _builds(lake) == before

    def test_a_masked_column_is_never_indexed(self, lake):
        table, rows = _made(lake, 4, False, False)
        lake.admin.sql(
            f"ALTER TABLE {table} ALTER COLUMN x SET MASK "
            "(CASE WHEN is_account_group_member('admins') THEN x ELSE 0.0 END)"
        )
        try:
            before = _builds(lake, governed=False)
            answers = _run(lake, f"SELECT id, x FROM {table} WHERE x >= 0")
            assert all(len(answer) == len(rows) for answer in answers)  # all 0.0
            assert _builds(lake, governed=False) == before
        finally:
            lake.admin.sql(f"ALTER TABLE {table} ALTER COLUMN x DROP MASK")

    def test_a_small_entry_builds_nothing(self, lake):
        name = "main.s.small"
        rows = _file_rows(9, False)[0][: PATH_MIN_ROWS - 1]
        lake.table(name, [rows], governed=False)
        before = _builds(lake, governed=False)
        _run(lake, f"SELECT id FROM {name} WHERE x > 3")
        _run(lake, f"SELECT g, count(*) FROM {name} GROUP BY g")
        assert _builds(lake, governed=False) == before

    def test_a_workload_without_an_indexable_predicate_builds_nothing(self):
        """A fresh workspace whose queries bound no column and group by no
        bare column builds no path at all."""
        fresh = _Lake()
        try:
            name = "main.s.plain"
            fresh.table(name, _file_rows(4, False), governed=True)
            for sql in [
                f"SELECT id, x FROM {name} WHERE s = 'p'",
                f"SELECT count(*), sum(x) FROM {name} WHERE x * 3 > 1",
                f"SELECT id, x FROM {name} ORDER BY x DESC LIMIT 5",
                f"SELECT t.id, u.label FROM {name} t JOIN {U} u ON t.a = u.a",
            ]:
                _run(fresh, sql)
            for governed in (True, False):
                assert _builds(fresh, governed) == (0, 0, 0)
        finally:
            fresh.ws.shutdown()

    def test_a_drop_takes_the_paths_cells_with_the_entry(self, lake):
        name = "main.s.dropped"
        lake.table(name, _file_rows(5, False), governed=False)
        memo = lake.ws.catalog.store.decoded
        cells = memo.cells
        _run(lake, f"SELECT id FROM {name} WHERE x > 3")
        _run(lake, f"SELECT g, count(*) FROM {name} GROUP BY g")
        assert memo.path_stats()["path_cells"] > 0 and memo.cells > cells
        lake.admin.sql(f"DELETE FROM {name}")
        lake.alice.sql(f"SELECT count(*) FROM {name}").collect()  # folds the removes
        assert memo.cells == cells


class TestMemoCellsWithPaths:
    def test_eviction_returns_the_cells_of_paths(self):
        """An entry evicted past the cap takes its paths' cells along."""
        from repro.common.datacodec import encode_data_file
        from repro.engine.physical import AccessPath

        rows = PATH_MIN_ROWS * 2
        blob = encode_data_file({"x": [float(i % 97) for i in range(rows)], "g": [i % 5 for i in range(rows)]})
        memo = DecodedColumns(max_cells=rows * 12)
        for access in [AccessPath("x", ((">", 90.0),))] * 2 + [AccessPath(group="g")] * 2:
            memo.columns("alice", "f0", blob, ("x", "g"), None, access)
        assert memo.index_builds == 1 and memo.run_builds == 1
        # The index's values and positions, the runs' positions, and x and
        # g gathered run by run.
        assert memo.path_cells == 5 * rows and memo.cells == 7 * rows
        other = encode_data_file({"x": [0.5] * rows * 5, "g": [1] * rows * 5})
        memo.columns("bob", "f1", other, ("x", "g"))
        assert memo.evictions == 1 and memo.path_cells == 0
        assert memo.cells == 2 * rows * 5


def test_slices_keep_file_order_and_top_ties():
    """A slice gathers in entry order; a top-k keeps every row tied with
    its last one."""
    from repro.common.datacodec import encode_data_file
    from repro.engine.physical import AccessPath

    values = [3.0, 1.0, 2.0, None, 5.0, 2.0, -0.0, 0.0, 4.0, 6.0] * 120
    memo = DecodedColumns()
    blob = encode_data_file({"x": values, "i": list(range(len(values)))})
    top = AccessPath("x", (("<", 3.0),), (2, True), None)
    for _ in range(2):
        columns, runs = memo.columns("alice", "f", blob, ("x", "i"), None, top)
    assert runs is None
    assert columns["i"] == [i for i, v in enumerate(values) if v == 2.0]
    zero = AccessPath("x", (("=", 0),), None, None)
    columns, _ = memo.columns("alice", "f", blob, ("x", "i"), None, zero)
    assert [math.copysign(1, v) for v in columns["x"][:2]] == [-1.0, 1.0]
    assert columns["i"] == sorted(columns["i"])
