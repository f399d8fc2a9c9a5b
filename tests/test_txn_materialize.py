"""Equivalence tests for the two halves of the columnar write path.

1. Commit materialization (:func:`repro.txn.writes.apply_ops`) against a
   row-at-a-time reference model that lives only here: random sequences of
   insert / update / delete / merge, with and without a row filter, NULLs in
   predicates and keys, ops that see rows produced by earlier ops, on the
   compiled leg and on the compile-refused (interpreter) leg. The same
   model checks whole commits over tables split into files of every size
   class: rows kept + rows rewritten ≡ the model, new files bounded, and
   files with no writer-visible match kept by path.
2. Incremental snapshot resolution (:meth:`LakeTableStorage.snapshot` over
   :class:`~repro.storage.object_store.ReplayedLogs`) against a full replay
   of the log, over random commit histories with time travel, torn tips,
   recovery that frees a version number for a different commit, and two
   storage objects sharing one store.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.engine import expressions as ex
from repro.engine.batch import ColumnBatch
from repro.engine.compile import KernelCompiler
from repro.engine.types import INT, STRING, Field, Schema
from repro.errors import StorageAccessDenied, TransactionAbortedError
from repro.storage import CredentialVendor, LakeTableStorage, ObjectStore
from repro.storage.credentials import DELETE, LIST, READ, WRITE
from repro.txn.writes import (
    DeleteOp,
    InsertOp,
    MergeOp,
    TARGET_FILE_ROWS,
    StagedWrite,
    UpdateOp,
    apply_ops,
)
from tests.test_storage import commit_file

CTX = ex.EvalContext(user="writer", groups=frozenset())
TARGET = Schema((Field("k", INT), Field("g", STRING), Field("v", INT)))
SOURCE = Schema((Field("sk", INT), Field("sw", INT)))
#: What MERGE clauses bind over: the target under ``t``, then the source
#: under ``s``; NOT MATCHED values bind over the source alone.
SOURCE_S = SOURCE.with_qualifier("s")
COMBINED = TARGET.with_qualifier("t").concat(SOURCE_S)


# ---------------------------------------------------------------------------
# The reference model: one row at a time, interpreter only
# ---------------------------------------------------------------------------


def _eval_one(expr, schema, row):
    return expr.eval(ColumnBatch.from_rows(schema, [row]), CTX)[0]


class RowModel:
    """Row-at-a-time evaluation, each distinct ``(expression, row)`` once.

    Expressions are deterministic, so the memo only saves time on tables
    that repeat rows; a model lives no longer than the ops it evaluates."""

    def __init__(self, staged):
        self.staged, self._memo = staged, {}

    def one(self, expr, schema, row):
        key = (id(expr), tuple(row))
        if key not in self._memo:
            self._memo[key] = _eval_one(expr, schema, row)
        return self._memo[key]

    def touchable(self, row, where):
        staged = self.staged
        if staged.row_filter is not None and not self.one(
            staged.row_filter, staged.schema, row
        ):
            return False
        return where is None or bool(self.one(where, staged.schema, row))


def reference_apply(rows, staged, model=None):
    rows, schema = [list(r) for r in rows], staged.schema
    model = model or RowModel(staged)
    _one, touchable = model.one, model.touchable
    def assign(row, assignments, scope_schema, scope_row):
        new = {c: _one(e, scope_schema, scope_row) for c, e in assignments.items()}
        for column, value in new.items():
            row[schema.field_index(column)] = value
    for op in staged.ops:
        if isinstance(op, InsertOp):
            rows.extend(list(r) for r in zip(*op.columns))
        elif isinstance(op, UpdateOp):
            for row in rows:
                if touchable(row, op.where):
                    assign(row, op.assignments, schema, list(row))
        elif isinstance(op, DeleteOp):
            rows = [row for row in rows if not touchable(row, op.where)]
        else:
            both = schema.concat(op.source_schema)
            source = [list(s) for s in zip(*op.source_columns.values())]
            out, used = [], set()
            for row in rows:
                hits = [j for j, s in enumerate(source)
                        if touchable(row, None) and _one(op.on, both, row + s)]
                if len(hits) > 1:
                    raise TransactionAbortedError("ambiguous")
                used.update(hits)
                if hits and op.matched_delete:
                    continue
                if hits and op.matched_assignments is not None:
                    assign(row, op.matched_assignments, both, row + source[hits[0]])
                out.append(row)
            if op.insert_values is not None:
                out += [[_one(e, op.source_schema, s) for e in op.insert_values]
                        for j, s in enumerate(source) if j not in used]
            rows = out
    return rows


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small = st.integers(min_value=0, max_value=4)
nullable_small = st.one_of(st.none(), small)
groups = st.sampled_from(["a", "b", None])
target_rows = st.lists(st.tuples(nullable_small, groups, nullable_small), max_size=7)
source_rows = st.lists(st.tuples(nullable_small, nullable_small), max_size=4)


def _bound(expr, schema=TARGET):
    return ex.bind_expression(expr, schema)


@st.composite
def predicates(draw):
    """WHERE shapes, NULL-prone on purpose (3VL: NULL never matches)."""
    c = draw(small)
    return draw(st.sampled_from([
        None,
        ex.Comparison("=", ex.col("k"), ex.lit(c)),
        ex.Comparison(">", ex.col("v"), ex.lit(c)),
        ex.Not(ex.Comparison(">", ex.col("v"), ex.lit(c))),
        ex.IsNull(ex.col("v")),
        ex.Comparison("=", ex.col("g"), ex.lit("b")),
        ex.BooleanOp(
            "OR",
            ex.Comparison("<", ex.col("k"), ex.lit(c)),
            ex.Comparison("=", ex.col("v"), ex.col("k")),
        ),
    ]))


@st.composite
def updates(draw):
    c = draw(small)
    assignments = draw(st.sampled_from([
        {"v": ex.Arithmetic("+", ex.col("v"), ex.lit(1))},
        {"v": ex.col("k"), "k": ex.col("v")},  # swap: both read the old row
        {"g": ex.lit(draw(st.sampled_from(["a", "b"])))},  # moves visibility
        {"v": ex.lit(c)},
        {"v": ex.lit(None), "g": ex.col("g")},
    ]))
    where = draw(predicates())
    return UpdateOp(
        assignments={c_: _bound(e) for c_, e in assignments.items()},
        where=None if where is None else _bound(where),
    )


ON_SHAPES = {
    "equi": ex.Comparison("=", ex.col("t.k"), ex.col("s.sk")),
    "non-equi": ex.Comparison("<", ex.col("t.v"), ex.col("s.sw")),
    "mixed": ex.BooleanOp(
        "AND",
        ex.Comparison("=", ex.col("s.sk"), ex.col("t.k")),
        ex.Comparison("<=", ex.col("t.v"), ex.col("s.sw")),
    ),
    "two-key": ex.BooleanOp(
        "AND",
        ex.Comparison("=", ex.col("t.k"), ex.col("s.sk")),
        ex.Comparison("=", ex.col("t.v"), ex.col("s.sw")),
    ),
    # The residual reads a NULL-prone source column under NOT: NOT NULL is
    # NULL, which never matches.
    "null-residual": ex.BooleanOp(
        "AND",
        ex.Comparison("=", ex.col("t.k"), ex.col("s.sk")),
        ex.Not(ex.Comparison(">", ex.col("s.sw"), ex.col("t.v"))),
    ),
}


@st.composite
def merges(draw):
    rows = draw(source_rows)
    matched = draw(st.sampled_from(["update", "update-both", "delete", None]))
    assignments = {
        "update": {"v": ex.col("s.sw")},
        "update-both": {
            "v": ex.Arithmetic("+", ex.col("t.v"), ex.col("s.sw")),
            "g": ex.lit("b"),
        },
    }.get(matched)
    insert = draw(st.sampled_from([
        None,
        [ex.col("s.sk"), ex.lit("a"), ex.col("s.sw")],
        [ex.col("s.sw"), ex.lit(None), ex.Arithmetic("*", ex.col("s.sk"), ex.lit(2))],
    ]))
    if matched is None and insert is None:
        insert = [ex.col("s.sk"), ex.lit("b"), ex.lit(0)]
    return MergeOp(
        source_schema=SOURCE,
        source_columns={
            "sk": [r[0] for r in rows], "sw": [r[1] for r in rows],
        },
        on=_bound(draw(st.sampled_from(sorted(ON_SHAPES.values(), key=str))), COMBINED),
        matched_assignments=None if assignments is None else {
            c: _bound(e, COMBINED) for c, e in assignments.items()
        },
        matched_delete=matched == "delete",
        insert_values=None if insert is None else [
            _bound(e, SOURCE_S) for e in insert
        ],
    )


ops = st.one_of(
    st.lists(st.tuples(nullable_small, groups, nullable_small), max_size=3).map(
        lambda rows: InsertOp(columns=[[row[i] for row in rows] for i in range(3)])
    ),
    updates(),
    st.builds(
        DeleteOp,
        where=predicates().map(lambda p: None if p is None else _bound(p)),
    ),
    merges(),
)
row_filters = st.sampled_from([
    None,
    ex.Comparison("=", ex.col("g"), ex.lit("a")),  # NULL group: hidden
    ex.BooleanOp(
        "OR", ex.IsNull(ex.col("g")), ex.Comparison("<", ex.col("k"), ex.lit(3))
    ),
])


def _outcome(fn):
    try:
        return fn()
    except TransactionAbortedError:
        return "aborted"


class TestMaterializerMatchesTheRowModel:
    @settings(max_examples=250, deadline=None)
    @given(rows=target_rows, row_filter=row_filters, staged_ops=st.lists(ops, max_size=4))
    def test_random_op_sequences(self, rows, row_filter, staged_ops):
        staged = StagedWrite(
            table="t",
            schema=TARGET,
            row_filter=None if row_filter is None else _bound(row_filter),
            ops=staged_ops,
        )
        base = {
            name: [row[i] for row in rows] for i, name in enumerate(TARGET.names)
        }
        snapshot = {name: list(col) for name, col in base.items()}
        expected = _outcome(lambda: reference_apply(rows, staged))
        for compiler in (KernelCompiler(), None):
            got = _outcome(lambda: apply_ops(base, staged, CTX, compiler))
            if got != "aborted":
                assert list(got) == TARGET.names
                got = [list(r) for r in zip(*got.values())]
            assert got == expected, ("compiled" if compiler else "interpreted")
            assert base == snapshot  # the base snapshot is never mutated

    @pytest.mark.parametrize("shape", sorted(ON_SHAPES))
    @pytest.mark.parametrize("compiler", [KernelCompiler(), None], ids=["compiled", "refused"])
    def test_duplicate_source_keys_abort_as_ambiguous(self, shape, compiler):
        merge = MergeOp(
            source_schema=SOURCE,
            source_columns={"sk": [1, 1], "sw": [5, 5]},
            on=_bound(ON_SHAPES[shape], COMBINED),
            matched_assignments={"v": _bound(ex.col("s.sw"), COMBINED)},
            matched_delete=False,
            insert_values=None,
        )
        staged = StagedWrite("t", TARGET, None, [merge])
        with pytest.raises(TransactionAbortedError, match="multiple source rows"):
            v = 4 if shape == "non-equi" else 5
            apply_ops({"k": [1], "g": ["a"], "v": [v]}, staged, CTX, compiler)

    def test_not_matched_rows_are_inserted_in_source_order_after_the_target(self):
        merge = MergeOp(
            source_schema=SOURCE,
            source_columns={"sk": [9, 1, 7, None], "sw": [90, 10, 70, 0]},
            on=_bound(ON_SHAPES["equi"], COMBINED),
            matched_assignments=None,
            matched_delete=True,
            insert_values=[
                _bound(e, SOURCE_S)
                for e in (ex.col("s.sk"), ex.lit("a"), ex.col("s.sw"))
            ],
        )
        staged = StagedWrite("t", TARGET, None, [merge])
        out = apply_ops(
            {"k": [1, 2], "g": ["a", "a"], "v": [0, 0]}, staged, CTX, KernelCompiler()
        )
        # k=1 matched and was deleted; a NULL source key matches nothing.
        assert out == {
            "k": [2, 9, 7, None], "g": ["a"] * 4, "v": [0, 90, 70, 0],
        }

    def test_the_compiled_leg_really_runs_kernels(self):
        compiler = KernelCompiler()
        staged = StagedWrite(
            "t", TARGET, _bound(ex.Comparison("=", ex.col("g"), ex.lit("a"))),
            [UpdateOp(
                {"v": _bound(ex.Arithmetic("+", ex.col("v"), ex.lit(1)))},
                _bound(ex.Comparison(">", ex.col("k"), ex.lit(0))),
            )],
        )
        base = {"k": [0, 1, 2], "g": ["a", "a", "b"], "v": [1, 1, 1]}
        assert apply_ops(base, staged, CTX, compiler)["v"] == [1, 2, 1]
        # One fused filter -> WHERE pass, one SET projection.
        assert compiler.cache.stats.insertions == 2
        apply_ops(base, staged, CTX, compiler)
        assert compiler.cache.stats.hits == 2


# ---------------------------------------------------------------------------
# File-granular commits over random file splits
# ---------------------------------------------------------------------------

#: Below the fold size, at it, between it and the bound, and above the bound.
FILE_SIZES = (
    0, 1, 5, TARGET_FILE_ROWS // 2 - 1, TARGET_FILE_ROWS // 2, 1500,
    TARGET_FILE_ROWS + 1, 2600,
)
#: Each file repeats one to three template rows, so a file often holds no
#: row some predicate matches — the files a commit must leave alone.
split_files = st.lists(
    st.tuples(
        st.sampled_from(FILE_SIZES),
        st.lists(st.tuples(nullable_small, groups, nullable_small), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
).map(lambda specs: [[rows[i % len(rows)] for i in range(n)] for n, rows in specs])


def _stage(txn, table, op):
    """Stage a pre-bound op through the transaction's governed API."""
    if isinstance(op, InsertOp):
        txn.insert(table, op.columns)
    elif isinstance(op, UpdateOp):
        txn.update(table, op.assignments, op.where)
    elif isinstance(op, DeleteOp):
        txn.delete(table, op.where)
    else:
        txn.merge(
            table, "t", op.source_schema, op.source_columns, "s", op.on,
            op.matched_assignments, op.matched_delete, op.insert_values,
        )


class TestFileGranularCommitsMatchTheRowModel:
    """The whole commit path — probe, working set, re-chunking, log actions
    — over tables split into files of every size class. Commits run under
    an ambient query context, so an environment-armed chaos schedule
    injects ``storage.get`` / ``txn.*`` faults into them."""

    _workspace = None
    _tables = 0

    @classmethod
    def workspace(cls):
        from repro.platform import Workspace

        if cls._workspace is None:
            ws = Workspace()
            ws.add_user("admin", admin=True)
            ws.catalog.create_catalog("main", owner="admin")
            ws.catalog.create_schema("main.s", owner="admin")
            cls._workspace = ws
        return cls._workspace

    @classmethod
    def teardown_class(cls):
        if cls._workspace is not None:
            cls._workspace.shutdown()
            cls._workspace = None

    def _commit(self, files, row_filter, staged_ops, compiler):
        """Commit ``staged_ops`` over a fresh table holding ``files``;
        returns (live files before, after, outcome)."""
        from repro.catalog.policies import RowFilter
        from repro.common.context import QueryContext

        ws = self.workspace()
        catalog, cls = ws.catalog, type(self)
        cls._tables += 1
        table = f"main.s.t{cls._tables}"
        admin = catalog.principals.context_for("admin")
        catalog.create_table(table, TARGET, owner="admin")
        for rows in files:
            catalog.write_table(
                table, {n: [r[i] for r in rows] for i, n in enumerate(TARGET.names)}, admin
            )
        if row_filter is not None:
            catalog.set_row_filter(table, RowFilter(table, row_filter, "admin"), admin)
        storage = catalog.table_storage(catalog.get_table(table))
        before = storage.snapshot(catalog._service_credential).files
        manager = catalog.txn_manager
        manager.compiler = compiler
        outcome = "committed"
        try:
            with QueryContext.create("admin", telemetry=catalog.telemetry).activate():
                manager.run(admin, lambda txn: [_stage(txn, table, op) for op in staged_ops])
        except TransactionAbortedError:
            outcome = "aborted"
        after = storage.snapshot(catalog._service_credential).files
        read = {
            f.path: [tuple(r) for r in zip(*storage.read_file(
                f, catalog._service_credential
            ).values())]
            for f in after
        }
        return before, after, read, outcome

    @settings(max_examples=60, deadline=None)
    @given(files=split_files, row_filter=row_filters, staged_ops=st.lists(ops, min_size=1, max_size=3))
    def test_random_splits_and_op_sequences(self, files, row_filter, staged_ops):
        staged = StagedWrite(
            "t", TARGET, None if row_filter is None else _bound(row_filter), staged_ops
        )
        model = RowModel(staged)
        base = [row for rows in files for row in rows]
        expected = _outcome(lambda: reference_apply(base, staged, model))
        merges = any(isinstance(op, MergeOp) for op in staged_ops)
        for compiler in (KernelCompiler(), None):
            before, after, read, outcome = self._commit(
                files, row_filter, staged_ops, compiler
            )
            leg = "compiled" if compiler else "refused"
            if expected == "aborted":
                assert outcome == "aborted" and after == before, leg
                continue
            assert outcome == "committed", leg
            got = [row for f in after for row in read[f.path]]
            assert Counter(got) == Counter(map(tuple, expected)), leg
            kept = set(before) & set(after)
            assert all(f.num_rows <= TARGET_FILE_ROWS for f in set(after) - kept), leg
            for f, rows in zip(before, files):
                matched = merges or any(
                    model.touchable(row, op.where)
                    for op in staged_ops if isinstance(op, (UpdateOp, DeleteOp))
                    for row in rows
                )
                if matched and rows:
                    assert f not in kept, (leg, f.num_rows)
                elif f.num_rows >= TARGET_FILE_ROWS // 2:
                    assert f in kept, (leg, f.num_rows)


def test_the_row_at_a_time_materializer_is_gone_from_src():
    """One materializer: nothing under ``src/repro/txn`` transposes to rows
    any more (the row model above is a test reference, not a path)."""
    txn = Path(__file__).parent.parent / "src" / "repro" / "txn"
    gone = re.compile(r"from_rows|to_rows|_as_rows|_as_columns|def _visible\(")
    assert not [
        f"{path.name}:{n}" for path in txn.glob("*.py")
        for n, line in enumerate(path.read_text().splitlines(), 1) if gone.search(line)
    ]


# ---------------------------------------------------------------------------
# Incremental snapshot resolution == full replay
# ---------------------------------------------------------------------------

ROOT = "s3://bucket/t"


def full_replay(store, cred, root, version=None):
    """(version, column names, sorted live paths) straight from the log,
    skipping a torn tip only when no version was asked for."""
    entries = store.list(f"{root}/_txn_log/", cred)
    live, columns, resolved = {}, (), -1
    for v, path in enumerate(entries):
        if version is not None and v > version:
            break
        try:
            commit = json.loads(store.get(path, cred).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            assert version is None and v == len(entries) - 1, "torn mid-log"
            break
        columns, resolved = tuple(commit["columns"]), v
        for action in commit["actions"]:
            if "add" in action:
                live[action["add"]] = (action["rows"], action["bytes"])
            else:
                live.pop(action["remove"], None)
    return resolved, columns, sorted(live.items())


def _resolved(snapshot):
    return (
        snapshot.version,
        snapshot.column_names,
        [(f.path, (f.num_rows, f.size_bytes)) for f in snapshot.files],
    )


steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 1), st.integers(1, 3)),
        st.tuples(st.just("overwrite"), st.integers(0, 1), st.integers(1, 3)),
        st.tuples(st.just("tear"), st.integers(0, 1), st.just(0)),
        st.tuples(st.just("recover"), st.integers(0, 1), st.just(0)),
        st.tuples(st.just("travel"), st.integers(0, 1), st.integers(0, 40)),
    ),
    min_size=1,
    max_size=14,
)


class TestIncrementalSnapshotMatchesFullReplay:
    @pytest.fixture
    def world(self):
        clock = VirtualClock()
        vendor = CredentialVendor(clock=clock, ttl_seconds=3600.0)
        store = ObjectStore(clock=clock)
        cred = vendor.issue("root", ["s3://"], {READ, WRITE, LIST, DELETE})
        return store, vendor, cred

    @settings(max_examples=120, deadline=None)
    @given(script=steps)
    def test_random_histories(self, script):
        clock = VirtualClock()
        store = ObjectStore(clock=clock)
        cred = CredentialVendor(clock=clock, ttl_seconds=3600.0).issue(
            "root", ["s3://"], {READ, WRITE, LIST, DELETE}
        )
        # Two storage objects over one store share the replayed state.
        handles = [LakeTableStorage(store, ROOT), LakeTableStorage(store, ROOT)]
        handles[0].create(["a"], cred)
        for action, who, arg in script:
            storage = handles[who]
            latest = storage.latest_version(cred)
            torn = full_replay(store, cred, ROOT)[0] < latest
            if action == "append":
                commit_file(storage, {"a": list(range(arg))}, cred)
            elif action == "overwrite":
                storage.overwrite({"a": list(range(arg))}, cred)
            elif action == "tear" and not torn:
                store.put(f"{ROOT}/_txn_log/{latest + 1:010d}.json", b"\x00torn", cred)
            elif action == "recover":
                storage.recover(cred)
            elif action == "travel":
                version = arg % (full_replay(store, cred, ROOT)[0] + 1)
                assert _resolved(storage.snapshot(cred, version)) == full_replay(
                    store, cred, ROOT, version
                )
            for handle in handles:
                assert _resolved(handle.snapshot(cred)) == full_replay(store, cred, ROOT)
        durable = full_replay(store, cred, ROOT)[0]
        for version in range(durable + 1):
            assert _resolved(handles[1].snapshot(cred, version)) == full_replay(
                store, cred, ROOT, version
            )

    def test_a_rolled_back_version_number_is_reused_by_a_different_commit(self, world):
        store, _, cred = world
        first, second = LakeTableStorage(store, ROOT), LakeTableStorage(store, ROOT)
        first.create(["a"], cred)
        commit_file(first, {"a": [1]}, cred)
        store.put(f"{ROOT}/_txn_log/{2:010d}.json", b"\x00torn", cred)
        assert second.snapshot(cred).version == 1  # torn tip skipped
        assert first.recover(cred)["torn_commits_rolled_back"] == 1
        commit_file(second, {"a": [2, 3]}, cred)  # a different commit claims version 2
        for handle in (first, second):
            assert _resolved(handle.snapshot(cred)) == full_replay(store, cred, ROOT)
            assert handle.snapshot(cred).num_rows == 3
        # ... and the inline rollback (no explicit recover) behaves the same.
        store.put(f"{ROOT}/_txn_log/{3:010d}.json", b"\x00torn", cred)
        first.snapshot(cred)
        second.overwrite({"a": [9]}, cred)
        assert first.read_all(cred) == {"a": [9]}
        assert _resolved(first.snapshot(cred)) == full_replay(store, cred, ROOT)

    def test_resolution_cost_is_the_commits_since_the_last_one(self, world):
        store, _, cred = world
        storage = LakeTableStorage(store, ROOT)
        storage.create(["a"], cred)
        for i in range(30):
            commit_file(storage, {"a": [i]}, cred)

        def log_gets(fn):
            before = store.stats.objects_read
            fn()
            return store.stats.objects_read - before

        assert log_gets(lambda: storage.snapshot(cred)) == 1  # the tip, always
        assert log_gets(lambda: storage.snapshot(cred, 29)) == 1
        store.replayed_logs.drop(ROOT)
        assert log_gets(lambda: storage.snapshot(cred)) == 31  # cold: whole log
        assert log_gets(lambda: LakeTableStorage(store, ROOT).snapshot(cred)) == 1

    def test_warm_state_is_no_authorization_shortcut(self, world):
        store, vendor, cred = world
        storage = LakeTableStorage(store, ROOT)
        storage.create(["a"], cred)
        commit_file(storage, {"a": [1]}, cred)
        storage.snapshot(cred)  # replayed state is warm
        list_only = vendor.issue("nosy", [ROOT], {LIST})
        with pytest.raises(StorageAccessDenied):
            storage.snapshot(list_only)
        elsewhere = vendor.issue("nosy", ["s3://bucket/other"], {READ, LIST})
        with pytest.raises(StorageAccessDenied):
            storage.snapshot(elsewhere)
        with pytest.raises(StorageAccessDenied):
            storage.snapshot(elsewhere, version=0)

    def test_concurrent_readers_and_a_writer_share_the_replayed_state(self, world):
        store, _, cred = world
        LakeTableStorage(store, ROOT).create(["a"], cred)
        commits, errors, stop = 40, [], threading.Event()

        def read():
            storage = LakeTableStorage(store, ROOT)
            while not stop.is_set():
                try:
                    for version in (None, 0, 3):
                        snap = storage.snapshot(cred, version)
                        # Every append adds exactly one one-row file.
                        assert len(snap.files) == snap.version == snap.num_rows
                except Exception as exc:  # noqa: BLE001 - reported below
                    if "out of range" not in str(exc):
                        errors.append(exc)
                        return

        readers = [threading.Thread(target=read) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            writer = LakeTableStorage(store, ROOT)
            for i in range(commits):
                commit_file(writer, {"a": [i]}, cred)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not errors and not any(r.is_alive() for r in readers)
        assert _resolved(writer.snapshot(cred)) == full_replay(store, cred, ROOT)
        assert writer.snapshot(cred).version == commits

    def test_replayed_state_is_bounded(self, world):
        store, _, cred = world
        logs = store.replayed_logs
        for i in range(logs._max_roots + 5):
            logs.remember(f"root-{i}", 0, object())
        assert len(logs._roots) == logs._max_roots
        for v in range(logs._versions_per_root + 5):
            logs.remember("root-hot", v, v)
        assert len(logs._roots["root-hot"]) == logs._versions_per_root
        assert logs.nearest("root-hot", 10**6) == logs._versions_per_root + 4
        assert logs.nearest("root-hot", 0) is None  # evicted, not wrong
