"""Staged write operations and their governed materialization.

A transaction never mutates table bytes while statements execute; each
INSERT / UPDATE / DELETE / MERGE is checked against fine-grained governance
*at staging time* and recorded as a :class:`WriteOp`. At commit,
:func:`rewrite_files` picks the pinned snapshot's data files that some op
touches and calls :func:`apply_ops` to fold the staged ops into their rows;
every other file is kept as it is.

Write-side FGAC rules (enforced by :func:`check_write`):

- every write needs ``MODIFY`` on the target table;
- UPDATE / DELETE / MERGE additionally need ``SELECT`` (they read existing
  rows to decide what to touch);
- a statement that *assigns to* or *references* a masked column of the
  target is refused with :class:`~repro.errors.WriteDeniedError` — the
  writer would otherwise read (or clobber based on) values the mask hides.
  Plain INSERT into a masked table stays legal: it reads nothing;
- the target's row filter becomes a *visibility mask* during
  materialization: rows the writer cannot see are never updated, deleted,
  or merge-matched, exactly as if they were not in the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from itertools import compress
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.catalog.privileges import MODIFY, SELECT, UserContext
from repro.engine.batch import ColumnBatch
from repro.engine.compile import (
    KernelCompiler,
    collect_loop,
    hash_keys,
    join_keys,
    memoisable_policy,
    run_pipeline,
)
from repro.engine.expressions import (
    BoundRef,
    EvalContext,
    Expression,
    UnresolvedColumn,
    conjoin,
    contains_user_code,
    shift_refs,
    split_equi_condition,
)
from repro.engine.physical import RowSelection
from repro.engine.types import Field, Schema
from repro.errors import AnalysisError, TransactionAbortedError, WriteDeniedError
from repro.storage.object_store import RowPolicy

if TYPE_CHECKING:
    from repro.catalog.metastore import UnityCatalog
    from repro.storage.table_format import DataFile

#: Row bound of every data file a read-dependent commit writes. Live files
#: under half of it are folded into any commit that rewrites files, so
#: blind-insert files do not pile up.
TARGET_FILE_ROWS = 2048


# ---------------------------------------------------------------------------
# Expression binding
# ---------------------------------------------------------------------------


def _strip(name: str) -> str:
    return name.rpartition(".")[2]


def bind_expression(expr: Expression, schema: Schema) -> Expression:
    """Resolve column references in ``expr`` to positions in ``schema``.

    Qualified names (``t.col`` or an alias prefix) fall back to the bare
    column name; the transaction tier evaluates expressions over raw table
    rows, where a qualifier carries no information.
    """

    def resolve(node: Expression) -> Expression:
        if isinstance(node, UnresolvedColumn):
            try:
                index = schema.field_index(node.name)
            except AnalysisError:
                index = schema.field_index(_strip(node.name))
            f = schema[index]
            return BoundRef(index, f.name, f.dtype)
        return node

    return expr.transform(resolve)


def referenced_columns(expr: Expression | None, schema: Schema) -> set[str]:
    """Bare names of ``schema`` columns that ``expr`` references."""
    if expr is None:
        return set()
    out: set[str] = set()
    for node in expr.walk():
        name: str | None = None
        if isinstance(node, UnresolvedColumn):
            name = _strip(node.name)
        elif isinstance(node, BoundRef):
            name = node.name
        if name is not None and schema.contains(name):
            out.add(name)
    return out


# ---------------------------------------------------------------------------
# Staged operations
# ---------------------------------------------------------------------------


@dataclass
class InsertOp:
    """Append rows given as columns, in table column order (read, never
    mutated: a bulk load's lists pass through without a copy)."""

    columns: list[list]


@dataclass
class UpdateOp:
    """Assign expressions to columns on visible rows matching ``where``."""

    assignments: dict[str, Expression]
    where: Expression | None


@dataclass
class DeleteOp:
    """Remove visible rows matching ``where``."""

    where: Expression | None


@dataclass
class MergeOp:
    """MERGE: match target rows against a source relation on a predicate.

    ``on``, and the matched-clause assignment expressions, are bound over
    the *combined* schema ``target fields + source fields``; not-matched
    insert values are bound over the source schema alone.
    """

    source_schema: Schema
    source_columns: dict[str, list]
    on: Expression
    matched_assignments: dict[str, Expression] | None
    matched_delete: bool
    insert_values: list[Expression] | None


WriteOp = InsertOp | UpdateOp | DeleteOp | MergeOp


@dataclass
class StagedWrite:
    """Everything :func:`apply_ops` needs to materialize one table's ops."""

    table: str
    schema: Schema
    row_filter: Expression | None
    ops: list[WriteOp] = dc_field(default_factory=list)

    @property
    def read_dependent(self) -> bool:
        """Does any op read existing rows (update/delete/merge)?"""
        return any(not isinstance(op, InsertOp) for op in self.ops)


# ---------------------------------------------------------------------------
# Write-side FGAC
# ---------------------------------------------------------------------------


def check_write(
    catalog: "UnityCatalog",
    ctx: UserContext,
    table_name: str,
    *,
    reads_rows: bool,
    assigned: set[str] = frozenset(),
    referenced: set[str] = frozenset(),
) -> None:
    """Authorize one write statement against the target's governance.

    Raises :class:`~repro.errors.PermissionDenied` when the principal lacks
    MODIFY (or SELECT for row-reading statements), and
    :class:`~repro.errors.WriteDeniedError` when the statement assigns to or
    references a masked column.
    """
    catalog.check_privilege(ctx, MODIFY, table_name)
    if reads_rows:
        catalog.check_privilege(ctx, SELECT, table_name)
    masked = {m.column for m in catalog.column_masks_of(table_name)}
    hit = sorted(masked & set(assigned))
    if hit:
        raise WriteDeniedError(
            f"{ctx.user}: cannot write to masked column(s) {hit} of "
            f"'{table_name}'"
        )
    hit = sorted(masked & set(referenced))
    if hit:
        raise WriteDeniedError(
            f"{ctx.user}: write statement reads masked column(s) {hit} of "
            f"'{table_name}'; masked values must not feed a write"
        )


def bound_row_filter(
    catalog: "UnityCatalog", table_name: str, schema: Schema
) -> Expression | None:
    """The target's effective row filter, bound over its raw schema."""
    rf = catalog.row_filter_of(table_name)
    if rf is None:
        return None
    if contains_user_code(rf.condition):
        # Policies are validated against this at creation; defend anyway.
        raise WriteDeniedError(
            f"row filter of '{table_name}' contains user code; refusing to "
            "evaluate it in the transaction tier"
        )
    return bind_expression(rf.condition, schema)


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------
#
# One evaluation order for every row-reading op (DESIGN.md §13):
# row filter -> WHERE / ON -> SET / matched assignments, each stage only
# over the rows the previous one passed, so a user expression never sees —
# and can never raise on — a row the filter hides. Row filter -> WHERE is
# one collect loop, row filter leftmost; later stages run over the
# positions it yields (take -> eval -> scatter).


class _Evaluator:
    """Compiled-first evaluation: every pass is a ``collect`` loop, generated
    code where the compiler accepts it and interpreted otherwise.

    ``compiler=None`` (or a compiler that refuses the loop) leaves the
    interpreter in place; both legs compute the same values.
    """

    def __init__(self, eval_ctx: EvalContext, compiler: KernelCompiler | None):
        self._ctx = eval_ctx
        self._compiler = compiler

    def selection(
        self, schema: Schema, *conditions: Expression | None
    ) -> RowSelection | None:
        """One pass of ``conditions`` in order, compiled here (``None``: no
        condition — every row passes)."""
        condition = conjoin([c for c in conditions if c is not None])
        if condition is None:
            return None
        return RowSelection(condition, schema.fields, self._compiler)

    def selected(self, select: RowSelection, columns: dict[str, list]) -> list[int]:
        """Positions of the rows of ``columns`` (by name) ``select`` admits."""
        return select.admitted([columns[name] for name in select.columns], self._ctx)

    def predicate(self, condition: Expression) -> Callable[[ColumnBatch], list]:
        """``batch -> row mask`` (truthy = match; NULL never matches)."""
        loop = collect_loop(self._compiler, None, (condition,))
        return lambda batch: run_pipeline(*loop, batch, self._ctx)[0]

    def project(self, exprs: Sequence[Expression], batch: ColumnBatch) -> list[list]:
        """One value column per expression."""
        return run_pipeline(*collect_loop(self._compiler, None, exprs), batch, self._ctx)


def _references(exprs: Iterable[Expression]) -> set[int]:
    return set().union(*(expr.references() for expr in exprs))


def _take(col: list, rows: Sequence[int]) -> list:
    return list(map(col.__getitem__, rows))


def _gather(
    columns: list[list], schema: Schema, rows: Sequence[int] | None, needed: set[int]
) -> ColumnBatch:
    """The sub-batch of ``rows`` (``None`` = every row, no copy).

    Only the ``needed`` column positions carry values; the others share one
    NULL filler, so taking 1 column of a wide table costs 1 column.
    """
    if rows is None:
        return ColumnBatch(schema, columns)
    filler = [None] * len(rows)
    return ColumnBatch(
        schema,
        [_take(col, rows) if i in needed else filler
         for i, col in enumerate(columns)],
    )


def _scatter(col: list, rows: Sequence[int], values: list) -> None:
    for i, value in zip(rows, values):
        col[i] = value


def _drop_rows(columns: list[list], rows: Sequence[int]) -> None:
    if not rows:
        return
    keep = [True] * len(columns[0])
    for i in rows:
        keep[i] = False
    columns[:] = [list(compress(col, keep)) for col in columns]


def apply_ops(
    base: dict[str, list],
    staged: StagedWrite,
    eval_ctx: EvalContext,
    compiler: KernelCompiler | None = None,
) -> dict[str, list]:
    """Fold the staged ops into ``base`` and return the result columns.

    The row filter is re-evaluated against the *current* working columns
    before each row-reading op, so an op only ever touches rows the writer
    is allowed to see — including rows produced by its own earlier ops.
    ``base`` is not mutated.
    """
    names = list(staged.schema.names)
    columns = [list(base[name]) for name in names]
    ev = _Evaluator(eval_ctx, compiler)
    for op in staged.ops:
        if isinstance(op, InsertOp):
            for col, values in zip(columns, op.columns):
                col.extend(values)
        elif isinstance(op, UpdateOp):
            _apply_update(columns, staged, op, ev)
        elif isinstance(op, DeleteOp):
            rows = _matching_rows(columns, staged, op.where, ev)
            _drop_rows(columns, range(len(columns[0])) if rows is None else rows)
        elif isinstance(op, MergeOp):
            _apply_merge(columns, staged, op, ev)
        else:  # pragma: no cover - op union is closed
            raise TransactionAbortedError(f"unknown write op {type(op).__name__}")
    return dict(zip(names, columns))


def _matching_rows(
    columns: list[list],
    staged: StagedWrite,
    where: Expression | None,
    ev: _Evaluator,
) -> list[int] | None:
    """Visible row positions matching ``where`` (``None`` = every row)."""
    select = ev.selection(staged.schema, staged.row_filter, where)
    if select is None:
        return None
    return ev.selected(select, dict(zip(staged.schema.names, columns)))


def _apply_update(
    columns: list[list], staged: StagedWrite, op: UpdateOp, ev: _Evaluator
) -> None:
    rows = _matching_rows(columns, staged, op.where, ev)
    if rows is not None and not rows:
        return
    exprs = list(op.assignments.values())
    sub = _gather(columns, staged.schema, rows, _references(exprs))
    new_values = ev.project(exprs, sub)
    for name, values in zip(op.assignments, new_values):
        index = staged.schema.field_index(name)
        if rows is None:
            # ``values`` may alias a live column (``SET a = b`` interpreted):
            # replace, never write through.
            columns[index] = list(values)
        else:
            _scatter(columns[index], rows, values)


def _pair_batch(
    columns: list[list],
    staged: StagedWrite,
    op: MergeOp,
    source: ColumnBatch,
    pairs: Sequence[tuple[int, int]],
    needed: set[int],
) -> ColumnBatch:
    """One combined (target ++ source) row per ``(target row, source row)``."""
    t_rows, s_rows = zip(*pairs)
    return ColumnBatch(
        combined_schema(staged.schema, op.source_schema),
        _gather(columns, staged.schema, t_rows, needed).columns
        + [_take(col, s_rows) for col in source.columns],
    )


def _merge_matches(
    columns: list[list],
    staged: StagedWrite,
    op: MergeOp,
    source: ColumnBatch,
    ev: _Evaluator,
) -> list[tuple[int, int]]:
    """``(target row, source row)`` pairs satisfying ON, visible targets only.

    Equi-conjuncts of ON are hash-matched (``join_keys`` / ``hash_keys``,
    as a join probe's) and any residual is evaluated over the candidate
    pairs. An ON without an equi-conjunct falls back to a nested loop: one
    source row at a time against the visible target columns.
    """
    schema, width = staged.schema, len(staged.schema)
    visible = _matching_rows(columns, staged, None, ev)
    equi = split_equi_condition(op.on, width)
    if equi is None:
        targets = _gather(columns, schema, visible, op.on.references())
        count = targets.num_rows
        combined = combined_schema(schema, op.source_schema)
        matches = ev.predicate(op.on)
        pairs: list[tuple[int, int]] = []
        for j in range(source.num_rows if count else 0):
            batch = ColumnBatch(
                combined,
                targets.columns + [[col[j]] * count for col in source.columns],
            )
            pairs.extend((i, j) for i in compress(range(count), matches(batch)))
        residual = None
    else:
        target_keys, source_keys, residual = equi
        source_keys = [shift_refs(key, -width) for key in source_keys]
        targets = _gather(columns, schema, visible, _references(target_keys))
        probe = hash_keys(
            join_keys(ev.project(source_keys, source)), range(source.num_rows)
        ).get
        target_rows = join_keys(ev.project(target_keys, targets))
        pairs = [(i, j) for i, key in enumerate(target_rows) for j in probe(key, ())]
    if visible is not None:
        pairs = [(visible[i], j) for i, j in pairs]
    if residual is not None and pairs:
        batch = _pair_batch(columns, staged, op, source, pairs, residual.references())
        pairs = list(compress(pairs, ev.predicate(residual)(batch)))
    return pairs


def _apply_merge(
    columns: list[list], staged: StagedWrite, op: MergeOp, ev: _Evaluator
) -> None:
    source = ColumnBatch.from_dict(op.source_schema, op.source_columns)
    matched: dict[int, int] = {}
    for i, j in _merge_matches(columns, staged, op, source, ev):
        if i in matched:
            raise TransactionAbortedError(
                f"MERGE into '{staged.table}': target row matched by "
                "multiple source rows (ambiguous matched-clause result)"
            )
        matched[i] = j
    if op.matched_delete:
        _drop_rows(columns, list(matched))
    elif op.matched_assignments is not None and matched:
        exprs = list(op.matched_assignments.values())
        batch = _pair_batch(
            columns, staged, op, source, list(matched.items()), _references(exprs)
        )
        for name, values in zip(op.matched_assignments, ev.project(exprs, batch)):
            _scatter(columns[staged.schema.field_index(name)], list(matched), values)
    if op.insert_values is not None:
        taken = set(matched.values())
        fresh = [j for j in range(source.num_rows) if j not in taken]
        if fresh:
            inserted = ev.project(op.insert_values, source.take(fresh))
            for col, values in zip(columns, inserted):
                col.extend(values)


# ---------------------------------------------------------------------------
# File-granular copy-on-write
# ---------------------------------------------------------------------------


@dataclass
class FileRewrite:
    """What one read-dependent commit replaces: ``removed`` files give way
    to new files holding ``chunks`` (at most :data:`TARGET_FILE_ROWS` rows
    each); every other live file is kept, path and bytes."""

    removed: list["DataFile"]
    chunks: list[dict[str, list]]


def rewrite_files(
    files: Sequence["DataFile"],
    read: Callable[..., dict[str, list]],
    staged: StagedWrite,
    eval_ctx: EvalContext,
    compiler: KernelCompiler | None = None,
    policy_epoch: int | None = None,
) -> FileRewrite:
    """Fold ``staged`` into just the live ``files`` it touches.

    ``read(file, columns, policy)`` returns the named columns of one file
    (every column for ``None``), only the rows a row ``policy`` admits when
    it is given one. Each file is probed on the columns its passes read, one
    pass per op, compiled once per commit, and joins the working set, read
    whole, only when some op's pass yields a row. With a ``policy_epoch``
    and a row filter the governed memo may hold (:func:`~repro.engine
    .compile.memoisable_policy`), the probe reads the writer's admitted rows
    through it and a pass is the op's WHERE alone; otherwise a pass is row
    filter, then WHERE, over raw columns. A file no op matches is left
    untouched by every op, so probing the base bytes for all ops at once is
    exact. MERGE touches every file: its ambiguity check and its
    not-matched inserts depend on the whole table. So does a DELETE with
    neither WHERE nor row filter, which reads no file at all.
    """
    schema = staged.schema
    wipes = [i for i, op in enumerate(staged.ops) if staged.row_filter is None
             and isinstance(op, DeleteOp) and op.where is None]
    if wipes:
        # The writer sees every row and deletes them all (an overwrite, say):
        # no row from before the last such delete survives, so none is read.
        staged = replace(staged, ops=staged.ops[wipes[-1] + 1:])
    if wipes or any(isinstance(op, MergeOp) for op in staged.ops):
        touched = set(files)
    else:
        ev = _Evaluator(eval_ctx, compiler)
        row_filter, policy = staged.row_filter, None
        if policy_epoch is not None and row_filter is not None and memoisable_policy(row_filter):
            policy = RowPolicy.bind(ev.selection(schema, row_filter), eval_ctx, policy_epoch)
            row_filter = None
        passes = [
            ev.selection(schema, row_filter, op.where)
            for op in staged.ops if not isinstance(op, InsertOp)
        ]
        probe = sorted({name for p in passes if p is not None for name in p.columns})
        if policy is not None:
            probe = probe or [policy.columns[0]]  # carries the admitted row count

        def touches(f: "DataFile") -> bool:
            probed = read(f, probe, policy)
            if policy is not None and not probed[probe[0]]:
                return False  # the writer sees no row of this file
            return any(p is None or ev.selected(p, probed) for p in passes)

        touched = {f for f in files if f.num_rows and touches(f)}
    writes = touched or any(isinstance(op, (InsertOp, MergeOp)) for op in staged.ops)
    removed = [
        f for f in files if f in touched or f.num_rows < TARGET_FILE_ROWS // 2
    ] if writes else []
    base: dict[str, list] = {name: [] for name in schema.names}
    for f in [] if wipes else removed:
        columns = read(f, None)
        for name, values in base.items():
            values.extend(columns[name])
    result = apply_ops(base, staged, eval_ctx, compiler)
    return FileRewrite(removed, [
        {name: values[lo:lo + TARGET_FILE_ROWS] for name, values in result.items()}
        for lo in range(0, len(result[schema.names[0]]), TARGET_FILE_ROWS)
    ])


def eval_context_for(ctx: UserContext) -> EvalContext:
    """Policy-evaluation context for a writer (mirrors the read pipeline)."""
    return EvalContext(user=ctx.user, groups=frozenset(ctx.groups))


def combined_schema(target: Schema, source: Schema) -> Schema:
    """Target fields followed by source fields (MERGE binding layout)."""
    return Schema(tuple(target.fields) + tuple(source.fields))


def qualified_schema(schema: Schema, qualifier: str | None) -> Schema:
    """Re-qualify every field (so ``alias.col`` binds in MERGE clauses)."""
    if qualifier is None:
        return schema
    return Schema(tuple(Field(f.name, f.dtype, f.nullable, qualifier)
                        for f in schema.fields))
