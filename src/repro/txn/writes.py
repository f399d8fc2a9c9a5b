"""Staged write operations and their governed materialization.

A transaction never mutates table bytes while statements execute; each
INSERT / UPDATE / DELETE / MERGE is checked against fine-grained governance
*at staging time* and recorded as a :class:`WriteOp`. At commit, the
transaction manager reads the pinned base snapshot and calls
:func:`apply_ops` to fold the staged ops into the result row set.

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

from dataclasses import dataclass, field as dc_field
from itertools import compress
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.catalog.privileges import MODIFY, SELECT, UserContext
from repro.engine.batch import ColumnBatch
from repro.engine.compile import KernelCompiler, predicate_mask
from repro.engine.expressions import (
    BoundRef,
    EvalContext,
    Expression,
    UnresolvedColumn,
    contains_user_code,
    shift_refs,
    split_equi_condition,
)
from repro.engine.physical import probe_key_columns
from repro.engine.types import Field, Schema
from repro.errors import AnalysisError, TransactionAbortedError, WriteDeniedError

if TYPE_CHECKING:
    from repro.catalog.metastore import UnityCatalog


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
    """Append literal rows (in table column order)."""

    rows: list[tuple]


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
# over the rows the previous one passed (take -> eval -> scatter), so a user
# expression never sees — and can never raise on — a row the filter hides.


class _Evaluator:
    """Compiled-first evaluation: generated kernels, interpreter on refusal.

    ``compiler=None`` (or a compiler that refuses the expression) leaves the
    interpreter in place; both legs compute the same values.
    """

    def __init__(self, eval_ctx: EvalContext, compiler: KernelCompiler | None):
        self._ctx = eval_ctx
        self._compiler = compiler

    def predicate(self, condition: Expression) -> Callable[[ColumnBatch], list]:
        """``batch -> row mask`` (truthy = match; NULL never matches)."""
        kernel = self._compiler and self._compiler.compile_predicate(condition)
        return lambda batch: predicate_mask(kernel, condition, batch, self._ctx)

    def project(self, exprs: Sequence[Expression], batch: ColumnBatch) -> list[list]:
        """One value column per expression."""
        kernel = self._compiler and self._compiler.compile_projection(tuple(exprs))
        if kernel is not None:
            return kernel.eval_all(batch, self._ctx)
        return [expr.eval(batch, self._ctx) for expr in exprs]


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
            for col, values in zip(columns, zip(*op.rows)):
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


def _visible_rows(
    columns: list[list], staged: StagedWrite, ev: _Evaluator
) -> list[int] | None:
    """Row positions the writer's row filter admits (``None`` = no filter)."""
    if staged.row_filter is None:
        return None
    batch = ColumnBatch(staged.schema, columns)
    mask = ev.predicate(staged.row_filter)(batch)
    return list(compress(range(batch.num_rows), mask))


def _matching_rows(
    columns: list[list],
    staged: StagedWrite,
    where: Expression | None,
    ev: _Evaluator,
) -> list[int] | None:
    """Visible row positions matching ``where`` (``None`` = every row)."""
    rows = _visible_rows(columns, staged, ev)
    if where is None:
        return rows
    sub = _gather(columns, staged.schema, rows, where.references())
    mask = ev.predicate(where)(sub)
    return list(compress(range(sub.num_rows) if rows is None else rows, mask))


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

    Equi-conjuncts of ON are hash-matched (the join operator's probe) and
    any residual is evaluated over the candidate pairs. An ON without an
    equi-conjunct falls back to a nested loop: one source row at a time
    against the visible target columns.
    """
    schema, width = staged.schema, len(staged.schema)
    visible = _visible_rows(columns, staged, ev)
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
        pairs = probe_key_columns(
            ev.project(target_keys, targets), ev.project(source_keys, source)
        )
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
