"""Staged write operations and their governed materialization.

A transaction never mutates table bytes while statements execute; each
INSERT / UPDATE / DELETE / MERGE is analyzed as a read is (:func:`analyze`)
and checked against fine-grained governance *at staging time*, and
recorded as a :class:`WriteOp`. At commit, :func:`rewrite_files` picks the
pinned snapshot's data files that some op touches and calls
:func:`apply_ops` to fold the staged ops into their rows; every other file
is kept as it is.

Write-side FGAC rules (:func:`check_write`, :func:`check_reads`):

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

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field, replace
from itertools import compress
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.catalog.privileges import MODIFY, SELECT, UserContext
from repro.engine.analyzer import Analyzer, DictResolver
from repro.engine.batch import ColumnBatch
from repro.engine.compile import (
    JoinProbe,
    KernelCompiler,
    PipelineSpec,
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
    Literal,
    column_bound,
    conjoin,
    conjuncts,
    contains_user_code,
    split_equi_condition,
)
from repro.engine.logical import LocalRelation, LogicalPlan, Project
from repro.engine.optimizer import substitute_refs
from repro.engine.physical import RowSelection
from repro.engine.types import BINARY, BOOL, FLOAT, INT, STRING, Field, Schema
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
# Analysis: a write statement is bound as a read is
# ---------------------------------------------------------------------------

#: A write statement reads no relation by name: its rows are the target's
#: (and a MERGE source's), given to the analyzer as empty local relations.
_ANALYZER = Analyzer(DictResolver())

#: One value of each engine type, so a bound expression's type is checked
#: by the rule a stored value is (:meth:`~repro.engine.types.DataType.accepts`).
_SAMPLE = {INT: 0, FLOAT: 0.0, STRING: "", BOOL: False, BINARY: b""}


def relation(schema: Schema, alias: str | None = None) -> LogicalPlan:
    """Rows of ``schema`` as the analyzer binds against them: ``alias.col``
    resolves under ``alias`` (as under a ``SubqueryAlias``), a bare name
    always does."""
    return LocalRelation(schema if alias is None else schema.with_qualifier(alias), [])


def analyze(
    plan: LogicalPlan, values: Sequence[Expression] = ()
) -> tuple[list[Expression], Expression | None]:
    """``values`` bound over ``plan``'s rows, and ``plan``'s own condition
    (a Filter's WHERE, a join's ON; ``None`` without one), by the read
    path's analyzer: qualifiers, type binding, a boolean condition, no
    aggregate and no unknown column, as in a SELECT.

    User code is refused: the transaction tier runs engine expressions only.
    """
    analyzed = _ANALYZER.analyze(Project(plan, values) if values else plan)
    bound = [expr for node in analyzed.walk() for expr in node.expressions()]
    if any(map(contains_user_code, bound)):
        raise AnalysisError(
            "a write statement cannot run user code (a UDF): the transaction "
            "tier evaluates engine expressions only"
        )
    return bound[: len(values)], next(iter(bound[len(values) :]), None)


def check_values(table: str, fields: Sequence[Field], columns: Sequence[Sequence]) -> None:
    """Refuse a column holding a value its field's type does not accept
    (NULL fits any column, an INT a FLOAT one, a BOOL no INT one): one
    ``accepts`` per distinct Python type in a column, not one per cell."""
    for f, values in zip(fields, columns):
        for kind in set(map(type, values)) - {type(None)}:
            value = next(v for v in values if type(v) is kind)
            if not f.dtype.accepts(value):
                raise AnalysisError(
                    f"'{table}': a {type(value).__name__} value does not fit "
                    f"{f.dtype} column '{f.name}'"
                )


def check_assigned(table: str, fields: Sequence[Field], exprs: Sequence[Expression]) -> None:
    """:func:`check_values` for bound SET / INSERT expressions, by their
    engine type; a bare NULL (typed STRING) fits any column."""
    check_values(table, fields, [
        [None if isinstance(e, Literal) and e.value is None else _SAMPLE[e.dtype]]
        for e in exprs
    ])


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

    ``on``, and the matched-clause assignment expressions (keyed by target
    column), are bound over the target's fields followed by the source's;
    not-matched insert values are bound over the source's fields alone.
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
    #: ``row_filter``'s selection, built once per policy epoch by the
    #: transaction manager (a commit builds it when this is ``None``).
    row_selection: RowSelection | None = None

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
    assigned: Iterable[str] = (),
) -> None:
    """Authorize one write statement against the target's governance,
    before its expressions are analyzed.

    Raises :class:`~repro.errors.PermissionDenied` when the principal lacks
    MODIFY (or SELECT for row-reading statements), and
    :class:`~repro.errors.WriteDeniedError` when the statement assigns to a
    masked column (:func:`check_reads` refuses reading one).
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


def check_reads(
    catalog: "UnityCatalog",
    ctx: UserContext,
    table_name: str,
    exprs: Iterable[Expression | None],
) -> None:
    """Refuse a statement whose bound expressions read a masked column of
    the target. Names are read off the bound refs, so a MERGE source column
    that shares a masked column's name is refused too (conservative)."""
    masked = {m.column for m in catalog.column_masks_of(table_name)}
    read = {
        node.name for expr in exprs if expr is not None
        for node in expr.walk() if isinstance(node, BoundRef)
    }
    hit = sorted(masked & read)
    if hit:
        raise WriteDeniedError(
            f"{ctx.user}: write statement reads masked column(s) {hit} of "
            f"'{table_name}'; masked values must not feed a write"
        )


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------
#
# One evaluation order for every row-reading op (DESIGN.md §13):
# row filter -> WHERE / ON -> SET / matched assignments, each stage only
# over the rows the previous one passed, so a user expression never sees —
# and can never raise on — a row the filter hides. Every stage is a
# ``collect`` loop, generated code where the compiler accepts it and
# interpreted otherwise (``compiler=None`` interprets). Row filter -> WHERE
# is one loop, row filter leftmost — or, where a commit already holds the
# row filter's own selection, that one and then WHERE's over the rows it
# admits — whose positions the SET loop reads (take -> eval -> scatter); a
# MERGE is one join probe loop.
#
#: Per row-reading op (by ``id``), the selections that find its rows, in
#: order (``None``: every row passes that one).
Passes = dict[int, tuple["RowSelection | None", ...]]


def _selection(
    schema: Schema, compiler: KernelCompiler | None, *conditions: Expression | None
) -> RowSelection | None:
    """One pass of ``conditions`` in order (``None``: no condition — every
    row passes)."""
    condition = conjoin([c for c in conditions if c is not None])
    return None if condition is None else RowSelection(condition, schema.fields, compiler)


def _passes(
    staged: StagedWrite, compiler: KernelCompiler | None, row_filter: RowSelection | None = None
) -> Passes:
    """Each row-reading op's :data:`Passes`: row filter and WHERE as one
    selection, or the given ``row_filter`` selection first and WHERE's own."""
    out = {}
    for op in staged.ops:
        if not isinstance(op, InsertOp):
            where = None if isinstance(op, MergeOp) else op.where
            out[id(op)] = (
                (_selection(staged.schema, compiler, staged.row_filter, where),)
                if row_filter is None
                else (row_filter, _selection(staged.schema, compiler, where))
            )
    return out


def _references(exprs: Iterable[Expression]) -> set[int]:
    return set().union(*(expr.references() for expr in exprs))


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
        [list(map(col.__getitem__, rows)) if i in needed else filler
         for i, col in enumerate(columns)],
    )


def _scatter(col: list, rows: Sequence[int], values: list) -> None:
    for i, value in zip(rows, values):
        col[i] = value


def _drop_rows(columns: list[list], rows: Sequence[int], lead: int) -> int:
    """Drop ``rows`` (ascending); returns how many of the first ``lead`` survive."""
    if not rows:
        return lead
    keep = [True] * len(columns[0])
    for i in rows:
        keep[i] = False
    columns[:] = [list(compress(col, keep)) for col in columns]
    return lead - bisect_left(rows, lead)


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
    _fold(columns, staged, eval_ctx, compiler, _passes(staged, compiler))
    return dict(zip(names, columns))


def _fold(
    columns: list[list], staged: StagedWrite, eval_ctx: EvalContext,
    compiler: KernelCompiler | None, passes: Passes, lead: int = 0,
) -> int:
    """:func:`apply_ops` in place; returns how many of the first ``lead``
    rows survive (an inserted row is appended after every base row)."""
    for op in staged.ops:
        if isinstance(op, InsertOp):
            for col, values in zip(columns, op.columns):
                col.extend(values)
            continue
        rows = _matching_rows(columns, staged.schema, passes[id(op)], eval_ctx)
        if isinstance(op, UpdateOp):
            _apply_update(columns, staged, op, rows, eval_ctx, compiler)
        elif isinstance(op, DeleteOp):
            lead = _drop_rows(columns, range(len(columns[0])) if rows is None else rows, lead)
        elif isinstance(op, MergeOp):
            lead = _apply_merge(columns, staged, op, rows, eval_ctx, compiler, lead)
        else:  # pragma: no cover - op union is closed
            raise TransactionAbortedError(f"unknown write op {type(op).__name__}")
    return lead


def _matching_rows(
    columns: list[list], schema: Schema, passes: Sequence[RowSelection | None],
    ctx: EvalContext,
) -> list[int] | None:
    """Positions of the rows every one of ``passes`` admits, each run over
    the rows the ones before it admitted (``None`` = every row)."""
    named = dict(zip(schema.names, columns))
    rows = None
    for select in passes:
        if select is None:
            continue
        values = [named[name] for name in select.columns]
        if rows is not None:
            values = [list(map(col.__getitem__, rows)) for col in values]
        admitted = select.admitted(values, ctx)
        rows = admitted if rows is None else list(map(rows.__getitem__, admitted))
    return rows


def _apply_update(
    columns: list[list], staged: StagedWrite, op: UpdateOp, rows: list[int] | None,
    ctx: EvalContext, compiler: KernelCompiler | None,
) -> None:
    if rows is not None and not rows:
        return
    exprs = list(op.assignments.values())
    sub = _gather(columns, staged.schema, rows, _references(exprs))
    new_values = run_pipeline(*collect_loop(compiler, None, exprs), sub, ctx)
    for name, values in zip(op.assignments, new_values):
        index = staged.schema.field_index(name)
        if rows is None:
            # ``values`` may alias a live column (``SET a = b`` interpreted):
            # replace, never write through.
            columns[index] = list(values)
        else:
            _scatter(columns[index], rows, values)


def _apply_merge(
    columns: list[list], staged: StagedWrite, op: MergeOp, visible: list[int] | None,
    ctx: EvalContext, compiler: KernelCompiler | None, lead: int,
) -> int:
    """MERGE as one join probe loop.

    The writer's ``visible`` target rows (the row filter's own pass, as a
    governed scan's), each followed by its position, probe the source rows,
    each followed by its position, hashed on ON's equalities (the constant
    TRUE when ON has none); the rest of ON is the probe's residual. The loop
    emits each match's target position, source position and matched SET
    values.
    """
    schema, width = staged.schema, len(staged.schema)
    source = ColumnBatch.from_dict(op.source_schema, op.source_columns)
    # ON and SET are bound over target ++ source; the probe reads the target
    # position between the two.
    layout = {
        i: BoundRef(i + (i >= width), f.name, f.dtype)
        for i, f in enumerate((*schema.fields, *op.source_schema.fields))
    }
    keys, build_keys, residual = split_equi_condition(op.on, width)
    assignments = op.matched_assignments or {}
    spec = PipelineSpec(
        None,
        sink="collect",
        outputs=(
            BoundRef(width, "#row", INT),
            BoundRef(width + 1 + len(op.source_schema), "#source", INT),
            *(substitute_refs(e, layout) for e in assignments.values()),
        ),
        probe=JoinProbe(
            "inner", keys, build_keys, width + 1, len(op.source_schema) + 1,
            None if residual is None else substitute_refs(residual, layout),
        ),
    )
    table = hash_keys(
        join_keys([k.eval(source, ctx) for k in spec.probe.build_keys]),
        [(*row, j) for j, row in enumerate(source.iter_rows())],
    )
    probing = _gather(columns, schema, visible, _references([op.on, *assignments.values()]))
    probing = ColumnBatch(
        Schema((*schema.fields, Field("#row", INT))),
        [*probing.columns, list(range(probing.num_rows)) if visible is None else visible],
    )
    kernel = None if compiler is None else compiler.compile_pipeline_spec(spec)
    targets, sources, *values = run_pipeline(spec, kernel, probing, ctx, None, table)
    if len(set(targets)) < len(targets):
        raise TransactionAbortedError(
            f"MERGE into '{staged.table}': target row matched by "
            "multiple source rows (ambiguous matched-clause result)"
        )
    if op.matched_delete:
        lead = _drop_rows(columns, targets, lead)
    for name, new in zip(assignments, values):
        _scatter(columns[schema.field_index(name)], targets, new)
    if op.insert_values is not None:
        taken = set(sources)
        fresh = [j for j in range(source.num_rows) if j not in taken]
        if fresh:
            loop = collect_loop(compiler, None, op.insert_values)
            inserted = run_pipeline(*loop, source.take(fresh), ctx)
            for col, values in zip(columns, inserted):
                col.extend(values)
    return lead


# ---------------------------------------------------------------------------
# File-granular copy-on-write
# ---------------------------------------------------------------------------


@dataclass
class FileRewrite:
    """What one read-dependent commit replaces: ``removed`` files give way
    to new files holding ``chunks`` (at most :data:`TARGET_FILE_ROWS` rows
    each); every other live file is kept, path and bytes. It probed
    ``probed`` files and ruled ``skipped`` out by their key bounds."""

    removed: list["DataFile"]
    chunks: list[dict[str, list]]
    probed: int = 0
    skipped: int = 0


def key_ranges(where: Expression | None, names: Sequence[str]) -> list[tuple[str, Any, Any]]:
    """Each ``col op literal`` conjunct of a bound ``where`` (``= < <= > >=``,
    either operand order, a number; a BETWEEN is two) as ``(column, low,
    high)``: no value outside ``[low, high]`` satisfies it."""
    ranges = []
    for part in [] if where is None else conjuncts(where):
        found = column_bound(part)
        if found is None:
            continue
        column, op, literal = found
        if isinstance(literal, Literal) and type(literal.value) in (int, float):
            v = literal.value
            ranges.append((names[column.index], -inf if op[0] == "<" else v,
                           inf if op[0] == ">" else v))
    return ranges


def _outside(bounds: dict[str, list], ranges: list[tuple[str, Any, Any]]) -> bool:
    """Does a file's ``[min, max]`` miss some range? (NULLs match none.)"""
    for name, low, high in ranges:
        span = bounds.get(name)
        if span is not None and (span[0] is None or span[1] < low or span[0] > high):
            return True
    return False


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
    it is given one. A file stays unread when every row-reading op has a
    WHERE conjunct (:func:`key_ranges`) its column bounds rule out: a row
    an op may change satisfies its WHERE, whatever the row filter says.
    Every other file is probed on the columns its passes read, one pass per
    op, compiled once per commit. With a ``policy_epoch`` and a row
    filter the governed memo may hold (:func:`~repro.engine.compile
    .memoisable_policy`), the probe reads the writer's admitted rows through
    it and a pass is the op's WHERE alone; otherwise a pass is row filter,
    then WHERE, over raw columns. A file no op matches is left untouched by
    every op, so probing the base bytes for all ops at once is exact. MERGE
    touches every file: its ambiguity check and its not-matched inserts
    depend on the whole table. So does a DELETE with neither WHERE nor row
    filter, which reads no file at all.

    A commit that writes replaces the touched files and every file under
    half of :data:`TARGET_FILE_ROWS` rows. The touched large files' rows go
    to files of their own; the touched small files' rows, every inserted
    row and the untouched small files' rows (as they are) to others, so an
    inserted key never widens a large file's key range.
    """
    schema = staged.schema
    wipes = [i for i, op in enumerate(staged.ops) if staged.row_filter is None
             and isinstance(op, DeleteOp) and op.where is None]
    if wipes:
        # The writer sees every row and deletes them all (an overwrite, say):
        # no row from before the last such delete survives, so none is read.
        staged = replace(staged, ops=staged.ops[wipes[-1] + 1:])
    probed = skipped = 0
    memo = (
        policy_epoch is not None
        and staged.row_filter is not None
        and memoisable_policy(staged.row_filter)
    )
    # With the governed memo the row filter is a pass of its own, whose
    # rows a probe reads admitted; otherwise it leads each op's one pass.
    row_filter = staged.row_selection
    if memo and row_filter is None:
        row_filter = RowSelection(staged.row_filter, schema.fields, compiler)
    op_passes = _passes(staged, compiler, row_filter if memo else None)
    if wipes or any(isinstance(op, MergeOp) for op in staged.ops):
        touched = set(files)
    else:
        policy = RowPolicy.bind(row_filter, eval_ctx, policy_epoch) if memo else None
        reading = [op for op in staged.ops if not isinstance(op, InsertOp)]
        passes = [op_passes[id(op)][-1] for op in reading]
        probe = sorted({name for p in passes if p is not None for name in p.columns})
        if policy is not None:
            probe = probe or [policy.columns[0]]  # carries the admitted row count

        def touches(f: "DataFile") -> bool:
            seen = read(f, probe, policy)
            if policy is not None and not seen[probe[0]]:
                return False  # the writer sees no row of this file
            return any(
                p is None or p.admitted([seen[n] for n in p.columns], eval_ctx)
                for p in passes
            )

        ranges = [key_ranges(op.where, schema.names) for op in reading]
        live = [f for f in files if f.num_rows]
        candidates = [f for f in live if not all(_outside(f.bounds, r) for r in ranges)]
        probed, skipped = len(candidates), len(live) - len(candidates)
        touched = {f for f in candidates if touches(f)}
    if not (touched or any(isinstance(op, (InsertOp, MergeOp)) for op in staged.ops)):
        return FileRewrite([], [], probed, skipped)
    small = TARGET_FILE_ROWS // 2
    removed = [f for f in files if f in touched or f.num_rows < small]
    columns: list[list] = [[] for _ in schema.names]

    def extend(group: Iterable["DataFile"]) -> None:
        for f in group:
            chunk = read(f, None)
            for values, name in zip(columns, schema.names):
                values.extend(chunk[name])

    rewritten = [] if wipes else [f for f in removed if f in touched]
    extend(f for f in rewritten if f.num_rows >= small)
    lead = len(columns[0])
    extend(f for f in rewritten if f.num_rows < small)
    lead = _fold(columns, staged, eval_ctx, compiler, op_passes, lead)
    extend(f for f in removed if f not in touched)
    return FileRewrite(removed, [
        {name: values[at:min(at + TARGET_FILE_ROWS, hi)] for name, values in zip(schema.names, columns)}
        for lo, hi in ((0, lead), (lead, len(columns[0])))
        for at in range(lo, hi, TARGET_FILE_ROWS)
    ], probed, skipped)


def eval_context_for(ctx: UserContext) -> EvalContext:
    """Policy-evaluation context for a writer (mirrors the read pipeline)."""
    return EvalContext(user=ctx.user, groups=frozenset(ctx.groups))
