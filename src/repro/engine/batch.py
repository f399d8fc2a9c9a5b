"""The columnar data container flowing between physical operators."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Iterable, Iterator, Sequence

from repro.engine.types import Schema
from repro.errors import ExecutionError


@dataclass
class ColumnBatch:
    """A batch of rows in columnar layout.

    ``columns[i]`` holds the values of ``schema.fields[i]`` as a plain list;
    ``None`` encodes NULL. Batches are treated as immutable by operators:
    transformations build new batches.
    """

    schema: Schema
    columns: list[list[Any]]
    #: The same rows again as runs of one GROUP BY key, when a memo entry
    #: had them: ``(*its values of each column, its positions)`` per run.
    #: Only an aggregate's run-mode kernel reads them; every transformation
    #: drops them.
    runs: list[tuple] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.schema):
            raise ExecutionError(
                f"batch has {len(self.columns)} columns but schema has "
                f"{len(self.schema)} fields"
            )
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged batch: column lengths {sorted(lengths)}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dict(cls, schema: Schema, data: dict[str, Sequence[Any]]) -> "ColumnBatch":
        """Build a batch from ``{column_name: values}`` in schema order."""
        missing = [f.name for f in schema if f.name not in data]
        if missing:
            raise ExecutionError(f"missing columns in data: {missing}")
        return cls(schema, [list(data[f.name]) for f in schema])

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]]) -> "ColumnBatch":
        """Build a batch from row tuples."""
        columns: list[list[Any]] = [[] for _ in schema]
        for row in rows:
            if len(row) != len(schema):
                raise ExecutionError(
                    f"row has {len(row)} values but schema has {len(schema)} fields"
                )
            for i, value in enumerate(row):
                columns[i].append(value)
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "ColumnBatch":
        return cls(schema, [[] for _ in schema])

    # -- shape ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> list[Any]:
        """Values of one column, resolved by (possibly qualified) name."""
        return self.columns[self.schema.field_index(name)]

    # -- transformations -------------------------------------------------------

    def filter(self, mask: Sequence[Any]) -> "ColumnBatch":
        """Keep rows where ``mask`` is truthy (SQL semantics: NULL drops)."""
        if len(mask) != self.num_rows:
            raise ExecutionError(
                f"mask length {len(mask)} != row count {self.num_rows}"
            )
        return ColumnBatch(
            self.schema, [list(compress(col, mask)) for col in self.columns]
        )

    def take(self, row_indices: Sequence[int]) -> "ColumnBatch":
        return ColumnBatch(
            self.schema,
            [[col[i] for i in row_indices] for col in self.columns],
        )

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        return ColumnBatch(self.schema, [col[start:stop] for col in self.columns])

    def rename(self, schema: Schema) -> "ColumnBatch":
        """Attach a different schema of equal arity (projection aliasing)."""
        return ColumnBatch(schema, self.columns)

    @staticmethod
    def concat(schema: Schema, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches that share an arity-compatible schema."""
        if not batches:
            return ColumnBatch.empty(schema)
        columns: list[list[Any]] = [[] for _ in schema]
        for batch in batches:
            if batch.num_columns != len(schema):
                raise ExecutionError("cannot concat batches of different arity")
            for i, col in enumerate(batch.columns):
                columns[i].extend(col)
        return ColumnBatch(schema, columns)

    # -- export ----------------------------------------------------------------

    def to_rows(self) -> list[tuple]:
        return list(zip(*self.columns)) if self.columns else []

    def iter_rows(self) -> Iterator[tuple]:
        return iter(zip(*self.columns))

    def to_dict(self) -> dict[str, list[Any]]:
        return {f.qualified_name(): col for f, col in zip(self.schema, self.columns)}

    def __repr__(self) -> str:
        return f"ColumnBatch({self.schema}, rows={self.num_rows})"

    def show(self, max_rows: int = 20) -> str:
        """Render an ASCII table (like DataFrame.show())."""
        headers = [f.qualified_name() for f in self.schema]
        rows = [tuple(str(v) for v in row) for row in self.to_rows()[:max_rows]]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        out = [sep, "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) + "|", sep]
        for row in rows:
            out.append("|" + "|".join(f" {v:<{w}} " for v, w in zip(row, widths)) + "|")
        out.append(sep)
        if self.num_rows > max_rows:
            out.append(f"(showing {max_rows} of {self.num_rows} rows)")
        return "\n".join(out)


class OneRowBatch(ColumnBatch):
    """Zero-column batch reporting one row.

    Lets vectorized evaluation of column-free expressions (constant folding,
    INSERT VALUES constants) produce exactly one value.
    """

    def __init__(self):
        super().__init__(Schema(()), [])

    @property
    def num_rows(self) -> int:  # type: ignore[override]
        return 1


#: Shared singleton for constant evaluation.
ONE_ROW = OneRowBatch()


def chunk_batch(batch: ColumnBatch, batch_size: int) -> Iterator[ColumnBatch]:
    """Split a batch into ``batch_size``-row slices (0 = unlimited); a batch
    with runs stays whole, for its runs span it."""
    if batch_size <= 0 or batch.num_rows <= batch_size or batch.runs is not None:
        yield batch
        return
    for start in range(0, batch.num_rows, batch_size):
        yield batch.slice(start, start + batch_size)
