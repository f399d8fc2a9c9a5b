"""The columnar data container flowing between physical operators."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Iterable, Iterator, Sequence

from repro.engine.types import Field, Schema
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

    def select_indices(self, indices: list[int]) -> "ColumnBatch":
        return ColumnBatch(self.schema.select(indices), [self.columns[i] for i in indices])

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

    # -- buffer encoding -------------------------------------------------------

    def to_buffers(self) -> tuple[dict[str, Any], bytes]:
        """Encode into ``(layout metadata, contiguous buffer payload)``.

        The payload is suitable for placement in a shared-memory segment;
        the metadata is small and travels on a control channel. Lossless:
        :meth:`from_buffers` reconstructs identical columns.
        """
        from repro.common import shmbuf

        return shmbuf.encode_columns(self.columns, self.num_rows)

    @classmethod
    def from_buffers(
        cls,
        schema: Schema,
        meta: dict[str, Any],
        buf: Any,
        zero_copy: bool = False,
    ) -> "ColumnBatch":
        """Rebuild a batch from a :meth:`to_buffers` layout.

        With ``zero_copy=True`` the columns are lazy views over ``buf``
        (which must outlive them — call :meth:`materialize` before releasing
        the underlying segment); otherwise plain lists are copied out.
        """
        from repro.common import shmbuf

        return cls(schema, shmbuf.decode_columns(meta, buf, zero_copy))

    def materialize(self) -> "ColumnBatch":
        """Copy any lazy buffer-view columns into plain lists."""
        if all(type(col) is list for col in self.columns):
            return self
        return ColumnBatch(
            self.schema,
            [col if type(col) is list else list(col) for col in self.columns],
        )

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
    """Split a batch into ``batch_size``-row slices (0 = unlimited)."""
    if batch_size <= 0 or batch.num_rows <= batch_size:
        yield batch
        return
    for start in range(0, batch.num_rows, batch_size):
        yield batch.slice(start, start + batch_size)


def batch_schema_for(names: Sequence[str], sample: dict[str, Sequence[Any]]) -> Schema:
    """Infer a schema from sample data (used by LocalRelation builders)."""
    from repro.engine.types import BINARY, BOOL, FLOAT, INT, STRING

    fields = []
    for name in names:
        dtype = STRING
        for value in sample.get(name, []):
            if value is None:
                continue
            if isinstance(value, bool):
                dtype = BOOL
            elif isinstance(value, int):
                dtype = INT
            elif isinstance(value, float):
                dtype = FLOAT
            elif isinstance(value, (bytes, bytearray)):
                dtype = BINARY
            else:
                dtype = STRING
            break
        fields.append(Field(name, dtype))
    return Schema(tuple(fields))
