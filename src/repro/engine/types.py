"""Data types and schemas.

A deliberately small type system: INT, FLOAT, STRING, BOOL, BINARY. Values
are plain Python objects; ``None`` encodes SQL NULL in any column.

Schemas support *qualified* field names (``alias.column``) so that joins and
subquery aliases resolve the way they do in Spark's analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Iterator

from repro.errors import AnalysisError


@dataclass(frozen=True)
class DataType:
    """A scalar data type."""

    name: str

    def __str__(self) -> str:
        return self.name

    def accepts(self, value: Any) -> bool:
        """True if a Python value is a legal member of this type (or NULL)."""
        if value is None:
            return True
        if self.name == "int":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.name == "float":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.name == "string":
            return isinstance(value, str)
        if self.name == "bool":
            return isinstance(value, bool)
        if self.name == "binary":
            return isinstance(value, (bytes, bytearray))
        return False


INT = DataType("int")
FLOAT = DataType("float")
STRING = DataType("string")
BOOL = DataType("bool")
BINARY = DataType("binary")

_TYPES_BY_NAME = {t.name: t for t in (INT, FLOAT, STRING, BOOL, BINARY)}

#: Aliases accepted in SQL DDL and UDF return-type annotations.
_TYPE_ALIASES = {
    "int": INT,
    "integer": INT,
    "long": INT,
    "bigint": INT,
    "float": FLOAT,
    "double": FLOAT,
    "string": STRING,
    "varchar": STRING,
    "text": STRING,
    "bool": BOOL,
    "boolean": BOOL,
    "binary": BINARY,
    "bytes": BINARY,
}


def type_from_name(name: str) -> DataType:
    """Resolve a type name or alias (case-insensitive) to a :class:`DataType`."""
    try:
        return _TYPE_ALIASES[name.strip().lower()]
    except KeyError:
        raise AnalysisError(f"unknown data type: '{name}'") from None


def is_numeric(dtype: DataType) -> bool:
    return dtype in (INT, FLOAT)


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """Numeric widening: int op float -> float."""
    if not (is_numeric(left) and is_numeric(right)):
        raise AnalysisError(f"expected numeric types, got {left} and {right}")
    return FLOAT if FLOAT in (left, right) else INT


@dataclass(frozen=True)
class Field:
    """One schema column: name, type, optional relation qualifier."""

    name: str
    dtype: DataType
    nullable: bool = True
    qualifier: str | None = None

    def qualified_name(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def with_qualifier(self, qualifier: str | None) -> "Field":
        return Field(self.name, self.dtype, self.nullable, qualifier)

    def __str__(self) -> str:
        return f"{self.qualified_name()}: {self.dtype}"


@dataclass(frozen=True)
class Schema:
    """An ordered list of fields with Spark-like name resolution."""

    fields: tuple[Field, ...] = dc_field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.fields, tuple):
            object.__setattr__(self, "fields", tuple(self.fields))
        # Memo for field_index: name -> position, or the AnalysisError that
        # lookup raised (missing/ambiguous outcomes are cached identically).
        # Not a declared dataclass field, so eq/hash/repr are unaffected.
        object.__setattr__(self, "_index_memo", {})

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __getitem__(self, index: int) -> Field:
        return self.fields[index]

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field_index(self, name: str) -> int:
        """Resolve ``name`` (optionally ``qualifier.name``) to a position.

        Raises :class:`AnalysisError` when the name is missing or ambiguous.
        Resolution is memoized per schema — ``column()`` consults it on the
        execution hot path — with missing/ambiguous outcomes preserved.
        """
        memo: dict[str, int | AnalysisError] = self._index_memo  # type: ignore[attr-defined]
        cached = memo.get(name)
        if cached is not None:
            if isinstance(cached, AnalysisError):
                raise cached
            return cached
        try:
            index = self._resolve_field_index(name)
        except AnalysisError as exc:
            memo[name] = exc
            raise
        memo[name] = index
        return index

    def _resolve_field_index(self, name: str) -> int:
        qualifier, _, bare = name.rpartition(".")
        matches = [
            i
            for i, f in enumerate(self.fields)
            if f.name == bare and (not qualifier or f.qualifier == qualifier)
        ]
        if not matches:
            raise AnalysisError(
                f"column '{name}' not found; available: "
                f"{[f.qualified_name() for f in self.fields]}"
            )
        if len(matches) > 1:
            raise AnalysisError(
                f"column reference '{name}' is ambiguous; candidates: "
                f"{[self.fields[i].qualified_name() for i in matches]}"
            )
        return matches[0]

    def contains(self, name: str) -> bool:
        try:
            self.field_index(name)
            return True
        except AnalysisError:
            return False

    def with_qualifier(self, qualifier: str | None) -> "Schema":
        """Re-qualify every field (used by subquery aliases)."""
        return Schema(tuple(f.with_qualifier(qualifier) for f in self.fields))

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self.fields + other.fields)

    def select(self, indices: list[int]) -> "Schema":
        return Schema(tuple(self.fields[i] for i in indices))

    def __str__(self) -> str:
        return "[" + ", ".join(str(f) for f in self.fields) + "]"


def schema_of(**columns: DataType) -> Schema:
    """Convenience constructor: ``schema_of(id=INT, name=STRING)``."""
    return Schema(tuple(Field(name, dtype) for name, dtype in columns.items()))
