"""Attribute-based access control (ABAC) — §2.3's "dynamic access policies".

Instead of attaching a policy to each table, administrators tag securables
and columns (``pii``, ``confidential``, ``export_restricted``) and write
policies *over tags*:

- :class:`TagMaskPolicy` — mask every column carrying a tag, unless the
  querying user is in an exempt group;
- :class:`TagRowFilterPolicy` — apply a row filter to every table carrying
  a tag.

The catalog compiles matching tag policies into ordinary
:class:`~repro.catalog.policies.ColumnMask` / :class:`~repro.catalog.policies.RowFilter`
objects at resolution time, so enforcement (SecureView injection, eFGAC
routing, pushdown barriers) is identical to explicitly-attached policies.
Exemptions compile into ``IS_ACCOUNT_GROUP_MEMBER`` branches — evaluated at
run time against the querying session, like dynamic views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.engine.expressions import (
    BooleanOp,
    CaseWhen,
    Expression,
    IsAccountGroupMember,
    UnresolvedColumn,
)
from repro.errors import PolicyError

#: Builds the masked replacement for a column (receives the column name).
MaskBuilder = Callable[[str], Expression]


def redact_builder(replacement: str = "[REDACTED]") -> MaskBuilder:
    """Mask builder replacing values with a constant."""
    from repro.engine.expressions import Literal

    def build(column: str) -> Expression:
        return Literal(replacement)

    return build


def hash_builder() -> MaskBuilder:
    """Mask builder replacing values with their SHA-256 (joinable mask)."""
    from repro.engine.expressions import FunctionCall

    def build(column: str) -> Expression:
        return FunctionCall("sha256", (UnresolvedColumn(column),))

    return build


@dataclass(frozen=True)
class TagMaskPolicy:
    """Mask all columns tagged ``tag`` unless the user is exempt."""

    name: str
    tag: str
    mask_builder: MaskBuilder
    exempt_groups: frozenset[str] = frozenset()

    def compile_mask(self, column: str) -> Expression:
        masked = self.mask_builder(column)
        if not self.exempt_groups:
            return masked
        exemption = _any_group_member(self.exempt_groups)
        return CaseWhen([(exemption, UnresolvedColumn(column))], masked)


@dataclass(frozen=True)
class TagRowFilterPolicy:
    """Row-filter every table tagged ``tag`` unless the user is exempt."""

    name: str
    tag: str
    condition: Expression
    exempt_groups: frozenset[str] = frozenset()

    def compile_condition(self) -> Expression:
        if not self.exempt_groups:
            return self.condition
        return BooleanOp(
            "OR", _any_group_member(self.exempt_groups), self.condition
        )


def _any_group_member(groups: frozenset[str]) -> Expression:
    expr: Expression | None = None
    for group in sorted(groups):
        test: Expression = IsAccountGroupMember(group)
        expr = test if expr is None else BooleanOp("OR", expr, test)
    assert expr is not None
    return expr


@dataclass
class TagStore:
    """Tag assignments plus the registered tag policies."""

    _table_tags: dict[str, set[str]] = field(default_factory=dict)
    _column_tags: dict[str, dict[str, set[str]]] = field(default_factory=dict)
    _mask_policies: dict[str, TagMaskPolicy] = field(default_factory=dict)
    _filter_policies: dict[str, TagRowFilterPolicy] = field(default_factory=dict)
    #: Invoked after every mutation; the catalog hooks its policy-epoch bump
    #: here so ABAC changes invalidate cached secure plans like any policy.
    on_change: Callable[[], None] | None = None

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    # -- tagging ---------------------------------------------------------------

    def tag_table(self, table: str, tag: str) -> None:
        self._table_tags.setdefault(table, set()).add(tag)
        self._changed()

    def tag_column(self, table: str, column: str, tag: str) -> None:
        self._column_tags.setdefault(table, {}).setdefault(column, set()).add(tag)
        self._changed()

    def untag_column(self, table: str, column: str, tag: str) -> None:
        self._column_tags.get(table, {}).get(column, set()).discard(tag)
        self._changed()

    def table_tags(self, table: str) -> frozenset[str]:
        return frozenset(self._table_tags.get(table, set()))

    def column_tags(self, table: str, column: str) -> frozenset[str]:
        return frozenset(self._column_tags.get(table, {}).get(column, set()))

    # -- policies ----------------------------------------------------------------

    def register(self, policy: TagMaskPolicy | TagRowFilterPolicy) -> None:
        """Install (or replace) a tag policy by name."""
        if isinstance(policy, TagMaskPolicy):
            self._mask_policies[policy.name] = policy
        elif isinstance(policy, TagRowFilterPolicy):
            self._filter_policies[policy.name] = policy
        else:
            raise PolicyError(f"unknown ABAC policy type {type(policy).__name__}")
        self._changed()

    def unregister(self, name: str) -> None:
        self._mask_policies.pop(name, None)
        self._filter_policies.pop(name, None)
        self._changed()

    # -- compilation ----------------------------------------------------------------

    def masks_for(self, table: str, columns: list[str]) -> dict[str, Expression]:
        """column -> compiled mask expression, for tag-matching columns."""
        out: dict[str, Expression] = {}
        for column in columns:
            tags = self.column_tags(table, column)
            for policy in self._mask_policies.values():
                if policy.tag in tags and column not in out:
                    out[column] = policy.compile_mask(column)
        return out

    def row_filters_for(self, table: str) -> list[Expression]:
        """Compiled row-filter conditions from tag policies on this table."""
        tags = self.table_tags(table)
        return [
            policy.compile_condition()
            for policy in self._filter_policies.values()
            if policy.tag in tags
        ]

    def has_policies_for(self, table: str, columns: list[str]) -> bool:
        return bool(self.row_filters_for(table)) or bool(
            self.masks_for(table, columns)
        )
