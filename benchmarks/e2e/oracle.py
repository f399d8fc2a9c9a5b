"""Correctness oracle: policy invariants, plain-Python answers, a write model.

The oracle sees only what the benchmark generated (the seeded columns and
the op list) and never asks the system under test for anything. It checks
three things, all outside the timed interval of the op:

* on **every** op, the policy invariants — no row from a region the
  principal's row filter excludes, ``note`` masked unless the principal is
  in ``pii``, and a row count inside the bound the op's shape allows;
* on every 10th op (``full=True``), the **whole answer** against a
  plain-Python evaluation over the generated columns;
* for ``txn_writes``, a **model** of the table that replays every
  acknowledged write, against which every read is compared in full.

A check returns ``None`` when the result is acceptable and a one-line
description of the first discrepancy otherwise.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from fixture import MASKED_NOTE, Principal

#: Kinds whose rows must come back in the order the oracle computes.
ORDERED_KINDS = frozenset({"top", "top10"})
#: Kinds that change the table; the model applies them once acknowledged.
WRITE_KINDS = frozenset({"insert", "update", "delete", "txn"})
#: Kinds whose answer depends on earlier writes, so every one is compared in full.
MODEL_READ_KINDS = frozenset({"read"})

Row = tuple[Any, ...]


def _close(got: Any, want: Any) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def _rows_match(got: Row, want: Row) -> bool:
    return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))


def _agg(values: Iterable[float | None]) -> tuple[int, float | None, float | None, float | None]:
    """``(count non-null, sum, min, max)`` with SQL NULL semantics."""
    present = [v for v in values if v is not None]
    if not present:
        return 0, None, None, None
    return len(present), math.fsum(present), min(present), max(present)


class TableModel:
    """One table as the oracle knows it: ``id -> [region, amount, a, b, note]``."""

    def __init__(self, columns: dict[str, list[Any]]):
        self.rows: dict[int, list[Any]] = {
            row_id: [region, amount, a, b, note]
            for row_id, region, amount, a, b, note in zip(
                columns["id"], columns["region"], columns["amount"],
                columns["a"], columns["b"], columns["note"],
            )
        }
        self._visible_cache: dict[frozenset[str] | None, list[tuple[int, list[Any]]]] = {}

    def visible(self, principal: Principal) -> list[tuple[int, list[Any]]]:
        """``(id, row)`` pairs the principal's row filter admits."""
        cached = self._visible_cache.get(principal.regions)
        if cached is None:
            cached = [
                (row_id, row) for row_id, row in self.rows.items() if principal.admits(row[0])
            ]
            self._visible_cache[principal.regions] = cached
        return cached

    def changed(self) -> None:
        """Drop derived state after a write."""
        self._visible_cache.clear()


def note_seen_by(principal: Principal, note: str) -> str:
    """What the column mask lets ``principal`` read in place of ``note``."""
    return note if principal.sees_notes else MASKED_NOTE


class Oracle:
    """Checks one workload's results against the generated data."""

    def __init__(self, data: dict[str, dict[str, list[Any]]], principals: list[Principal]):
        self.tables = {name: TableModel(columns) for name, columns in data.items()}
        self.principals = principals
        #: Rows this run inserted / updated / deleted (for write amplification).
        self.rows_changed = 0
        self.user_bytes_written = 0

    # -- entry points ---------------------------------------------------------------

    def check(self, op: Any, result: Any, full: bool) -> str | None:
        """Validate ``result`` of ``op``; ``None`` means acceptable."""
        principal = self.principals[op.session]
        if op.kind in WRITE_KINDS:
            problem = self._check_ack(op, result)
            if problem is None:
                self.apply(op)
            return problem
        rows = list(result)
        problem = self._invariants(op, principal, rows)
        if problem is None and (full or op.kind in MODEL_READ_KINDS):
            problem = self._compare(op, principal, rows)
        return problem

    def apply(self, op: Any) -> None:
        """Replay an acknowledged write on the model."""
        principal = self.principals[op.session]
        model = self.tables[op.table]
        if op.kind == "insert":
            self._insert(model, op.args[0])
        elif op.kind == "update":
            row_id, value = op.args
            row = model.rows.get(row_id)
            if row is not None and principal.admits(row[0]):
                row[3] = value
                self.rows_changed += 1
                self.user_bytes_written += 8
        elif op.kind == "delete":
            self._delete(model, principal, op.args[0])
        elif op.kind == "txn":
            rows, row_id = op.args
            self._insert(model, rows)
            self._delete(model, principal, row_id)
        model.changed()

    def _insert(self, model: TableModel, rows: tuple[Row, ...]) -> None:
        for row_id, region, amount, a, b, note in rows:
            model.rows[row_id] = [region, amount, a, b, note]
            self.user_bytes_written += 8 * 4 + len(region) + len(note)
        self.rows_changed += len(rows)

    def _delete(self, model: TableModel, principal: Principal, row_id: int) -> None:
        row = model.rows.get(row_id)
        if row is not None and principal.admits(row[0]):
            del model.rows[row_id]
            self.rows_changed += 1

    # -- acknowledgements -----------------------------------------------------------

    @staticmethod
    def _check_ack(op: Any, result: Any) -> str | None:
        acks = list(result)
        if len(acks) != len(op.sql):
            return f"{op.kind}: {len(acks)} acknowledgements for {len(op.sql)} statements"
        for ack in acks:
            if not isinstance(ack, dict) or ack.get("status") != "ok":
                return f"{op.kind}: statement not acknowledged: {ack!r}"
        if op.kind == "insert" and acks[0].get("rows") != len(op.args[0]):
            return f"insert: acknowledged {acks[0].get('rows')} of {len(op.args[0])} rows"
        return None

    # -- policy invariants (every op) --------------------------------------------

    def _invariants(self, op: Any, principal: Principal, rows: list[Row]) -> str | None:
        shape = RESULT_SHAPES[op.kind]
        bound = shape.max_rows(self, op, principal)
        if len(rows) > bound:
            return f"{op.kind}: {len(rows)} rows exceed the bound {bound}"
        model = self.tables[op.table]
        for row in rows:
            if len(row) != len(shape.columns):
                return f"{op.kind}: row of {len(row)} columns, expected {len(shape.columns)}"
            source = None
            for name, value in zip(shape.columns, row):
                if name == "region" and not principal.admits(value):
                    return f"{op.kind}: leaked a row of region {value!r} to {principal.user}"
                if name == "id":
                    source = model.rows.get(value)
                    if source is None:
                        return f"{op.kind}: returned unknown id {value!r}"
                    if not principal.admits(source[0]):
                        return (
                            f"{op.kind}: leaked id {value} (region {source[0]}) "
                            f"to {principal.user}"
                        )
            for name, value in zip(shape.columns, row):
                if name == "note" and source is not None:
                    if value != note_seen_by(principal, source[4]):
                        return f"{op.kind}: note {value!r} escaped the mask for {principal.user}"
                if name == "tag" and not principal.sees_notes:
                    if not str(value).startswith(MASKED_NOTE + "-"):
                        return f"{op.kind}: tag {value!r} was computed from an unmasked note"
        return None

    # -- full comparison (every 10th op, every model read) -------------------------

    def _compare(self, op: Any, principal: Principal, rows: list[Row]) -> str | None:
        shape = RESULT_SHAPES[op.kind]
        expected = shape.expected(self, op, principal)
        if op.kind in SUBSET_KINDS:
            return self._compare_subset(op, rows, expected)
        if len(rows) != len(expected):
            return f"{op.kind}: {len(rows)} rows, oracle expects {len(expected)}"
        if op.kind not in ORDERED_KINDS:
            key = _sort_key
            rows, expected = sorted(rows, key=key), sorted(expected, key=key)
        for index, (got, want) in enumerate(zip(rows, expected)):
            if not _rows_match(got, want):
                return f"{op.kind}: row {index} is {got!r}, oracle expects {want!r}"
        return None

    @staticmethod
    def _compare_subset(op: Any, rows: list[Row], expected: list[Row]) -> str | None:
        """LIMIT without ORDER BY: any ``limit`` of the matching rows is right."""
        limit = op.args[-1]
        if len(rows) != min(limit, len(expected)):
            return f"{op.kind}: {len(rows)} rows, oracle expects {min(limit, len(expected))}"
        by_id = {row[0]: row for row in expected}
        for got in rows:
            want = by_id.get(got[0])
            if want is None or not _rows_match(got, want):
                return f"{op.kind}: row {got!r} is not among the matching rows"
        if len({row[0] for row in rows}) != len(rows):
            return f"{op.kind}: duplicate rows in a LIMIT result"
        return None


def _sort_key(row: Row) -> tuple:
    """Order rows by their leading (key) column; ``None`` sorts first."""
    head = row[0]
    return (head is not None, head)


# ---------------------------------------------------------------------------
# Result shapes: column roles, the row bound, and the plain-Python answer
# ---------------------------------------------------------------------------


class Shape:
    """What one op kind returns and how the oracle recomputes it."""

    def __init__(
        self,
        columns: tuple[str, ...],
        max_rows: Callable[[Oracle, Any, Principal], int],
        expected: Callable[[Oracle, Any, Principal], list[Row]],
    ):
        self.columns = columns
        self.max_rows = max_rows
        self.expected = expected


def _visible(oracle: Oracle, op: Any, principal: Principal) -> list[tuple[int, list[Any]]]:
    return oracle.tables[op.table].visible(principal)


def _n_visible(oracle: Oracle, op: Any, principal: Principal) -> int:
    return len(_visible(oracle, op, principal))


def _n_regions(oracle: Oracle, op: Any, principal: Principal) -> int:
    return 4 if principal.regions is None else len(principal.regions)


def _limit(oracle: Oracle, op: Any, principal: Principal) -> int:
    return op.args[-1]


def _expect_agg_region(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``region, count(*), sum(amount), avg(amount) WHERE amount > x``."""
    (threshold,) = op.args
    groups: dict[str, list[float]] = {}
    for _, row in _visible(oracle, op, principal):
        if row[1] is not None and row[1] > threshold:
            groups.setdefault(row[0], []).append(row[1])
    out = []
    for region, amounts in groups.items():
        total = math.fsum(amounts)
        out.append((region, len(amounts), total, total / len(amounts)))
    return out


def _expect_region_totals(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``region, count(*), sum(amount)`` with an optional ``amount > x``."""
    threshold = op.args[0] if op.args else None
    counts: dict[str, int] = {}
    amounts: dict[str, list[float]] = {}
    for _, row in _visible(oracle, op, principal):
        if threshold is not None and not (row[1] is not None and row[1] > threshold):
            continue
        counts[row[0]] = counts.get(row[0], 0) + 1
        if row[1] is not None:
            amounts.setdefault(row[0], []).append(row[1])
    return [
        (region, count, math.fsum(amounts[region]) if region in amounts else None)
        for region, count in counts.items()
    ]


def _expect_agg_b(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``b, min(amount), max(amount), count(DISTINCT a) WHERE amount < x``."""
    (threshold,) = op.args
    groups: dict[int, tuple[list[float], set[int]]] = {}
    for _, row in _visible(oracle, op, principal):
        if row[1] is not None and row[1] < threshold:
            amounts, distinct = groups.setdefault(row[3], ([], set()))
            amounts.append(row[1])
            distinct.add(row[2])
    return [
        (b, min(amounts), max(amounts), len(distinct))
        for b, (amounts, distinct) in groups.items()
    ]


def _expect_project(scale: float | None) -> Callable[[Oracle, Any, Principal], list[Row]]:
    """``id, amount[*scale], note WHERE amount > x``."""

    def expected(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
        (threshold,) = op.args
        return [
            (
                row_id,
                row[1] if scale is None else row[1] * scale,
                note_seen_by(principal, row[4]),
            )
            for row_id, row in _visible(oracle, op, principal)
            if row[1] is not None and row[1] > threshold
        ]

    return expected


def _expect_top(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``id, amount WHERE amount < x ORDER BY amount DESC LIMIT n``."""
    threshold, limit = op.args
    matching = [
        (row_id, row[1])
        for row_id, row in _visible(oracle, op, principal)
        if row[1] is not None and row[1] < threshold
    ]
    matching.sort(key=lambda pair: pair[1], reverse=True)
    return matching[:limit]


def _expect_join_agg(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``c.region, count(*), sum(e.amount)`` over ``events e JOIN accounts c ON e.a = c.id``."""
    (threshold,) = op.args
    accounts = oracle.tables[op.other_table]
    region_of = {row_id: row[0] for row_id, row in accounts.visible(principal)}
    groups: dict[str, list[float]] = {}
    for _, row in _visible(oracle, op, principal):
        if row[1] is not None and row[1] > threshold and row[2] in region_of:
            groups.setdefault(region_of[row[2]], []).append(row[1])
    return [(region, len(amounts), math.fsum(amounts)) for region, amounts in groups.items()]


def _expect_point(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``id, region, amount, note WHERE id = k``."""
    (row_id,) = op.args
    row = oracle.tables[op.table].rows.get(row_id)
    if row is None or not principal.admits(row[0]):
        return []
    return [(row_id, row[0], row[1], note_seen_by(principal, row[4]))]


def _expect_udf_boost(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``id, boost(amount) WHERE amount > x`` with ``boost = x * 1.5 + 1.0``."""
    (threshold,) = op.args
    return [
        (row_id, row[1] * 1.5 + 1.0)
        for row_id, row in _visible(oracle, op, principal)
        if row[1] is not None and row[1] > threshold
    ]


def _expect_udf_tag(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``id, tag(note, a) WHERE amount < x`` with ``tag = f"{note}-{a % 7}"``."""
    (threshold,) = op.args
    return [
        (row_id, f"{note_seen_by(principal, row[4])}-{row[2] % 7}")
        for row_id, row in _visible(oracle, op, principal)
        if row[1] is not None and row[1] < threshold
    ]


def _expect_remote_limit(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """Every row matching ``a = k AND amount > x`` (the result is any ``limit`` of them)."""
    key, threshold, _ = op.args
    return [
        (row_id, row[2], row[1])
        for row_id, row in _visible(oracle, op, principal)
        if row[2] == key and row[1] is not None and row[1] > threshold
    ]


def _expect_read(oracle: Oracle, op: Any, principal: Principal) -> list[Row]:
    """``count(*), sum(b) WHERE a = k`` (``k`` of ``None`` reads the whole table)."""
    (key,) = op.args
    values = [
        row[3] for _, row in _visible(oracle, op, principal) if key is None or row[2] == key
    ]
    return [(len(values), sum(values) if values else None)]


#: Kinds answered by "any LIMIT rows of the matching set".
SUBSET_KINDS = frozenset({"remote_limit"})

RESULT_SHAPES: dict[str, Shape] = {
    # scan_agg
    "agg_region": Shape(("region", "count", "sum", "avg"), _n_regions, _expect_agg_region),
    "agg_b": Shape(("b", "min", "max", "distinct"), lambda o, op, p: 31, _expect_agg_b),
    "project": Shape(("id", "amount", "note"), _n_visible, _expect_project(1.1)),
    "top": Shape(("id", "amount"), _limit, _expect_top),
    "join_agg": Shape(("region", "count", "sum"), _n_regions, _expect_join_agg),
    # multiuser_short
    "point": Shape(("id", "region", "amount", "note"), lambda o, op, p: 1, _expect_point),
    "dash": Shape(("region", "count", "sum"), _n_regions, _expect_region_totals),
    "project_small": Shape(("id", "amount", "note"), _n_visible, _expect_project(None)),
    "view": Shape(("region", "count", "sum"), _n_regions, _expect_region_totals),
    "top10": Shape(("id", "amount"), _limit, _expect_top),
    # sandbox_udf
    "udf_boost": Shape(("id", "boosted"), _n_visible, _expect_udf_boost),
    "udf_tag": Shape(("id", "tag"), _n_visible, _expect_udf_tag),
    # efgac_remote
    "remote_agg": Shape(("region", "count", "sum"), _n_regions, _expect_region_totals),
    "remote_wide": Shape(("id", "amount", "note"), _n_visible, _expect_project(None)),
    "remote_limit": Shape(("id", "a", "amount"), _limit, _expect_remote_limit),
    # txn_writes
    "read": Shape(("count", "sum"), lambda o, op, p: 1, _expect_read),
}
