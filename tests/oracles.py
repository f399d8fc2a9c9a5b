"""One equality oracle for every compiled ≡ interpreted property test, and
one plan-shape oracle for the plans those tests compare.

Bare ``==`` is wrong both ways for floats. Two NaN objects compare unequal
even when both legs computed NaN (``2 / 1.1e-308`` overflows to ``inf``,
and ``inf % 2`` is NaN), and ``0.0 == -0.0`` hides a sign a result would
print. :func:`same` holds NaN equal to NaN and tells ``-0.0`` from ``0.0``;
every other value compares with ``==``. It recurses through lists and
tuples (which must match in kind and length), dicts (item by item, in
insertion order) and sets.

:func:`plan_shape` is what a physical plan looks like without its kernels:
operator types and loop sinks. Compiled and interpreted runs of one query
must plan the same shape.
"""

from __future__ import annotations

import math
from typing import Any


def same(a: Any, b: Any) -> bool:
    """``a == b``, except that NaN equals NaN and ``-0.0`` is not ``0.0``."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (
            isinstance(a, list) == isinstance(b, list)
            and isinstance(a, tuple) == isinstance(b, tuple)
            and len(a) == len(b)
            and all(map(same, a, b))
        )
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and same(list(a.items()), list(b.items()))
        )
    if isinstance(a, (set, frozenset)) and isinstance(b, (set, frozenset)):
        return len(a) == len(b) and all(any(same(x, y) for y in b) for x in a)
    return a == b


def all_same(*values: Any) -> bool:
    """:func:`same` across every consecutive pair of ``values``."""
    return all(same(a, b) for a, b in zip(values, values[1:]))


def plan_shape(operator: Any) -> tuple:
    """``operator``'s tree as ``(type, loop, child shapes)``: ``loop`` is
    the sink and span label (``("topk", "join_probe")`` for a top-k that
    probes a join), ``None`` for an operator that runs no loop."""
    spec = getattr(operator, "spec", None)
    return (
        type(operator).__name__,
        None if spec is None else (spec.sink, spec.label),
        tuple(plan_shape(child) for child in operator.children),
    )
