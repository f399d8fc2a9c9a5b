"""Compiled expression kernels: lowering expression trees to Python code.

The interpreter in :mod:`repro.engine.expressions` re-walks the tree for
every batch and evaluates each node with a per-element ``zip`` loop, so the
hot path of every governed scan — row filters, column masks, secure-view
predicates — pays tree dispatch *per batch* and list-comprehension overhead
*per node per element*. This module removes that interpretation tax the way
Flare does for Spark plans: an analyzed expression list is lowered into one
generated-and-``compile()``d Python function that evaluates every output in
a single fused loop, with NULL checks short-circuited inline, constants
folded at lowering time, and common subexpressions computed once per row.

Trust boundaries stay intact by construction:

- :class:`~repro.engine.expressions.PythonUDFCall` nodes (and any node type
  this module does not recognize) are **opaque**: the kernel never inlines
  them. The bound wrapper pre-evaluates each opaque node through the normal
  interpreter — which consults ``ctx.udf_results``, so sandbox fusion
  semantics (one round-trip per fusion group) are byte-identical — and the
  generated code merely reads the resulting column.
- Kernels are pure functions of expression *structure*: the cache key is a
  structural fingerprint covering operators, column positions, builtin
  names and the type / equality pattern of literals, never data or
  identity. Literal *values* bind through the kernel's env like IN-list
  sets do, so a query that differs from the last one only in a constant
  reuses its artifact. Session identity still enters at run time through
  :class:`~repro.engine.expressions.EvalContext` (for ``CURRENT_USER()`` /
  group membership), exactly like the interpreter.
- Compiled kernels reach queries by riding the physical operator tree that
  is stored on a :class:`~repro.core.plan_cache.CachedSecurePlan`, so they
  are invalidated with the plan by the same catalog policy epoch; the
  :class:`KernelCache` itself is content-addressed and can never serve a
  structurally wrong artifact.

Any failure to lower (unknown shapes, codegen bugs, ``compile()`` errors)
is counted and reported as *no kernel*: callers keep the interpreter path,
so compilation is strictly an optimization, never a correctness risk.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.common.context import current_context, span_or_null
from repro.common.telemetry import Telemetry
from repro.engine.aggregates import AGGREGATE_FUNCTIONS
from repro.engine.batch import ONE_ROW, ColumnBatch
from repro.engine.expressions import (
    BUILTIN_FUNCTIONS,
    Alias,
    Arithmetic,
    BooleanOp,
    BoundRef,
    CaseWhen,
    Cast,
    Comparison,
    CurrentUser,
    EvalContext,
    Expression,
    FunctionCall,
    InList,
    IsAccountGroupMember,
    IsNull,
    Like,
    Literal,
    Not,
    conjuncts,
)

DEFAULT_KERNEL_CACHE_CAPACITY = 256

#: Debug knob: when set to a directory path, every generated kernel and
#: pipeline source is written there as ``kernel_<fingerprint>.py`` so the
#: exact code a query ran can be inspected offline.
ENV_DUMP_KERNELS = "LAKEGUARD_DUMP_KERNELS"


def _maybe_dump_source(fingerprint: str, source: str) -> None:
    """Write one generated source to ``$LAKEGUARD_DUMP_KERNELS`` (best
    effort: dump failures must never fail a compilation)."""
    directory = os.environ.get(ENV_DUMP_KERNELS, "").strip()
    if not directory:
        return
    try:
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        (target / f"kernel_{fingerprint[:16]}.py").write_text(source + "\n")
    except OSError:
        pass

#: Node types the code generator knows how to inline. Matched by exact type,
#: not ``isinstance``: a subclass may override ``eval`` with semantics the
#: generator cannot see, so unknown subtypes fall back to opaque handling.
_COMPILABLE: tuple[type, ...] = (
    Literal,
    BoundRef,
    Alias,
    Cast,
    Not,
    IsNull,
    Arithmetic,
    Comparison,
    BooleanOp,
    InList,
    Like,
    CaseWhen,
    FunctionCall,
    CurrentUser,
    IsAccountGroupMember,
)
_COMPILABLE_SET = frozenset(_COMPILABLE)

#: Row-invariant leaves: compiling a projection made only of these would be
#: slower than the interpreter (``BoundRef.eval`` returns the column list
#: without copying; constants use ``[v] * n``), so such lists are skipped.
_TRIVIAL = (Literal, BoundRef, Alias, CurrentUser, IsAccountGroupMember)

#: Node types safe to fold to a literal when all children are literals
#: (mirrors the optimizer's ``_FOLDABLE``; all are deterministic built-ins).
_FOLDABLE = (Arithmetic, Comparison, BooleanOp, Not, FunctionCall, Cast, IsNull)

#: Node types whose non-NULL result is always a real ``bool``.
_BOOL_VALUED = (
    Comparison, BooleanOp, InList, Like, Not, IsNull, IsAccountGroupMember
)

_CMP_TOKENS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: How env-slot constants are rebuilt from a congruent tree's nodes.
_ENV_BUILDERS: dict[str, Callable[[Expression], Any]] = {
    "inlist": lambda node: node._value_set,  # noqa: SLF001 - engine-internal
    "like": lambda node: node._regex,  # noqa: SLF001 - engine-internal
    "cast": lambda node: node._cast_one,  # noqa: SLF001 - engine-internal
    "func": lambda node: BUILTIN_FUNCTIONS[node.name][0],
    "literal": lambda node: node.value,
}


def _is_opaque(node: Expression) -> bool:
    """True when the generator must not inline this node (user code or an
    unknown node type); the wrapper pre-evaluates it via the interpreter."""
    return node.is_user_code or type(node) not in _COMPILABLE_SET


def _is_env_literal(node: Expression) -> bool:
    """Literals the kernel reads from its env instead of inlining, so trees
    that differ only in such values share one artifact (a fresh constant in
    a WHERE clause must not recompile the policy predicate fused around
    it). NULL and booleans stay inline: codegen specializes on them."""
    return (
        isinstance(node, Literal)
        and node.value is not None
        and not isinstance(node.value, bool)
    )


def _literal_slots(walk: Sequence[Expression]) -> dict[int, int]:
    """``id(node)`` → ordinal of each env literal's value, by first appearance.

    Equal values share an ordinal and the ordinal is part of the node's
    signature, so *which literals are equal* is structure: congruent trees
    agree on it, and CSE may merge ``x > 5`` with another ``x > 5`` without
    the cached code going wrong for a tree that says ``x > 7`` there.
    """
    ordinals: dict[tuple[str, str], int] = {}
    return {
        id(node): ordinals.setdefault(
            (type(node.value).__name__, repr(node.value)), len(ordinals)
        )
        for node in walk
        if _is_env_literal(node)
    }


def has_opaque_nodes(exprs: Sequence[Expression]) -> bool:
    """True when any expression contains a node the generator cannot
    inline; the planner uses this to break fusion chains at UDF stages."""
    return any(_is_opaque(node) for node in _canonical_walk(exprs))


def _row_invariant(node: Expression) -> bool:
    """True when ``node`` reads no column (same value for every row)."""
    return not any(
        isinstance(n, BoundRef) or _is_opaque(n) for n in _canonical_walk((node,))
    )


def _canonical_walk(exprs: Sequence[Expression]) -> list[Expression]:
    """Preorder walk over an expression list that does NOT descend into
    opaque subtrees.

    Fingerprint-congruent trees produce positionally aligned walks (opaque
    fingerprints ignore their subtree on purpose), which is what lets a
    cached artifact's env spec — ``(name, walk index, kind)`` triples — be
    rebound against any congruent tree.
    """
    order: list[Expression] = []

    def visit(node: Expression) -> None:
        order.append(node)
        if _is_opaque(node):
            return
        for child in node.children:
            visit(child)

    for expr in exprs:
        visit(expr)
    return order


def _node_signature(node: Expression, slots: dict[int, int]) -> str:
    """Structural identity of one node, excluding children and excluding
    anything inside opaque subtrees (see :func:`_canonical_walk`).
    ``slots`` is the tree's :func:`_literal_slots`."""
    if _is_opaque(node):
        return "opaque"
    if _is_env_literal(node):
        # Not the value — only what codegen branches on (its type, and
        # zero-ness for the x / 0 check) and which other literals equal it.
        zero = "z" if node.value == 0 else "v"
        return f"lit:{type(node.value).__name__}:{zero}:#{slots[id(node)]}"
    if isinstance(node, Literal):
        return f"lit:{type(node.value).__name__}:{node.value!r}"
    if isinstance(node, BoundRef):
        return f"ref:{node.index}"
    if isinstance(node, Alias):
        return "alias"
    if isinstance(node, Cast):
        return f"cast:{node.target.name}"
    if isinstance(node, Not):
        return "not"
    if isinstance(node, IsNull):
        return f"isnull:{int(node.negated)}"
    if isinstance(node, (Arithmetic, Comparison, BooleanOp)):
        return f"{type(node).__name__}:{node.op}"
    if isinstance(node, InList):
        return f"inlist:{int(node.negated)}:{node.values!r}"
    if isinstance(node, Like):
        return f"like:{int(node.negated)}:{node.pattern!r}"
    if isinstance(node, CaseWhen):
        return f"case:{node.num_branches}:{int(node.has_else)}"
    if isinstance(node, FunctionCall):
        return f"fn:{node.name}:{len(node.children)}"
    if isinstance(node, CurrentUser):
        return "current_user"
    if isinstance(node, IsAccountGroupMember):
        return f"group:{node.group!r}"
    raise TypeError(f"unhandled node type {type(node).__name__}")  # pragma: no cover


def expression_fingerprint(exprs: Sequence[Expression], mode: str = "project") -> str:
    """Structural sha256 of an expression list (the kernel-cache key).

    Two lists with equal fingerprints are congruent: same shapes, operators
    and column positions everywhere the generator inlines code, literals of
    the same type with the same equality pattern (their values bind through
    the env), and opaque slots in the same positions (whatever those slots
    compute).
    """
    digest = hashlib.sha256(f"{mode}|{len(exprs)}".encode())
    slots = _literal_slots(_canonical_walk(exprs))

    def visit(node: Expression) -> None:
        sig = _node_signature(node, slots)
        n_children = 0 if _is_opaque(node) else len(node.children)
        digest.update(f"{sig}|{n_children};".encode())
        if _is_opaque(node):
            return
        for child in node.children:
            visit(child)

    for expr in exprs:
        visit(expr)
    return digest.hexdigest()


def _fold(node: Expression) -> Expression:
    """Constant-fold deterministic all-literal subtrees at lowering time.

    Unlike the optimizer's ``fold_expression`` this never descends into
    opaque subtrees: rebuilding a ``PythonUDFCall`` would mint a fresh
    ``expr_id`` and disconnect it from its fusion group's cached results.
    """
    if _is_opaque(node):
        return node
    new_children = tuple(_fold(c) for c in node.children)
    if new_children != node.children:
        node = node.with_children(new_children)
    if (
        isinstance(node, _FOLDABLE)
        and node.children
        and all(isinstance(c, Literal) for c in node.children)
        and node.deterministic
    ):
        try:
            folded = Literal(node.eval(ONE_ROW, EvalContext())[0])
        except Exception:  # noqa: BLE001 - keep runtime error semantics
            return node
        if node.dtype is not None and folded.dtype != node.dtype:
            # e.g. CAST(NULL AS INT) would fold to an *untyped* NULL literal
            # (STRING by default), and rebuilding a typed parent around it
            # re-runs type binding and fails. Keep the typed node instead.
            return node
        return folded
    return node


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledArtifact:
    """One cache entry: the generated function plus its rebinding recipe."""

    fingerprint: str
    source: str
    fn: Callable[[list[list[Any]], int, EvalContext, dict[str, Any], list[list[Any]]], list[list[Any]]]
    #: ``(env name, canonical walk index, builder kind)`` triples.
    env_spec: tuple[tuple[str, int, str], ...]
    #: Canonical walk indexes of opaque nodes, in slot order.
    opaque_spec: tuple[int, ...]
    num_outputs: int


class _SharedState:
    """State shared between the fast and checked code-generation passes.

    Per-row leaf loads (columns, opaque results) and row-invariant bindings
    (env constants, group membership, the user) are emitted once and used by
    both generated bodies; only the per-node computation code differs.
    """

    def __init__(self, walk: Sequence[Expression]):
        #: id(node) -> canonical walk position
        self.walk_index = {id(node): i for i, node in enumerate(walk)}
        self.literal_slots = _literal_slots(walk)
        self.prelude: list[str] = []
        #: Per-row leaf loads, emitted at the top of the loop body.
        self.loads: list[str] = []
        self.env_spec: list[tuple[str, int, str]] = []
        self.opaque_spec: list[int] = []
        #: Loaded leaf variables whose non-NULL-ness the fast path assumes.
        self.guard_vars: list[str] = []
        self._env_memo: dict[tuple[int, str], str] = {}
        self._cols_bound: set[int] = set()
        self._col_loads: dict[int, str] = {}
        self._opaque_slots: dict[int, int] = {}
        self._groups_bound: dict[str, str] = {}
        self.user_bound = False
        self.counter = 0

    def env(self, node: Expression, kind: str) -> str:
        walk_pos = self.walk_index[id(node)]
        memo = self._env_memo.get((walk_pos, kind))
        if memo is not None:
            return memo
        name = f"_e{len(self.env_spec)}"
        self.env_spec.append((name, walk_pos, kind))
        self.prelude.append(f"{name} = _env[{name!r}]")
        self._env_memo[(walk_pos, kind)] = name
        return name

    def column_value(self, index: int) -> str:
        """Per-row value of one input column, loaded once per row."""
        var = self._col_loads.get(index)
        if var is None:
            if index not in self._cols_bound:
                self._cols_bound.add(index)
                self.prelude.append(f"_c{index} = _cols[{index}]")
            var = f"_l{index}"
            self._col_loads[index] = var
            self.loads.append(f"{var} = _c{index}[_i]")
            self.guard_vars.append(var)
        return var

    def opaque_value(self, node: Expression) -> str:
        """Per-row value of one pre-evaluated opaque column."""
        walk_pos = self.walk_index[id(node)]
        slot = self._opaque_slots.get(walk_pos)
        if slot is None:
            slot = len(self.opaque_spec)
            self._opaque_slots[walk_pos] = slot
            self.opaque_spec.append(walk_pos)
            self.prelude.append(f"_o{slot} = _opq[{slot}]")
            var = f"_lo{slot}"
            self.loads.append(f"{var} = _o{slot}[_i]")
            self.guard_vars.append(var)
        return f"_lo{slot}"

    def group_flag(self, group: str) -> str:
        name = self._groups_bound.get(group)
        if name is None:
            name = f"_g{len(self._groups_bound)}"
            self._groups_bound[group] = name
            self.prelude.append(f"{name} = ({group!r} in _ctx.groups)")
        return name

    def guard_condition(self) -> str | None:
        """``x is not None and ...`` over every loaded leaf, or None."""
        if not self.guard_vars:
            return None
        return " and ".join(f"{v} is not None" for v in self.guard_vars)


class _CodeGen:
    """Lowers one expression list into the body of a kernel function.

    Two passes share one :class:`_SharedState`: the *checked* pass emits
    full NULL propagation; the *fast* pass (``assume_nonnull=True``) treats
    every guarded leaf as non-NULL, eliding the per-node None conditionals
    that dominate interpreter and checked-kernel cost alike. Intrinsic NULL
    sources (division by zero, NULL-safe builtins, else-less CASE) keep
    their checks in both passes.

    ``emit`` returns a token that is either a variable assigned earlier in
    the row body or an *inline expression*. Only nodes that can neither
    raise nor be NULL given their operands — comparisons, ``IN``, ``NOT``,
    AND/OR over non-NULL operands — stay inline, which is what lets AND/OR
    short-circuit; Arithmetic, Cast, FunctionCall, LIKE and CASE are always
    assigned eagerly, so when (and whether) they raise does not depend on
    the boolean structure around them.
    """

    def __init__(self, shared: _SharedState, assume_nonnull: bool = False):
        self._shared = shared
        self._assume_nonnull = assume_nonnull
        self.body: list[str] = []
        self._cse: dict[Any, tuple[str, bool]] = {}

    # -- small helpers ------------------------------------------------------

    def _var(self) -> str:
        self._shared.counter += 1
        return f"_v{self._shared.counter}"

    def _assign(self, expr_code: str, maybe_null: bool) -> tuple[str, bool]:
        var = self._var()
        self.body.append(f"{var} = {expr_code}")
        return var, maybe_null

    @staticmethod
    def _null_check(*operands: tuple[str, bool]) -> str | None:
        checks = [f"{tok} is None" for tok, maybe in operands if maybe]
        return " or ".join(checks) if checks else None

    def _struct_key(self, node: Expression) -> Any:
        if _is_opaque(node):
            # Opaque slots are never shared (two structurally congruent
            # trees may put *different* computations in the same slot).
            return ("opaque", id(node))
        return (_node_signature(node, self._shared.literal_slots),) + tuple(
            self._struct_key(c) for c in node.children
        )

    def _leaf(self, var: str) -> tuple[str, bool]:
        """A loaded leaf value: non-NULL by assumption on the fast path."""
        return var, not self._assume_nonnull

    def emit_filter(self, condition: Expression) -> None:
        """Emit ``condition`` as a row gate (NULL and False both drop the row).

        Each top-level conjunct is tested before the next one's code is
        emitted, so a fused chain behaves like its stacked filters: a
        stage's eagerly-assigned nodes — the ones that can raise — never
        run on a row a lower stage (the policy row filter, composed in
        first) already rejected.
        """
        for conjunct in conjuncts(condition):
            self.body.append(f"if not {self.emit(conjunct)[0]}:")
            self.body.append("    continue")

    # -- node lowering ------------------------------------------------------

    def emit(self, node: Expression) -> tuple[str, bool]:
        """Lower one node; returns ``(token, maybe_null)`` where the token is
        valid inside the per-row loop body."""
        key = self._struct_key(node)
        cached = self._cse.get(key)
        if cached is not None:
            return cached
        result = self._emit_uncached(node)
        self._cse[key] = result
        return result

    def _emit_uncached(self, node: Expression) -> tuple[str, bool]:
        if _is_opaque(node):
            return self._leaf(self._shared.opaque_value(node))

        if _is_env_literal(node):
            return self._shared.env(node, "literal"), False
        if isinstance(node, Literal):
            return f"({node.value!r})", node.value is None
        if isinstance(node, BoundRef):
            return self._leaf(self._shared.column_value(node.index))
        if isinstance(node, Alias):
            return self.emit(node.children[0])
        if isinstance(node, CurrentUser):
            if not self._shared.user_bound:
                self._shared.user_bound = True
                self._shared.prelude.append("_user = _ctx.user")
            return "_user", True
        if isinstance(node, IsAccountGroupMember):
            return self._shared.group_flag(node.group), False
        if isinstance(node, Cast):
            child = self.emit(node.children[0])
            env = self._shared.env(node, "cast")
            return self._assign(f"{env}({child[0]})", True)
        if isinstance(node, Not):
            tok, maybe = self.emit(node.children[0])
            if maybe:
                return self._assign(f"(None if {tok} is None else (not {tok}))", True)
            return f"(not {tok})", False
        if isinstance(node, IsNull):
            tok, maybe = self.emit(node.children[0])
            if not maybe:
                # Known non-NULL input (e.g. the fast path): constant answer.
                return f"({node.negated!r})", False
            op = "is not" if node.negated else "is"
            return self._assign(f"({tok} {op} None)", False)
        if isinstance(node, Arithmetic):
            return self._emit_arith(node)
        if isinstance(node, Comparison):
            a = self.emit(node.children[0])
            b = self.emit(node.children[1])
            core = f"({a[0]} {_CMP_TOKENS[node.op]} {b[0]})"
            check = self._null_check(a, b)
            if check:
                return self._assign(f"(None if {check} else {core})", True)
            # Non-NULL operands: the comparison cannot raise and cannot be
            # NULL, so it stays an inline expression (see _emit_boolean).
            return core, False
        if isinstance(node, BooleanOp):
            return self._emit_boolean(node)
        if isinstance(node, InList):
            tok, maybe = self.emit(node.children[0])
            env = self._shared.env(node, "inlist")
            op = "not in" if node.negated else "in"
            core = f"({tok} {op} {env})"
            if maybe:
                return self._assign(f"(None if {tok} is None else {core})", True)
            return core, False
        if isinstance(node, Like):
            tok, maybe = self.emit(node.children[0])
            env = self._shared.env(node, "like")
            hit = f"bool({env}.match(str({tok})))"
            core = f"(not {hit})" if node.negated else hit
            if maybe:
                return self._assign(f"(None if {tok} is None else {core})", True)
            return self._assign(core, False)
        if isinstance(node, CaseWhen):
            branches = [
                (self.emit(cond)[0], self.emit(value)[0])
                for cond, value in node.branches()
            ]
            otherwise = node.otherwise()
            tail = self.emit(otherwise)[0] if otherwise is not None else "None"
            for cond_tok, val_tok in reversed(branches):
                tail = f"({val_tok} if {cond_tok} else {tail})"
            return self._assign(tail, True)
        if isinstance(node, FunctionCall):
            args = [self.emit(c)[0] for c in node.children]
            env = self._shared.env(node, "func")
            return self._assign(f"{env}({', '.join(args)})", True)
        raise TypeError(f"unhandled node type {type(node).__name__}")  # pragma: no cover

    def _emit_arith(self, node: Arithmetic) -> tuple[str, bool]:
        a = self.emit(node.children[0])
        b = self.emit(node.children[1])
        checks = [f"{tok} is None" for tok, maybe in (a, b) if maybe]
        rhs = node.children[1]
        if node.op in ("/", "%") and not (
            isinstance(rhs, Literal) and rhs.value not in (None, 0)
        ):
            # SQL: x / 0 and x % 0 are NULL. The None checks run first in
            # the or-chain, so a NULL divisor never reaches the == 0 test.
            checks.append(f"{b[0]} == 0")
        core = f"({a[0]} {node.op} {b[0]})"
        if checks:
            return self._assign(f"(None if {' or '.join(checks)} else {core})", True)
        return self._assign(core, False)

    def _emit_boolean(self, node: BooleanOp) -> tuple[str, bool]:
        a = self.emit(node.children[0])
        b = self.emit(node.children[1])
        check = self._null_check(a, b)
        if check is None:
            # Non-NULL operands: two-valued logic as one inline short-circuit
            # expression — no temporaries, and an operand is only evaluated
            # when reached. Sound because every inline token is a pure,
            # non-raising expression over already-assigned values (anything
            # that can raise — Arithmetic, Cast, FunctionCall — was assigned
            # eagerly above). AND/OR commute, so the row-invariant operand
            # (group membership) goes first and decides most rows alone.
            lhs = self._truth(node.children[0], a[0])
            rhs = self._truth(node.children[1], b[0])
            if _row_invariant(node.children[1]) and not _row_invariant(
                node.children[0]
            ):
                lhs, rhs = rhs, lhs
            return f"({lhs} {node.op.lower()} {rhs})", False
        if node.op == "AND":
            both = f"(bool({a[0]}) and bool({b[0]}))"
            code = (
                f"(False if ({a[0]} is False or {b[0]} is False) "
                f"else (None if {check} else {both}))"
            )
        else:
            both = f"(bool({a[0]}) or bool({b[0]}))"
            code = (
                f"(True if ({a[0]} is True or {b[0]} is True) "
                f"else (None if {check} else {both}))"
            )
        return self._assign(code, True)

    @staticmethod
    def _truth(node: Expression, tok: str) -> str:
        """``tok`` as a real ``bool`` (the interpreter normalizes AND/OR
        results); a no-op for nodes that only ever produce ``bool``."""
        if isinstance(node, _BOOL_VALUED) or (
            isinstance(node, Literal) and isinstance(node.value, bool)
        ):
            return tok
        return f"(not not {tok})"


def _assemble(
    fingerprint: str,
    prelude: list[str],
    loop_setup: list[str],
    loop_body: list[str],
    returns: list[str],
    params: str = "_cols, _n, _ctx, _env, _opq",
    epilogue: Sequence[str] = (),
) -> tuple[str, Callable]:
    """Render, ``compile()`` and ``exec`` the kernel source."""
    lines = [f"def _kernel({params}):"]
    lines += [f"    {line}" for line in prelude]
    lines += [f"    {line}" for line in loop_setup]
    lines.append("    for _i in range(_n):")
    lines += [f"        {line}" for line in loop_body]
    lines += [f"    {line}" for line in epilogue]
    lines.append(f"    return [{', '.join(returns)}]")
    source = "\n".join(lines)
    _maybe_dump_source(fingerprint, source)
    namespace: dict[str, Any] = {}
    code = compile(source, f"<kernel:{fingerprint[:12]}>", "exec")
    exec(code, namespace)  # noqa: S102 - source is generated above, not user input
    return source, namespace["_kernel"]


def _dual_body(
    shared: _SharedState, make_body: Callable[[_CodeGen], list[str]]
) -> list[str]:
    """Assemble the per-row loop body with NULL specialization.

    The checked pass is generated first (loading every leaf into shared
    per-row locals); if any loaded leaf can be NULL, a second *fast* body is
    generated under ``assume_nonnull`` and the loop dispatches per row::

        <leaf loads>
        if <every leaf> is not None:   # fast body, no NULL conditionals
        else:                          # checked body, full 3VL
    """
    checked = _CodeGen(shared)
    checked_body = make_body(checked)
    guard = shared.guard_condition()
    if guard is None:
        return shared.loads + checked_body
    fast = _CodeGen(shared, assume_nonnull=True)
    fast_body = make_body(fast)
    return (
        shared.loads
        + [f"if {guard}:"]
        + [f"    {line}" for line in fast_body]
        + ["else:"]
        + [f"    {line}" for line in checked_body]
    )


def _generate_projection(
    exprs: Sequence[Expression], fingerprint: str
) -> CompiledArtifact:
    """Lower a projection list: all outputs computed in one fused loop."""
    shared = _SharedState(_canonical_walk(exprs))

    def make_body(gen: _CodeGen) -> list[str]:
        tokens = [gen.emit(expr)[0] for expr in exprs]
        return gen.body + [f"_out{j}[_i] = {tok}" for j, tok in enumerate(tokens)]

    body = _dual_body(shared, make_body)
    setup = [f"_out{j} = [None] * _n" for j in range(len(exprs))]
    source, fn = _assemble(
        fingerprint, shared.prelude, setup, body,
        [f"_out{j}" for j in range(len(exprs))],
    )
    return CompiledArtifact(
        fingerprint=fingerprint,
        source=source,
        fn=fn,
        env_spec=tuple(shared.env_spec),
        opaque_spec=tuple(shared.opaque_spec),
        num_outputs=len(exprs),
    )


def _generate_filter_projection(
    condition: Expression, exprs: Sequence[Expression], fingerprint: str
) -> CompiledArtifact:
    """Lower filter→project into one loop with append-based outputs, so the
    intermediate filtered batch is never materialized."""
    shared = _SharedState(_canonical_walk([condition, *exprs]))

    def make_body(gen: _CodeGen) -> list[str]:
        gen.emit_filter(condition)
        tokens = [gen.emit(expr)[0] for expr in exprs]
        return gen.body + [f"_a{j}({tok})" for j, tok in enumerate(tokens)]

    body = _dual_body(shared, make_body)
    setup: list[str] = []
    for j in range(len(exprs)):
        setup.append(f"_out{j} = []")
        setup.append(f"_a{j} = _out{j}.append")
    source, fn = _assemble(
        fingerprint, shared.prelude, setup, body,
        [f"_out{j}" for j in range(len(exprs))],
    )
    return CompiledArtifact(
        fingerprint=fingerprint,
        source=source,
        fn=fn,
        env_spec=tuple(shared.env_spec),
        opaque_spec=tuple(shared.opaque_spec),
        num_outputs=len(exprs),
    )


# ---------------------------------------------------------------------------
# Whole-pipeline codegen (scan/local → filter → project → partial aggregate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """Structural description of one fusable operator chain.

    The planner composes a chain's filter conditions and projection lists
    down to the chain's *input* schema (see the physical planner's chain
    detection), so every expression here is bound against the batches the
    source operator produces. ``agg_specs`` carries ``(func_name,
    has_child)`` per distinct aggregate call; ``agg_inputs`` the composed
    input expression per call (``Literal(True)`` for ``COUNT(*)``).
    """

    condition: Expression | None
    groupings: tuple[Expression, ...]
    agg_specs: tuple[tuple[str, bool], ...]
    agg_inputs: tuple[Expression, ...]

    def all_exprs(self) -> tuple[Expression, ...]:
        """Every expression the generated loop inlines, in canonical order."""
        head = (self.condition,) if self.condition is not None else ()
        return head + self.groupings + self.agg_inputs

    def mode_string(self) -> str:
        """The fingerprint mode: pins aggregate structure alongside shapes."""
        aggs = ",".join(
            f"{name}{'' if has_child else '*'}"
            for name, has_child in self.agg_specs
        )
        cond = "c" if self.condition is not None else "-"
        return f"pipeline|{cond}|{len(self.groupings)}|{aggs}"

    def fold(self) -> "PipelineSpec":
        """Constant-fold every inlined expression (see :func:`_fold`)."""
        return replace(
            self,
            condition=_fold(self.condition) if self.condition is not None else None,
            groupings=tuple(_fold(g) for g in self.groupings),
            agg_inputs=tuple(_fold(e) for e in self.agg_inputs),
        )


def _guarded(value_tok: str, guarded: bool, body: list[str]) -> list[str]:
    """Wrap an aggregate update in the NULL-skip guard when needed."""
    if not guarded:
        return body
    return [f"if {value_tok} is not None:"] + [f"    {line}" for line in body]


def _upd_count(j: int, v: str, guarded: bool) -> list[str]:
    return _guarded(v, guarded, [f"_st[{j}] = _st[{j}] + 1"])


def _upd_sum(j: int, v: str, guarded: bool) -> list[str]:
    return _guarded(v, guarded, [
        f"_s{j} = _st[{j}]",
        f"_st[{j}] = {v} if _s{j} is None else _s{j} + {v}",
    ])


def _upd_min(j: int, v: str, guarded: bool) -> list[str]:
    # min(s, v) keeps s on ties; mirror that exactly.
    return _guarded(v, guarded, [
        f"_s{j} = _st[{j}]",
        f"_st[{j}] = {v} if _s{j} is None else ({v} if {v} < _s{j} else _s{j})",
    ])


def _upd_max(j: int, v: str, guarded: bool) -> list[str]:
    return _guarded(v, guarded, [
        f"_s{j} = _st[{j}]",
        f"_st[{j}] = {v} if _s{j} is None else ({v} if {v} > _s{j} else _s{j})",
    ])


def _upd_avg(j: int, v: str, guarded: bool) -> list[str]:
    return _guarded(v, guarded, [
        f"_s{j} = _st[{j}]",
        f"_st[{j}] = (_s{j}[0] + {v}, _s{j}[1] + 1)",
    ])


def _upd_count_distinct(j: int, v: str, guarded: bool) -> list[str]:
    # Mutable set instead of the algebra's frozenset-per-row: ``merge`` and
    # ``final`` (union / len) accept either, and states only leave through
    # pickle or finalization, so results are identical.
    return _guarded(v, guarded, [f"_st[{j}].add({v})"])


#: Aggregates the pipeline generator can inline: ``(state init source,
#: update-code emitter)``. Init/update mirror ``AGGREGATE_FUNCTIONS``
#: exactly; an aggregate outside this table refuses the whole pipeline.
_AGG_INLINE: dict[str, tuple[str, Callable[[int, str, bool], list[str]]]] = {
    "count": ("0", _upd_count),
    "sum": ("None", _upd_sum),
    "min": ("None", _upd_min),
    "max": ("None", _upd_max),
    "avg": ("(0.0, 0)", _upd_avg),
    "count_distinct": ("set()", _upd_count_distinct),
}


def _generate_aggregation_pipeline(
    spec: PipelineSpec, fingerprint: str
) -> CompiledArtifact:
    """Lower a filter→project→aggregate chain into one generated loop.

    The loop filters, computes grouping keys and aggregate inputs, and folds
    each row into per-group accumulator slots *in place* — no intermediate
    batch, no per-call closure dispatch. A last-key memo (``_lk``/``_ls``,
    persisted across batches through ``_cell``) turns runs of identical keys
    into local-variable updates without a dict probe.
    """
    shared = _SharedState(_canonical_walk(spec.all_exprs()))
    inits = ", ".join(_AGG_INLINE[name][0] for name, _ in spec.agg_specs)

    def make_body(gen: _CodeGen) -> list[str]:
        if spec.condition is not None:
            gen.emit_filter(spec.condition)
        key_toks = [gen.emit(g)[0] for g in spec.groupings]
        values = [gen.emit(e) for e in spec.agg_inputs]
        tail = [
            "_key = (" + ", ".join(key_toks)
            + ("," if len(key_toks) == 1 else "") + ")",
            "if _ls is not None and _key == _lk:",
            "    _st = _ls",
            "else:",
            "    _st = _get(_key)",
            "    if _st is None:",
            f"        _st = [{inits}]",
            "        _groups[_key] = _st",
            "    _lk = _key",
            "    _ls = _st",
        ]
        for j, ((name, has_child), (v_tok, maybe)) in enumerate(
            zip(spec.agg_specs, values)
        ):
            # All inlined aggregates ignore NULL inputs; COUNT(*)-style calls
            # feed a constant and never skip, matching the interpreter.
            tail += _AGG_INLINE[name][1](j, v_tok, maybe and has_child)
        return gen.body + tail

    body = _dual_body(shared, make_body)
    setup = ["_get = _groups.get", "_lk = _cell[0]", "_ls = _cell[1]"]
    epilogue = ["_cell[0] = _lk", "_cell[1] = _ls"]
    source, fn = _assemble(
        fingerprint, shared.prelude, setup, body, [],
        params="_cols, _n, _ctx, _env, _opq, _groups, _cell",
        epilogue=epilogue,
    )
    return CompiledArtifact(
        fingerprint=fingerprint,
        source=source,
        fn=fn,
        env_spec=tuple(shared.env_spec),
        opaque_spec=tuple(shared.opaque_spec),
        num_outputs=0,
    )


def interpret_pipeline(
    spec: PipelineSpec,
    batch: ColumnBatch,
    ctx: EvalContext,
    groups: dict[tuple, list[Any]],
) -> None:
    """Interpreter twin of a fused pipeline's accumulate step.

    Byte-identical semantics to both the generated loop and the unfused
    operator chain; used as the in-worker fallback when a shipped pipeline
    fails to recompile.
    """
    if batch.num_rows == 0:
        return
    if spec.condition is not None:
        for conjunct in conjuncts(spec.condition):
            batch = batch.filter(conjunct.eval(batch, ctx))
            if batch.num_rows == 0:
                return
    key_cols = [g.eval(batch, ctx) for g in spec.groupings]
    value_cols = [e.eval(batch, ctx) for e in spec.agg_inputs]
    funcs = [AGGREGATE_FUNCTIONS[name] for name, _ in spec.agg_specs]
    for i in range(batch.num_rows):
        key = tuple(col[i] for col in key_cols)
        states = groups.get(key)
        if states is None:
            states = [func.create() for func in funcs]
            groups[key] = states
        for j, (func, (_, has_child)) in enumerate(zip(funcs, spec.agg_specs)):
            value = value_cols[j][i]
            if value is None and func.ignores_nulls and has_child:
                continue
            states[j] = func.update(states[j], value)


def pipeline_partial_columns(
    spec: PipelineSpec, groups: dict[tuple, list[Any]]
) -> list[list[Any]]:
    """Render accumulated groups as partial-aggregate exchange columns.

    Layout matches ``partial_agg_schema``: grouping keys first, then one
    pickled state blob per aggregate call — the format workers return and
    the driver's final-merge already understands.
    """
    keys = list(groups)
    columns: list[list[Any]] = [
        [key[i] for key in keys] for i in range(len(spec.groupings))
    ]
    for j in range(len(spec.agg_specs)):
        columns.append([
            pickle.dumps(groups[key][j], protocol=pickle.HIGHEST_PROTOCOL)
            for key in keys
        ])
    return columns


# ---------------------------------------------------------------------------
# Bound kernels
# ---------------------------------------------------------------------------


def _bind_env(artifact: CompiledArtifact, walk: list[Expression]) -> dict[str, Any]:
    """The env constants of ``artifact`` rebuilt from one congruent tree."""
    return {
        name: _ENV_BUILDERS[kind](walk[index])
        for name, index, kind in artifact.env_spec
    }


def binding_key(kernel: "CompiledKernels | CompiledPipeline") -> str:
    """Identity of a *bound* kernel: the fingerprint names the generated
    code, the literal values name this binding of it. Worker processes
    cache bound kernels, so they key on this."""
    artifact = kernel.artifact
    literals = [
        kernel._env[name]  # noqa: SLF001 - same module
        for name, _, kind in artifact.env_spec
        if kind == "literal"
    ]
    return f"{artifact.fingerprint}|{literals!r}"


class CompiledKernels:
    """A cached artifact bound to one concrete expression list.

    Binding rebuilds the env constants (IN-list sets, LIKE regexes, cast and
    builtin callables) and collects the opaque nodes from *this* tree, so a
    single artifact serves every structurally congruent expression list.
    """

    __slots__ = ("artifact", "_env", "_opaque")

    def __init__(self, artifact: CompiledArtifact, exprs: Sequence[Expression]):
        walk = _canonical_walk(exprs)
        self.artifact = artifact
        self._env = _bind_env(artifact, walk)
        self._opaque = [walk[index] for index in artifact.opaque_spec]

    @property
    def fingerprint(self) -> str:
        return self.artifact.fingerprint

    def eval_all(self, batch: ColumnBatch, ctx: EvalContext) -> list[list[Any]]:
        """Evaluate every output column for one batch.

        Opaque nodes run first through the interpreter (picking up fused-UDF
        results from ``ctx.udf_results`` exactly as interpreted evaluation
        would); the generated function then computes all outputs in one pass.
        """
        opaque_columns = [node.eval(batch, ctx) for node in self._opaque]
        return self.artifact.fn(
            batch.columns, batch.num_rows, ctx, self._env, opaque_columns
        )


def predicate_mask(
    kernel: CompiledKernels | None,
    predicate: Expression,
    batch: ColumnBatch,
    ctx: EvalContext,
) -> list[Any]:
    """The row mask of ``predicate``: through its compiled kernel when there
    is one, interpreted otherwise (no compiler, or the compiler refused)."""
    if kernel is not None:
        return kernel.eval_all(batch, ctx)[0]
    return predicate.eval(batch, ctx)


class CompiledPipeline:
    """A cached pipeline artifact bound to one concrete chain.

    Like :class:`CompiledKernels`, binding rebuilds env constants against
    this chain's trees so congruent chains share one artifact. Pipelines
    refuse opaque nodes at compile time (UDFs break chains instead), so no
    opaque pre-evaluation happens here.
    """

    __slots__ = ("artifact", "spec", "_env")

    def __init__(self, artifact: CompiledArtifact, spec: PipelineSpec):
        self.artifact = artifact
        self.spec = spec
        self._env = _bind_env(artifact, _canonical_walk(spec.all_exprs()))

    @property
    def fingerprint(self) -> str:
        return self.artifact.fingerprint

    def accumulate(
        self,
        batch: ColumnBatch,
        ctx: EvalContext,
        groups: dict[tuple, list[Any]],
        cell: list[Any],
    ) -> None:
        """Fold one batch into ``groups`` (state layout matches the
        aggregate algebra, so partial emit / merge machinery applies).

        ``cell`` is the two-slot last-key memo carried across batches;
        start each accumulation scope with ``[None, None]``.
        """
        self.artifact.fn(
            batch.columns, batch.num_rows, ctx, self._env, (), groups, cell
        )


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def artifact_payload(artifact: CompiledArtifact) -> dict[str, Any]:
    """A JSON-safe source record for one artifact, for the artifact store.

    Only the generated *source* and the rebinding recipe travel — the
    compiled function is re-``exec``ed on rehydration, so a payload written
    by one process (or one cluster) is usable by any other.
    """
    return {
        "fingerprint": artifact.fingerprint,
        "source": artifact.source,
        "env_spec": [list(t) for t in artifact.env_spec],
        "opaque_spec": list(artifact.opaque_spec),
        "num_outputs": artifact.num_outputs,
    }


def rehydrate_artifact(payload: dict[str, Any]) -> CompiledArtifact | None:
    """Re-``exec`` a persisted source record back into a live artifact.

    Returns None on any malformed record — persistence is an optimization,
    the caller just recompiles from the expression tree.
    """
    try:
        fingerprint = str(payload["fingerprint"])
        source = payload["source"]
        if not isinstance(source, str) or "def _kernel(" not in source:
            return None
        namespace: dict[str, Any] = {}
        code = compile(source, f"<kernel:{fingerprint[:12]}>", "exec")
        exec(code, namespace)  # noqa: S102 - source we generated and framed
        fn = namespace["_kernel"]
        env_spec = tuple(
            (str(name), int(pos), str(kind))
            for name, pos, kind in payload["env_spec"]
        )
        opaque_spec = tuple(int(p) for p in payload["opaque_spec"])
        num_outputs = int(payload["num_outputs"])
    except Exception:  # noqa: BLE001 - any bad record is just a miss
        return None
    return CompiledArtifact(
        fingerprint=fingerprint,
        source=source,
        fn=fn,
        env_spec=env_spec,
        opaque_spec=opaque_spec,
        num_outputs=num_outputs,
    )


@dataclass
class KernelCacheStats:
    """Counters surfaced through ``system.access.cache_stats``."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    compile_errors: int = 0
    #: Total generated-source lines across every inserted artifact.
    source_lines: int = 0
    #: Planner fusion attempts that produced a fused pipeline / fell back.
    fusion_hits: int = 0
    fusion_misses: int = 0
    #: Misses served by rehydrating persisted source from the artifact store.
    persistent_hits: int = 0
    #: Persisted records that failed to rehydrate (recompiled instead).
    rehydrate_errors: int = 0


class KernelCache:
    """Bounded, thread-safe LRU of compiled artifacts keyed by fingerprint.

    Content-addressed: the fingerprint fully determines the generated code,
    so entries can never go stale — governance changes invalidate the *plan*
    (and the kernels riding it) through the secure-plan cache's policy
    epoch, not this cache.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_KERNEL_CACHE_CAPACITY,
        telemetry: Telemetry | None = None,
        persistent: "Any | None" = None,
    ):
        self.capacity = max(1, capacity)
        self._telemetry = telemetry
        #: Optional :class:`repro.store.ArtifactStore` read/write-through:
        #: kernels are content-addressed, so persisted source survives
        #: restarts and can be shared across clusters on one KV.
        self._persistent = persistent
        self._entries: OrderedDict[str, CompiledArtifact] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = KernelCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(name).inc()

    def get(self, fingerprint: str) -> CompiledArtifact | None:
        """LRU lookup, falling through to the persistent store on a miss."""
        with self._lock:
            artifact = self._entries.get(fingerprint)
            if artifact is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                self._count("kernel_cache.hits")
                return artifact
        artifact = self._rehydrate(fingerprint)
        if artifact is not None:
            with self._lock:
                self._adopt(fingerprint, artifact)
                self.stats.hits += 1
                self.stats.persistent_hits += 1
            self._count("kernel_cache.persistent_hits")
            return artifact
        with self._lock:
            self.stats.misses += 1
        self._count("kernel_cache.misses")
        return None

    def _rehydrate(self, fingerprint: str) -> CompiledArtifact | None:
        """Probe the artifact store and re-exec the source (outside the lock)."""
        if self._persistent is None:
            return None
        payload = self._persistent.get_kernel_payload(fingerprint)
        if payload is None:
            return None
        artifact = rehydrate_artifact(payload)
        if artifact is None or artifact.fingerprint != fingerprint:
            with self._lock:
                self.stats.rehydrate_errors += 1
            self._count("kernel_cache.rehydrate_errors")
            return None
        return artifact

    def _adopt(self, fingerprint: str, artifact: CompiledArtifact) -> None:
        """Insert under the held lock, without re-persisting."""
        self._entries[fingerprint] = artifact
        self._entries.move_to_end(fingerprint)
        self.stats.insertions += 1
        self.stats.source_lines += artifact.source.count("\n") + 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._count("kernel_cache.evictions")

    def put(self, fingerprint: str, artifact: CompiledArtifact) -> None:
        """Insert one artifact, evicting least-recently-used past capacity."""
        with self._lock:
            self._adopt(fingerprint, artifact)
        if self._persistent is not None:
            self._persistent.put_kernel_payload(
                fingerprint, artifact_payload(artifact)
            )

    def note_error(self) -> None:
        """Record one failed compilation (the caller fell back)."""
        with self._lock:
            self.stats.compile_errors += 1
        self._count("kernel_cache.compile_errors")

    def note_fusion(self, hit: bool) -> None:
        """Record one planner fusion attempt: fused (hit) or fell back."""
        with self._lock:
            if hit:
                self.stats.fusion_hits += 1
            else:
                self.stats.fusion_misses += 1
        self._count("kernel_cache.fusion_hits" if hit else "kernel_cache.fusion_misses")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters + size for ``system.access.cache_stats``."""
        with self._lock:
            return {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "insertions": self.stats.insertions,
                "evictions": self.stats.evictions,
                "compile_errors": self.stats.compile_errors,
                "source_lines": self.stats.source_lines,
                "fusion_hits": self.stats.fusion_hits,
                "fusion_misses": self.stats.fusion_misses,
                "persistent_hits": self.stats.persistent_hits,
                "rehydrate_errors": self.stats.rehydrate_errors,
                "size": len(self._entries),
                "capacity": self.capacity,
            }


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class KernelCompiler:
    """Front door: fold → fingerprint → cache lookup → generate → bind.

    Every public method returns ``None`` instead of raising when the input
    is not worth compiling or lowering fails, so callers can use the result
    as an optional fast path with the interpreter as the always-available
    fallback.
    """

    def __init__(self, cache: KernelCache | None = None):
        # Explicit None check: an empty KernelCache is falsy (__len__ == 0),
        # and a shared-but-empty cluster cache must still be adopted.
        self.cache = cache if cache is not None else KernelCache()

    # -- public API ---------------------------------------------------------

    def compile_projection(
        self, exprs: Sequence[Expression]
    ) -> CompiledKernels | None:
        """Compile a projection list into one multi-output kernel."""
        try:
            folded = tuple(_fold(e) for e in exprs)
            if not self._worth_compiling(folded):
                return None
            fingerprint = expression_fingerprint(folded, mode="project")
            artifact = self._lookup_or_generate(
                fingerprint, lambda: _generate_projection(folded, fingerprint),
                outputs=len(folded),
            )
            return CompiledKernels(artifact, folded)
        except Exception:  # noqa: BLE001 - fall back to the interpreter
            self.cache.note_error()
            return None

    def compile_predicate(self, condition: Expression) -> CompiledKernels | None:
        """Compile one predicate; ``eval_all`` returns ``[mask]``."""
        return self.compile_projection((condition,))

    def compile_filter_projection(
        self, condition: Expression, exprs: Sequence[Expression]
    ) -> CompiledKernels | None:
        """Compile fused filter→project (no intermediate batch).

        Refuses (returns ``None``) when any node is opaque: a pre-evaluated
        UDF would otherwise see pre-filter rows, changing how often user
        code runs relative to the unfused plan.
        """
        try:
            folded_cond = _fold(condition)
            folded = tuple(_fold(e) for e in exprs)
            for expr in (folded_cond, *folded):
                if any(_is_opaque(node) for node in _canonical_walk((expr,))):
                    return None
            fingerprint = expression_fingerprint(
                (folded_cond, *folded), mode="filter-project"
            )
            artifact = self._lookup_or_generate(
                fingerprint,
                lambda: _generate_filter_projection(folded_cond, folded, fingerprint),
                outputs=len(folded),
            )
            return CompiledKernels(artifact, (folded_cond, *folded))
        except Exception:  # noqa: BLE001 - fall back to the interpreter
            self.cache.note_error()
            return None

    def compile_pipeline(
        self,
        condition: Expression | None,
        groupings: Sequence[Expression],
        agg_calls: Sequence[Any],
        agg_inputs: Sequence[Expression],
    ) -> CompiledPipeline | None:
        """Compile a filter→project→aggregate chain into one loop.

        ``agg_calls`` are :class:`~repro.engine.aggregates.AggregateCall`
        nodes (for function names and COUNT(*) detection); ``agg_inputs``
        the per-call input expressions composed down to the chain's input
        schema. Refuses unknown aggregates and any opaque node — user code
        must break the chain, never ride inside it.
        """
        spec = PipelineSpec(
            condition=condition,
            groupings=tuple(groupings),
            agg_specs=tuple(
                (call.func_name, call.child is not None) for call in agg_calls
            ),
            agg_inputs=tuple(agg_inputs),
        )
        return self.compile_pipeline_spec(spec)

    def compile_pipeline_spec(
        self, spec: PipelineSpec
    ) -> CompiledPipeline | None:
        """Compile (or rebind from cache) one :class:`PipelineSpec`.

        This is the entry worker processes use to rehydrate a shipped
        pipeline from its cloudpickled spec.
        """
        try:
            if any(name not in _AGG_INLINE for name, _ in spec.agg_specs):
                return None
            if len(spec.agg_specs) != len(spec.agg_inputs):
                return None
            folded = spec.fold()
            for node in _canonical_walk(folded.all_exprs()):
                if _is_opaque(node):
                    return None
            fingerprint = expression_fingerprint(
                folded.all_exprs(), mode=folded.mode_string()
            )
            artifact = self._lookup_or_generate(
                fingerprint,
                lambda: _generate_aggregation_pipeline(folded, fingerprint),
                outputs=len(folded.agg_specs),
            )
            return CompiledPipeline(artifact, folded)
        except Exception:  # noqa: BLE001 - fall back to the interpreter
            self.cache.note_error()
            return None

    def note_fusion(self, hit: bool) -> None:
        """Planner hook: count one fusion attempt on the shared cache."""
        self.cache.note_fusion(hit)

    # -- internals ----------------------------------------------------------

    def _lookup_or_generate(
        self, fingerprint: str, build: Callable[[], CompiledArtifact], outputs: int
    ) -> CompiledArtifact:
        artifact = self.cache.get(fingerprint)
        if artifact is not None:
            return artifact
        with span_or_null(
            current_context(),
            "kernel-compile",
            "engine.compile",
            fingerprint=fingerprint[:12],
            outputs=outputs,
        ):
            artifact = build()
        self.cache.put(fingerprint, artifact)
        return artifact

    @staticmethod
    def _worth_compiling(exprs: Sequence[Expression]) -> bool:
        """At least one inlinable computation beyond bare refs/constants."""
        for node in _canonical_walk(exprs):
            if _is_opaque(node):
                continue
            if not isinstance(node, _TRIVIAL):
                return True
        return False
