"""Compiled expression kernels: lowering expression trees to Python code.

The interpreter in :mod:`repro.engine.expressions` re-walks the tree for
every batch and evaluates each node with a per-element ``zip`` loop, so the
hot path of every governed scan — row filters, column masks, secure-view
predicates — pays tree dispatch *per batch* and list-comprehension overhead
*per node per element*. This module removes that interpretation tax the way
Flare does for Spark plans: a :class:`PipelineSpec` — a chain's composed
filters and projections and its sink — is lowered into one
generated-and-``compile()``d Python function that runs the whole chain in a
single loop, with NULL checks short-circuited inline, constants folded at
lowering time, and common subexpressions computed once per row.
:func:`interpret_pipeline` runs the same spec without generated code.

Trust boundaries stay intact by construction:

- :class:`~repro.engine.expressions.PythonUDFCall` nodes (and any node type
  this module does not recognize) are **opaque**, and a spec holding one is
  refused: user code breaks the planner's chain and runs next to the
  sandbox, never inside a generated loop.
- Kernels are pure functions of expression *structure*: the cache key is a
  structural fingerprint covering operators, column positions, builtin
  names and the type / equality pattern of literals, never data or
  identity. Literal *values* bind through the kernel's env like IN-list
  sets do, so a query that differs from the last one only in a constant
  reuses its artifact. A :class:`~repro.engine.expressions.Parameter` (a
  user literal the secure-plan cache lifted out of a predicate) is not even
  bound: the generated code loads ``_ctx.params[slot]`` once per call, so
  one *bound* kernel serves every execution of a cached plan. Session
  identity enters at run time through
  :class:`~repro.engine.expressions.EvalContext` too (for ``CURRENT_USER()``
  / group membership), exactly like the interpreter.
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
import heapq
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.common.context import current_context, span_or_null
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
    Parameter,
    conjuncts,
    is_pure,
)
from repro.engine.types import INT, STRING, Field, Schema

DEFAULT_KERNEL_CACHE_CAPACITY = 256

#: Debug knob: when set to a directory path, every generated kernel and
#: pipeline source is written there as ``kernel_<fingerprint>.py`` so the
#: exact code a query ran can be inspected offline.
ENV_DUMP_KERNELS = "LAKEGUARD_DUMP_KERNELS"


#: Heap primitives a top-k sink calls (max-heap ones are public from 3.14),
#: and the sort key of a run-mode aggregate's new groups.
_KERNEL_GLOBALS = {
    "_heapify": heapq.heapify,
    "_heapreplace": heapq.heapreplace,
    "_heapify_max": getattr(heapq, "heapify_max", None) or heapq._heapify_max,
    "_heapreplace_max": (
        getattr(heapq, "heapreplace_max", None) or heapq._heapreplace_max
    ),
    "_first": itemgetter(0),
}


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
    Parameter,
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

#: Row-invariant leaves: a ``collect`` loop made only of these would be
#: slower than the interpreter (``BoundRef.eval`` returns the column list
#: without copying; constants use ``[v] * n``), so :func:`collect_loop`
#: skips it.
_TRIVIAL = (Literal, Parameter, BoundRef, Alias, CurrentUser, IsAccountGroupMember)

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
    if isinstance(node, Parameter):
        # No value to specialise on (not even zero-ness): a parameter is a
        # typed load from the execution's ``_ctx.params``.
        return f"param:{node.dtype.name}:{node.slot}"
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


def memoisable_policy(predicate: Expression) -> bool:
    """Whether the governed scan memo may hold the rows the row filter
    ``predicate`` admits: pure (:func:`~repro.engine.expressions.is_pure`),
    free of :class:`Parameter` slots, and made only of inlinable nodes."""
    return is_pure(predicate) and not any(
        isinstance(node, Parameter) or _is_opaque(node) for node in predicate.walk()
    )


def policy_digest(predicate: Expression) -> str:
    """Value-exact sha256 of a :func:`memoisable_policy` predicate: unlike
    :func:`expression_fingerprint`, ``region = 'EU'`` and ``region = 'US'``
    differ. Signatures are length-prefixed, so no literal spells a tree."""
    digest = hashlib.sha256(b"policy|")
    for node in predicate.walk():
        if isinstance(node, Literal):
            sig = f"lit:{type(node.value).__name__}:{node.value!r}"
        elif isinstance(node, BoundRef):
            sig = f"ref:{node.index}:{node.name}"
        else:
            sig = _node_signature(node, {})
        digest.update(f"{len(sig)}:{sig}|{len(node.children)};".encode())
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
    fn: Callable[..., list[list[Any]]]
    #: ``(env name, canonical walk index, builder kind)`` triples.
    env_spec: tuple[tuple[str, int, str], ...]
    num_outputs: int


class _SharedState:
    """State shared between the fast and checked code-generation passes.

    Per-row leaves (columns) and row-invariant bindings
    (env constants, group membership, the user) are bound once and used by
    both generated bodies; only the per-node computation code differs.
    """

    def __init__(self, walk: Sequence[Expression]):
        #: id(node) -> canonical walk position
        self.walk_index = {id(node): i for i, node in enumerate(walk)}
        self.literal_slots = _literal_slots(walk)
        self.prelude: list[str] = []
        #: ``_c{i} = <columns>[i]`` per column read: once per call, or once
        #: per run in a run-mode loop (``columns`` names what holds them).
        self.loads: list[str] = []
        self.columns = "_cols"
        #: ``(per-row variable, sequence)`` per leaf: zipped by the loop
        #: header, and assumed non-NULL by the fast path.
        self.leaves: list[tuple[str, str]] = []
        self.env_spec: list[tuple[str, int, str]] = []
        self._env_memo: dict[tuple[int, str], str] = {}
        self._col_loads: dict[int, str] = {}
        self._groups_bound: dict[str, str] = {}
        self._params_bound: set[int] = set()
        self.user_bound = False
        self.counter = 0
        #: A join probe's source width: a ref at ``width + j`` reads the
        #: matched build row's column ``j`` (the local ``_b{j}``).
        self.width: int | None = None

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

    def column_seq(self, index: int) -> str:
        """One input column's sequence, loaded once."""
        seq = f"_c{index}"
        line = f"{seq} = {self.columns}[{index}]"
        if line not in self.loads:
            self.loads.append(line)
        return seq

    def column_value(self, index: int) -> str:
        """Per-row value of one input column (a leaf the loop zips)."""
        var = self._col_loads.get(index)
        if var is None:
            var = f"_l{index}"
            self._col_loads[index] = var
            self.leaves.append((var, self.column_seq(index)))
        return var

    def param(self, slot: int) -> str:
        """One parameter's value, loaded once per kernel call."""
        if slot not in self._params_bound:
            self._params_bound.add(slot)
            self.prelude.append(f"_p{slot} = _ctx.params[{slot}]")
        return f"_p{slot}"

    def group_flag(self, group: str) -> str:
        name = self._groups_bound.get(group)
        if name is None:
            name = f"_g{len(self._groups_bound)}"
            self._groups_bound[group] = name
            self.prelude.append(f"{name} = ({group!r} in _ctx.groups)")
        return name

    def guard_condition(self) -> str | None:
        """``x is not None and ...`` over every leaf, or None."""
        if not self.leaves:
            return None
        return " and ".join(f"{v} is not None" for v, _ in self.leaves)

    def loop_header(self) -> str:
        """Iterate the leaves themselves: ``zip(..., strict=True)`` over
        several (a length mismatch raises instead of truncating), the bare
        sequence for one, ``range(_n)`` only when no leaf is loaded."""
        if not self.leaves:
            return "for _i in range(_n):"
        names = ", ".join(v for v, _ in self.leaves)
        if len(self.leaves) == 1:
            return f"for {names} in {self.leaves[0][1]}:"
        seqs = ", ".join(seq for _, seq in self.leaves)
        return f"for {names} in zip({seqs}, strict=True):"


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
        return (_node_signature(node, self._shared.literal_slots),) + tuple(
            self._struct_key(c) for c in node.children
        )

    def sequence(self, ref: BoundRef) -> str:
        """The whole input column ``ref`` reads, not a per-row value."""
        return self._shared.column_seq(ref.index)

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

    def scoped_filter(self, condition: Expression) -> list[str]:
        """``condition``'s row gate as lines of their own, for an inner loop
        that may run no iteration: nothing they compute is reused later."""
        body, cse = self.body, dict(self._cse)
        self.body = []
        self.emit_filter(condition)
        lines, self.body, self._cse = self.body, body, cse
        return lines

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
            # Refused by the compiler before generation; never inlined.
            raise TypeError(f"opaque node {type(node).__name__}")
        if _is_env_literal(node):
            return self._shared.env(node, "literal"), False
        if isinstance(node, Literal):
            return f"({node.value!r})", node.value is None
        if isinstance(node, Parameter):
            return self._shared.param(node.slot), False  # never NULL
        if isinstance(node, BoundRef):
            width = self._shared.width
            if width is not None and node.index >= width:
                return f"_b{node.index - width}", True  # NULL for a left miss
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
    shared: _SharedState,
    loop_setup: list[str],
    loop_body: list[str],
    returns: list[str],
    run: tuple[list[str], int] | None = None,
) -> tuple[str, Callable]:
    """Render, ``compile()`` and ``exec`` the kernel source. A run-mode
    aggregate's ``run`` is the body for a run's rows up to its first passing
    one, and its number of accumulator slots; ``loop_body`` does the rest."""
    lines = ["def _kernel(_cols, _n, _ctx, _env, _sink=None, _tab=None):"]
    lines += [f"    {line}" for line in shared.prelude + loop_setup]
    if run is not None:
        # Per run: the first passing row finds (or queues) the group and
        # loads its state into locals; the rest of the run folds into them
        # without a lookup; the run writes them back.
        first, slots = run
        names = [v for v, _ in shared.leaves] or ["_i"]
        seqs = [seq for _, seq in shared.leaves] or ["_run[-1]"]
        rows = f"zip({', '.join(seqs)}, strict=True)" if len(seqs) > 1 else f"iter({seqs[0]})"
        lines.append("    for _run in _cols:")
        lines += [f"        {line}" for line in [*shared.loads, f"_it = {rows}"]]
        target = names[0] if len(names) == 1 else f"({', '.join(names)})"
        lines.append(f"        for _j, {target} in enumerate(_it):")
        lines += [f"            {line}" for line in first]
        lines += ["        else:", "            continue"]
        lines.append(f"        for {', '.join(names)} in _it:")
        lines += [f"            {line}" for line in loop_body]
        lines.append(f"        _st[:] = {''.join(f'_a{s}, ' for s in range(slots))}")
        # Groups the batch added enter in the order of their first passing
        # rows, as a row-by-row loop adds them.
        lines += ["    _new.sort(key=_first)", "    for _i, _k, _st in _new:", "        _sink[_k] = _st"]
    else:
        lines += [f"    {line}" for line in shared.loads]
        lines.append(f"    {shared.loop_header()}")
        lines += [f"        {line}" for line in loop_body]
    lines.append(f"    return [{', '.join(returns)}]")
    source = "\n".join(lines)
    _maybe_dump_source(fingerprint, source)
    namespace: dict[str, Any] = dict(_KERNEL_GLOBALS)
    code = compile(source, f"<kernel:{fingerprint[:12]}>", "exec")
    exec(code, namespace)  # noqa: S102 - source is generated above, not user input
    return source, namespace["_kernel"]


def _dual_body(
    shared: _SharedState, make_body: Callable[[_CodeGen], list[str]]
) -> list[str]:
    """Assemble the per-row loop body with NULL specialization.

    The checked pass is generated first (binding every leaf the loop header
    will zip); if any leaf can be NULL, a second *fast* body is generated
    under ``assume_nonnull`` and the loop dispatches per row::

        if <every leaf> is not None:   # fast body, no NULL conditionals
        else:                          # checked body, full 3VL
    """
    checked = _CodeGen(shared)
    checked_body = make_body(checked)
    guard = shared.guard_condition()
    if guard is None:
        return checked_body
    fast = _CodeGen(shared, assume_nonnull=True)
    fast_body = make_body(fast)
    return (
        [f"if {guard}:"]
        + [f"    {line}" for line in fast_body]
        + ["else:"]
        + [f"    {line}" for line in checked_body]
    )


# ---------------------------------------------------------------------------
# Whole-pipeline codegen (source → filter → project [→ join probe] → sink)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinProbe:
    """A join probed inside the loop; its build side is hashed once per
    execution (:func:`hash_keys` over ``build_keys``, interpreted, so they
    are not part of the generated code). A join with no equality hashes on
    the constant TRUE: one bucket that holds every build row.

    ``keys`` are the probe keys over the source's ``width`` columns; a ref
    at ``width + j`` reads column ``j`` of a candidate build row. A row's
    matches are the candidates that pass ``residual`` (every candidate
    without one). ``how`` is ``inner``, ``left`` (no match binds every build
    column to NULL, once), ``full`` (a ``left`` whose build rows carry their
    position last, which each match records in its ``collect`` sink's
    state, for the unmatched build rows), ``semi`` or ``anti`` (whether any
    candidate matches; ``build_width`` is 0 unless a residual reads them).
    """

    how: str
    keys: tuple[Expression, ...]
    build_keys: tuple[Expression, ...]
    width: int
    build_width: int
    residual: Expression | None = None

    @property
    def row_width(self) -> int:
        """Values per hashed build row: a FULL join's carry their position."""
        return self.build_width + (self.how == "full")


@dataclass(frozen=True)
class PipelineSpec:
    """Structural description of one fusable chain and its sink.

    The planner composes a chain's filter conditions and projection lists
    down to the chain's *input* schema (see the physical planner's chain
    detection), so every expression here is bound against the batches the
    source operator produces — followed, with a :class:`JoinProbe`, by the
    matched build row's columns. ``condition`` gates source rows before the
    probe, ``matched`` gates joined rows. The sink is one of:

    - ``aggregate``: ``agg_specs`` carries ``(func_name, has_child)`` per
      distinct aggregate call, ``agg_inputs`` the input per call
      (``Literal(True)`` for ``COUNT(*)``), ``groupings`` the keys;
    - ``collect``: ``outputs`` of every row that passes;
    - ``limit``: the same, after skipping ``offset`` rows and until ``n``
      are kept (both live in the sink state, not in the code);
    - ``topk``: ``outputs`` of the rows ``sorted(...)[offset:offset + k]``
      by ``order`` — one direction, NULL placement per term, ties in
      arrival order (``k`` and ``offset`` in the state; no ``k`` sorts all).
    """

    condition: Expression | None
    groupings: tuple[Expression, ...] = ()
    agg_specs: tuple[tuple[str, bool], ...] = ()
    agg_inputs: tuple[Expression, ...] = ()
    sink: str = "aggregate"
    outputs: tuple[Expression, ...] = ()
    order: tuple[Expression, ...] = ()
    descending: bool = False
    nulls_first: tuple[bool, ...] = ()
    probe: JoinProbe | None = None
    matched: Expression | None = None

    def all_exprs(self) -> tuple[Expression, ...]:
        """Every expression the generated loop inlines, in canonical order."""
        residual = self.probe and self.probe.residual
        gates = tuple(e for e in (self.condition, self.matched, residual) if e is not None)
        keys = self.probe.keys if self.probe is not None else ()
        return gates + keys + self.groupings + self.agg_inputs + self.outputs + self.order

    def mode_string(self) -> str:
        """The fingerprint mode: pins the sink's structure alongside shapes."""
        aggs = ",".join(
            f"{name}{'' if has_child else '*'}"
            for name, has_child in self.agg_specs
        )
        gates = "".join(
            flag if e is not None else "-"
            for flag, e in (("c", self.condition), ("m", self.matched))
        )
        order = "d" if self.descending else "a"
        order += "".join("f" if first else "l" for first in self.nulls_first)
        probe = self.probe
        joined = "-" if probe is None else (
            f"{probe.how}:{len(probe.keys)}:{probe.width}:{probe.build_width}:"
            f"{'r' if probe.residual is not None else '-'}"
        )
        return (
            f"pipeline|{self.sink}|{gates}|{len(self.groupings)}|{aggs}|"
            f"{len(self.outputs)}|{order}|{joined}"
        )

    @property
    def label(self) -> str:
        """Which loop runs, for the ``kernel:pipeline`` span."""
        return "join_probe" if self.probe is not None else self.sink

    def fold(self) -> "PipelineSpec":
        """Constant-fold every inlined expression (see :func:`_fold`)."""
        def many(exprs: tuple[Expression, ...]) -> tuple[Expression, ...]:
            return tuple(_fold(e) for e in exprs)

        return replace(
            self,
            condition=self.condition and _fold(self.condition),
            matched=self.matched and _fold(self.matched),
            groupings=many(self.groupings),
            agg_inputs=many(self.agg_inputs),
            outputs=many(self.outputs),
            order=many(self.order),
            probe=self.probe and replace(
                self.probe,
                keys=many(self.probe.keys),
                residual=self.probe.residual and _fold(self.probe.residual),
            ),
        )


def _guarded(value_tok: str, guarded: bool, body: list[str]) -> list[str]:
    """Wrap an aggregate update in the NULL-skip guard when needed."""
    if not guarded:
        return body
    return [f"if {value_tok} is not None:"] + [f"    {line}" for line in body]


def _cell(s: int, local: bool) -> tuple[str, str, list[str]]:
    """Accumulator slot ``s``: where it is stored, the token of its current
    value and the line loading that — a local of a run-mode loop is both."""
    if local:
        return f"_a{s}", f"_a{s}", []
    return f"_st[{s}]", f"_s{s}", [f"_s{s} = _st[{s}]"]


def _upd_count(s: int, v: str, guarded: bool, local: bool) -> list[str]:
    cell = _cell(s, local)[0]
    return _guarded(v, guarded, [f"{cell} = {cell} + 1"])


def _upd_sum(s: int, v: str, guarded: bool, local: bool) -> list[str]:
    cell, cur, load = _cell(s, local)
    return _guarded(v, guarded, [*load, f"{cell} = {v} if {cur} is None else {cur} + {v}"])


def _upd_min(s: int, v: str, guarded: bool, local: bool) -> list[str]:
    # min(s, v) keeps s on ties; mirror that exactly.
    cell, cur, load = _cell(s, local)
    return _guarded(v, guarded, [
        *load, f"{cell} = {v} if {cur} is None else ({v} if {v} < {cur} else {cur})",
    ])


def _upd_max(s: int, v: str, guarded: bool, local: bool) -> list[str]:
    cell, cur, load = _cell(s, local)
    return _guarded(v, guarded, [
        *load, f"{cell} = {v} if {cur} is None else ({v} if {v} > {cur} else {cur})",
    ])


def _upd_avg(s: int, v: str, guarded: bool, local: bool) -> list[str]:
    # Two flat slots, (sum, count): no tuple built per row.
    total, count = _cell(s, local)[0], _cell(s + 1, local)[0]
    return _guarded(v, guarded, [f"{total} = {total} + {v}", f"{count} = {count} + 1"])


def _upd_count_distinct(s: int, v: str, guarded: bool, local: bool) -> list[str]:
    # Mutable set instead of the algebra's frozenset-per-row: ``merge`` and
    # ``final`` (union / len) accept either, and states only leave through
    # pickle or finalization, so results are identical.
    return _guarded(v, guarded, [f"{_cell(s, local)[0]}.add({v})"])


#: Aggregates the pipeline generator can inline: ``(init source per
#: accumulator slot, update-code emitter)``. Init/update mirror
#: ``AGGREGATE_FUNCTIONS`` exactly (``avg``'s two slots are its ``(sum,
#: count)`` state, flattened); an aggregate outside this table refuses the
#: whole pipeline.
_AGG_INLINE: dict[str, tuple[tuple[str, ...], Callable[[int, str, bool, bool], list[str]]]] = {
    "count": (("0",), _upd_count),
    "sum": (("None",), _upd_sum),
    "min": (("None",), _upd_min),
    "max": (("None",), _upd_max),
    "avg": (("0.0", "0"), _upd_avg),
    "count_distinct": (("set()",), _upd_count_distinct),
}


def _slot_layout(agg_specs: Sequence[tuple[str, bool]]) -> list[int]:
    """The first accumulator slot of each aggregate call."""
    starts, slot = [], 0
    for name, _ in agg_specs:
        starts.append(slot)
        slot += len(_AGG_INLINE[name][0])
    return starts


def _aggregate_tail(spec: PipelineSpec, gen: _CodeGen, run: str = "") -> list[str]:
    """Fold the row into its group's accumulator slots, in place — or, in a
    run-mode loop, into locals that hold the run's group: its ``"first"``
    passing row looks the group up by its own key object (or queues it for
    the sink, at its position) and loads them, and ends the first loop; the
    ``"rest"`` only fold."""
    slots = [init for name, _ in spec.agg_specs for init in _AGG_INLINE[name][0]]
    inits = ", ".join(slots)
    key_toks = [] if run else [gen.emit(g)[0] for g in spec.groupings]
    values = [gen.emit(e) for e in spec.agg_inputs]
    if run == "first":
        keys = gen.sequence(spec.groupings[0])
        tail = [
            f"_k = {keys}[_j]",
            "_st = _get(_k)",
            "if _st is None:",
            f"    _st = [{inits}]",
            "    _new.append((_run[-1][_j], _k, _st))",
            f"{''.join(f'_a{s}, ' for s in range(len(slots)))}= _st",
        ]
    elif run:
        tail = []
    elif not key_toks:
        tail = ["if _st is None:", f"    _st = _sink[()] = [{inits}]"]
    else:
        tail = []
        key = key_toks[0]
        if len(key_toks) > 1 or not key.isidentifier():
            tail.append(f"_key = ({', '.join(key_toks)})")
            key = "_key"
        tail += [
            f"_st = _get({key})",
            "if _st is None:",
            f"    _st = _sink[{key}] = [{inits}]",
        ]
    for slot, (name, has_child), (v_tok, maybe) in zip(
        _slot_layout(spec.agg_specs), spec.agg_specs, values
    ):
        # All inlined aggregates ignore NULL inputs; COUNT(*)-style calls
        # feed a constant and never skip, matching the interpreter.
        tail += _AGG_INLINE[name][1](slot, v_tok, maybe and has_child, bool(run))
    return tail + ["break"] * (run == "first")


def _collect_tail(spec: PipelineSpec, gen: _CodeGen) -> list[str]:
    """Append the row's outputs; a ``limit`` sink skips its offset first
    and returns as soon as its last row is kept."""
    appends = [
        f"_out{j}.append({gen.emit(e)[0]})" for j, e in enumerate(spec.outputs)
    ]
    if spec.sink == "collect":
        return appends
    outs = ", ".join(f"_out{j}" for j in range(len(spec.outputs)))
    return (
        ["if _sink[0]:", "    _sink[0] -= 1", "    continue"]
        + appends
        + ["_sink[1] -= 1", "if not _sink[1]:", f"    return [{outs}]"]
    )


def _topk_tail(spec: PipelineSpec, gen: _CodeGen) -> list[str]:
    """Offer the row to a bounded heap of ``(key, ±push count, row)``.

    The heap's root is the worst row kept; ``_thr`` is its key, so a row
    that cannot enter costs one comparison. Ties go to the earlier row (a
    later one must beat the root strictly, and its push count sorts after
    the root's). One term keeps NULL keys apart, in arrival order; several
    compare ``(rank, value)`` pairs whose rank places NULL.
    """
    row = "".join(f"{gen.emit(e)[0]}, " for e in spec.outputs)
    keys = [gen.emit(e) for e in spec.order]
    key, maybe = keys[0]
    if len(keys) > 1:
        ranked = []
        for (tok, null), first in zip(keys, spec.nulls_first):
            rank = 0 if first != spec.descending else 2
            ranked.append(
                f"((1, {tok}) if {tok} is not None else ({rank}, 0))" if null
                else f"(1, {tok})"
            )
        key, maybe = f"({', '.join(ranked)},)", False
    tail = []
    if not key.isidentifier():
        tail, key = [f"_key = {key}"], "_key"
    if maybe:
        tail += [
            f"if {key} is None:",
            "    if len(_nul) != _m:",
            f"        _nul.append(({row}))",
            "    continue",
        ]
    better, count, heap = (">", "-", "") if spec.descending else ("<", "", "_max")
    entry = f"({key}, {count}_sink[3], ({row}))"
    return tail + [
        "if _full:",
        f"    if {key} {better} _thr:",
        "        _sink[3] += 1",
        f"        _heapreplace{heap}(_heap, {entry})",
        "        _thr = _heap[0][0]",
        "else:",
        "    _sink[3] += 1",
        f"    _heap.append({entry})",
        "    if len(_heap) == _m:",
        f"        _heapify{heap}(_heap)",
        "        _full = True",
        "        _thr = _heap[0][0]",
    ]


_SINK_TAILS = {
    "aggregate": _aggregate_tail,
    "collect": _collect_tail,
    "limit": _collect_tail,
    "topk": _topk_tail,
}


def _generate_pipeline(
    spec: PipelineSpec, fingerprint: str, runs: bool = False
) -> CompiledArtifact:
    """Lower a chain and its sink into one generated loop.

    Per source row the loop tests the chain's conjuncts, probes the join
    (each match rebinds the build row's columns as locals and runs the rest
    of the body; with a residual, the candidates that pass it are listed
    first), tests ``matched`` and runs the sink: no intermediate batch. An
    aggregate keeps a one-column GROUP BY keyed by the bare value and
    ``avg`` in flat slots; :meth:`CompiledPipeline.algebra_groups` converts
    to the aggregate algebra's layout once.

    With ``runs`` (an aggregate with one grouping column, no probe), the
    loop reads a batch's runs instead of its columns: ``_cols`` is their
    list, each ``(*columns, positions)``, and each run's rows share a key.
    """
    shared = _SharedState(_canonical_walk(spec.all_exprs()))
    if runs:
        shared.columns = "_run"
    outs = [f"_out{j}" for j in range(len(spec.outputs))]
    returns: list[str] = []
    if runs:
        setup = ["_get = _sink.get", "_new = []"]
    elif spec.sink == "aggregate":
        setup = ["_get = _sink.get"] if spec.groupings else ["_st = _sink.get(())"]
    elif spec.sink == "topk":
        setup = [
            "_heap, _nul, _m = _sink[0], _sink[1], _sink[2]",
            "_full = len(_heap) == _m",
            "_thr = _heap[0][0] if _full else None",
        ]
    else:
        setup, returns = [f"{out} = []" for out in outs], outs
    probe = spec.probe
    if probe is not None:
        shared.width = probe.width
        setup.append("_probe = _tab.get")
        if probe.how not in ("semi", "anti"):
            miss = "()" if probe.how == "inner" else f"(({'None, ' * probe.row_width}),)"
            setup.append(f"_miss = {miss}")

    def make_body(gen: _CodeGen, run: str = "") -> list[str]:
        if spec.condition is not None:
            gen.emit_filter(spec.condition)
        head, loop = gen.body, None
        if probe is not None:
            keys = [gen.emit(k)[0] for k in probe.keys]
            key = keys[0] if len(keys) == 1 else f"({', '.join(keys)},)"
            names = "".join(f"_b{j}, " for j in range(probe.row_width))
            semi = probe.how in ("semi", "anti")
            rows = f"_probe({key}, _miss)"
            if probe.residual is not None:
                # The candidates that pass, before the body runs for any.
                test = gen.scoped_filter(probe.residual)
                found = ["_hit = True", "break"] if semi else [f"_hits.append(({names}))"]
                head.append("_hit = False" if semi else "_hits = []")
                head.append(f"for {names}in _probe({key}, ()):")
                head += [f"    {line}" for line in test + found]
                rows = "_hits or _miss"
                if semi:
                    head += [f"if {'not ' * (probe.how == 'semi')}_hit:", "    continue"]
            elif semi:
                test = "not in" if probe.how == "semi" else "in"
                head += [f"if {key} {test} _tab:", "    continue"]
            if not semi:
                loop = f"for {names}in {rows}:"
                gen.body = [f"_sink.add(_b{probe.build_width})"] if probe.how == "full" else []
        if spec.matched is not None:
            gen.emit_filter(spec.matched)
        tail = _aggregate_tail(spec, gen, run) if run else _SINK_TAILS[spec.sink](spec, gen)
        body = gen.body + tail
        if loop is None:
            return body
        return head + [loop] + [f"    {line}" for line in body]

    first = _dual_body(shared, lambda gen: make_body(gen, "first")) if runs else None
    body = _dual_body(shared, lambda gen: make_body(gen, "rest" if runs else ""))
    slots = sum(len(_AGG_INLINE[name][0]) for name, _ in spec.agg_specs)
    source, fn = _assemble(
        fingerprint, shared, setup, body, returns, (first, slots) if runs else None
    )
    return CompiledArtifact(
        fingerprint=fingerprint,
        source=source,
        fn=fn,
        env_spec=tuple(shared.env_spec),
        num_outputs=len(outs),
    )


def join_keys(key_columns: Sequence[list[Any]]) -> list[Any]:
    """One join key per row: the bare value for one key column, a tuple for
    several, ``None`` when any component is NULL (it never matches)."""
    if len(key_columns) == 1:
        return key_columns[0]
    return [None if None in key else key for key in zip(*key_columns)]


def hash_keys(keys: Sequence[Any], values: Any) -> dict[Any, list[Any]]:
    """``values`` by their :func:`join_keys` ``keys``, in input order; NULL
    keys are left out, so a probe for one finds nothing."""
    table: dict[Any, list[Any]] = {}
    for key, value in zip(keys, values):
        if key is not None:
            table.setdefault(key, []).append(value)
    return table


def sink_state(spec: PipelineSpec, limit: int | None = None, offset: int = 0) -> Any:
    """A fresh sink state for one execution: the aggregate's groups, a
    LIMIT's ``[rows to skip, rows to keep]``, a top-k's ``[heap, NULL-key
    rows, capacity, push count]`` (``limit`` is ``k``; ``None`` keeps all)
    or a collect's set of probed keys (read only by a FULL join)."""
    if spec.sink == "topk":
        return [[], [], None if limit is None else limit + offset, 0]
    if spec.sink == "limit":
        return [offset, limit]
    return {} if spec.sink == "aggregate" else set()


def topk_rows(
    spec: PipelineSpec, state: list[Any], limit: int | None, offset: int
) -> list[tuple]:
    """A top-k state's rows, ``sorted(...)[offset:offset + limit]``."""
    rows = [entry[2] for entry in sorted(state[0], reverse=spec.descending)]
    rows = state[1] + rows if spec.nulls_first[0] else rows + state[1]
    return rows[offset : None if limit is None else offset + limit]


def interpret_pipeline(
    spec: PipelineSpec,
    batch: ColumnBatch,
    ctx: EvalContext,
    sink: Any,
    table: dict[Any, list[tuple]] | None = None,
) -> list[list[Any]] | None:
    """Interpreter twin of one call of a pipeline's generated loop.

    Byte-identical answers to the generated loop: the reference it is
    tested against, and the path every loop runs on where the compiler
    refused it or compilation is off. Same contract as
    :meth:`CompiledPipeline.accumulate`, except that aggregate groups are
    in the aggregate algebra's layout and a bounded top-k is cut back to
    its ``k + offset`` best rows once per batch, not row by row.
    """
    batch = _gate(spec.condition, batch, ctx)
    if spec.probe is not None and batch.num_rows:
        batch = _gate(spec.matched, _probe(spec.probe, batch, ctx, sink, table), ctx)
    if not batch.num_rows:
        return None if spec.sink in ("aggregate", "topk") else [[] for _ in spec.outputs]
    if spec.sink == "aggregate":
        _interpret_aggregate(spec, batch, ctx, sink)
        return None
    columns = [e.eval(batch, ctx) for e in spec.outputs]
    if spec.sink == "limit":
        skip = min(sink[0], batch.num_rows)
        keep = min(sink[1], batch.num_rows - skip)
        sink[0] -= skip
        sink[1] -= keep
        return [column[skip : skip + keep] for column in columns]
    if spec.sink == "collect":
        return columns
    keys = [e.eval(batch, ctx) for e in spec.order]
    if len(keys) > 1:
        keys = [
            tuple(
                (1, v) if v is not None else (0 if first != spec.descending else 2, 0)
                for v, first in zip(values, spec.nulls_first)
            )
            for values in zip(*keys)
        ]
    else:
        keys = keys[0]
    sign = -1 if spec.descending else 1
    for key, row in zip(keys, zip(*columns)):
        if key is None:
            sink[1].append(row)
        else:
            sink[3] += 1
            sink[0].append((key, sign * sink[3], row))
    if sink[2] is not None:
        # Bounded like the generated heap: the first ``k + offset`` rows in
        # the final order, and the first as many NULL-key rows.
        sink[0][:] = sorted(sink[0], reverse=spec.descending)[: sink[2]]
        del sink[1][sink[2] :]
    return None


def _probe(
    probe: JoinProbe,
    batch: ColumnBatch,
    ctx: EvalContext,
    sink: Any,
    table: dict[Any, list[tuple]],
) -> ColumnBatch:
    """``batch``'s rows joined with their matches in ``table``, in the
    generated probe's order: the candidates of each row that pass the
    residual (conjunct by conjunct, over the candidate pairs)."""
    keys = join_keys([k.eval(batch, ctx) for k in probe.keys])
    pairs = [(i, row) for i, key in enumerate(keys) for row in table.get(key, ())]
    if probe.residual is not None:
        tagged = _pairs_batch(batch, pairs, probe.row_width, tagged=True)
        pairs = [pairs[p] for p in _gate(probe.residual, tagged, ctx).columns[-1]]
    hit = {i for i, _ in pairs}
    if probe.how in ("semi", "anti"):
        wanted = probe.how == "semi"
        return batch.filter([(i in hit) == wanted for i in range(batch.num_rows)])
    if probe.how == "full":
        sink.update(row[-1] for _, row in pairs)
    if probe.how != "inner":
        miss = (None,) * probe.row_width
        missed = [(i, miss) for i in range(batch.num_rows) if i not in hit]
        pairs = sorted(pairs + missed, key=itemgetter(0))
    return _pairs_batch(batch, pairs, probe.row_width)


def _pairs_batch(
    batch: ColumnBatch, pairs: list[tuple[int, tuple]], width: int, tagged: bool = False
) -> ColumnBatch:
    """``batch``'s row ``i`` followed by ``width`` build values, per ``(i,
    build row)`` pair; ``tagged`` appends each pair's position."""
    fields = [*batch.schema.fields, *(Field(f"#{j}", STRING) for j in range(width))]
    columns = [[c[i] for i, _ in pairs] for c in batch.columns]
    columns += [[row[j] for _, row in pairs] for j in range(width)]
    if tagged:
        fields.append(Field("#pair", INT))
        columns.append(list(range(len(pairs))))
    return ColumnBatch(Schema(tuple(fields)), columns)


def _gate(condition: Expression | None, batch: ColumnBatch, ctx: EvalContext) -> ColumnBatch:
    """``batch`` filtered one conjunct at a time, so a conjunct only sees
    rows every conjunct left of it admitted (as in the generated loop)."""
    if condition is not None:
        for conjunct in conjuncts(condition):
            if not batch.num_rows:
                break
            batch = batch.filter(conjunct.eval(batch, ctx))
    return batch


def _interpret_aggregate(
    spec: PipelineSpec, batch: ColumnBatch, ctx: EvalContext, groups: dict[tuple, list[Any]]
) -> None:
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


# ---------------------------------------------------------------------------
# Bound kernels
# ---------------------------------------------------------------------------


def _bind_env(artifact: CompiledArtifact, walk: list[Expression]) -> dict[str, Any]:
    """The env constants of ``artifact`` rebuilt from one congruent tree."""
    return {
        name: _ENV_BUILDERS[kind](walk[index])
        for name, index, kind in artifact.env_spec
    }


class CompiledPipeline:
    """A cached artifact bound to one concrete spec.

    Binding rebuilds the env constants (IN-list sets, LIKE regexes, cast and
    builtin callables) from *this* spec's trees, so a single artifact serves
    every structurally congruent one.
    """

    __slots__ = ("artifact", "spec", "runs", "_env", "_slots")

    def __init__(self, artifact: CompiledArtifact, spec: PipelineSpec):
        self.artifact = artifact
        self.spec = spec
        #: The run-mode twin of an aggregate loop, run on a batch with runs.
        self.runs: CompiledPipeline | None = None
        self._env = _bind_env(artifact, _canonical_walk(spec.all_exprs()))
        #: ``(first slot, is avg)`` per aggregate call, for the conversion.
        self._slots = [
            (slot, name == "avg")
            for slot, (name, _) in zip(_slot_layout(spec.agg_specs), spec.agg_specs)
        ]

    @property
    def fingerprint(self) -> str:
        return self.artifact.fingerprint

    def accumulate(
        self,
        batch: ColumnBatch,
        ctx: EvalContext,
        sink: Any,
        table: dict[Any, list[tuple]] | None = None,
    ) -> list[list[Any]]:
        """Run the loop over one batch, probing ``table`` (the hashed build
        side, if any) and feeding ``sink`` (:func:`sink_state`; aggregate
        groups in the loop's own layout, see :meth:`algebra_groups`).
        Returns the batch's output columns for ``collect`` / ``limit``."""
        if batch.runs is not None and self.runs is not None:
            twin = self.runs
            return twin.artifact.fn(batch.runs, batch.num_rows, ctx, twin._env, sink, table)
        return self.artifact.fn(batch.columns, batch.num_rows, ctx, self._env, sink, table)

    def algebra_groups(self, groups: dict[Any, list[Any]]) -> dict[tuple, list[Any]]:
        """``groups`` in the aggregate algebra's layout — tuple keys, one
        state per call, ``(sum, count)`` for ``avg`` — so partial emit /
        merge machinery applies. Run once, after the last batch."""
        bare = len(self.spec.groupings) == 1
        slots = self._slots
        return {
            ((key,) if bare else key): [
                (states[s], states[s + 1]) if pair else states[s]
                for s, pair in slots
            ]
            for key, states in groups.items()
        }


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


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


class KernelCache:
    """Bounded, thread-safe LRU of compiled artifacts keyed by fingerprint.

    Content-addressed: the fingerprint fully determines the generated code,
    so entries can never go stale — governance changes invalidate the *plan*
    (and the kernels riding it) through the secure-plan cache's policy
    epoch, not this cache.
    """

    def __init__(self, capacity: int = DEFAULT_KERNEL_CACHE_CAPACITY):
        self.capacity = max(1, capacity)
        self._entries: OrderedDict[str, CompiledArtifact] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = KernelCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> CompiledArtifact | None:
        """LRU lookup; None (and a counted miss) when absent."""
        with self._lock:
            artifact = self._entries.get(fingerprint)
            if artifact is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return artifact
            self.stats.misses += 1
        return None

    def put(self, fingerprint: str, artifact: CompiledArtifact) -> None:
        """Insert one artifact, evicting least-recently-used past capacity."""
        with self._lock:
            self._entries[fingerprint] = artifact
            self._entries.move_to_end(fingerprint)
            self.stats.insertions += 1
            self.stats.source_lines += artifact.source.count("\n") + 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def note_error(self) -> None:
        """Record one failed compilation (the caller fell back)."""
        with self._lock:
            self.stats.compile_errors += 1

    def note_fusion(self, hit: bool) -> None:
        """Record one planner fusion attempt: fused (hit) or fell back."""
        with self._lock:
            if hit:
                self.stats.fusion_hits += 1
            else:
                self.stats.fusion_misses += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters + size for ``system.access.cache_stats``."""
        with self._lock:
            return {
                **asdict(self.stats),
                "size": len(self._entries),
                "capacity": self.capacity,
            }


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class KernelCompiler:
    """Front door: fold → fingerprint → cache lookup → generate → bind.

    :meth:`compile_pipeline_spec` returns ``None`` instead of raising when
    it refuses the spec or lowering fails, so callers can use the result as
    an optional fast path with :func:`interpret_pipeline` as the
    always-available fallback (:func:`run_pipeline` picks one).
    """

    def __init__(self, cache: KernelCache | None = None):
        # Explicit None check: an empty KernelCache is falsy (__len__ == 0),
        # and a shared-but-empty cluster cache must still be adopted.
        self.cache = cache if cache is not None else KernelCache()

    # -- public API ---------------------------------------------------------

    def compile_pipeline_spec(
        self, spec: PipelineSpec
    ) -> CompiledPipeline | None:
        """Compile (or rebind from cache) one :class:`PipelineSpec`.

        Refuses unknown aggregates and any opaque node — user code must
        break the chain, never ride inside it.
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
                lambda: _generate_pipeline(folded, fingerprint),
                outputs=len(folded.agg_specs) + len(folded.outputs),
            )
            return CompiledPipeline(artifact, folded)
        except Exception:  # noqa: BLE001 - fall back to the interpreter
            self.cache.note_error()
            return None

    def compile_runs(self, pipeline: CompiledPipeline) -> None:
        """Give a compiled aggregate loop its run-mode twin
        (:attr:`CompiledPipeline.runs`) where :func:`runs_apply` allows one."""
        spec = pipeline.spec
        if not runs_apply(spec):
            return
        try:
            fingerprint = expression_fingerprint(
                spec.all_exprs(), mode=spec.mode_string() + "|runs"
            )
            pipeline.runs = CompiledPipeline(self._lookup_or_generate(
                fingerprint,
                lambda: _generate_pipeline(spec, fingerprint, True),
                outputs=len(spec.agg_specs),
            ), spec)
        except Exception:  # noqa: BLE001 - the row-by-row kernel runs every batch
            self.cache.note_error()

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



#: Nodes the generator assigns eagerly: the ones that can raise.
_EAGER = (Arithmetic, Cast, FunctionCall, Like, CaseWhen)


def runs_apply(spec: PipelineSpec) -> bool:
    """Whether an aggregate loop may fold a batch run by run: one bare
    column as its grouping, no join probe, and nothing that can raise in
    its condition, grouping or inputs — a run-by-run order must not decide
    which row raises first."""
    return (
        spec.sink == "aggregate"
        and spec.probe is None
        and len(spec.groupings) == 1
        and isinstance(spec.groupings[0], BoundRef)
        and not any(
            isinstance(node, _EAGER)
            for expr in (spec.condition, *spec.agg_inputs) if expr is not None
            for node in expr.walk()
        )
    )


def _worth_compiling(exprs: Sequence[Expression]) -> bool:
    """At least one inlinable computation beyond bare refs/constants."""
    return any(
        not _is_opaque(node) and not isinstance(node, _TRIVIAL)
        for node in _canonical_walk(exprs)
    )


def collect_loop(
    compiler: KernelCompiler | None,
    condition: Expression | None,
    outputs: Sequence[Expression],
) -> tuple[PipelineSpec, CompiledPipeline | None]:
    """The ``collect`` spec of ``outputs`` over the rows ``condition``
    admits, and its kernel — ``None`` without a compiler, when it refused,
    or when every expression is a bare ref or constant (the interpreter
    reads those without a loop)."""
    spec = PipelineSpec(condition, sink="collect", outputs=tuple(outputs))
    if compiler is None or not _worth_compiling(spec.all_exprs()):
        return spec, None
    return spec, compiler.compile_pipeline_spec(spec)


def run_pipeline(
    spec: PipelineSpec,
    pipeline: CompiledPipeline | None,
    batch: ColumnBatch,
    ctx: EvalContext,
    sink: Any = None,
    table: dict[Any, list[tuple]] | None = None,
) -> list[list[Any]] | None:
    """One call of ``spec``'s loop over ``batch``: the compiled ``pipeline``,
    or :func:`interpret_pipeline` where there is none."""
    if pipeline is not None:
        return pipeline.accumulate(batch, ctx, sink, table)
    return interpret_pipeline(spec, batch, ctx, sink, table)
