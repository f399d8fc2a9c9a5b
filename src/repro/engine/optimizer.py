"""Rule-based logical optimizer.

The governance-critical behaviours:

- **SecureView is a pushdown barrier for unsafe expressions.** A filter may
  move below a :class:`SecureView` only when it is deterministic and contains
  no user code; otherwise a malicious UDF-predicate would observe rows the
  policy filters out (§3.4 "prevents the propagation of unsafe expressions").
- **UDF fusion with trust-domain pipeline breaking** (§3.3): adjacent Python
  UDF calls belonging to the *same* trust domain are fused into one sandbox
  round-trip; calls owned by different users never share a group.

Every rule is a small class with ``apply(plan) -> plan``; the optimizer runs
the rewrite rules to a fixed point and finishes with one fusion pass.
Lakeguard's eFGAC rules (:mod:`repro.core.efgac`) are injected via
``extra_rules``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.engine.batch import ONE_ROW
from repro.engine.compile import memoisable_policy
from repro.engine.expressions import (
    Alias,
    Arithmetic,
    BooleanOp,
    BoundRef,
    Cast,
    Comparison,
    EvalContext,
    Expression,
    FunctionCall,
    IsNull,
    Literal,
    Not,
    PythonUDFCall,
    conjoin,
    conjuncts,
    contains_user_code,
    shift_refs,
)
from repro.engine.logical import (
    Aggregate,
    Filter,
    Join,
    LocalRelation,
    LogicalPlan,
    Project,
    Scan,
    SecureView,
)
from repro.engine.types import Field

MAX_PASSES = 10

#: Expression node types that are safe to constant-fold when all inputs are
#: literals. Session-dependent nodes (CurrentUser, IsAccountGroupMember) and
#: user code are deliberately excluded.
_FOLDABLE = (Arithmetic, Comparison, BooleanOp, Not, FunctionCall, Cast, IsNull)


class Rule(Protocol):
    """A whole-plan rewrite; must be a no-op when its pattern is absent."""

    name: str

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        """Return the rewritten plan (or the input plan unchanged)."""
        ...


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def substitute_refs(expr: Expression, mapping: dict[int, Expression]) -> Expression:
    """Replace BoundRef positions using ``mapping`` (for pushdown remapping)."""

    def rewrite(node: Expression) -> Expression:
        if isinstance(node, BoundRef):
            replacement = mapping.get(node.index)
            if replacement is None:
                raise KeyError(node.index)
            return replacement
        return node

    return expr.transform(rewrite)


def rebind_refs(expr: Expression, mapping: dict[int, Expression]) -> Expression:
    """:func:`substitute_refs` that keeps each rebuilt node's ``expr_id``.

    An :class:`~repro.engine.aggregates.AggregateCall`'s id is its identity:
    two outputs sharing one call (``avg(x)`` and ``avg(x) * 2``) must still
    share it after rebinding, and aggregate emission rebases by id. A UDF
    call's id keys its fused results, so it stays one call as well.
    """
    if isinstance(expr, BoundRef):
        return mapping[expr.index]
    children = tuple(rebind_refs(c, mapping) for c in expr.children)
    if children == expr.children:
        return expr
    rebuilt = expr.with_children(children)
    rebuilt.expr_id = expr.expr_id
    return rebuilt


def selection_map(fields: Sequence[Field], keep: Sequence[int]) -> dict[int, Expression]:
    """Rebinding for a selection of the columns ``keep`` (positions into
    ``fields``): each kept position → a ref to its place in the selection."""
    return {
        old: BoundRef(new, fields[old].name, fields[old].dtype)
        for new, old in enumerate(keep)
    }


def project_columns(
    plan: LogicalPlan, keep: Sequence[int]
) -> tuple[LogicalPlan, dict[int, Expression]]:
    """``plan`` narrowed to its columns ``keep`` (as is, when that is all of
    them), and the rebinding of those columns onto the narrowed layout."""
    fields = plan.schema.fields
    if len(keep) < len(fields):
        plan = Project(plan, [BoundRef(i, fields[i].name, fields[i].dtype) for i in keep])
    return plan, selection_map(fields, keep)


def is_safe_to_push(expr: Expression) -> bool:
    """Only deterministic, engine-only expressions may cross a barrier."""
    return expr.deterministic and not contains_user_code(expr)


def inline_through_projection(
    expr: Expression, out_exprs: Sequence[Expression] | None
) -> Expression:
    """Rewrite ``expr`` from a projection's *output* schema to its *input*.

    Each ``BoundRef(i)`` is replaced by the projection's i-th expression
    (aliases unwrapped), so a consumer above the projection can be composed
    directly over the projection's child — the substitution step behind the
    physical planner's pipeline fusion. ``None`` means identity (no
    projection between consumer and producer). Safe only for deterministic,
    engine-only expressions; the planner refuses opaque nodes before
    composing.
    """
    if out_exprs is None:
        return expr
    mapping = {
        i: (e.child if isinstance(e, Alias) else e)
        for i, e in enumerate(out_exprs)
    }
    return substitute_refs(expr, mapping)


def _simple_projection_mapping(project: Project) -> dict[int, Expression] | None:
    """If every projection is a plain column ref (or aliased ref / literal),
    return output-position → input-expression; else None."""
    mapping: dict[int, Expression] = {}
    for out_pos, expr in enumerate(project.exprs):
        inner = expr.child if isinstance(expr, Alias) else expr
        if isinstance(inner, (BoundRef, Literal)):
            mapping[out_pos] = inner
        else:
            return None
    return mapping


def fold_expression(expr: Expression) -> Expression:
    """Bottom-up constant folding."""

    def fold(node: Expression) -> Expression:
        if not isinstance(node, _FOLDABLE):
            return node
        if not node.children or not all(isinstance(c, Literal) for c in node.children):
            return node
        if not node.deterministic or contains_user_code(node):
            return node
        # A single-row, zero-column batch makes vectorized eval produce
        # exactly one value to lift back into a literal.
        values = node.eval(ONE_ROW, EvalContext())
        return Literal(values[0])

    return expr.transform(fold)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass
class EliminateSubqueryAliases:
    """Aliases only matter for name resolution; drop them post-analysis."""

    name: str = "EliminateSubqueryAliases"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        from repro.engine.logical import SubqueryAlias

        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if isinstance(node, SubqueryAlias):
                return node.child
            return node

        return plan.transform_up(rewrite)


@dataclass
class FoldConstants:
    """Replace deterministic all-literal subtrees with their value."""

    name: str = "FoldConstants"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if isinstance(node, Filter):
                return Filter(node.child, fold_expression(node.condition), node.policy)
            if isinstance(node, Project):
                return Project(node.child, [fold_expression(e) for e in node.exprs])
            return node

        return plan.transform_up(rewrite)


@dataclass
class SimplifyFilters:
    """Remove always-true filters; short-circuit always-false ones."""

    name: str = "SimplifyFilters"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not isinstance(node, Filter):
                return node
            cond = node.condition
            if isinstance(cond, Literal):
                if cond.value is True:
                    return node.child
                # False or NULL: no row ever passes.
                schema = node.child.schema
                return LocalRelation(schema, [[] for _ in schema])
            return node

        return plan.transform_up(rewrite)


@dataclass
class CombineFilters:
    """Merge adjacent Filter nodes into one conjunctive predicate."""

    name: str = "CombineFilters"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if isinstance(node, Filter) and isinstance(node.child, Filter):
                inner = node.child
                return Filter(
                    inner.child, BooleanOp("AND", inner.condition, node.condition)
                )
            return node

        return plan.transform_up(rewrite)


@dataclass
class CollapseProjects:
    """Merge Project(Project) when the inner one is a simple mapping."""

    name: str = "CollapseProjects"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Project) and isinstance(node.child, Project)):
                return node
            inner = node.child
            mapping = _simple_projection_mapping(inner)
            if mapping is None:
                return node
            try:
                merged = [substitute_refs(e, mapping) for e in node.exprs]
            except KeyError:
                return node
            # Preserve output names from the outer projection.
            named = [
                e if e.output_name() == orig.output_name() else Alias(e, orig.output_name())
                for e, orig in zip(merged, node.exprs)
            ]
            return Project(inner.child, named)

        return plan.transform_up(rewrite)


@dataclass
class PushFilterThroughProject:
    """Filter(Project(x)) → Project(Filter(x)) for simple projections."""

    name: str = "PushFilterThroughProject"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Filter) and isinstance(node.child, Project)):
                return node
            project = node.child
            mapping = _simple_projection_mapping(project)
            if mapping is None:
                return node
            try:
                pushed = substitute_refs(node.condition, mapping)
            except KeyError:
                return node
            return Project(Filter(project.child, pushed), project.exprs)

        return plan.transform_up(rewrite)


@dataclass
class PushFilterBelowSecureView:
    """The barrier rule: only *safe* predicates may cross a SecureView.

    Engine-generated deterministic predicates (e.g. the user's WHERE clause
    on dates) can be combined with the policy's row filter for efficiency;
    anything containing user code or non-determinism stays above the view.
    """

    name: str = "PushFilterBelowSecureView"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Filter) and isinstance(node.child, SecureView)):
                return node
            if not is_safe_to_push(node.condition):
                return node
            barrier = node.child
            return SecureView(
                Filter(barrier.child, node.condition), barrier.name, barrier.owner
            )

        return plan.transform_up(rewrite)


@dataclass
class PushFilterIntoScan:
    """Fold safe predicates into the scan (evaluated pre-projection). An
    injected row filter the governed memo may hold takes the policy slot."""

    name: str = "PushFilterIntoScan"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Filter) and isinstance(node.child, Scan)):
                return node
            scan = node.child
            if scan.required_columns is not None:
                # Filter indices are relative to the pruned output; keep as-is.
                return node
            if not is_safe_to_push(node.condition):
                return node
            if (
                node.policy
                and not scan.pushed_filters
                and scan.policy_filter is None
                and memoisable_policy(node.condition)
            ):
                return Scan(scan.table, policy_filter=node.condition)
            return Scan(
                scan.table,
                scan.required_columns,
                scan.pushed_filters + (node.condition,),
                scan.policy_filter,
            )

        return plan.transform_up(rewrite)


@dataclass
class PruneScanColumns:
    """Project(Scan) → Project(Scan[required]) column pruning."""

    name: str = "PruneScanColumns"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (isinstance(node, Project) and isinstance(node.child, Scan)):
                return node
            scan = node.child
            if scan.required_columns is not None:
                return node
            needed = sorted({i for e in node.exprs for i in e.references()})
            if len(needed) >= len(scan.table.schema):
                return node
            remap = selection_map(scan.table.schema.fields, needed)
            new_exprs = [substitute_refs(e, remap) for e in node.exprs]
            return Project(
                Scan(scan.table, tuple(needed), scan.pushed_filters, scan.policy_filter),
                new_exprs,
            )

        return plan.transform_up(rewrite)


def _outside_secure_views(
    plan: LogicalPlan, rewrite: Callable[[LogicalPlan], LogicalPlan]
) -> LogicalPlan:
    """Bottom-up rewrite that leaves every :class:`SecureView` subtree as
    the planner built it (policy and view bodies are not reshaped)."""
    if isinstance(plan, SecureView):
        return plan
    children = tuple(_outside_secure_views(c, rewrite) for c in plan.children)
    if children != plan.children:
        plan = plan.with_children(children)
    return rewrite(plan)


@dataclass
class PushFilterThroughJoin:
    """Filter(inner Join) → each safe one-side conjunct onto its side.

    A conjunct lands directly above that side's input — for a governed table,
    above its :class:`SecureView`, where :class:`PushFilterBelowSecureView`
    decides whether it may go further (and then only above the policy's own
    filter). Joins inside a SecureView are left alone: a conjunct pushed into
    a view body could be evaluated on rows the view's own join drops.
    """

    name: str = "PushFilterThroughJoin"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not (
                isinstance(node, Filter)
                and isinstance(node.child, Join)
                and node.child.how == "inner"
            ):
                return node
            join = node.child
            width = len(join.left.schema)
            left: list[Expression] = []
            right: list[Expression] = []
            kept: list[Expression] = []
            for conjunct in conjuncts(node.condition):
                refs = conjunct.references()
                if refs and is_safe_to_push(conjunct) and max(refs) < width:
                    left.append(conjunct)
                elif refs and is_safe_to_push(conjunct) and min(refs) >= width:
                    right.append(shift_refs(conjunct, -width))
                else:
                    kept.append(conjunct)
            if not left and not right:
                return node
            pushed = Join(
                Filter(join.left, conjoin(left)) if left else join.left,
                Filter(join.right, conjoin(right)) if right else join.right,
                join.how,
                join.condition,
            )
            rest = conjoin(kept)
            return pushed if rest is None else Filter(pushed, rest)

        return _outside_secure_views(plan, rewrite)


@dataclass
class PruneJoinInputs:
    """Aggregate/Project [→ Filter] → inner Join: each join input projects
    only the columns read above the join or by its condition.

    The join then materializes the few columns its consumer reads instead of
    both inputs whole. Expressions above are rebound with their ``expr_id``
    kept, so shared aggregate calls stay shared. Outer, semi and anti joins,
    and joins inside a SecureView, are left alone.
    """

    name: str = "PruneJoinInputs"

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not isinstance(node, (Aggregate, Project)):
                return node
            between = node.child if isinstance(node.child, Filter) else None
            join = between.child if between is not None else node.child
            if not (isinstance(join, Join) and join.how == "inner"):
                return node
            exprs = node.expressions() + [join.condition]
            if between is not None:
                exprs.append(between.condition)
            read = set().union(*(e.references() for e in exprs))
            width = len(join.left.schema)
            # A side keeps one column even when none is read: its row
            # count still multiplies the join's output.
            left = sorted(i for i in read if i < width) or [0]
            right = sorted(i - width for i in read if i >= width) or [0]
            if len(left) == width and len(right) == len(join.right.schema):
                return node
            left_plan, mapping = project_columns(join.left, left)
            right_plan, right_map = project_columns(join.right, right)
            for old, ref in right_map.items():
                mapping[width + old] = shift_refs(ref, len(left))
            child: LogicalPlan = Join(
                left_plan, right_plan, join.how, rebind_refs(join.condition, mapping)
            )
            if between is not None:
                child = Filter(child, rebind_refs(between.condition, mapping))
            if isinstance(node, Project):
                return Project(child, [rebind_refs(e, mapping) for e in node.exprs])
            return Aggregate(
                child,
                [rebind_refs(g, mapping) for g in node.groupings],
                [rebind_refs(a, mapping) for a in node.aggregates],
                node.mode,
            )

        return _outside_secure_views(plan, rewrite)


@dataclass
class FuseUDFCalls:
    """Assign fusion groups to Python UDF calls, per trust domain (§3.3).

    All UDF calls inside one Project that share a trust domain get the same
    fusion group id; the sandboxed runtime then evaluates a whole group with
    a single sandbox round-trip. Trust domains are pipeline breakers: calls
    owned by different users always land in different groups.
    """

    name: str = "FuseUDFCalls"
    enabled: bool = True
    _next_group: int = 0

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        def rewrite(node: LogicalPlan) -> LogicalPlan:
            if not isinstance(node, Project):
                return node
            calls: list[PythonUDFCall] = [
                e
                for expr in node.exprs
                for e in expr.walk()
                if isinstance(e, PythonUDFCall)
            ]
            if not calls:
                return node
            if not self.enabled:
                for call in calls:
                    call.fusion_group = None
                return node
            groups: dict[str, int] = {}
            for call in calls:
                domain = call.udf.trust_domain
                if domain not in groups:
                    groups[domain] = self._next_group
                    self._next_group += 1
                call.fusion_group = groups[domain]
            return node

        return plan.transform_up(rewrite)


# ---------------------------------------------------------------------------
# The optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    """Feature toggles, primarily for ablation benchmarks."""

    constant_folding: bool = True
    filter_pushdown: bool = True
    column_pruning: bool = True
    udf_fusion: bool = True
    collapse_projects: bool = True
    max_passes: int = MAX_PASSES


class Optimizer:
    """Runs rewrite rules to a fixed point, then the fusion pass."""

    def __init__(
        self,
        config: OptimizerConfig | None = None,
        extra_rules: Sequence[Rule] = (),
    ):
        self.config = config or OptimizerConfig()
        self._rules: list[Rule] = [EliminateSubqueryAliases()]
        if self.config.constant_folding:
            self._rules.append(FoldConstants())
        self._rules.append(SimplifyFilters())
        self._rules.append(CombineFilters())
        if self.config.collapse_projects:
            self._rules.append(CollapseProjects())
        if self.config.filter_pushdown:
            self._rules.append(PushFilterThroughProject())
            self._rules.append(PushFilterThroughJoin())
            self._rules.append(PushFilterBelowSecureView())
            self._rules.append(PushFilterIntoScan())
        if self.config.column_pruning:
            self._rules.append(PruneScanColumns())
            self._rules.append(PruneJoinInputs())
        self._rules.extend(extra_rules)
        self._fusion = FuseUDFCalls(enabled=self.config.udf_fusion)

    @property
    def rule_names(self) -> list[str]:
        return [r.name for r in self._rules] + [self._fusion.name]

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        """Run rewrite rules to a fixed point, then assign fusion groups."""
        current = plan
        for _ in range(self.config.max_passes):
            before = current.explain()
            for rule in self._rules:
                current = rule.apply(current)
            if current.explain() == before:
                break
        return self._fusion.apply(current)
