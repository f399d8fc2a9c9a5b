"""The secure-plan cache: memoizing the enforcement front half per template.

Every governed query pays parse → resolve-secure → efgac-rewrite → optimize
before a single byte is read, and FGAC enforcement cost is dominated by that
redundant per-query policy rewriting. This cache memoizes the *output* of
those stages — the analyzed plan (policies injected under ``SecureView``
barriers) and the optimized plan — so a repeated query skips straight to
execution.

"Repeated" means the same **template**: :func:`lift` splits a wire relation
into a literal-free template and a parameter vector (every non-NULL,
non-boolean ``expr.literal`` of a DataFrame tree, every NUMBER / STRING
token of ``relation.sql`` text), so a query that differs from a cached one
only in a user constant is a hit. Correctness is carried by the key::

    (template fingerprint, user, effective principals, policy epoch,
     compute id, session temp-state version)

and by what a template-built plan may depend on:

- A lifted literal in a **predicate** (WHERE / HAVING / JOIN ON; a
  ``relation.filter`` / ``relation.join`` condition) is decoded as a
  :class:`~repro.engine.expressions.Parameter` and bound per execution;
  nothing in planning can read its value.
- Every other lifted literal is **pinned**: the plan was built with its
  value (a projected constant names the output column, LIMIT sizes the
  top-k, an IN list or LIKE pattern is compiled), so the entry records the
  pinned values and a hit requires them to be equal — a mismatch is a
  ``miss:pinned`` and rebuilds the entry. A predicate pushed into an eFGAC
  ``RemoteScan`` payload keeps its parameters as slot markers, bound to
  literals only when the sub-plan is submitted: those slots are bound too.
- Policy literals — row filters, masks, view text — are injected by the
  analyzer *after* lifting, from the catalog: they are never parameters,
  they belong to the template's plan, and the **policy epoch** in the key
  (bumped by any grant/revoke, filter/mask change, view definition, ABAC
  update) makes a plan resolved under older governance a hard miss.
- **User + effective principals** keep per-user rewrites (row filters with
  ``CURRENT_USER``, down-scoped groups) from crossing identities; the
  **temp-state version** covers session-local temporary views and UDFs.
- Entries keep the template and verify full equality on hit
  (hash-then-compare), so fingerprint collisions cannot serve a wrong plan.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any

from repro.core.plan_codec import bind_markers
from repro.engine.expressions import Parameter
from repro.engine.logical import LogicalPlan, RemoteScan, plan_expressions
from repro.errors import LakeguardError
from repro.sql.lexer import lift_literals

DEFAULT_CAPACITY = 128

#: Why a query did or did not reuse a cached plan (the ``plan_cache``
#: attribute of its ``stage:parse`` span).
HIT = "hit"
MISS_COLD = "miss:cold"
MISS_STALE_EPOCH = "miss:stale-epoch"
MISS_PINNED = "miss:pinned"
BYPASS_TXN = "bypass:txn"
BYPASS_SYSTEM = "bypass:system"

#: Literal types lifted into parameters (exact types: ``bool`` is an
#: ``int`` subclass and stays in the template, as does NULL).
_LIFTED_TYPES = frozenset({int, float, str, bytes})


def fingerprint_relation(relation: Any) -> str:
    """Stable digest of a wire relation or template (non-JSON leaves via ``str``)."""
    canonical = json.dumps(relation, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LiftedRelation:
    """A wire relation split into a literal-free template and its parameters.

    In the template every lifted ``expr.literal`` is ``{"@type":
    "expr.literal", "slot": i, "dtype": <type>}`` and every ``relation.sql``
    is ``{"@type": "relation.sql", "sql": k, "slot": i, "tokens": <lifted
    tokens>}`` — its literals take slots ``i, i+1, …`` in text order and its
    text is ``sql_texts[k]``. Slots are explicit, so equal templates number
    their parameters identically.
    """

    template: Any
    params: tuple[Any, ...]
    fingerprint: str
    sql_texts: tuple[str, ...] = ()


def lift(relation: dict[str, Any], sql_lifts: dict[str, tuple] | None = None) -> LiftedRelation:
    """Lift ``relation``'s user literals into a parameter vector.

    ``sql_lifts`` maps SQL text to its :func:`~repro.sql.lexer.lift_literals`
    result when the caller already tokenized it (the Connect service does,
    for its reference memo). Every ``expr.literal`` / ``relation.sql`` node
    of the template is rebuilt here, so a client cannot plant slot markers;
    extension payloads and local data are kept verbatim (their values are
    part of the template).
    """
    params: list[Any] = []
    texts: list[str] = []
    known = sql_lifts or {}

    def walk(node: Any) -> Any:
        if isinstance(node, list):
            return [walk(v) for v in node]
        if not isinstance(node, dict):
            return node
        kind = node.get("@type")
        if kind == "expr.literal":
            value = node.get("value")
            if type(value) not in _LIFTED_TYPES:
                return {"@type": kind, "value": value}
            params.append(value)
            return {"@type": kind, "slot": len(params) - 1, "dtype": type(value).__name__}
        if kind == "relation.sql":
            return lift_sql(node.get("query"))
        if kind in ("relation.extension", "relation.local"):
            return node
        return {key: walk(value) for key, value in node.items()}

    def lift_sql(text: Any) -> dict[str, Any]:
        lifted = known.get(text) if isinstance(text, str) else None
        if lifted is None and isinstance(text, str):
            try:
                lifted = lift_literals(text)
            except LakeguardError:
                pass  # the decoder raises the same error for the raw text
        if lifted is None:
            return {"@type": "relation.sql", "query": text}
        tokens, values = lifted
        texts.append(text)
        first = len(params)
        params.extend(values)
        return {"@type": "relation.sql", "sql": len(texts) - 1, "slot": first, "tokens": tokens}

    template = walk(relation)
    return LiftedRelation(template, tuple(params), fingerprint_relation(template), tuple(texts))


def _pinned(plan: LogicalPlan, params: tuple[Any, ...]) -> tuple[tuple[int, str], ...]:
    """``(slot, repr(value))`` of every lifted literal ``plan`` was built
    with rather than bound to: the slots it reads through no
    :class:`Parameter` and no ``RemoteScan`` payload marker. ``repr`` keeps
    what ``==`` would merge — ``-0.0`` and ``0.0`` print (and project)
    differently."""
    if not params:
        return ()
    bound = {
        node.slot
        for expr in plan_expressions(plan)
        for node in expr.walk()
        if isinstance(node, Parameter)
    }
    for node in plan.walk():
        if isinstance(node, RemoteScan):
            bind_markers(node.payload, bound.add)
    return tuple((slot, repr(params[slot])) for slot in range(len(params)) if slot not in bound)


@dataclass(frozen=True)
class PlanCacheKey:
    """Full identity of one cached secure plan (see module docstring)."""

    fingerprint: str
    user: str
    principals: frozenset[str]
    policy_epoch: int
    compute_id: str
    temp_state_version: int

    def identity(self) -> tuple:
        """Everything except the epoch — used to spot stale-epoch entries."""
        return (
            self.fingerprint,
            self.user,
            self.principals,
            self.compute_id,
            self.temp_state_version,
        )


@dataclass
class CachedSecurePlan:
    """The resolved front half of one template, plus the template itself."""

    template: Any
    analyzed: LogicalPlan
    optimized: LogicalPlan
    policy_epoch: int
    #: ``(slot, repr(value))`` of every lifted literal the plan was built
    #: with rather than bound to: a hit needs the same values there.
    pinned: tuple[tuple[int, str], ...] = ()
    hits: int = 0
    #: Physical operator tree (with any compiled kernels bound to it),
    #: attached by the pipeline after first planning. It holds no parameter
    #: values, so every execution of the template shares it; it shares this
    #: entry's lifetime, so a policy-epoch bump invalidates plan and kernels
    #: alike.
    physical: Any = None

    def admits(self, params: tuple[Any, ...]) -> bool:
        """Were the pinned literals built with exactly these values?"""
        return all(repr(params[slot]) == value for slot, value in self.pinned)


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction counters for the secure-plan cache."""

    hits: int = 0
    misses: int = 0
    #: Misses caused specifically by a policy-epoch bump (the entry existed
    #: but was resolved under older governance state).
    stale_epoch_misses: int = 0
    #: Misses where the template was cached but a pinned literal differed.
    pinned_misses: int = 0
    insertions: int = 0
    evictions: int = 0


class SecurePlanCache:
    """Thread-safe LRU cache of (analyzed, optimized) secure plans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, capacity)
        self._entries: OrderedDict[PlanCacheKey, CachedSecurePlan] = OrderedDict()
        #: identity() -> current key, to evict superseded-epoch entries.
        self._by_identity: dict[tuple, PlanCacheKey] = {}
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, key: PlanCacheKey, lifted: LiftedRelation
    ) -> tuple[CachedSecurePlan | None, str]:
        """The cached plan for ``key`` (or None) and the reason (:data:`HIT`,
        or one of the ``miss:*`` constants)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.template == lifted.template:
                if entry.admits(lifted.params):
                    self._entries.move_to_end(key)
                    entry.hits += 1
                    self.stats.hits += 1
                    return entry, HIT
                self.stats.misses += 1
                self.stats.pinned_misses += 1
                return None, MISS_PINNED
            self.stats.misses += 1
            reason = MISS_COLD
            stale = self._by_identity.get(key.identity())
            if stale is not None and stale.policy_epoch != key.policy_epoch:
                # Same query, same identity, older governance: the epoch
                # bump invalidated it. Drop it now rather than let it age out.
                self._entries.pop(stale, None)
                self._by_identity.pop(key.identity(), None)
                self.stats.stale_epoch_misses += 1
                reason = MISS_STALE_EPOCH
        return None, reason

    def insert(
        self,
        key: PlanCacheKey,
        lifted: LiftedRelation,
        analyzed: LogicalPlan,
        optimized: LogicalPlan,
    ) -> CachedSecurePlan:
        """Store a plan freshly resolved from ``lifted``'s template, evicting
        LRU past capacity; the lifted values ``optimized`` does not read as
        parameters are pinned on the entry.

        Returns the inserted entry so the caller can attach the physical
        operator tree (with its compiled kernels) once planning happens.
        """
        template, pinned = lifted.template, _pinned(optimized, lifted.params)
        entry = CachedSecurePlan(template, analyzed, optimized, key.policy_epoch, pinned)
        with self._lock:
            previous = self._by_identity.get(key.identity())
            if previous is not None and previous != key:
                self._entries.pop(previous, None)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._by_identity[key.identity()] = key
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                if self._by_identity.get(evicted_key.identity()) == evicted_key:
                    del self._by_identity[evicted_key.identity()]
                self.stats.evictions += 1
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_identity.clear()

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters + size for ``system.access.cache_stats``."""
        with self._lock:
            return {
                **asdict(self.stats),
                "size": len(self._entries),
                "capacity": self.capacity,
            }
