"""The Dispatcher: sandbox pooling per (session, trust domain) (§3.3).

The dispatcher sits between query processes and the cluster manager. It
guarantees:

- one sandbox is never shared across trust domains (different code owners);
- one sandbox is never shared across *sessions* (different users on
  multi-user compute) — no residual state crosses either boundary;
- warm sandboxes are reused within a session, so the ~2 s cold start is paid
  once per (session, domain) and amortized across queries (§5).

Two mechanisms move cold starts off the query path entirely:

- :meth:`Dispatcher.prewarm` provisions sandboxes for a session's known
  trust domains ahead of the first query;
- a **spare pool** (``min_pool_size``) of unbound sandboxes provisioned at
  dispatcher startup; a cache-missing acquire claims one by binding it to
  the requested (session, trust domain) — safe because a spare has never
  run any code — instead of paying a cold start.

All pool operations take the dispatcher lock (scan tasks and forked operator
subtrees acquire concurrently); contention is counted in
:class:`DispatcherStats`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.common.clock import Clock
from repro.common.context import current_context, span_or_null
from repro.engine.expressions import UDFRuntime
from repro.engine.udf import PythonUDF
from repro.errors import SandboxDied
from repro.sandbox.cluster_manager import ClusterManager
from repro.sandbox.policy import SandboxPolicy
from repro.sandbox.subprocess_sandbox import SubprocessSandbox


@dataclass
class DispatcherStats:
    """Sandbox acquisition counters (cold vs warm) per dispatcher."""

    cold_starts: int = 0
    warm_acquisitions: int = 0
    #: Wall (or virtual) seconds spent waiting on cold starts.
    cold_start_seconds_total: float = 0.0
    cold_start_seconds_max: float = 0.0
    #: Times the dispatcher lock was requested while another thread held it.
    lock_contentions: int = 0
    #: Sandboxes provisioned off the query path (prewarm + spare pool).
    prewarmed: int = 0
    #: Acquisitions satisfied by a prewarmed or spare sandbox.
    prewarm_hits: int = 0
    #: Liveness sweeps run (housekeeping + explicit probes).
    liveness_probes: int = 0
    #: Dead *pooled* sandboxes evicted (probe sweeps or on acquire).
    dead_evicted: int = 0
    #: Dead *spare* sandboxes discarded before they were handed out.
    spares_evicted: int = 0
    #: UDF invokes replayed after a sandbox died pre-delivery (at-most-once).
    udf_retries: int = 0


#: Trust domain spare sandboxes carry until they are claimed. No UDF ever
#: runs under it (claiming rebinds first), so it can never match user code.
SPARE_DOMAIN = "<spare>"

_PoolKey = tuple[str, str, str | None, frozenset[str]]


class Dispatcher:
    """Routes user-code execution to per-(session, trust-domain) sandboxes."""

    def __init__(
        self,
        cluster_manager: ClusterManager,
        clock: Clock | None = None,
        min_pool_size: int = 0,
        workload_manager: Any = None,
    ):
        self._manager = cluster_manager
        self._clock = clock or cluster_manager.clock
        #: (session_id, trust_domain, environment, requirements)
        #: -> (owning manager, sandbox).
        self._pool: dict[_PoolKey, tuple[ClusterManager, SubprocessSandbox]] = {}
        #: Unbound sandboxes provisioned ahead of demand (see module doc).
        self._spares: list[tuple[ClusterManager, SubprocessSandbox]] = []
        #: Pool keys whose sandbox was provisioned off the query path.
        self._prewarmed_keys: set[_PoolKey] = set()
        #: Workload manager that sandbox claims are charged to: each pooled
        #: sandbox counts against its owning tenant's in-flight budget until
        #: the session releases it. Spares are unowned, so only *claimed*
        #: pool entries are charged. Maps pool key -> charged tenant.
        self._workload = workload_manager
        self._claim_tenants: dict[_PoolKey, str] = {}
        self._lock = threading.Lock()
        self.min_pool_size = max(0, min_pool_size)
        self.stats = DispatcherStats()
        if self.min_pool_size:
            self.ensure_min_pool()

    def _charge_locked(self, key: _PoolKey, trust_domain: str) -> None:
        """Charge a new pool entry to the admitting tenant's sandbox budget.

        The tenant comes from the admission ticket on the ambient
        :class:`QueryContext` — the same identity the WorkloadManager
        admitted the query under, including a ``workload.tenant`` session
        override (trust-domain accounting on shared compute). Un-admitted
        paths (prewarm at attach, direct backend calls) fall back to the
        context user, then the trust domain.
        """
        if self._workload is None or key in self._claim_tenants:
            return
        qctx = current_context()
        ticket = getattr(qctx, "ticket", None) if qctx is not None else None
        tenant = getattr(ticket, "tenant", None)
        if not tenant:
            tenant = qctx.user if qctx is not None and qctx.user else trust_domain
        self._claim_tenants[key] = tenant
        self._workload.charge_sandbox(tenant)

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """The pool lock, counting contended entries."""
        if not self._lock.acquire(blocking=False):
            self.stats.lock_contentions += 1
            self._lock.acquire()
        try:
            yield
        finally:
            self._lock.release()

    # -- prewarming -----------------------------------------------------------------

    def ensure_min_pool(self) -> int:
        """Top the spare pool up to ``min_pool_size``; returns how many added.

        Spares are provisioned with the default policy and no pinned
        environment, so they can substitute for any acquire with matching
        (default) settings; everything else falls back to a cold start.
        """
        created = 0
        with self._locked():
            while len(self._spares) < self.min_pool_size:
                sandbox = self._manager.create_sandbox(SPARE_DOMAIN)
                self._spares.append((self._manager, sandbox))
                self.stats.prewarmed += 1
                created += 1
        return created

    def prewarm(
        self,
        session_id: str,
        trust_domains: list[str] | tuple[str, ...],
        n: int | None = None,
        policy: SandboxPolicy | None = None,
        environment: str | None = None,
        requirements: frozenset[str] = frozenset(),
    ) -> int:
        """Provision sandboxes for up to ``n`` of a session's trust domains.

        Called ahead of the first query (e.g. at session attach, when the
        session's notebook imports are known) so the ~2 s cold starts happen
        off the query path. Domains already pooled are skipped. Returns the
        number of sandboxes actually created.
        """
        limit = len(trust_domains) if n is None else min(n, len(trust_domains))
        qctx = current_context()
        created = 0
        with self._locked():
            for trust_domain in list(trust_domains)[:limit]:
                key = (session_id, trust_domain, environment, requirements)
                entry = self._pool.get(key)
                if entry is not None and not entry[1].closed:
                    continue
                manager = self._manager.manager_for(requirements)
                with span_or_null(
                    qctx,
                    "sandbox-prewarm",
                    "sandbox.prewarm",
                    trust_domain=trust_domain,
                    session_id=session_id,
                    environment=environment,
                ):
                    sandbox = manager.create_sandbox(
                        trust_domain, policy, environment=environment
                    )
                self._pool[key] = (manager, sandbox)
                self._charge_locked(key, trust_domain)
                self._prewarmed_keys.add(key)
                self.stats.prewarmed += 1
                created += 1
        return created

    # -- acquisition ----------------------------------------------------------------

    def acquire(
        self,
        session_id: str,
        trust_domain: str,
        policy: SandboxPolicy | None = None,
        environment: str | None = None,
        requirements: frozenset[str] = frozenset(),
    ) -> SubprocessSandbox:
        """Warm sandbox if one exists for this (session, domain, env,
        resources); a claimed spare if one is available; cold otherwise.

        ``environment`` is the workload-environment version the session
        pinned (§6.3): "the system will explicitly load the given workload
        environment and execute the user code exactly in this environment" —
        so sandboxes are never shared across environment versions either.
        ``requirements`` routes GPU/high-memory code to specialized
        execution environments outside the cluster (§3.3).
        """
        key = (session_id, trust_domain, environment, requirements)
        qctx = current_context()
        refunds: dict[str, int] = {}
        spares_died = False
        try:
            with self._locked():
                entry = self._pool.get(key)
                if entry is not None and entry[1].closed:
                    # Self-healing: a pooled sandbox that died between
                    # queries is evicted here rather than handed out; the
                    # caller then proceeds exactly as on a cache miss.
                    self._evict_locked(key, refunds)
                    entry = None
                if entry is not None:
                    self.stats.warm_acquisitions += 1
                    if key in self._prewarmed_keys:
                        self.stats.prewarm_hits += 1
                        self._prewarmed_keys.discard(key)
                    if qctx is not None:
                        qctx.event(
                            "sandbox-reused",
                            trust_domain=trust_domain,
                            session_id=session_id,
                        )
                    return entry[1]
                # A spare can stand in only for a default-shaped request: no
                # pinned environment, no special resources, no custom policy.
                # Dead spares (worker crashed while parked) are discarded —
                # handing one out would fail the first invoke.
                if policy is None and environment is None and not requirements:
                    while self._spares:
                        manager, sandbox = self._spares.pop()
                        if sandbox.closed:
                            self.stats.spares_evicted += 1
                            spares_died = True
                            manager.destroy_sandbox(sandbox)
                            continue
                        # Binding before first use: the spare has executed
                        # nothing, so re-labeling its trust domain leaks no
                        # state across domains — this is exactly what makes
                        # prewarming sound.
                        sandbox.trust_domain = trust_domain
                        self._pool[key] = (manager, sandbox)
                        self._charge_locked(key, trust_domain)
                        self.stats.warm_acquisitions += 1
                        self.stats.prewarm_hits += 1
                        if qctx is not None:
                            qctx.event(
                                "sandbox-spare-claimed",
                                trust_domain=trust_domain,
                                session_id=session_id,
                            )
                        return sandbox
                manager = self._manager.manager_for(requirements)
                with span_or_null(
                    qctx,
                    "sandbox-cold-start",
                    "sandbox.acquire",
                    mode="cold",
                    trust_domain=trust_domain,
                    session_id=session_id,
                    environment=environment,
                ) as span:
                    started = self._clock.now()
                    sandbox = manager.create_sandbox(
                        trust_domain, policy, environment=environment
                    )
                    elapsed = self._clock.now() - started
                    if span is not None:
                        span.set_attribute("cold_start_seconds", elapsed)
                self.stats.cold_starts += 1
                self.stats.cold_start_seconds_total += elapsed
                self.stats.cold_start_seconds_max = max(
                    self.stats.cold_start_seconds_max, elapsed
                )
                self._pool[key] = (manager, sandbox)
                self._charge_locked(key, trust_domain)
                return sandbox
        finally:
            self._refund(refunds)
            if spares_died:
                # Respawn outside the claim path's lock hold so the refill
                # cold starts don't serialize concurrent acquires.
                self.ensure_min_pool()

    def _evict_locked(self, key: _PoolKey, refunds: dict[str, int]) -> None:
        """Drop one pooled sandbox, destroying it and noting the refund."""
        entry = self._pool.pop(key, None)
        if entry is None:
            return
        manager, sandbox = entry
        self._prewarmed_keys.discard(key)
        tenant = self._claim_tenants.pop(key, None)
        if tenant is not None:
            refunds[tenant] = refunds.get(tenant, 0) + 1
        self.stats.dead_evicted += 1
        manager.destroy_sandbox(sandbox)

    def _refund(self, refunds: dict[str, int]) -> None:
        """Return evicted sandbox charges to their tenants (outside lock)."""
        if self._workload is None:
            return
        for tenant, count in refunds.items():
            self._workload.release_sandbox(tenant, count)

    @staticmethod
    def _is_live(sandbox: SubprocessSandbox) -> bool:
        """Closed check plus a protocol ping."""
        if sandbox.closed:
            return False
        try:
            return sandbox.ping()
        except Exception:  # noqa: BLE001 - any probe failure means dead
            return False

    def evict(
        self,
        session_id: str,
        trust_domain: str,
        environment: str | None = None,
        requirements: frozenset[str] = frozenset(),
    ) -> bool:
        """Drop one pooled sandbox (dead or suspect); True if one existed."""
        key = (session_id, trust_domain, environment, requirements)
        refunds: dict[str, int] = {}
        with self._locked():
            existed = key in self._pool
            self._evict_locked(key, refunds)
        self._refund(refunds)
        return existed

    def probe_liveness(self) -> dict[str, int]:
        """Sweep pool + spares, evicting dead sandboxes and respawning spares.

        Run from connection housekeeping so a worker that crashed while idle
        is replaced *between* queries rather than discovered by the next
        invoke. Returns counts of evicted pooled/spare sandboxes.
        """
        refunds: dict[str, int] = {}
        dead_pooled = 0
        dead_spares = 0
        with self._locked():
            self.stats.liveness_probes += 1
            for key, (_, sandbox) in list(self._pool.items()):
                if not self._is_live(sandbox):
                    self._evict_locked(key, refunds)
                    dead_pooled += 1
            kept: list[tuple[ClusterManager, SubprocessSandbox]] = []
            for manager, sandbox in self._spares:
                if self._is_live(sandbox):
                    kept.append((manager, sandbox))
                else:
                    self.stats.spares_evicted += 1
                    dead_spares += 1
                    manager.destroy_sandbox(sandbox)
            self._spares = kept
        self._refund(refunds)
        respawned = self.ensure_min_pool()
        return {
            "dead_pooled_evicted": dead_pooled,
            "dead_spares_evicted": dead_spares,
            "spares_respawned": respawned,
        }

    def release_session(self, session_id: str) -> int:
        """Destroy all of one session's sandboxes; returns how many."""
        refunds: dict[str, int] = {}
        with self._locked():
            doomed = [key for key in self._pool if key[0] == session_id]
            for key in doomed:
                manager, sandbox = self._pool.pop(key)
                self._prewarmed_keys.discard(key)
                tenant = self._claim_tenants.pop(key, None)
                if tenant is not None:
                    refunds[tenant] = refunds.get(tenant, 0) + 1
                manager.destroy_sandbox(sandbox)
        # Refund outside the pool lock: release_sandbox reschedules queued
        # queries under the workload manager's own lock.
        if self._workload is not None:
            for tenant, count in refunds.items():
                self._workload.release_sandbox(tenant, count)
        return len(doomed)

    def pool_size(self) -> int:
        with self._locked():
            return len(self._pool)

    def spare_pool_size(self) -> int:
        with self._locked():
            return len(self._spares)

    def sandboxes_of(self, session_id: str) -> list[SubprocessSandbox]:
        with self._locked():
            return [
                entry[1] for key, entry in self._pool.items() if key[0] == session_id
            ]

    def stats_snapshot(self) -> dict[str, Any]:
        """Pool shape + counters for ``system.access.cache_stats``."""
        with self._locked():
            return {
                "pool_size": len(self._pool),
                "spare_pool_size": len(self._spares),
                "min_pool_size": self.min_pool_size,
                "cold_starts": self.stats.cold_starts,
                "warm_acquisitions": self.stats.warm_acquisitions,
                "prewarmed": self.stats.prewarmed,
                "prewarm_hits": self.stats.prewarm_hits,
                "lock_contentions": self.stats.lock_contentions,
                "charged_claims": len(self._claim_tenants),
                "liveness_probes": self.stats.liveness_probes,
                "dead_evicted": self.stats.dead_evicted,
                "spares_evicted": self.stats.spares_evicted,
                "udf_retries": self.stats.udf_retries,
            }


class SandboxedUDFRuntime(UDFRuntime):
    """UDF runtime that executes every call inside dispatcher sandboxes.

    This is what Lakeguard installs on Standard clusters; the inline default
    :class:`~repro.engine.expressions.UDFRuntime` is the legacy, unisolated
    behaviour used as the Table 2 baseline.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        session_id: str,
        policy: SandboxPolicy | None = None,
        environment: str | None = None,
        retry_dead_sandbox: bool = True,
    ):
        self._dispatcher = dispatcher
        self._session_id = session_id
        self._policy = policy
        self._environment = environment
        #: Replay an invoke once on a fresh sandbox when the old one died
        #: *before the request was delivered*. Deaths after delivery are
        #: never replayed: the UDF may already have run its side effects,
        #: and Lakeguard promises at-most-once user-code execution.
        self.retry_dead_sandbox = retry_dead_sandbox
        self.round_trips = 0
        self.rows_processed = 0

    def _invoke_healing(
        self,
        trust_domain: str,
        requirements: frozenset[str],
        invoke: Any,
        span_name: str,
        **span_attrs: Any,
    ) -> Any:
        """Acquire + invoke with one safe retry on pre-delivery death.

        ``invoke`` is called with the acquired sandbox. On
        :class:`SandboxDied` the dead sandbox is evicted from the pool
        either way; only ``delivered=False`` (the request never reached the
        worker) is retried, on a freshly acquired replacement.
        """
        qctx = current_context()
        attempts = 2 if self.retry_dead_sandbox else 1
        for attempt in range(attempts):
            sandbox = self._dispatcher.acquire(
                self._session_id, trust_domain, self._policy, self._environment,
                requirements=requirements,
            )
            try:
                with span_or_null(
                    qctx,
                    span_name,
                    "sandbox.exec",
                    trust_domain=trust_domain,
                    sandbox=sandbox.sandbox_id,
                    attempt=attempt,
                    **span_attrs,
                ):
                    return invoke(sandbox)
            except SandboxDied as exc:
                self._dispatcher.evict(
                    self._session_id, trust_domain, self._environment,
                    requirements,
                )
                if not exc.delivered and attempt + 1 < attempts:
                    self._dispatcher.stats.udf_retries += 1
                    if qctx is not None:
                        qctx.event(
                            "sandbox-died-retrying",
                            sandbox=sandbox.sandbox_id,
                            trust_domain=trust_domain,
                        )
                    continue
                raise

    def run_udf(self, udf: PythonUDF, arg_columns: list[list[Any]]) -> list[Any]:
        self.round_trips += 1
        rows = len(arg_columns[0]) if arg_columns else 0
        self.rows_processed += rows
        return self._invoke_healing(
            udf.trust_domain,
            udf.resource_requirements,
            lambda sandbox: sandbox.invoke(udf, arg_columns),
            f"udf:{udf.name}",
            udf=udf.name,
            rows=rows,
        )

    def run_fused(
        self, calls: list[tuple[int, PythonUDF, list[list[Any]]]]
    ) -> dict[int, list[Any]]:
        """One round-trip per (trust domain, resource needs) in the group."""
        grouped: dict[
            tuple[str, frozenset[str]],
            list[tuple[int, PythonUDF, list[list[Any]]]],
        ] = {}
        for call in calls:
            key = (call[1].trust_domain, call[1].resource_requirements)
            grouped.setdefault(key, []).append(call)
        results: dict[int, list[Any]] = {}
        for (domain, requirements), domain_calls in grouped.items():
            self.round_trips += 1
            if domain_calls and domain_calls[0][2]:
                self.rows_processed += len(domain_calls[0][2][0])
            results.update(
                self._invoke_healing(
                    domain,
                    requirements,
                    lambda sandbox, dc=domain_calls: sandbox.invoke_many(dc),
                    f"udf-fused:{'+'.join(c[1].name for c in domain_calls)}",
                    fused_calls=len(domain_calls),
                )
            )
        return results
