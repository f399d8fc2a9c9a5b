"""Storage credentials.

The paper's Figure 2 contrasts two access models:

- *cluster-bound*: the whole cluster holds a broad storage credential (an AWS
  instance profile); any user on the cluster inherits it. Modeled by
  :class:`InstanceProfileCredential`.
- *user-bound*: the catalog vends short-lived credentials scoped to exactly
  the table prefix the requesting user was granted, tagged with the user's
  identity for auditing. Modeled by :class:`TemporaryCredential` issued by the
  :class:`CredentialVendor`.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.common.clock import Clock, SystemClock
from repro.common.context import current_context, span_or_null
from repro.common.ids import new_id
from repro.errors import CredentialError

if TYPE_CHECKING:
    from repro.common.faults import FaultInjector

#: Storage operations a credential may authorize.
READ = "READ"
WRITE = "WRITE"
LIST = "LIST"
DELETE = "DELETE"

_ALL_OPS = frozenset({READ, WRITE, LIST, DELETE})


def _validate_ops(operations: frozenset[str]) -> frozenset[str]:
    unknown = operations - _ALL_OPS
    if unknown:
        raise CredentialError(f"unknown storage operations: {sorted(unknown)}")
    return operations


@dataclass(frozen=True)
class TemporaryCredential:
    """A short-lived credential scoped to storage prefixes and operations.

    Carries the identity it was vended for — the object store and the audit
    log can therefore always attribute data access to a user, which is the
    crux of user-bound governance.
    """

    token: str
    identity: str
    prefixes: tuple[str, ...]
    operations: frozenset[str]
    issued_at: float
    expires_at: float
    compute_id: str | None = None

    def authorizes(self, path: str, operation: str, now: float) -> bool:
        """True iff this credential allows ``operation`` on ``path`` at ``now``."""
        if now >= self.expires_at:
            return False
        if operation not in self.operations:
            return False
        return any(path.startswith(prefix) for prefix in self.prefixes)

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at


@dataclass(frozen=True)
class InstanceProfileCredential:
    """A cluster-wide credential (legacy, cluster-bound access model).

    It has no user identity and no expiry: every workload on the cluster can
    use it, which is precisely the governance weakness Lakeguard replaces.
    """

    token: str
    cluster_id: str
    prefixes: tuple[str, ...]
    operations: frozenset[str] = field(default_factory=lambda: frozenset(_ALL_OPS))

    #: Instance profiles attribute access to the cluster, not a person.
    identity: str = "<cluster>"

    def authorizes(self, path: str, operation: str, now: float) -> bool:
        if operation not in self.operations:
            return False
        return any(path.startswith(prefix) for prefix in self.prefixes)


class CredentialVendor:
    """Issues and validates temporary credentials.

    Unity Catalog is the only component expected to call :meth:`issue`; the
    object store calls :meth:`validate` on every access. Revocation is
    immediate (tokens are removed from the live set).

    Scan threads validate while other threads issue and revoke: removal is
    ``dict.pop(token, None)``, walks read a ``dict.copy()``, and the issue
    count is bumped under its own lock, so no interleaving loses a count or
    raises anything but :class:`CredentialError`.
    """

    DEFAULT_TTL_SECONDS = 900.0

    def __init__(self, clock: Clock | None = None, ttl_seconds: float | None = None):
        self._clock = clock or SystemClock()
        self._ttl = ttl_seconds or self.DEFAULT_TTL_SECONDS
        #: Chaos engine hook (set by the owning catalog): the
        #: ``credential.vend`` fault point fires at the top of :meth:`issue`.
        self.faults: "FaultInjector | None" = None
        self._live: dict[str, TemporaryCredential] = {}
        self._issued_count = 0
        self._count_lock = threading.Lock()

    @property
    def issued_count(self) -> int:
        """Total credentials ever issued (for utilization benchmarks)."""
        return self._issued_count

    def issue(
        self,
        identity: str,
        prefixes: list[str],
        operations: set[str],
        compute_id: str | None = None,
        ttl_seconds: float | None = None,
    ) -> TemporaryCredential:
        """Create a live credential for ``identity`` over ``prefixes``.

        Every vend is traced: when an instrumented query is active, the
        issue runs under a ``credential.vend`` span carrying the requesting
        identity, so data-access capability grants are attributable per
        query, not just per audit-log line.
        """
        if self.faults is not None:
            self.faults.fire("credential.vend")
        if not prefixes:
            raise CredentialError("cannot issue a credential with no prefixes")
        ops = _validate_ops(frozenset(operations))
        qctx = current_context()
        with span_or_null(
            qctx,
            "vend-credential",
            "credential.vend",
            identity=identity,
            prefixes=list(prefixes),
            operations=sorted(ops),
            compute=compute_id,
        ):
            now = self._clock.now()
            credential = TemporaryCredential(
                token=new_id("cred"),
                identity=identity,
                prefixes=tuple(prefixes),
                operations=ops,
                issued_at=now,
                expires_at=now + (ttl_seconds if ttl_seconds is not None else self._ttl),
                compute_id=compute_id,
            )
            self._live[credential.token] = credential
            with self._count_lock:
                self._issued_count += 1
            return credential

    def revoke(self, token: str) -> None:
        """Invalidate a credential immediately; unknown tokens are a no-op."""
        self._live.pop(token, None)

    def revoke_identity(self, identity: str) -> int:
        """Revoke all live credentials of one identity; returns the count."""
        doomed = [t for t, c in self._live.copy().items() if c.identity == identity]
        for token in doomed:
            self._live.pop(token, None)
        return len(doomed)

    def validate(self, credential: TemporaryCredential) -> None:
        """Raise :class:`CredentialError` unless the credential is live."""
        live = self._live.get(credential.token)
        if live is None or live != credential:
            raise CredentialError(f"credential {credential.token} is not live")
        if credential.is_expired(self._clock.now()):
            self._live.pop(credential.token, None)
            raise CredentialError(f"credential {credential.token} has expired")

    def live_credentials(self, identity: str | None = None) -> list[TemporaryCredential]:
        """Snapshot of currently live credentials (optionally per identity)."""
        now = self._clock.now()
        creds = [c for c in self._live.copy().values() if not c.is_expired(now)]
        if identity is not None:
            creds = [c for c in creds if c.identity == identity]
        return creds


# ---------------------------------------------------------------------------
# Credential cache
# ---------------------------------------------------------------------------


@dataclass
class CredentialCacheStats:
    """Hit/miss/refresh counters for the credential cache."""

    hits: int = 0
    misses: int = 0
    #: Re-vends triggered before expiry (remaining < fraction × lifetime).
    refreshes: int = 0
    #: Misses because the catalog policy epoch moved (grant/revoke etc.).
    stale_epoch_misses: int = 0
    #: Misses because the cached credential expired or was revoked.
    expired_misses: int = 0


class CredentialCache:
    """TTL-aware memoization of vended credentials.

    A multi-file / multi-task / repeated scan should exchange identity for a
    storage credential once, not once per query. Entries are keyed by
    (principal, securable, operations, on_behalf_of) and stamped with the
    catalog **policy epoch** at vend time; a later epoch is a hard miss, so
    any grant/revoke or policy change forces a fresh vend (which re-runs the
    privilege check). Reuse is TTL-aware with *refresh-ahead*: once the
    remaining lifetime drops below ``refresh_ahead_fraction`` of the total,
    the next caller re-vends early instead of running a scan on a credential
    about to expire mid-read. An optional validator (the vendor's liveness
    check) catches out-of-band revocation.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        refresh_ahead_fraction: float = 0.2,
        faults: "FaultInjector | None" = None,
    ):
        if not 0.0 <= refresh_ahead_fraction < 1.0:
            raise CredentialError(
                "refresh_ahead_fraction must be in [0, 1); got "
                f"{refresh_ahead_fraction}"
            )
        self._clock = clock or SystemClock()
        self.refresh_ahead_fraction = refresh_ahead_fraction
        #: Chaos hook: ``credential.refresh`` fires on refresh-ahead vends.
        self.faults = faults
        self._lock = threading.Lock()
        #: key -> (credential, policy epoch at vend time)
        self._entries: dict[tuple, tuple[TemporaryCredential, int]] = {}
        self.stats = CredentialCacheStats()

    @staticmethod
    def _key(
        principal: str,
        securable: str,
        operations: frozenset[str],
        on_behalf_of: str | None,
    ) -> tuple:
        return (principal, securable, operations, on_behalf_of)

    def _needs_refresh(self, credential: TemporaryCredential, now: float) -> bool:
        lifetime = credential.expires_at - credential.issued_at
        remaining = credential.expires_at - now
        return remaining < self.refresh_ahead_fraction * lifetime

    def get_or_vend(
        self,
        principal: str,
        securable: str,
        operations: frozenset[str],
        on_behalf_of: str | None,
        policy_epoch: int,
        vend: Callable[[], TemporaryCredential],
        validate: Callable[[TemporaryCredential], None] | None = None,
    ) -> tuple[TemporaryCredential, bool]:
        """Return ``(credential, reused)``; vends via ``vend()`` on a miss.

        ``vend`` runs outside the lock (it performs the privilege check and
        may trace/audit); a concurrent duplicate vend is harmless.
        """
        key = self._key(principal, securable, operations, on_behalf_of)
        now = self._clock.now()
        refreshing = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                credential, vended_epoch = entry
                if vended_epoch != policy_epoch:
                    del self._entries[key]
                    self.stats.stale_epoch_misses += 1
                elif credential.is_expired(now):
                    del self._entries[key]
                    self.stats.expired_misses += 1
                elif self._needs_refresh(credential, now):
                    del self._entries[key]
                    refreshing = True
                else:
                    live = True
                    if validate is not None:
                        try:
                            validate(credential)
                        except CredentialError:
                            live = False
                    if live:
                        self.stats.hits += 1
                        return credential, True
                    # Revoked out of band (no epoch bump): treat as expired.
                    del self._entries[key]
                    self.stats.expired_misses += 1
        if refreshing and self.faults is not None:
            self.faults.fire("credential.refresh")
        credential = vend()
        with self._lock:
            self._entries[key] = (credential, policy_epoch)
            if refreshing:
                self.stats.refreshes += 1
            else:
                self.stats.misses += 1
        return credential, False

    def invalidate_principal(self, principal: str) -> int:
        """Drop all cached credentials vended for one principal."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == principal]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters + size for ``system.access.cache_stats``."""
        with self._lock:
            return {
                **asdict(self.stats),
                "size": len(self._entries),
                "refresh_ahead_fraction": self.refresh_ahead_fraction,
            }
