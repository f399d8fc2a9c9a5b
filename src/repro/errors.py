"""Exception hierarchy for the Lakeguard reproduction.

Every error raised by the library derives from :class:`LakeguardError` so that
applications can catch library failures with a single ``except`` clause while
still being able to distinguish governance denials from engine bugs.
"""

from __future__ import annotations


class LakeguardError(Exception):
    """Base class for all errors raised by this library."""

    #: Trace of the Connect operation that failed, when there was one: the
    #: service stamps it, the error codec carries it, and the client-side
    #: exception has it — enough to find the operation in ``query_profile``.
    trace_id: str | None = None


class ConfigurationError(LakeguardError):
    """A component was configured inconsistently (programming error)."""


# ---------------------------------------------------------------------------
# Governance / catalog
# ---------------------------------------------------------------------------


class PermissionDenied(LakeguardError):
    """The acting principal lacks a required privilege on a securable."""

    def __init__(self, principal: str, privilege: str, securable: str):
        self.principal = principal
        self.privilege = privilege
        self.securable = securable
        super().__init__(
            f"Permission denied: principal '{principal}' lacks privilege "
            f"'{privilege}' on '{securable}'"
        )


class SecurableNotFound(LakeguardError):
    """A catalog object (table, view, function, ...) does not exist."""


class SecurableAlreadyExists(LakeguardError):
    """Attempted to create a catalog object that already exists."""


class PolicyError(LakeguardError):
    """A row filter or column mask definition is invalid."""


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class StorageError(LakeguardError):
    """Generic object-store failure."""


class StorageAccessDenied(StorageError):
    """An object-store operation was rejected by the prefix ACL or credential."""


class CredentialError(StorageError):
    """A temporary credential is invalid, expired, or out of scope."""


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class AnalysisError(LakeguardError):
    """Plan analysis failed: unresolved names, type errors, invalid plans."""


class ParseError(LakeguardError):
    """SQL text could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ExecutionError(LakeguardError):
    """A physical operator failed at runtime."""


class UnsupportedOperationError(LakeguardError):
    """The requested operation is valid Spark but outside this subset."""


# ---------------------------------------------------------------------------
# Workload management / overload behaviour
# ---------------------------------------------------------------------------


class RetryableError(LakeguardError):
    """A transient condition: the caller should retry after ``retry_after``.

    Carries a server-suggested backoff in seconds so clients (and the
    Connect error codec) can surface *when* a retry is worthwhile instead of
    hammering an overloaded component.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        self.retry_after = max(0.0, float(retry_after))
        super().__init__(message)


class AdmissionError(RetryableError):
    """The workload manager refused to admit a query right now.

    ``reason`` distinguishes backpressure ("queue_full"), rate limiting
    ("rate_limited"), load shedding ("shed"), admission-queue timeouts
    ("timeout"), up-front deadline rejection ("deadline"), and interrupts of
    still-queued operations ("cancelled").
    """

    def __init__(self, message: str, retry_after: float = 0.0, reason: str = ""):
        self.reason = reason
        super().__init__(message, retry_after=retry_after)


class CircuitOpenError(RetryableError):
    """A circuit breaker is open: the protected backend is failing fast."""


# ---------------------------------------------------------------------------
# Fault injection (chaos engine) + transient variants of layer errors
# ---------------------------------------------------------------------------


class FaultInjectedError(RetryableError):
    """Default error raised by a triggered fault point with no custom error.

    Retryable by design: an injected fault models a transient condition,
    and recovery layers are exactly what chaos schedules exercise.
    """


class TransientStorageError(StorageError, RetryableError):
    """A storage operation failed transiently (flaky GET, injected fault).

    Both a :class:`StorageError` (callers catching storage failures still
    see it) and a :class:`RetryableError` (recovery layers know a bounded
    retry is worthwhile).
    """


class CorruptObjectError(TransientStorageError):
    """An object's bytes failed to decode; a re-read may return good bytes."""


class TransientCredentialError(CredentialError, RetryableError):
    """A credential vend failed transiently; re-vending is worthwhile."""


# ---------------------------------------------------------------------------
# Transactions (governed write path)
# ---------------------------------------------------------------------------


class CommitConflictError(StorageError, RetryableError):
    """An atomic commit lost the race: the target log version exists.

    Raised by :meth:`~repro.storage.object_store.ObjectStore.put_if_absent`
    when another writer committed the same version first. Retryable by
    design: a blind append can rebase onto the new tip and recommit, and a
    read-dependent transaction can re-run its body against the fresh
    snapshot — both ride the bounded jittered-backoff retry ladder.
    """


class TransactionAbortedError(LakeguardError):
    """A multi-statement transaction was rolled back and cannot commit.

    Raised when commit is attempted on a transaction that already aborted
    (conflict retries exhausted, explicit rollback, or a mid-commit
    failure whose staged files were garbage-collected).
    """


class WriteDeniedError(LakeguardError):
    """A write statement was refused by fine-grained governance.

    Distinct from :class:`PermissionDenied` (which is about missing
    privileges): the principal *holds* MODIFY, but the statement touches
    policy-protected data — assigning to or reading a masked column from
    UPDATE/MERGE, for example — and the trusted write tier refuses it.
    """


# ---------------------------------------------------------------------------
# Spark Connect
# ---------------------------------------------------------------------------


class ProtocolError(LakeguardError):
    """Malformed or incompatible Spark Connect message."""


class VersionIncompatibleError(ProtocolError):
    """Client protocol version is newer than the server supports."""


class SessionError(LakeguardError):
    """Session not found, expired, or owned by a different user."""


class OperationGoneError(LakeguardError):
    """A query operation was abandoned and tombstoned by the service."""


class TransportError(LakeguardError):
    """The (simulated) network channel dropped the connection."""


# ---------------------------------------------------------------------------
# Sandbox / isolation
# ---------------------------------------------------------------------------


class SandboxError(LakeguardError):
    """Failure creating or communicating with a user-code sandbox."""


class SandboxDied(SandboxError):
    """The sandbox worker died under a request.

    ``delivered`` records whether the request had already reached the
    worker when it died. ``False`` means the UDF cannot have started, so a
    single re-invoke on a fresh sandbox preserves at-most-once semantics;
    ``True`` means the worker may have executed side effects mid-request,
    and a retry would risk running user code twice — callers must not.
    """

    def __init__(self, message: str, delivered: bool = True):
        self.delivered = delivered
        super().__init__(message)


class SandboxPolicyViolation(SandboxError):
    """User code attempted an operation forbidden by the sandbox policy."""


class EgressDenied(SandboxPolicyViolation):
    """User code attempted network egress to a non-allow-listed endpoint."""


class HostFilesystemDenied(SandboxPolicyViolation):
    """User code attempted to read the host filesystem through the broker."""


class TrustDomainViolation(SandboxError):
    """Code from different trust domains would have shared a sandbox."""


class UserCodeError(LakeguardError):
    """The user's UDF raised; carries the original traceback text."""

    def __init__(self, message: str, udf_name: str | None = None):
        self.udf_name = udf_name
        super().__init__(message)


# ---------------------------------------------------------------------------
# Platform
# ---------------------------------------------------------------------------


class ClusterError(LakeguardError):
    """Cluster lifecycle or attachment failure."""


class ClusterAttachDenied(ClusterError):
    """A user may not attach to this cluster (e.g. dedicated, other owner)."""
