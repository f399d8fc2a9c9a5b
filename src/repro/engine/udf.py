"""Python user-defined functions.

UDFs are the reason Lakeguard exists: they are *user code* that must never
run inside the trusted engine. A :class:`PythonUDF` therefore carries the
function as the client's cloudpickle bytes and their sha256, never as a
callable (it becomes code in the sandbox worker), next to the metadata
governance needs:

- ``owner`` — the identity whose *trust domain* the code belongs to (§3.3);
  UDFs of different owners must never share a sandbox.
- ``cataloged`` — whether this is ephemeral session code or a Unity Catalog
  function object reusable across workloads.
- ``language`` — only ``python`` UDFs execute for real in this reproduction;
  other languages are representable for cataloging but raise on execution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import cloudpickle

from repro.engine.types import DataType, type_from_name
from repro.errors import UnsupportedOperationError

#: Owner used for UDFs defined interactively before any session user is known.
SESSION_OWNER = "<session>"


@dataclass(frozen=True)
class PythonUDF:
    """A scalar Python UDF: its function's bytes plus governance metadata."""

    name: str
    #: The function, cloudpickled (by the client, or by :func:`udf`).
    blob: bytes = field(repr=False, compare=False)
    return_type: DataType
    owner: str = SESSION_OWNER
    cataloged: bool = False
    language: str = "python"
    deterministic: bool = True
    #: Special resource needs (e.g. "gpu", "high_memory"). The dispatcher
    #: routes such code to specialized execution environments outside the
    #: cluster (§3.3) instead of ordinary colocated sandboxes.
    resource_requirements: frozenset[str] = frozenset()
    #: sha256 of ``blob``: what sandboxes and the inline runtime key on.
    digest: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", hashlib.sha256(self.blob).digest())

    @property
    def trust_domain(self) -> str:
        """UDFs owned by the same identity share a trust domain (§3.3)."""
        return self.owner

    def require_python(self) -> None:
        """Refuse to run a non-Python UDF: catalog-representable (Table 1
        honesty), but it cannot execute in a Python host."""
        if self.language != "python":
            raise UnsupportedOperationError(
                f"UDF '{self.name}' is written in {self.language}; this "
                "reproduction executes Python UDFs only"
            )

    def with_owner(self, owner: str) -> "PythonUDF":
        return replace(self, owner=owner)

    def as_cataloged(self, owner: str) -> "PythonUDF":
        return replace(self, owner=owner, cataloged=True)

    def __call__(self, *args):
        """Build a :class:`~repro.engine.expressions.PythonUDFCall` expression.

        Arguments may be expressions or column-name strings, so the client
        DataFrame API reads naturally: ``my_udf(col("a"), col("b"))``.
        """
        from repro.engine.expressions import PythonUDFCall, to_expression

        return PythonUDFCall(self, tuple(to_expression(a) for a in args))


def udf(
    return_type: str | DataType,
    name: str | None = None,
    deterministic: bool = True,
    resources: set[str] | frozenset[str] = frozenset(),
):
    """Decorator mirroring ``pyspark.sql.functions.udf``.

    Example::

        @udf(return_type="float")
        def fahrenheit(celsius):
            return celsius * 9 / 5 + 32

    ``resources={"gpu"}`` marks code that must run in a specialized
    execution environment (§3.3).
    """
    dtype = type_from_name(return_type) if isinstance(return_type, str) else return_type

    def wrap(func: Callable[..., Any]) -> PythonUDF:
        return PythonUDF(
            name=name or func.__name__,
            blob=cloudpickle.dumps(func),
            return_type=dtype,
            deterministic=deterministic,
            resource_requirements=frozenset(resources),
        )

    return wrap
