"""Privilege scopes: what a compute type may be trusted to enforce (§3.4, §4).

Unity Catalog tracks "the security and execution properties of each cluster
... through privilege scopes": a Standard (sandboxed, multi-user) cluster may
receive policy details and enforce FGAC locally; a Dedicated (privileged)
cluster may only learn that a relation exists and must route it through
external FGAC; an external engine (Trino, other Spark distros) likewise.
"""

from __future__ import annotations

from dataclasses import dataclass

COMPUTE_STANDARD = "STANDARD"
COMPUTE_DEDICATED = "DEDICATED"
COMPUTE_SERVERLESS = "SERVERLESS"
COMPUTE_EXTERNAL = "EXTERNAL"

_KNOWN = (COMPUTE_STANDARD, COMPUTE_DEDICATED, COMPUTE_SERVERLESS, COMPUTE_EXTERNAL)


@dataclass(frozen=True)
class ComputeCapabilities:
    """Security posture of the compute making catalog requests."""

    compute_id: str
    compute_type: str

    def __post_init__(self) -> None:
        if self.compute_type not in _KNOWN:
            raise ValueError(
                f"unknown compute type '{self.compute_type}'; one of {_KNOWN}"
            )

    @property
    def isolates_user_code(self) -> bool:
        """Can this compute keep user code away from engine state?"""
        return self.compute_type in (COMPUTE_STANDARD, COMPUTE_SERVERLESS)

    @property
    def can_enforce_fgac_locally(self) -> bool:
        """FGAC details (filter/mask expressions) may be shared only with
        compute that isolates user code; otherwise a UDF could read them
        or the pre-filter rows from engine memory (§2.3-2.4)."""
        return self.isolates_user_code


#: Annotation the catalog attaches to relation metadata it returns to
#: privileged compute: "this object cannot be processed locally" (§3.4).
ANNOTATION_REQUIRES_EXTERNAL_FGAC = "requires_external_fgac"


def requires_external_fgac(has_policies: bool, caps: ComputeCapabilities) -> bool:
    """Decide whether a governed relation must be processed externally."""
    return has_policies and not caps.can_enforce_fgac_locally
