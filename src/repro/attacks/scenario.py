"""Typed attack scenarios and the leak oracle they report through.

An :class:`AttackScenario` is one executable attack: a target layer, a
technique family, the defense expected to contain it, and a ``run``
callable that performs the attack against a live
:class:`~repro.attacks.harness.GauntletHarness` and returns an
:class:`AttackResult`. The result is binary at heart — *contained* or
*leaked* — with leak magnitudes (rows/bytes) so ``attack_stats`` can report
how bad a breach was, not just that one happened.

The leak oracle is string-based on purpose: the harness knows the exact
byte sequences that must never reach an attacker (hidden rows' values, raw
masked values, live credential tokens, the host secret file), and
:func:`find_leaks` scans *everything* the attack observed — result rows,
error messages, captured service payloads — for them. An error message
that embeds a secret is as much a leak as a result row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Layers an attack targets (mirrors the repo layout / DESIGN.md chapters).
LAYERS = ("sandbox", "connect", "enforcement", "storage", "store", "scheduler")

#: Technique families the acceptance criteria count (≥ 5 required).
FAMILIES = (
    "udf-probe",
    "plan-smuggling",
    "credential-replay",
    "cache-oracle",
    "admission-spoofing",
    "write-denial",
    "storage-tamper",
)


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one scenario run: contained, or leaked by how much."""

    contained: bool
    leaked_rows: int = 0
    leaked_bytes: int = 0
    detail: str = ""


def contained(detail: str = "") -> AttackResult:
    """The stack held: the attack was denied or returned nothing hidden."""
    return AttackResult(contained=True, detail=detail)


def leaked(detail: str, rows: int = 0, bytes_: int = 0) -> AttackResult:
    """The attack got through; record how much crossed the boundary."""
    return AttackResult(
        contained=False, leaked_rows=rows, leaked_bytes=bytes_, detail=detail
    )


@dataclass(frozen=True)
class AttackScenario:
    """One registered, executable attack against the live stack."""

    #: Unique kebab-case identifier; DESIGN.md's threat matrix and
    #: ``system.access.attack_stats`` both key on it.
    name: str
    #: The layer under attack (one of :data:`LAYERS`).
    layer: str
    #: Technique family (one of :data:`FAMILIES`).
    technique: str
    #: What the attack attempts, in one or two sentences.
    description: str
    #: The defense expected to stop it (names the mechanism, not a wish).
    expected_containment: str
    #: Execute the attack against a live harness and judge the outcome.
    run: Callable[[Any], AttackResult] = field(compare=False)

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(f"unknown layer '{self.layer}'; one of {LAYERS}")
        if self.technique not in FAMILIES:
            raise ValueError(
                f"unknown technique '{self.technique}'; one of {FAMILIES}"
            )


def _stringify(payload: Any) -> str:
    """Flatten anything an attack observed into one scannable string."""
    if payload is None:
        return ""
    if isinstance(payload, (bytes, bytearray)):
        return payload.decode("utf-8", errors="replace")
    if isinstance(payload, str):
        return payload
    if isinstance(payload, dict):
        return " ".join(
            f"{_stringify(k)}={_stringify(v)}" for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return " ".join(_stringify(v) for v in payload)
    if isinstance(payload, BaseException):
        return f"{type(payload).__name__}: {payload}"
    return str(payload)


def find_leaks(observed: Any, forbidden: Iterable[str]) -> list[str]:
    """Every forbidden token present anywhere in what the attack observed."""
    haystack = _stringify(observed)
    return sorted({token for token in forbidden if token and token in haystack})


def judge(observed: Any, forbidden: Iterable[str], detail: str) -> AttackResult:
    """Contained iff none of the forbidden tokens reached the attacker."""
    leaks = find_leaks(observed, forbidden)
    if leaks:
        return leaked(
            f"{detail}: leaked tokens {leaks}",
            rows=len(leaks),
            bytes_=sum(len(t) for t in leaks),
        )
    return contained(detail)
