"""The attack registry and its ``system.access.attack_stats`` bookkeeping.

Scenario modules register themselves at import time through the
:func:`attack_scenario` decorator; :func:`load_all_scenarios` imports every
module so the registry is complete before a gauntlet run. The registry is
the single source of truth three consumers diff against:

- ``tests/test_attack_gauntlet.py`` parametrizes over it (every scenario
  must run, every run must be contained);
- DESIGN.md §12's threat matrix must name every scenario
  (``tests/test_documentation.py`` enforces it);
- :class:`AttackStatsBook` mirrors it into per-scenario counters behind
  the admin-only ``system.access.attack_stats`` table.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.attacks.scenario import AttackResult, AttackScenario

_REGISTRY: dict[str, AttackScenario] = {}

#: Scenario modules imported by :func:`load_all_scenarios`; adding a module
#: here is all it takes for its scenarios to enter CI, the stats table and
#: the documentation drift check.
_SCENARIO_MODULES = (
    "repro.attacks.udf_probes",
    "repro.attacks.plan_smuggling",
    "repro.attacks.credential_replay",
    "repro.attacks.cache_oracle",
    "repro.attacks.admission_spoofing",
    "repro.attacks.write_denial",
    "repro.attacks.storage_tamper",
    "repro.attacks.decode_memo",
    "repro.attacks.memo_paths",
)


def attack_scenario(
    name: str, layer: str, technique: str, expected_containment: str
) -> Callable[[Callable[[Any], AttackResult]], Callable[[Any], AttackResult]]:
    """Decorator: register the function as a scenario's ``run`` callable.

    The function's docstring becomes the scenario description, so each
    attack documents itself exactly once.
    """

    def register(fn: Callable[[Any], AttackResult]) -> Callable[[Any], AttackResult]:
        if name in _REGISTRY:
            raise ValueError(f"attack scenario '{name}' registered twice")
        _REGISTRY[name] = AttackScenario(
            name=name,
            layer=layer,
            technique=technique,
            description=(fn.__doc__ or "").strip().split("\n")[0],
            expected_containment=expected_containment,
            run=fn,
        )
        return fn

    return register


def load_all_scenarios() -> tuple[AttackScenario, ...]:
    """Import every scenario module, then return the full registry."""
    import importlib

    for module in _SCENARIO_MODULES:
        importlib.import_module(module)
    return all_scenarios()


def all_scenarios() -> tuple[AttackScenario, ...]:
    """Every registered scenario, ordered by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted (the drift test's ground truth)."""
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> AttackScenario:
    """Look up one scenario by name."""
    return _REGISTRY[name]


def technique_families() -> set[str]:
    """The distinct technique families currently registered."""
    return {s.technique for s in _REGISTRY.values()}


class AttackStatsBook:
    """Per-scenario outcome counters behind ``system.access.attack_stats``.

    One book per gauntlet run. Each scenario's counters are registered as
    their own provider with the catalog, so the system table reports
    ``(scenario, metric, value)`` rows keyed by scenario name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[str, float]] = {}

    def record(self, name: str, result: AttackResult) -> None:
        """Fold one scenario outcome into the counters."""
        with self._lock:
            counters = self._counters.setdefault(
                name,
                {
                    "runs": 0.0,
                    "contained": 0.0,
                    "leaks": 0.0,
                    "leaked_rows": 0.0,
                    "leaked_bytes": 0.0,
                },
            )
            counters["runs"] += 1
            if result.contained:
                counters["contained"] += 1
            else:
                counters["leaks"] += 1
                counters["leaked_rows"] += result.leaked_rows
                counters["leaked_bytes"] += result.leaked_bytes

    def snapshot(self, name: str) -> dict[str, float]:
        """Counters for one scenario (zeros before its first run)."""
        with self._lock:
            counters = self._counters.get(name)
            return dict(counters) if counters else {"runs": 0.0}

    def provider_for(self, name: str) -> Callable[[], dict[str, float]]:
        """A stats provider bound to one scenario, for catalog registration."""
        return lambda: self.snapshot(name)

    def total_leaks(self) -> int:
        """Leak count across every scenario (the gauntlet's pass/fail)."""
        with self._lock:
            return int(sum(c.get("leaks", 0.0) for c in self._counters.values()))


def run_scenario(harness: Any, scenario: AttackScenario) -> AttackResult:
    """Execute one scenario against the harness and record its outcome."""
    result = scenario.run(harness)
    harness.stats.record(scenario.name, result)
    return result
