"""The adversarial gauntlet: every registered attack must stay contained.

One wired :class:`GauntletHarness` per module; each registered scenario is
its own parametrized test so a leak names the exact attack that landed.
A separate fresh-harness leg re-runs the whole registry under a seeded
PR-5 chaos schedule (the default leg also inherits ``LAKEGUARD_CHAOS_*``
from CI's matrix jobs). The committed corpus in
``tests/attack_corpus/`` replays fuzzer-grade counterexamples
deterministically, and a bounded hypothesis run hunts for new ones.
"""

from __future__ import annotations

import pytest

from repro.attacks import registry
from repro.attacks.fuzzer import LeakOracle, load_corpus, run_fuzz
from repro.attacks.harness import ORDERS, GauntletHarness
from repro.connect import proto
from repro.errors import PermissionDenied

CORPUS_DIR = "tests/attack_corpus"

SCENARIOS = registry.load_all_scenarios()


@pytest.fixture(scope="module")
def gauntlet():
    harness = GauntletHarness()
    yield harness
    harness.close()


class TestRegistryShape:
    def test_issue_floor_scenarios_and_families(self):
        assert len(SCENARIOS) >= 12
        assert len(registry.technique_families()) >= 5

    def test_scenarios_are_fully_described(self):
        for scenario in SCENARIOS:
            assert scenario.description, scenario.name
            assert scenario.expected_containment, scenario.name

    def test_every_family_has_multiple_scenarios(self):
        by_family: dict[str, int] = {}
        for scenario in SCENARIOS:
            by_family[scenario.technique] = by_family.get(scenario.technique, 0) + 1
        assert all(count >= 2 for count in by_family.values()), by_family


class TestGauntlet:
    @pytest.mark.parametrize(
        "name", [s.name for s in SCENARIOS], ids=[s.name for s in SCENARIOS]
    )
    def test_scenario_contained(self, gauntlet, name):
        scenario = registry.get_scenario(name)
        result = registry.run_scenario(gauntlet, scenario)
        assert result.contained, (
            f"{name} LEAKED ({result.leaked_rows} rows, "
            f"{result.leaked_bytes} bytes): {result.detail}"
        )
        assert result.leaked_rows == 0 and result.leaked_bytes == 0

    def test_exfil_endpoint_never_heard_anything(self, gauntlet):
        assert gauntlet.evil_received == []

    def test_chaos_armed_gauntlet_contains_everything(self):
        harness = GauntletHarness()
        harness.arm_chaos(rate=0.02, seed=7)
        try:
            results = harness.run_all()
            leaks = {n: r.detail for n, r in results.items() if not r.contained}
            assert leaks == {}
            assert harness.stats.total_leaks() == 0
        finally:
            harness.close()


class TestAttackStatsTable:
    def test_admin_reads_per_scenario_counters(self, gauntlet):
        gauntlet.run_all()
        rows = (
            gauntlet.client_for("admin")
            .table("system.access.attack_stats")
            .collect()
        )
        by_scenario: dict[str, dict[str, float]] = {}
        for scenario, metric, value in rows:
            by_scenario.setdefault(scenario, {})[metric] = value
        for scenario in SCENARIOS:
            counters = by_scenario[scenario.name]
            assert counters["runs"] >= 1.0
            assert counters["leaks"] == 0.0
            assert counters["leaked_rows"] == 0.0

    def test_non_admin_is_denied(self, gauntlet):
        with pytest.raises(PermissionDenied):
            gauntlet.client_for("alice").table(
                "system.access.attack_stats"
            ).collect()


class TestPlanCacheClassification:
    """The structural-classification bugfix: cache bypass must use the same
    resolver as admission lanes, so ``system.``-looking strings in literals
    no longer disable caching and unresolvable shapes stay conservative."""

    def test_unit_structural_classification(self):
        literal_bait = proto.filter_relation(
            proto.read_table("m.s.t"),
            proto.binary(
                "=", proto.column("c"), proto.literal("system.access.audit")
            ),
        )
        from repro.catalog.system_tables import SystemTableRegistry

        registry = SystemTableRegistry(catalog=None)

        def targets_system_tables(plan):
            return proto.resolve_references(plan).targets_system_tables(registry)

        assert not targets_system_tables(literal_bait)
        assert targets_system_tables(proto.read_table("system.access.audit"))
        # Unresolvable shapes (raw expr.sql) fall back to the conservative
        # substring scan: a "system." fragment keeps the plan uncacheable.
        unresolvable = proto.filter_relation(
            proto.read_table("m.s.t"),
            proto.sql_expr("c = 'system.access.audit'"),
        )
        assert targets_system_tables(unresolvable)

    def test_system_literal_queries_are_cacheable(self, gauntlet):
        cache = gauntlet.cluster.backend.plan_cache
        relation = proto.filter_relation(
            proto.read_table(ORDERS),
            proto.binary(
                "=",
                proto.column("region"),
                proto.literal("system.access.cache_stats"),
            ),
        )
        before = cache.stats_snapshot()["insertions"]
        gauntlet.collect("alice", relation)
        assert cache.stats_snapshot()["insertions"] == before + 1

    def test_system_table_reads_still_bypass_the_cache(self, gauntlet):
        cache = gauntlet.cluster.backend.plan_cache
        before = cache.stats_snapshot()["insertions"]
        gauntlet.client_for("admin").table("system.access.audit").collect()
        assert cache.stats_snapshot()["insertions"] == before


class TestCorpusReplay:
    """Committed counterexamples replay as deterministic regressions."""

    CORPUS = load_corpus(CORPUS_DIR)

    def test_corpus_is_committed_and_nonempty(self):
        assert len(self.CORPUS) >= 8

    @pytest.mark.parametrize(
        "record", CORPUS, ids=[r["source"] for r in CORPUS]
    )
    def test_corpus_case_stays_contained(self, gauntlet, record):
        outcome = LeakOracle(gauntlet, record["user"]).judge(record["plan"])
        assert outcome.ok, f"{record['source']}: {outcome.note} ({record['note']})"


class TestFuzzer:
    @pytest.mark.parametrize("user", ["alice", "mallory"])
    def test_bounded_fuzz_finds_no_leaks(self, gauntlet, user):
        failures = run_fuzz(gauntlet, user, max_examples=30)
        assert failures == []
