"""The wired multi-user stack every attack scenario runs against.

One :class:`GauntletHarness` is a complete deployment with known secrets:

- ``admin`` (workspace admin, member of ``hr`` so masks reveal to them),
  ``alice`` and ``carol`` (``analysts``, granted SELECT on the governed
  table), and ``mallory`` (authenticated, USE-granted, **no** SELECT).
- ``main.sales.orders`` under a row filter (``region = 'US'``) and a
  column mask on ``buyer`` (non-``hr`` principals see ``***``): every raw
  buyer value is a secret token that must never reach an analyst.
- ``main.sales.salaries``: admin-only, its values are secrets for everyone
  else, and its storage prefix is the cross-prefix replay target.
- a registered "evil" egress endpoint that records every payload it is
  ever handed — the exfiltration oracle for sandbox scenarios.
- a host secret file readable only through the brokered
  :func:`repro.sandbox.net.fs_read` path.

The harness also owns the run's :class:`~repro.attacks.registry
.AttackStatsBook` and registers one provider per scenario with the
catalog, which is what ``system.access.attack_stats`` serves.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any

from repro.attacks import registry
from repro.attacks.scenario import AttackResult
from repro.catalog.system_tables import ATTACK_STATS
from repro.platform import Workspace
from repro.sandbox import net

#: The governed table scenarios attack.
ORDERS = "main.sales.orders"
#: The admin-only table (cross-prefix / ungranted-read target).
SALARIES = "main.sales.salaries"
#: A row-filtered table whose hidden row holds a value that cannot be cast
#: (the write-predicate error oracle's target).
LEDGER = "main.sales.ledger"
#: Host the evil exfiltration endpoint listens on.
EVIL_HOST = "evil.exfil.example"

#: Raw buyer values: *all* of them are secrets to non-``hr`` principals
#: (the mask shows ``***``), and the non-US rows are additionally hidden
#: entirely by the row filter.
_BUYERS = (
    "RAW-BUYER-US-1",
    "SECRET-EU-BUYER-2",
    "RAW-BUYER-US-3",
    "SECRET-APAC-BUYER-4",
)
_SALARY_PEOPLE = ("SECRET-SALARY-PERSON-1", "SECRET-SALARY-PERSON-2")
_HOST_SECRET = "HOST-FS-SECRET-0451"
_LEDGER_CODES = ("1", "2", "SECRET-LEDGER-CODE-x9")


class GauntletHarness:
    """A live, fully governed deployment plus the secrets it must keep."""

    def __init__(
        self,
        worker_backend: str | None = None,
        sandbox_backend: str = "inprocess",
        workload_slots: int = 8,
        sandbox_policy: Any = None,
    ) -> None:
        registry.load_all_scenarios()
        self.stats = registry.AttackStatsBook()
        self.workspace = Workspace(
            name="gauntlet", sandbox_backend=sandbox_backend
        )
        self.catalog = self.workspace.catalog
        ws = self.workspace
        ws.add_user("admin", admin=True)
        ws.add_user("alice")
        ws.add_user("carol")
        ws.add_user("mallory")
        ws.add_group("analysts", ["alice", "carol"])
        ws.add_group("hr", ["admin"])
        self.catalog.create_catalog("main", owner="admin")
        self.catalog.create_schema("main.sales", owner="admin")

        # ``sandbox_policy`` stays None in real runs; the benchmark's
        # defense-off ablation widens it to prove the gauntlet detects leaks.
        self.cluster = ws.create_standard_cluster(
            name="gauntlet",
            worker_backend=worker_backend,
            workload_slots=workload_slots,
            result_cache_enabled=True,
            sandbox_policy=sandbox_policy,
        )
        self._reference_cluster: Any = None
        self._clients: dict[str, Any] = {}
        self._reference_clients: dict[str, Any] = {}

        admin = self.client_for("admin")
        admin.sql(
            f"CREATE TABLE {ORDERS} (id int, region string, amount float, "
            "buyer string)"
        )
        admin_ctx = self.catalog.principals.context_for("admin")
        self.catalog.write_table(
            ORDERS,
            {
                "id": [1, 2, 3, 4],
                "region": ["US", "EU", "US", "APAC"],
                "amount": [10.0, 20.0, 30.0, 40.0],
                "buyer": list(_BUYERS),
            },
            admin_ctx,
        )
        admin.sql(f"ALTER TABLE {ORDERS} SET ROW FILTER (region = 'US')")
        admin.sql(
            f"ALTER TABLE {ORDERS} ALTER COLUMN buyer SET MASK "
            "(CASE WHEN is_account_group_member('hr') THEN buyer "
            "ELSE '***' END)"
        )
        admin.sql(
            f"CREATE TABLE {SALARIES} (id int, person string, salary float)"
        )
        self.catalog.write_table(
            SALARIES,
            {
                "id": [1, 2],
                "person": list(_SALARY_PEOPLE),
                "salary": [123456.0, 654321.0],
            },
            admin_ctx,
        )
        admin.sql(
            f"CREATE TABLE {LEDGER} (id int, tenant string, code string, v int)"
        )
        self.catalog.write_table(
            LEDGER,
            {
                "id": [1, 2, 3],
                "tenant": ["mine", "mine", "other"],
                "code": list(_LEDGER_CODES),
                "v": [0, 0, 0],
            },
            admin_ctx,
        )
        admin.sql(f"ALTER TABLE {LEDGER} SET ROW FILTER (tenant = 'mine')")
        admin.sql("GRANT USE CATALOG ON main TO analysts")
        admin.sql("GRANT USE SCHEMA ON main.sales TO analysts")
        admin.sql(f"GRANT SELECT ON {ORDERS} TO analysts")
        admin.sql(f"GRANT SELECT ON {LEDGER} TO analysts")
        admin.sql("GRANT USE CATALOG ON main TO mallory")
        admin.sql("GRANT USE SCHEMA ON main.sales TO mallory")

        #: Every payload the evil endpoint was ever handed (must stay empty).
        self.evil_received: list[Any] = []
        net.register_service(EVIL_HOST, self._evil_handler)

        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".secret", delete=False
        )
        handle.write(_HOST_SECRET)
        handle.close()
        #: Path to a driver-host secret; only :func:`net.fs_read` reaches it
        #: from inside a sandbox, and only with ``allow_host_filesystem``.
        self.host_secret_path = handle.name

        for scenario in registry.all_scenarios():
            self.catalog.system_tables.register_stats_provider(
                ATTACK_STATS, scenario.name, self.stats.provider_for(scenario.name)
            )

    # -- oracles ------------------------------------------------------------

    def _evil_handler(self, path: str, payload: Any) -> Any:
        self.evil_received.append((path, payload))
        return {"ok": True}

    @property
    def static_secrets(self) -> frozenset[str]:
        """Byte sequences that must never reach a non-privileged principal."""
        return (
            frozenset(_BUYERS)
            | frozenset(_SALARY_PEOPLE)
            | {_HOST_SECRET, _LEDGER_CODES[-1]}
        )

    def forbidden_tokens(self) -> frozenset[str]:
        """Static secrets plus every currently live credential token."""
        live = {c.token for c in self.catalog.vendor.live_credentials()}
        return self.static_secrets | live

    #: Ground truth for the governed table as a plain analyst sees it:
    #: row filter keeps US rows, mask replaces buyer with ``***``.
    VISIBLE_ORDERS = (
        (1, "US", 10.0, "***"),
        (3, "US", 30.0, "***"),
    )

    # -- clients ------------------------------------------------------------

    def client_for(self, user: str) -> Any:
        """A (cached) Connect client attached to the gauntlet cluster."""
        if user not in self._clients:
            self._clients[user] = self.cluster.connect(user)
        return self._clients[user]

    def reference_client_for(self, user: str) -> Any:
        """A client on the cache-free twin cluster (the fuzzer's oracle).

        The twin shares the catalog (same grants, policies, data) but runs
        with the plan and result caches disabled, so its output is what a
        fresh fault-free evaluation returns — the definition of "what this
        principal may see".
        """
        if self._reference_cluster is None:
            self._reference_cluster = self.workspace.create_standard_cluster(
                name="gauntlet-ref",
                enable_plan_cache=False,
                result_cache_enabled=False,
            )
        if user not in self._reference_clients:
            self._reference_clients[user] = self._reference_cluster.connect(user)
        return self._reference_clients[user]

    def collect(self, user: str, relation: dict[str, Any]) -> list[tuple]:
        """Execute a raw wire relation as ``user``; rows as tuples."""
        schema, columns = self.client_for(user).execute_relation(relation)
        return list(zip(*columns)) if columns else []

    # -- chaos --------------------------------------------------------------

    def arm_chaos(self, rate: float, seed: int) -> None:
        """Arm the catalog-wide fault schedule (PR-5 chaos) for this run."""
        self.catalog.faults.arm_from_env(
            {"LAKEGUARD_CHAOS_RATE": str(rate), "LAKEGUARD_CHAOS_SEED": str(seed)}
        )

    # -- running ------------------------------------------------------------

    def run_all(self) -> dict[str, AttackResult]:
        """Run every registered scenario; outcomes land in ``attack_stats``."""
        return {
            scenario.name: registry.run_scenario(self, scenario)
            for scenario in registry.all_scenarios()
        }

    def close(self) -> None:
        """Tear down clusters, the evil endpoint and the host secret file."""
        net.unregister_service(EVIL_HOST)
        try:
            os.unlink(self.host_secret_path)
        except OSError:
            pass
        self.workspace.shutdown()
