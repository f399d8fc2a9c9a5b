"""Transactional write-path acceptance — 8 agents racing one governed row.

The PR-10 acceptance experiment: eight concurrent agent sessions each run
``increments`` read-modify-increment transactions (BEGIN; SELECT; UPDATE
value = value + 1; COMMIT) against a single governed counter row, while a
seeded 1% chaos schedule fires on the transaction fault points
(``txn.commit`` / ``txn.write_file`` / ``txn.conflict_check``) and on
``storage.get``. The bar, per configuration:

- **zero isolation violations** — the final counter equals exactly the
  number of committed increments, which equals agents x increments: no
  lost updates, no double-applies, under conflicts and injected faults;
- **zero policy violations** — a row filter confines agents to the counter
  row (an unqualified UPDATE must never touch the locked sentinel row) and
  a MODIFY-less probe's INSERT is denied every time;
- **full accounting** — every transaction either committed or cleanly
  aborted (``begun == committed + aborted`` in ``txn_stats``).

Configurations: chaos-off and chaos-on — the final state must be identical
across both. A conflict-rate ablation (2 vs 8 agents) rides the chaos-off
configuration.

Emits ``BENCH_txn_conflicts.json``.
"""

from __future__ import annotations

import threading
import time

from harness import print_table, write_bench_json

from repro.common.faults import FaultSpec
from repro.errors import (
    LakeguardError,
    PermissionDenied,
    RetryableError,
    TransactionAbortedError,
)
from repro.platform import Workspace

SEED = 424242
FAULT_RATE = 0.01
AGENTS = 8
INCREMENTS = 4
MAX_ATTEMPTS = 120

COUNTERS = "m.s.counters"
#: The sentinel row agents must never reach (their row filter hides it).
LOCKED_SLOT, LOCKED_VALUE = 99, 424242

RESULTS: dict = {}


def build_counter_workspace():
    """A governed counter table with 8 agent users confined by row filter."""
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("mallory")  # authenticated, USE only: the policy probe
    agent_names = [f"agent{i}" for i in range(AGENTS)]
    for name in agent_names:
        ws.add_user(name)
    ws.add_group("agents", agent_names)
    ws.catalog.create_catalog("m", owner="admin")
    ws.catalog.create_schema("m.s", owner="admin")
    cluster = ws.create_standard_cluster(name="txn-bench")
    admin = cluster.connect("admin")
    admin.sql(f"CREATE TABLE {COUNTERS} (slot int, value int)")
    admin.sql(
        f"INSERT INTO {COUNTERS} VALUES (0, 0), "
        f"({LOCKED_SLOT}, {LOCKED_VALUE})"
    )
    admin.sql("GRANT USE CATALOG ON m TO agents")
    admin.sql("GRANT USE SCHEMA ON m.s TO agents")
    admin.sql(f"GRANT SELECT ON {COUNTERS} TO agents")
    admin.sql(f"GRANT MODIFY ON {COUNTERS} TO agents")
    admin.sql("GRANT USE CATALOG ON m TO mallory")
    admin.sql("GRANT USE SCHEMA ON m.s TO mallory")
    admin.sql(f"GRANT SELECT ON {COUNTERS} TO mallory")
    # Agents only ever see (and can only ever touch) the counter row.
    admin.sql(
        f"ALTER TABLE {COUNTERS} SET ROW FILTER "
        "(slot = 0 OR NOT is_account_group_member('agents'))"
    )
    return ws, cluster, admin


def arm_chaos(ws: Workspace) -> None:
    """Seeded 1% schedule on the txn fault points and storage reads."""
    ws.catalog.faults.seed = SEED
    for point in ("txn.commit", "txn.write_file", "txn.conflict_check"):
        ws.catalog.faults.arm(
            point, FaultSpec(kind="raise", probability=FAULT_RATE)
        )
    ws.catalog.faults.arm(
        "storage.get",
        FaultSpec(kind="raise", probability=FAULT_RATE, only_in_query=True),
    )


def disarm_chaos(ws: Workspace) -> None:
    ws.catalog.faults.clear()


class AgentTally:
    """Thread-safe accounting of what the agent fleet actually did."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.commits = 0
        self.client_retries = 0
        self.policy_violations = 0
        self.probe_denials = 0
        self.exhausted = 0

    def snapshot(self) -> dict:
        return {
            "commits": self.commits,
            "client_retries": self.client_retries,
            "policy_violations": self.policy_violations,
            "probe_denials": self.probe_denials,
            "exhausted": self.exhausted,
        }


def run_agent(cluster, name: str, tally: AgentTally, probe) -> None:
    """One agent session: ``INCREMENTS`` read-modify-increment txns."""
    client = cluster.connect(name)
    for _ in range(INCREMENTS):
        committed = False
        for _attempt in range(MAX_ATTEMPTS):
            try:
                client.sql("BEGIN")
                # Pinned read: the value this transaction reasons about.
                client.sql(
                    f"SELECT value FROM {COUNTERS} WHERE slot = 0"
                ).collect()
                client.sql(f"UPDATE {COUNTERS} SET value = value + 1")
                client.sql("COMMIT")
                committed = True
                break
            except (TransactionAbortedError, RetryableError):
                # Conflict or injected fault: roll back any open txn and
                # re-run the whole read-modify-increment body.
                try:
                    client.sql("ROLLBACK")
                except LakeguardError:
                    pass  # COMMIT already closed it
                with tally.lock:
                    tally.client_retries += 1
                time.sleep(0.001)
        if committed:
            with tally.lock:
                tally.commits += 1
        else:
            with tally.lock:
                tally.exhausted += 1
        probe(tally)


def make_policy_probe(cluster):
    """A MODIFY-less principal hammering INSERT between agent increments."""
    mallory = cluster.connect("mallory")

    def probe(tally: AgentTally) -> None:
        try:
            mallory.sql(f"INSERT INTO {COUNTERS} VALUES (7, 777)")
            with tally.lock:
                tally.policy_violations += 1
        except PermissionDenied:
            with tally.lock:
                tally.probe_denials += 1

    return probe


def run_configuration(chaos: bool, agents: int = AGENTS) -> dict:
    """Run the full agent fleet once; returns the config's scorecard."""
    ws, cluster, admin = build_counter_workspace()
    try:
        if chaos:
            arm_chaos(ws)
        tally = AgentTally()
        probe = make_policy_probe(cluster)
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=run_agent,
                args=(cluster, f"agent{i}", tally, probe),
            )
            for i in range(agents)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        if chaos:
            disarm_chaos(ws)

        final = dict(
            admin.sql(
                f"SELECT slot, value FROM {COUNTERS}"
            ).collect()
        )
        stats = ws.catalog.txn_manager.stats_snapshot()
        card = {
            "chaos": chaos,
            "agents": agents,
            "increments_per_agent": INCREMENTS,
            "final_counter": final.get(0),
            "locked_row_value": final.get(LOCKED_SLOT),
            "elapsed_seconds": round(elapsed, 4),
            "isolation_violations": abs(
                final.get(0, 0) - tally.commits
            ) + abs(tally.commits - agents * INCREMENTS),
            **tally.snapshot(),
            "txn_begun": stats["begun"],
            "txn_committed": stats["committed"],
            "txn_aborted": stats["aborted"],
            "txn_conflicts": stats["conflicts"],
            "txn_retries": stats["retries"],
            "unaccounted_txns": stats["begun"]
            - stats["committed"]
            - stats["aborted"],
        }
        return card
    finally:
        ws.shutdown()


def _assert_clean(card: dict) -> None:
    assert card["exhausted"] == 0, card
    assert card["final_counter"] == card["agents"] * INCREMENTS, card
    assert card["isolation_violations"] == 0, card
    assert card["policy_violations"] == 0, card
    assert card["locked_row_value"] == LOCKED_VALUE, card
    assert card["unaccounted_txns"] == 0, card


def test_chaos_off():
    card = run_configuration(chaos=False)
    _assert_clean(card)
    RESULTS["chaos_off"] = card


def test_chaos_on():
    card = run_configuration(chaos=True)
    _assert_clean(card)
    RESULTS["chaos_on"] = card


def test_conflict_rate_ablation():
    """Contention ablation: conflicts per commit at 2 vs 8 agents."""
    low = run_configuration(chaos=False, agents=2)
    _assert_clean(low)
    high = RESULTS.get("chaos_off") or run_configuration(chaos=False)
    RESULTS["ablation"] = {
        "agents_2_conflicts_per_commit": round(
            low["txn_conflicts"] / max(1, low["txn_committed"]), 4
        ),
        "agents_8_conflicts_per_commit": round(
            high["txn_conflicts"] / max(1, high["txn_committed"]), 4
        ),
        "agents_2": low,
    }


def test_final_state_identical_across_configurations():
    configs = [RESULTS.get("chaos_off"), RESULTS.get("chaos_on")]
    configs = [c for c in configs if c]
    assert configs, "configuration tests must run first"
    finals = {(c["final_counter"], c["locked_row_value"]) for c in configs}
    assert finals == {(AGENTS * INCREMENTS, LOCKED_VALUE)}, finals


def test_write_json():
    assert RESULTS, "configuration tests must run first"
    write_bench_json(
        "txn_conflicts",
        params={
            "agents": AGENTS,
            "increments_per_agent": INCREMENTS,
            "fault_rate": FAULT_RATE,
            "seed": SEED,
            "chaos_points": [
                "txn.commit",
                "txn.write_file",
                "txn.conflict_check",
                "storage.get",
            ],
        },
        extra={"results": RESULTS},
    )
    print_table(
        "Transactional write path under contention and chaos",
        ["config", "final", "commits", "conflicts", "retries", "policy viol."],
        [
            [
                key,
                card["final_counter"],
                card["commits"],
                card["txn_conflicts"],
                card["txn_retries"],
                card["policy_violations"],
            ]
            for key, card in RESULTS.items()
            if key != "ablation"
        ],
    )


if __name__ == "__main__":
    test_thread_backend_chaos_off()
    test_thread_backend_chaos_on()
    test_process_backend_chaos_on()
    test_conflict_rate_ablation()
    test_final_state_identical_across_configurations()
    test_write_json()
    print("ok")
