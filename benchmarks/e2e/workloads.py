"""The five governed workloads: fixtures, seeded op sequences, op builders.

Each workload stresses a different set of layers (see ``README.md`` for the
reasons and the sizing). A workload is data plus three small hooks:

* ``start`` builds the fixture and opens the sessions, through the public
  surface only and with default cluster configuration;
* ``ops`` / ``warmup_ops`` return the op sequence — a pure function of the
  seed, so the same ops run on every commit;
* ``build`` turns one op into something with a ``collect()`` (a Connect
  ``DataFrame``, or a short list of SQL statements). Building and
  collecting are separate so the traced run can time plan construction on
  its own.

Every workload also has an ungoverned twin (``baseline=True``) that runs
the same ops without the mechanism the workload is about; its median is the
diagnostic ``baseline.p50_ms``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from fixture import (
    A_RANGE,
    ADMIN,
    B_RANGE,
    Fixture,
    Principal,
    TableSpec,
    build_fixture,
    generate_rows,
    principal_for,
)
from repro.connect.client import call_function, col, lit, udf

EVENTS = "main.b.events"
ACCOUNTS = "main.b.accounts"
SUMMARY_VIEW = "main.b.acct_summary"

#: The driver's ``--seconds``; ``base_ops`` below are sized so that the timed
#: region takes about this long at the commit that defined the benchmark.
RUN_SECONDS = 14


@dataclass(frozen=True)
class Op:
    """One client operation: what to run, as whom, and its literals."""

    kind: str
    session: int
    table: str
    #: Literals of this op (the oracle recomputes the answer from them).
    args: tuple = ()
    #: SQL text, for kinds expressed in SQL; one entry per statement.
    sql: tuple[str, ...] = ()
    other_table: str = ""


@dataclass
class Run:
    """A started workload: the fixture, its open sessions and their principals."""

    fixture: Fixture
    sessions: list[Any]
    principals: list[Principal]
    baseline: bool
    #: Every cluster whose stats the traced run reads.
    clusters: list[Any]
    udfs: dict[str, Any] | None = None


class Statements:
    """SQL commands that execute on ``collect()`` (DML has no lazy form)."""

    def __init__(self, client: Any, statements: tuple[str, ...]):
        self._client = client
        self._statements = statements

    def collect(self) -> list[Any]:
        """Run the statements in order; one acknowledgement each."""
        return [self._client.sql(statement) for statement in self._statements]


def _literal(rng: random.Random, low: float, high: float) -> float:
    """A fresh float literal: distinct text on every op, so the plan cache misses."""
    return round(rng.uniform(low, high), 6)


def _sql_value(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _full_check_positions(rng: random.Random, count: int) -> frozenset[int]:
    """One seeded position in every block of ten ops gets the full comparison.

    A fixed stride would always land on the same kind of a five- or ten-kind
    cycle; a seeded offset per block covers every kind.
    """
    return frozenset(
        min(block + rng.randrange(10), count - 1) for block in range(0, count, 10)
    )


class Workload:
    """Base: one standard cluster, one table set, a cycle of op kinds."""

    name = ""
    why = ""
    #: Percentile reported as ``latency_tail_ms`` (>= 10 samples beyond it).
    tail_percentile = 95.0
    threads = 1
    #: Timed ops at ``RUN_SECONDS``; other durations scale it linearly.
    base_ops = 0
    specs: tuple[TableSpec, ...] = ()
    users: tuple[str, ...] = ("u2",)
    sandbox_backend = "inprocess"
    #: The twin drops the policies and runs as the owner (see subclasses).
    baseline_governed = False

    # -- fixture ------------------------------------------------------------------

    def start(self, seed: int, baseline: bool) -> Run:
        """Build the fixture and open one session per user."""
        governed = self.baseline_governed or not baseline
        fixture = build_fixture(seed, self.specs, governed, self.sandbox_backend)
        users = self.users if governed else tuple(ADMIN for _ in self.users)
        sessions = [fixture.cluster.connect(user) for user in users]
        principals = [principal_for(user, governed) for user in users]
        return Run(fixture, sessions, principals, baseline, [fixture.cluster])

    # -- op sequence --------------------------------------------------------------

    def op_count(self, seconds: float) -> int:
        """How many timed ops a run of ``seconds`` executes (same on every commit)."""
        return max(len(self.cycle()) * self.threads, round(self.base_ops * seconds / RUN_SECONDS))

    def cycle(self) -> tuple[str, ...]:
        """The repeating pattern of op kinds."""
        raise NotImplementedError

    def make_op(self, kind: str, session: int, rng: random.Random) -> Op:
        """One op of ``kind`` with fresh seeded literals."""
        raise NotImplementedError

    def session_of(self, index: int) -> int:
        """Which session runs the op at ``index``."""
        return 0

    def ops(self, seed: int, count: int, data: dict[str, Any]) -> list[Op]:
        """The timed op sequence: a pure function of ``seed`` and ``count``."""
        rng = random.Random(f"e2e-ops:{self.name}:{seed}")
        kinds = self.cycle()
        return [
            self.make_op(kinds[self.kind_index(i) % len(kinds)], self.session_of(i), rng)
            for i in range(count)
        ]

    def kind_index(self, index: int) -> int:
        """Position in the cycle of the op at ``index``."""
        return index

    def warmup_ops(self, seed: int, data: dict[str, Any]) -> list[Op]:
        """Untimed ops run before the clock starts: every kind on every session."""
        rng = random.Random(f"e2e-warm:{self.name}:{seed}")
        return [
            self.make_op(kind, session, rng)
            for session in range(len(self.users))
            for kind in self.cycle()
        ]

    def final_ops(self) -> list[Op]:
        """Untimed ops checked in full after the timed region."""
        return []

    def full_checks(self, seed: int, count: int) -> frozenset[int]:
        """Indices of the ops compared in full against the oracle."""
        return _full_check_positions(random.Random(f"e2e-check:{self.name}:{seed}"), count)

    # -- execution ----------------------------------------------------------------

    def build(self, run: Run, op: Op) -> Any:
        """Construct the op's plan; the caller ``collect()``s it."""
        client = run.sessions[op.session]
        if op.sql:
            if len(op.sql) == 1 and op.sql[0].startswith("SELECT"):
                return client.sql(op.sql[0])
            return Statements(client, op.sql)
        return DATAFRAME_BUILDERS[op.kind](run, client, op)


# ---------------------------------------------------------------------------
# DataFrame-API kinds
# ---------------------------------------------------------------------------


def _build_project(run: Run, client: Any, op: Op) -> Any:
    (threshold,) = op.args
    return (
        client.table(op.table)
        .filter(col("amount") > threshold)
        .select(col("id"), (col("amount") * 1.1).alias("boosted"), col("note"))
    )


def _build_project_small(run: Run, client: Any, op: Op) -> Any:
    (threshold,) = op.args
    return client.table(op.table).filter(col("amount") > threshold).select("id", "amount", "note")


def _build_udf_boost(run: Run, client: Any, op: Op) -> Any:
    (threshold,) = op.args
    boosted = (
        col("amount") * 1.5 + 1.0 if run.baseline else run.udfs["boost"](col("amount"))
    )
    return (
        client.table(op.table)
        .filter(col("amount") > threshold)
        .select(col("id"), boosted.alias("boosted"))
    )


def _build_udf_tag(run: Run, client: Any, op: Op) -> Any:
    (threshold,) = op.args
    tagged = (
        call_function("concat", col("note"), lit("-"), col("a") % 7)
        if run.baseline
        else run.udfs["tag"](col("note"), col("a"))
    )
    return (
        client.table(op.table)
        .filter(col("amount") < threshold)
        .select(col("id"), tagged.alias("tag"))
    )


DATAFRAME_BUILDERS = {
    "project": _build_project,
    "project_small": _build_project_small,
    "udf_boost": _build_udf_boost,
    "udf_tag": _build_udf_tag,
}


# ---------------------------------------------------------------------------
# scan_agg
# ---------------------------------------------------------------------------


class ScanAgg(Workload):
    """Engine-bound analytics over 60 000 governed rows, one session."""

    name = "scan_agg"
    why = (
        "60k-row governed scan/aggregate/sort/join, one session: the engine is ~95% "
        "of an op, so execution-core changes show here and plan-path changes must not"
    )
    base_ops = 215
    specs = (TableSpec(EVENTS, 60_000, 6), TableSpec(ACCOUNTS, 2_000, 1))

    def cycle(self) -> tuple[str, ...]:
        return ("agg_region", "agg_b", "project", "top", "join_agg")

    def make_op(self, kind: str, session: int, rng: random.Random) -> Op:
        if kind == "agg_region":
            x = _literal(rng, 100.0, 120.0)
            sql = (
                f"SELECT region, count(*), sum(amount), avg(amount) FROM {EVENTS} "
                f"WHERE amount > {x} GROUP BY region"
            )
            return Op(kind, session, EVENTS, (x,), (sql,))
        if kind == "agg_b":
            x = _literal(rng, 380.0, 400.0)
            sql = (
                f"SELECT b, min(amount), max(amount), count(DISTINCT a) FROM {EVENTS} "
                f"WHERE amount < {x} GROUP BY b"
            )
            return Op(kind, session, EVENTS, (x,), (sql,))
        if kind == "project":
            return Op(kind, session, EVENTS, (_literal(rng, 480.0, 490.0),))
        if kind == "top":
            x = _literal(rng, 450.0, 500.0)
            sql = (
                f"SELECT id, amount FROM {EVENTS} WHERE amount < {x} "
                "ORDER BY amount DESC LIMIT 20"
            )
            return Op(kind, session, EVENTS, (x, 20), (sql,))
        x = _literal(rng, 200.0, 220.0)
        sql = (
            f"SELECT c.region, count(*), sum(e.amount) FROM {EVENTS} e "
            f"JOIN {ACCOUNTS} c ON e.a = c.id WHERE e.amount > {x} GROUP BY c.region"
        )
        return Op("join_agg", session, EVENTS, (x,), (sql,), other_table=ACCOUNTS)


# ---------------------------------------------------------------------------
# multiuser_short
# ---------------------------------------------------------------------------


class MultiuserShort(Workload):
    """Eight identities issuing short queries on one cluster, two client threads."""

    name = "multiuser_short"
    why = (
        "8 users, 2 client threads, ~2 ms queries on 200 rows: cost is client build, "
        "codec, parse, resolve-secure, plan cache, admission, telemetry; engine work "
        "must not show"
    )
    tail_percentile = 99.0
    threads = 2
    base_ops = 7_000
    specs = (TableSpec(ACCOUNTS, 200, 1),)
    users = tuple(f"u{i}" for i in range(8))

    def start(self, seed: int, baseline: bool) -> Run:
        run = super().start(seed, baseline)
        admin = run.fixture.admin
        admin.sql(
            f"CREATE VIEW {SUMMARY_VIEW} AS SELECT region, count(*) AS n, "
            f"sum(amount) AS total FROM {ACCOUNTS} GROUP BY region"
        )
        admin.sql(f"GRANT SELECT ON {SUMMARY_VIEW} TO analysts")
        return run

    def cycle(self) -> tuple[str, ...]:
        return ("point", "dash", "project_small", "view", "top10")

    def session_of(self, index: int) -> int:
        # Thread t runs ops t, t+2, ...; its k-th op uses its k%4-th session,
        # and thread t's sessions are users t, t+2, t+4, t+6.
        thread, k = index % self.threads, index // self.threads
        return thread + self.threads * (k % 4)

    def kind_index(self, index: int) -> int:
        return index // self.threads

    def make_op(self, kind: str, session: int, rng: random.Random) -> Op:
        if kind == "point":
            key = rng.randrange(200)
            sql = f"SELECT id, region, amount, note FROM {ACCOUNTS} WHERE id = {key}"
            return Op(kind, session, ACCOUNTS, (key,), (sql,))
        if kind == "dash":
            sql = f"SELECT region, count(*), sum(amount) FROM {ACCOUNTS} GROUP BY region"
            return Op(kind, session, ACCOUNTS, (), (sql,))
        if kind == "project_small":
            return Op(kind, session, ACCOUNTS, (_literal(rng, 380.0, 420.0),))
        if kind == "view":
            sql = f"SELECT region, n, total FROM {SUMMARY_VIEW}"
            return Op(kind, session, ACCOUNTS, (), (sql,))
        x = _literal(rng, 400.0, 500.0)
        sql = (
            f"SELECT id, amount FROM {ACCOUNTS} WHERE amount < {x} "
            "ORDER BY amount DESC LIMIT 10"
        )
        return Op("top10", session, ACCOUNTS, (x, 10), (sql,))


# ---------------------------------------------------------------------------
# sandbox_udf
# ---------------------------------------------------------------------------


def make_udfs() -> dict[str, Any]:
    """The two client UDFs.

    Defined as nested functions so cloudpickle ships them by value: the
    sandbox worker cannot import this file.
    """

    def boost(amount):
        # float -> float, cheap per row: transport dominates.
        return None if amount is None else amount * 1.5 + 1.0

    def tag(note, a):
        # (string, int) -> string: string columns cross the sandbox boundary.
        return f"{note}-{a % 7}"

    return {"boost": udf("float")(boost), "tag": udf("string")(tag)}


class SandboxUdf(Workload):
    """Python UDF projections through the subprocess sandbox, two trust domains."""

    name = "sandbox_udf"
    why = (
        "UDF projections through the subprocess sandbox (the paper's isolation "
        "boundary): dispatch, shm transport, pipe round trip and result codec are "
        "~45% of an op, and show only here"
    )
    base_ops = 460
    specs = (TableSpec(EVENTS, 20_000, 2),)
    users = ("u2", "u5")
    sandbox_backend = "subprocess"
    #: The twin keeps the policies and swaps the UDF for a built-in expression.
    baseline_governed = True
    #: Each session uses exactly one UDF for its whole life (README finding (a)).
    session_kinds = ("udf_boost", "udf_tag")

    def start(self, seed: int, baseline: bool) -> Run:
        run = super().start(seed, baseline)
        run.udfs = make_udfs()
        return run

    def cycle(self) -> tuple[str, ...]:
        return self.session_kinds

    def session_of(self, index: int) -> int:
        return index % len(self.users)

    def warmup_ops(self, seed: int, data: dict[str, Any]) -> list[Op]:
        rng = random.Random(f"e2e-warm:{self.name}:{seed}")
        return [
            self.make_op(kind, session, rng)
            for _ in range(2)
            for session, kind in enumerate(self.session_kinds)
        ]

    def make_op(self, kind: str, session: int, rng: random.Random) -> Op:
        if kind == "udf_boost":
            return Op(kind, 0, EVENTS, (_literal(rng, 300.0, 320.0),))
        return Op("udf_tag", 1, EVENTS, (_literal(rng, 180.0, 200.0),))


# ---------------------------------------------------------------------------
# efgac_remote
# ---------------------------------------------------------------------------


class EfgacRemote(Workload):
    """A dedicated cluster whose governed reads run on the serverless gateway."""

    name = "efgac_remote"
    why = (
        "dedicated cluster: governed reads planned twice, run on serverless, results "
        "cross back inline or staged; a scan_agg layout win that adds gateway "
        "conversion shows here as a loss"
    )
    base_ops = 400
    specs = (TableSpec(EVENTS, 60_000, 4),)
    #: The twin keeps the policies and runs on the standard cluster instead.
    baseline_governed = True

    def start(self, seed: int, baseline: bool) -> Run:
        run = super().start(seed, baseline)
        if not baseline:
            dedicated = run.fixture.workspace.create_dedicated_cluster(assigned_user="u2")
            run.sessions = [dedicated.connect("u2")]
            run.clusters.append(dedicated)
        return run

    def cycle(self) -> tuple[str, ...]:
        return ("remote_agg", "remote_wide", "remote_limit")

    def make_op(self, kind: str, session: int, rng: random.Random) -> Op:
        if kind == "remote_agg":
            x = _literal(rng, 100.0, 120.0)
            sql = (
                f"SELECT region, count(*), sum(amount) FROM {EVENTS} "
                f"WHERE amount > {x} GROUP BY region"
            )
            return Op(kind, session, EVENTS, (x,), (sql,))
        if kind == "remote_wide":
            x = _literal(rng, 465.0, 475.0)
            sql = f"SELECT id, amount, note FROM {EVENTS} WHERE amount > {x}"
            return Op(kind, session, EVENTS, (x,), (sql,))
        key, x = rng.randrange(A_RANGE), _literal(rng, 0.0, 50.0)
        sql = f"SELECT id, a, amount FROM {EVENTS} WHERE a = {key} AND amount > {x} LIMIT 50"
        return Op("remote_limit", session, EVENTS, (key, x, 50), (sql,))


# ---------------------------------------------------------------------------
# txn_writes
# ---------------------------------------------------------------------------


class TxnWrites(Workload):
    """Governed INSERT/UPDATE/DELETE and explicit transactions beside reads."""

    name = "txn_writes"
    why = (
        "writes beside reads on one governed table: copy-on-write commits and log "
        "growth make reads pay for writes, so a write gain that taxes reads (or the "
        "reverse) shows"
    )
    base_ops = 420
    specs = (TableSpec(EVENTS, 20_000, 2, writable=True),)
    insert_rows = 20
    first_new_id = 1_000_000

    def cycle(self) -> tuple[str, ...]:
        return (
            "insert", "read", "update", "read", "txn",
            "read", "insert", "update", "read", "delete",
        )

    def _sequence(self, seed: int, count: int, data: dict[str, Any]) -> list[Op]:
        """Warm-up cycle followed by ``count`` timed ops, as one stateful stream.

        Updates and deletes target rows that exist and that the writer can
        see (so each rewrites exactly one file); the generator tracks that
        set itself from the seeded data, which keeps it a pure function of
        the seed.
        """
        rng = random.Random(f"e2e-ops:{self.name}:{seed}")
        writer = principal_for(self.users[0])
        events = data[EVENTS]
        targets = [i for i, region in zip(events["id"], events["region"]) if writer.admits(region)]
        next_id = self.first_new_id
        kinds = self.cycle()
        out: list[Op] = []

        def new_rows() -> tuple[tuple, ...]:
            nonlocal next_id
            columns = generate_rows(rng, self.insert_rows, next_id)
            next_id += self.insert_rows
            rows = []
            for row in zip(*(columns[c] for c in ("id", "region", "amount", "a", "b", "note"))):
                amount = None if row[2] is None else float(f"{row[2]:.6f}")
                rows.append((row[0], row[1], amount, row[3], row[4], row[5]))
                if writer.admits(row[1]):
                    targets.append(row[0])
            return tuple(rows)

        def insert_sql(rows: tuple[tuple, ...]) -> str:
            values = ", ".join("(" + ", ".join(_sql_value(v) for v in row) + ")" for row in rows)
            return f"INSERT INTO {EVENTS} VALUES {values}"

        def take_target() -> int:
            return targets.pop(rng.randrange(len(targets)))

        for index in range(len(kinds) + count):
            kind = kinds[index % len(kinds)]
            if kind == "insert":
                rows = new_rows()
                out.append(Op(kind, 0, EVENTS, (rows,), (insert_sql(rows),)))
            elif kind == "read":
                key = rng.randrange(A_RANGE)
                sql = f"SELECT count(*), sum(b) FROM {EVENTS} WHERE a = {key}"
                out.append(Op(kind, 0, EVENTS, (key,), (sql,)))
            elif kind == "update":
                row_id, value = targets[rng.randrange(len(targets))], rng.randrange(B_RANGE)
                sql = f"UPDATE {EVENTS} SET b = {value} WHERE id = {row_id}"
                out.append(Op(kind, 0, EVENTS, (row_id, value), (sql,)))
            elif kind == "delete":
                row_id = take_target()
                sql = f"DELETE FROM {EVENTS} WHERE id = {row_id}"
                out.append(Op(kind, 0, EVENTS, (row_id,), (sql,)))
            else:
                rows, row_id = new_rows(), take_target()
                statements = (
                    "BEGIN",
                    insert_sql(rows),
                    f"DELETE FROM {EVENTS} WHERE id = {row_id}",
                    "COMMIT",
                )
                out.append(Op("txn", 0, EVENTS, (rows, row_id), statements))
        return out

    def ops(self, seed: int, count: int, data: dict[str, Any]) -> list[Op]:
        return self._sequence(seed, count, data)[len(self.cycle()):]

    def warmup_ops(self, seed: int, data: dict[str, Any]) -> list[Op]:
        return self._sequence(seed, 0, data)

    def final_ops(self) -> list[Op]:
        return [Op("read", 0, EVENTS, (None,), (f"SELECT count(*), sum(b) FROM {EVENTS}",))]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ScanAgg(), MultiuserShort(), SandboxUdf(), EfgacRemote(), TxnWrites())
}
