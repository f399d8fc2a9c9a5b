"""Dedicated (privileged) compute with external FGAC (§3.4, §4.2, Fig. 8).

A GPU-style workload needs raw machine access, so it runs on a Dedicated
cluster that cannot enforce FGAC locally. Queries against governed tables
are rewritten: the planner plants a RemoteScan, pushes filters/projections/
partial aggregations into it, and Serverless Spark enforces the policies.

Run with: ``python examples/dedicated_efgac.py``
"""

from repro.platform import Workspace


def main() -> None:
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("ml_eng")
    ws.add_group("ml", ["ml_eng"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")

    std = ws.create_standard_cluster()
    admin = std.connect("admin")
    admin.sql("CREATE TABLE main.s.sales (amount float, date string, seller string, region string)")
    admin.sql(
        "INSERT INTO main.s.sales VALUES "
        "(10.0,'2024-12-01','bob','US'),(20.0,'2024-12-01','joe','EU'),"
        "(30.0,'2024-12-02','ann','US'),(40.0,'2024-12-01','zed','US')"
    )
    for grant in (
        "GRANT USE CATALOG ON main TO ml",
        "GRANT USE SCHEMA ON main.s TO ml",
        "GRANT SELECT ON main.s.sales TO ml",
    ):
        admin.sql(grant)
    # The paper's running example: a row filter restricting to US sales.
    admin.sql("ALTER TABLE main.s.sales SET ROW FILTER (region = 'US')")

    # The ML engineer's dedicated cluster (privileged machine access).
    ded = ws.create_dedicated_cluster(assigned_user="ml_eng", name="gpu-box")
    ml = ded.connect("ml_eng")

    print("=== The paper's Fig. 8 query, on privileged compute ===")
    query = "SELECT amount, date, seller FROM main.s.sales WHERE date = '2024-12-01'"
    print(f"SQL: {query}\n")
    rows = ml.sql(query).collect()
    print("rows (row filter enforced remotely):", rows)

    print("\nrewritten plan on the dedicated cluster:")
    print(ded.backend.last_result.optimized_plan.explain())

    stats = ded.backend.remote_executor.stats
    rows_after_filter_query = stats.rows_received
    print(f"\nremote subqueries: {stats.subqueries}; "
          f"rows shipped back: {rows_after_filter_query} "
          "(filter + projection were pushed into the remote scan)")

    print("\n=== Partial aggregation pushdown ===")
    agg = "SELECT region, sum(amount) AS total, count(*) AS n FROM main.s.sales GROUP BY region"
    print(f"SQL: {agg}\n")
    print("result:", ml.sql(agg).collect())
    print(ded.backend.last_result.optimized_plan.explain())
    print(f"\nrows shipped for the aggregate: "
          f"{stats.rows_received - rows_after_filter_query} "
          "(aggregate states, not data rows)")

    print("\n=== Equivalence with local enforcement ===")
    ws.add_group("ml_std", ["ml_eng"])  # let ml_eng on the standard cluster
    std_rows = std.connect("ml_eng").sql(query).collect()
    print("standard cluster result:", std_rows)
    print("identical:", sorted(std_rows) == sorted(rows))

    print(f"\nserverless clusters provisioned behind the scenes: "
          f"{ws.serverless.cluster_count()}")
    ws.shutdown()


if __name__ == "__main__":
    main()
