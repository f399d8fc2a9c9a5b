"""Quickstart: a governed table, a grant, a row filter, and two users.

Run with: ``python examples/quickstart.py``
"""

from repro.platform import Workspace


def main() -> None:
    # A workspace wires Unity Catalog + compute together.
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_group("analysts", ["alice"])
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.demo", owner="admin")

    # A Standard cluster: multi-user, sandboxed, locally-enforced FGAC.
    cluster = ws.create_standard_cluster()

    # The admin sets up data and governance — plain SQL.
    admin = cluster.connect("admin")
    admin.sql("CREATE TABLE main.demo.orders (id int, region string, amount float)")
    admin.sql(
        "INSERT INTO main.demo.orders VALUES "
        "(1, 'US', 10.0), (2, 'EU', 20.0), (3, 'US', 30.0), (4, 'APAC', 40.0)"
    )
    admin.sql("GRANT USE CATALOG ON main TO analysts")
    admin.sql("GRANT USE SCHEMA ON main.demo TO analysts")
    admin.sql("GRANT SELECT ON main.demo.orders TO analysts")
    admin.sql("ALTER TABLE main.demo.orders SET ROW FILTER (region = 'US')")

    # Alice connects to the same cluster; the row filter applies to her.
    alice = cluster.connect("alice")
    print("What alice sees (row filter region = 'US'):")
    alice.table("main.demo.orders").show()

    print("\nAggregation respects the same policy:")
    alice.sql(
        "SELECT region, sum(amount) AS total FROM main.demo.orders GROUP BY region"
    ).show()

    # The audit log attributed every access to a person, not a cluster.
    vends = ws.catalog.audit.events(action="catalog.vend_credential")
    print(f"\nCredential vends recorded: {len(vends)} "
          f"(last by '{vends[-1].principal}')")
    ws.shutdown()


if __name__ == "__main__":
    main()
