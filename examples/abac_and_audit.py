"""Attribute-based access control and the queryable audit log.

Tag columns once (``pii``), write one policy over the tag, and every table
carrying the tag is governed — including through eFGAC on privileged
compute. Admins then investigate access with plain SQL over
``system.access.audit``.

Run with: ``python examples/abac_and_audit.py``
"""

from repro.catalog.abac import TagMaskPolicy, TagRowFilterPolicy, hash_builder
from repro.platform import Workspace
from repro.sql.parser import parse_expression


def main() -> None:
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("ana")
    ws.add_group("analysts", ["ana"])
    ws.add_group("privacy_office", [])
    cat = ws.catalog
    cat.create_catalog("corp", owner="admin")
    cat.create_schema("corp.people", owner="admin")

    cluster = ws.create_standard_cluster()
    admin = cluster.connect("admin")
    admin.sql(
        "CREATE TABLE corp.people.employees "
        "(id int, name string, email string, country string, salary float)"
    )
    admin.sql(
        "INSERT INTO corp.people.employees VALUES "
        "(1,'Ada','ada@corp.com','DE',120.0),"
        "(2,'Bo','bo@corp.com','US',110.0),"
        "(3,'Cy','cy@corp.com','DE',130.0)"
    )
    for grant in (
        "GRANT USE CATALOG ON corp TO analysts",
        "GRANT USE SCHEMA ON corp.people TO analysts",
        "GRANT SELECT ON corp.people.employees TO analysts",
    ):
        admin.sql(grant)

    # --- tag once, govern everywhere -------------------------------------
    cat.tags.tag_column("corp.people.employees", "name", "pii")
    cat.tags.tag_column("corp.people.employees", "email", "pii")
    cat.tags.tag_table("corp.people.employees", "eu_data")
    cat.tags.register(
        TagMaskPolicy(
            "hash-pii", "pii", hash_builder(),
            exempt_groups=frozenset({"privacy_office"}),
        )
    )
    cat.tags.register(
        TagRowFilterPolicy(
            "eu-residency", "eu_data", parse_expression("country = 'DE'"),
            exempt_groups=frozenset({"privacy_office"}),
        )
    )

    print("=== What an analyst sees (hashed PII, EU rows only) ===")
    ana = cluster.connect("ana")
    for row in ana.sql(
        "SELECT id, name, country, salary FROM corp.people.employees"
    ).collect():
        print("  ", row)

    print("\n=== Hashed masks stay joinable/groupable ===")
    for row in ana.sql(
        "SELECT email, count(*) AS n FROM corp.people.employees GROUP BY email"
    ).collect():
        print("  ", row)

    print("\n=== DESCRIBE shows governance metadata ===")
    described = admin.sql("DESCRIBE corp.people.employees")
    for column in described["columns"]:
        print("  ", column)

    print("\n=== Investigating access with SQL over the audit log ===")
    rows = admin.sql(
        "SELECT principal, action, count(*) AS n FROM system.access.audit "
        "WHERE principal = 'ana' GROUP BY principal, action ORDER BY n DESC"
    ).collect()
    for row in rows:
        print("  ", row)

    denied = admin.sql(
        "SELECT count(*) AS denials FROM system.access.audit WHERE allowed = false"
    ).collect()
    print(f"\ntotal denials recorded: {denied[0][0]}")
    ws.shutdown()


if __name__ == "__main__":
    main()
