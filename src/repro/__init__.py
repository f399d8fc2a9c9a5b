"""Reproduction of *Databricks Lakeguard* (SIGMOD-Companion 2025).

Fine-grained access control and multi-user capabilities for Spark-like
workloads, rebuilt in pure Python:

- :mod:`repro.catalog` — Unity Catalog: securables, grants, row filters,
  column masks, credential vending, privilege scopes.
- :mod:`repro.connect` — Spark Connect: DataFrame client, versioned wire
  protocol, service with sessions/reattach.
- :mod:`repro.sandbox` — user-code isolation: subprocess sandboxes,
  dispatcher, cluster manager, egress control.
- :mod:`repro.core` — Lakeguard itself: governed resolution, SecureView
  enforcement, eFGAC rewriting.
- :mod:`repro.platform` — Standard/Dedicated clusters, Serverless gateway,
  workload environments.
- :mod:`repro.engine` / :mod:`repro.sql` / :mod:`repro.storage` — the
  substrates: a columnar query engine, a SQL front-end, credential-gated
  cloud storage with a Delta-like table format.
- :mod:`repro.baselines` — executable models of the systems the paper
  compares against.

Quickstart::

    from repro.platform import Workspace

    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.demo", owner="admin")

    cluster = ws.create_standard_cluster()
    spark = cluster.connect("admin")
    spark.sql("CREATE TABLE main.demo.t (id int, v float)")
    spark.sql("INSERT INTO main.demo.t VALUES (1, 2.5), (2, 4.5)")
    print(spark.sql("SELECT sum(v) AS total FROM main.demo.t").collect())
"""

__version__ = "1.0.0"
