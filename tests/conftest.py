"""Shared fixtures: a governed workspace with demo data.

Property tests run under the ``derandomized`` hypothesis profile: every
run of the suite draws the same examples, so a failure replays as it is.
The randomised CI leg loads ``randomized`` instead, with a seed it prints
first (``pytest --hypothesis-profile=randomized --hypothesis-seed=<seed>``
replays it). Neither profile changes an example budget or a strategy.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.platform import Workspace

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("derandomized")


@pytest.fixture
def workspace() -> Workspace:
    """A workspace with users, groups, and a governed sales table.

    Principals: ``admin`` (metastore admin), ``alice`` (analyst, in
    ``analysts``), ``bob`` (no grants), ``carol`` (in ``hr`` and
    ``analysts``). Table ``main.sales.orders`` with grants to ``analysts``.
    """
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("alice")
    ws.add_user("bob")
    ws.add_user("carol")
    ws.add_group("analysts", ["alice", "carol"])
    ws.add_group("hr", ["carol"])
    cat = ws.catalog
    cat.create_catalog("main", owner="admin")
    cat.create_schema("main.sales", owner="admin")
    return ws


@pytest.fixture
def standard_cluster(workspace):
    return workspace.create_standard_cluster()


@pytest.fixture
def admin_client(standard_cluster):
    client = standard_cluster.connect("admin")
    client.sql(
        "CREATE TABLE main.sales.orders "
        "(id int, region string, amount float, buyer string)"
    )
    client.sql(
        "INSERT INTO main.sales.orders VALUES "
        "(1,'US',10.0,'p1'),(2,'EU',20.0,'p2'),"
        "(3,'US',30.0,'p3'),(4,'APAC',40.0,'p4')"
    )
    client.sql("GRANT USE CATALOG ON main TO analysts")
    client.sql("GRANT USE SCHEMA ON main.sales TO analysts")
    client.sql("GRANT SELECT ON main.sales.orders TO analysts")
    return client


@pytest.fixture
def alice_client(standard_cluster, admin_client):
    return standard_cluster.connect("alice")
