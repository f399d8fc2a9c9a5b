"""Serverless Spark with versionless clients (§6.2-6.3, Fig. 10).

All workloads connect to one workspace endpoint; the gateway forwards or
provisions clusters, old protocol versions keep working, and live sessions
migrate between backends without the client noticing.

Run with: ``python examples/serverless_versionless.py``
"""

from repro.common.clock import VirtualClock
from repro.connect.client import SparkConnectClient
from repro.platform import Workspace
from repro.platform.serverless import ServerlessGateway


def main() -> None:
    ws = Workspace(clock=VirtualClock())
    ws.add_user("admin", admin=True)
    for i in range(6):
        ws.add_user(f"user{i}")
    ws.catalog.create_catalog("main", owner="admin")
    ws.catalog.create_schema("main.s", owner="admin")

    gateway = ServerlessGateway(
        ws.catalog,
        clock=ws.clock,
        target_sessions_per_cluster=2,
        provision_seconds=30.0,
    )

    print("=== One endpoint, many users (Fig. 10) ===")
    clients = []
    for i in range(5):
        clients.append(SparkConnectClient(gateway.channel(), user=f"user{i}"))
        print(
            f"user{i} connected -> clusters={gateway.cluster_count()}, "
            f"loads={gateway.cluster_loads()}"
        )
    print(
        f"forwarded: {gateway.stats.forwarded}, "
        f"provisioned: {gateway.stats.provisioned}, "
        f"virtual provisioning time: {ws.clock.now():.0f}s"
    )

    print("\n=== Versionless clients (§6.3) ===")
    for version in (1, 2, 4):
        old = SparkConnectClient(gateway.channel(), user="user5", client_version=version)
        result = old.range(3).collect()
        print(f"protocol v{version} client -> server v{old.server_version}: {result}")
        old.close()

    print("\n=== Workload environments pin the client surface ===")
    for version in gateway.environments.versions():
        env = gateway.environments.get(version)
        print(
            f"env {env.version}: python {env.python_version}, "
            f"protocol v{env.client_protocol_version}, deps {env.dependencies}"
        )

    print("\n=== Live session migration (§6.2) ===")
    client = clients[0]
    client.set_config(notebook="churn-analysis")
    before = gateway._routes[client.session_id]
    target = gateway.migrate_session(client.session_id)
    print(f"session moved from cluster {before} to {target}")
    print("state survived:", client.get_config("notebook"))
    print("query still works:", client.range(2).collect())

    print("\n=== Scale down when idle ===")
    for c in clients:
        c.close()
    removed = gateway.scale_down_idle()
    print(f"retired {removed} idle clusters; remaining: {gateway.cluster_count()}")
    ws.shutdown()


if __name__ == "__main__":
    main()
