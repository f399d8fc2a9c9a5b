"""Cluster options are declared once.

``LakeguardCluster.__init__`` is the only declaration of a cluster option;
``ComputeCluster`` and ``Workspace.create_*_cluster`` pass everything they
do not supply themselves straight through. These tests hold that shape:
every declared keyword is reachable from the ``Workspace`` surface, an
unknown one is a ``TypeError`` naming it, and no user-settable keyword
survives without something exercising it.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from repro.connect.client import col, udf
from repro.core.lakeguard import LakeguardCluster
from repro.errors import AdmissionError
from repro.platform.clusters import ComputeCluster
from repro.scheduler.workload import TenantPolicy

_DECLARED = inspect.signature(LakeguardCluster.__init__).parameters
#: Supplied by the platform layer itself, never by the caller.
_PLATFORM_SUPPLIED = {"self", "catalog", "compute_type", "cluster_id", "clock",
                      "context_transform"}
#: Additionally wired by ``create_dedicated_cluster`` (the eFGAC endpoint).
_DEDICATED_SUPPLIED = {"remote_submit", "remote_analyze"}
_USER_SETTABLE = sorted(set(_DECLARED) - _PLATFORM_SUPPLIED - _DEDICATED_SUPPLIED)


def _defaults(names) -> dict:
    return {name: _DECLARED[name].default for name in names}


def test_constructor_stays_within_its_keyword_budget():
    assert len(_DECLARED) - 1 <= 23, sorted(_DECLARED)  # minus ``self``


def test_compute_cluster_declares_only_what_it_supplies_or_wraps():
    declared = inspect.signature(ComputeCluster.__init__).parameters
    assert list(declared) == [
        "self", "catalog", "compute_type", "name", "clock",
        "context_transform", "backend_options",
    ]
    assert declared["backend_options"].kind is inspect.Parameter.VAR_KEYWORD


def test_every_declared_option_passes_through_the_workspace(workspace):
    workspace.create_standard_cluster(
        **_defaults(set(_DECLARED) - _PLATFORM_SUPPLIED)
    )
    workspace.create_dedicated_cluster(
        assigned_user="alice", **_defaults(_USER_SETTABLE)
    )
    workspace.shutdown()


def test_unknown_option_is_a_type_error_naming_it(workspace):
    with pytest.raises(TypeError, match="no_such_option"):
        workspace.create_standard_cluster(no_such_option=1)
    with pytest.raises(TypeError, match="no_such_option"):
        workspace.create_dedicated_cluster(
            assigned_user="alice", no_such_option=1
        )


@pytest.mark.parametrize("option", _USER_SETTABLE)
def test_every_user_settable_option_is_exercised_somewhere(option):
    """An option nothing sets is a constant: each surviving keyword must be
    passed by at least one test, benchmark or example."""
    root = Path(__file__).parent.parent
    passed = re.compile(rf"\b{option}\s*=|[\"']{option}[\"']\s*:")
    users = [
        path
        for folder in ("tests", "benchmarks", "examples")
        for path in (root / folder).rglob("*.py")
        if passed.search(path.read_text())
    ]
    assert users, f"no test, benchmark or example ever sets '{option}'"


class TestOptionsOnlySetHere:
    def test_sandbox_min_pool_size_keeps_spares_ahead_of_the_first_udf(
        self, workspace
    ):
        cluster = workspace.create_standard_cluster(sandbox_min_pool_size=2)
        dispatcher = cluster.backend.dispatcher
        assert dispatcher.spare_pool_size() == 2

        @udf("int")
        def plus_one(x):
            return x + 1

        admin = cluster.connect("admin")
        rows = admin.range(3).select(plus_one(col("id"))).collect()
        assert sorted(rows) == [(1,), (2,), (3,)]
        # The first UDF claimed a spare instead of paying a cold start.
        assert dispatcher.stats.cold_starts == 0
        assert dispatcher.stats.prewarm_hits == 1

    def test_workload_default_policy_applies_to_unconfigured_tenants(
        self, workspace
    ):
        cluster = workspace.create_standard_cluster(
            workload_default_policy=TenantPolicy(rate_per_second=0.0001, burst=1)
        )
        bob = cluster.connect("bob")
        assert bob.range(2).collect() == [(0,), (1,)]
        with pytest.raises(AdmissionError) as exc_info:
            bob.range(2).collect()
        assert exc_info.value.reason == "rate_limited"
