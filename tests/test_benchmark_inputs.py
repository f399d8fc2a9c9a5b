"""The end-to-end benchmark's counter inputs exist under the names it reads.

``benchmarks/e2e/layers.py`` flattens the ``system.access.*_stats`` tables
into ``<family>.<metric>`` counters and treats a name it does not find as
"zero so far". A renamed or dropped snapshot key would therefore zero a
per-layer metric silently instead of failing. This test runs one short
scripted session and checks every name in the benchmark's ``_REGISTRIES``
against the snapshots the catalog actually serves.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.connect.client import col, udf

E2E = Path(__file__).parent.parent / "benchmarks" / "e2e"
#: Always empty since the persistence tier went (the frozen fixture still
#: names it); nothing can report these keys.
EMPTY_FAMILIES = {"store_stats"}


@pytest.fixture(scope="module")
def registries():
    """``layers._REGISTRIES``, imported read-only from the benchmark."""
    saved_path, saved_probes = list(sys.path), sys.modules.get("probes")
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location("e2e_layers", E2E / "layers.py")
        layers = sys.modules["e2e_layers"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path[:] = saved_path
        sys.modules.pop("e2e_layers", None)
        if saved_probes is None:
            sys.modules.pop("probes", None)
        else:
            sys.modules["probes"] = saved_probes
    return layers._REGISTRIES


def _metrics_by_family(scopes):
    """``{family: {metric, ...}}`` as ``snapshot_counters`` folds them: the
    scope's cluster suffix goes, and per-tenant wait totals count as one."""
    out: dict[str, set[str]] = {}
    for scope, stats in scopes.items():
        metrics = out.setdefault(scope.split("[", 1)[0], set())
        for metric in stats:
            if metric.startswith("tenant.") and metric.endswith("queue_wait_seconds_total"):
                metric = "queue_wait_seconds_total"
            metrics.add(metric)
    return out


def test_every_counter_the_benchmark_reads_is_served(
    registries, workspace, standard_cluster, admin_client, alice_client
):
    admin_client.sql("ALTER TABLE main.sales.orders SET ROW FILTER (region = 'US')")
    assert sorted(alice_client.table("main.sales.orders").collect())  # governed read
    doubled = alice_client.table("main.sales.orders").select(
        udf("float")(lambda amount: amount * 2)(col("amount"))
    )
    assert sorted(doubled.collect()) == [(20.0,), (60.0,)]
    admin_client.sql("INSERT INTO main.sales.orders VALUES (5,'EU',50.0,'p5')")
    admin_client.table("system.access.cache_stats").collect()
    catalog = workspace.catalog
    assert set(registries) - EMPTY_FAMILIES <= {"cache_stats", "workload_stats", "txn_stats"}
    missing = []
    for registry, names in registries.items():
        if registry in EMPTY_FAMILIES:
            continue
        served = _metrics_by_family(getattr(catalog, registry)())
        missing += [
            f"{registry}: {name}"
            for name in names
            if name.split(".", 1)[1] not in served.get(name.split(".", 1)[0], ())
        ]
    assert not missing, "the benchmark reads counters no snapshot serves:\n" + "\n".join(missing)
