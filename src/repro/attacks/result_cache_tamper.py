"""Spill-directory compromise: a planted result-cache payload must decode as data.

A cluster with a disk tier keeps governed results in its spill directory
(:mod:`repro.store.tiers`), framed with a sha256 checksum. The checksum
detects corruption, not forgery: whoever can write the directory can write
a correctly framed file. The scenario plants one under the key of a cached
governed answer — once as a whole-object pickle, once in the result-cache
layout with the gadget inside one column chunk — drops the memory tier (a
restart), and has the analyst repeat the query. Contained means no marker,
the planted payload counted as a ``decode_errors`` miss, and the governed
answer recomputed.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from typing import Any, Callable

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, contained, leaked
from repro.attacks.storage_tamper import Gadget
from repro.engine.batch import ColumnBatch
from repro.engine.types import FLOAT, INT, Field, Schema
from repro.errors import RetryableError
from repro.store.result_cache import encode_payload
from repro.store.tiers import frame_payload

#: Attempts at each step a chaos schedule may absorb (a query's retryable
#: failure, a dropped cache write, a faulted cache read).
_ATTEMPTS = 8

_CLUSTER = "gauntlet-spill"


def _planted_payloads(marker: str) -> list[bytes]:
    """A whole-object pickle, and the gadget inside one chunk of an
    otherwise well-formed result-cache payload."""
    schema = Schema((Field("id", INT), Field("amount", FLOAT)))
    armed = ColumnBatch(schema, [[Gadget(marker)] * 2, [10.0, 30.0]])
    return [pickle.dumps([Gadget(marker)], protocol=5), encode_payload(armed)]


def _retrying(read: Callable[[], Any]) -> Any:
    """Run ``read``, retrying faults a chaos schedule injects."""
    for attempt in range(_ATTEMPTS):
        try:
            return read()
        except RetryableError:
            if attempt == _ATTEMPTS - 1:
                raise


@attack_scenario(
    name="resultcache-reduce",
    layer="store",
    technique="storage-tamper",
    expected_containment="result-cache payloads are a JSON schema plus a "
    "column-chunked frame decoded by the data-only unpickler: a planted, "
    "correctly LGS1-framed spill file is a counted decode_errors miss and "
    "the governed answer is recomputed",
)
def resultcache_reduce(gauntlet: Any) -> AttackResult:
    """An attacker with write access to a cluster's spill directory replaces
    a cached governed result with bytes that unpickle to code, then the
    analyst repeats the query after a restart."""
    workdir = tempfile.mkdtemp(prefix="resultcache-reduce-")
    marker = os.path.join(workdir, "ran")
    cluster = gauntlet.workspace.create_standard_cluster(
        name=_CLUSTER,
        store_backend="disk",
        store_dir=os.path.join(workdir, "spill"),
        result_cache_enabled=True,
    )
    try:
        alice = cluster.connect("alice")
        text = f"SELECT id, amount FROM {h.ORDERS} ORDER BY id"
        expected = [(row[0], row[2]) for row in gauntlet.VISIBLE_ORDERS]
        cache = cluster.backend.result_cache
        store = cluster.backend.artifact_store.store
        memory, disk = store.tiers[0], store.tiers[-1]
        keys: list[str] = []
        for _ in range(_ATTEMPTS):
            _retrying(lambda: alice.sql(text).collect())
            keys = [k for k in disk.keys() if k.startswith("result/")]
            if keys:
                break
        if not keys:
            return leaked("no governed result was ever spilled to plant over")
        for planted in _planted_payloads(marker):
            decoded = False
            for _ in range(_ATTEMPTS):
                for key in keys:
                    disk.put(key, frame_payload(planted))
                memory.clear()
                before = cache.stats.decode_errors
                try:
                    rows = _retrying(lambda: alice.sql(text).collect())
                except Exception as exc:  # noqa: BLE001 - judged below
                    rows = exc
                if os.path.exists(marker):
                    return leaked("decoding a planted result-cache payload ran its payload")
                if rows != expected:
                    return leaked(f"a planted result-cache payload changed the answer: {rows!r}")
                if cache.stats.decode_errors > before:
                    decoded = True
                    break
            if not decoded:
                return leaked("a planted result-cache payload was never refused as a miss")
        return contained("planted result-cache payloads refused as decode_errors misses")
    finally:
        cluster.shutdown()
        gauntlet.workspace.clusters.pop(_CLUSTER, None)
        shutil.rmtree(workdir, ignore_errors=True)
