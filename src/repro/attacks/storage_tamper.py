"""Storage-compromise probes: planted objects must decode as data, never run.

Membrane's threat model (PAPERS.md) gives the attacker write access to the
object store itself — a leaked bucket key, a compromised storage account.
FGAC cannot keep such an attacker from *reading* raw bytes (DESIGN.md §12
known gaps), but it must keep them from turning the bytes they write into
code that runs inside the trusted engine. Two objects the engine decodes
come from storage: table data files and eFGAC staged result parts. Each
scenario plants one that unpickles to a call creating a marker file — once
as a whole-object pickle, once in the column-chunked layout with the gadget
inside one column chunk — and has a principal read it. Contained means no
marker, and the read refused as a retryable corrupt object.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from typing import Any, Callable

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, contained, judge, leaked
from repro.common.datacodec import encode_data_file
from repro.errors import LakeguardError, RetryableError
from repro.storage.credentials import LIST, READ, WRITE
from repro.storage.table_format import LakeTableStorage

#: Attempts at each attacker write (the chaos leg injects ``storage.put``
#: faults; a plant or restore that never lands would skew later scenarios).
_PUT_ATTEMPTS = 8


class Gadget:
    """Pickles to ``os.mkdir(path)``: code run by whoever unpickles it."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self) -> tuple[Any, tuple[str]]:
        return (os.mkdir, (self.path,))


def _planted_objects(columns: dict[str, list], marker: str) -> list[bytes]:
    """The two payload shapes: a whole-object pickle, and the gadget inside
    one chunk of an otherwise well-formed column-chunked object."""
    first = next(iter(columns))
    armed = dict(columns, **{first: [Gadget(marker)] * len(columns[first])})
    return [pickle.dumps(armed, protocol=5), encode_data_file(armed)]


def _put(store: Any, path: str, data: bytes, credential: Any) -> None:
    """One attacker write, retried through injected faults."""
    for attempt in range(_PUT_ATTEMPTS):
        try:
            store.put(path, data, credential)
            return
        except RetryableError:
            if attempt == _PUT_ATTEMPTS - 1:
                raise


def _judge_planted_read(
    gauntlet: Any, marker: str, read: Callable[[], Any], what: str
) -> AttackResult:
    """Run ``read`` against a planted object and judge what happened."""
    try:
        outcome: Any = read()
        error: Exception | None = None
    except Exception as exc:  # noqa: BLE001 - an untyped crash is judged too
        outcome, error = None, exc
    if os.path.exists(marker):
        return leaked(f"decoding a planted {what} ran its payload")
    if error is None:
        return leaked(f"a planted {what} was accepted as data: {outcome!r}")
    # CorruptObjectError once the retries are spent — or, on a chaos leg,
    # whichever retryable fault the last retry drew.
    if not isinstance(error, RetryableError):
        return leaked(f"planted {what}: expected CorruptObjectError, got {error!r}")
    return judge(error, gauntlet.forbidden_tokens(), f"planted {what} refused")


@attack_scenario(
    name="datafile-reduce",
    layer="storage",
    technique="storage-tamper",
    expected_containment="data files decode column by column through the "
    "data-only unpickler: a chunk "
    "naming a global is a retryable CorruptObjectError before anything it "
    "names is resolved",
)
def datafile_reduce(gauntlet: Any) -> AttackResult:
    """An attacker with write access to the table's bucket replaces a data
    file with bytes that unpickle to code, then an analyst queries it."""
    table = gauntlet.catalog.get_table(h.ORDERS)
    store = gauntlet.catalog.store
    stolen = gauntlet.catalog.vendor.issue(
        identity="mallory",
        prefixes=[table.storage_root],
        operations={READ, WRITE, LIST},
    )
    target = LakeTableStorage(store, table.storage_root).snapshot(stolen).files[0]
    original = store.get(target.path, stolen)
    columns = LakeTableStorage(store, table.storage_root).read_file(target, stolen)
    workdir = tempfile.mkdtemp(prefix="datafile-reduce-")
    marker = os.path.join(workdir, "ran")
    alice = gauntlet.client_for("alice")
    try:
        for index, planted in enumerate(_planted_objects(columns, marker)):
            _put(store, target.path, planted, stolen)
            # A literal only this scenario uses, in a query that can only
            # fail: no earlier query's cached plan answers it.
            text = f"SELECT id, amount FROM {h.ORDERS} WHERE amount > -{index}.4375"
            result = _judge_planted_read(
                gauntlet, marker, lambda: alice.sql(text).collect(), "data file"
            )
            if not result.contained:
                return result
        return contained("planted data files refused as corrupt objects")
    finally:
        _put(store, target.path, original, stolen)
        gauntlet.catalog.vendor.revoke(stolen.token)
        shutil.rmtree(workdir, ignore_errors=True)


@attack_scenario(
    name="staging-reduce",
    layer="storage",
    technique="storage-tamper",
    expected_containment="eFGAC staged result parts use the data-file layout "
    "and decode through the data-only unpickler: a planted part is a "
    "retryable CorruptObjectError, and the staging prefix and its credential "
    "are still cleaned up",
)
def staging_reduce(gauntlet: Any) -> AttackResult:
    """A compromised staging bucket swaps a large eFGAC result, staged for
    the origin cluster to read back, for bytes that unpickle to code."""
    from repro.core.efgac import STAGING_ROOT, RemoteQueryExecutor
    from repro.engine.expressions import EvalContext
    from repro.engine.logical import RemoteScan
    from repro.engine.types import FLOAT, INT, Field, Schema

    schema = Schema((Field("id", INT), Field("amount", FLOAT)))
    visible = {"id": [1, 3], "amount": [10.0, 30.0]}
    store = gauntlet.catalog.store
    workdir = tempfile.mkdtemp(prefix="staging-reduce-")
    marker = os.path.join(workdir, "ran")
    ctx = EvalContext(
        user="alice", auth=gauntlet.catalog.principals.context_for("alice")
    )
    remote = RemoteScan({}, schema, (h.ORDERS,))
    honest_put = store.put
    try:
        for planted in _planted_objects(visible, marker):
            # The remote side returns alice's governed rows; a zero inline
            # threshold sends them through the staging bucket.
            executor = RemoteQueryExecutor(
                lambda user, payload: (
                    [{"name": f.name} for f in schema],
                    [list(v) for v in visible.values()],
                ),
                gauntlet.catalog,
                inline_row_threshold=0,
            )

            def compromised_put(path, data, credential, planted=planted):
                if path.startswith(STAGING_ROOT):
                    data = planted
                honest_put(path, data, credential)

            store.put = compromised_put
            try:
                result = _judge_planted_read(
                    gauntlet, marker,
                    lambda: [b.to_rows() for b in executor(remote, ctx)],
                    "staged part",
                )
            finally:
                del store.put
            if not result.contained:
                return result
            if store.object_count(STAGING_ROOT) != 0:
                return leaked("a refused staged part stranded staging objects")
        return contained("planted staged parts refused as corrupt objects")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@attack_scenario(
    name="staging-partial-state",
    layer="storage",
    technique="storage-tamper",
    expected_containment="partial-aggregate states cross the eFGAC wire as "
    "plain data: state cells that are pickled gadgets in a well-formed "
    "staged part are refused by the final merge (ExecutionError), and "
    "nothing they name runs",
)
def staging_partial_state(gauntlet: Any) -> AttackResult:
    """A compromised staging bucket swaps the staged partial aggregate of a
    GROUP BY with more groups than the inline threshold for a well-formed
    part whose state cells unpickle to code — in the final merge."""
    from repro.core.efgac import INLINE_RESULT_ROW_THRESHOLD as MANY
    from repro.core.efgac import STAGING_ROOT, RemoteQueryExecutor
    from repro.engine.aggregates import AggregateCall
    from repro.engine.analyzer import DictResolver
    from repro.engine.executor import QueryEngine
    from repro.engine.expressions import Alias, BoundRef
    from repro.engine.logical import Aggregate, RemoteScan
    from repro.engine.types import INT, STRING, Field, Schema

    key, ids = BoundRef(0, "id", INT), list(range(MANY + 1))
    schema = Schema((Field("id", INT), Field("state_0", STRING)))
    count = Alias(AggregateCall("count", None), "n")
    final = Aggregate(RemoteScan({}, schema, (h.ORDERS,)), [key], [key, count], "final")
    # The remote side's honest partial aggregate, one group per id.
    executor = RemoteQueryExecutor(
        lambda user, payload: ([{"name": f.name} for f in schema], [ids, [1] * len(ids)]),
        gauntlet.catalog,
    )
    workdir = tempfile.mkdtemp(prefix="staging-partial-state-")
    marker = os.path.join(workdir, "ran")
    planted = encode_data_file({"0": ids, "1": [pickle.dumps(Gadget(marker))] * len(ids)})
    store = gauntlet.catalog.store
    honest_put = store.put
    store.put = lambda path, data, cred: honest_put(
        path, planted if path.startswith(STAGING_ROOT) else data, cred
    )
    try:
        auth = gauntlet.catalog.principals.context_for("alice")
        QueryEngine(DictResolver({}), remote_executor=executor).execute_optimized(
            final, user="alice", auth=auth
        )
        error: Exception | None = None
    except Exception as exc:  # noqa: BLE001 - an untyped crash is judged too
        error = exc
    finally:
        del store.put
        planted_ran = os.path.exists(marker)
        shutil.rmtree(workdir, ignore_errors=True)
    if planted_ran:
        return leaked("merging a planted partial state ran its payload")
    if not isinstance(error, LakeguardError):
        return leaked(f"planted partial states: expected a typed refusal, got {error!r}")
    return judge(error, gauntlet.forbidden_tokens(), "planted states refused")
