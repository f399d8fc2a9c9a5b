"""Self-test of the e2e benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``. It checks the
instrument, not the system: the op sequence is a pure function of the seed,
the oracle catches a planted wrong answer and a planted policy leak, every
probe target exists at this commit, a missing target reads ``null``, and the
names the command prints are the names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import probes
from fixture import MASKED_NOTE, generate_tables, principal_for
from oracle import RESULT_SHAPES, Oracle
from workloads import EVENTS, RUN_SECONDS, WORKLOADS

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


# -- the op sequence ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ops_are_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]
    count = workload.op_count(1.0)
    data = generate_tables(7, workload.specs)
    again = generate_tables(7, workload.specs)
    assert data == again
    assert workload.ops(7, count, data) == workload.ops(7, count, again)
    assert workload.warmup_ops(7, data) == workload.warmup_ops(7, again)
    other = generate_tables(8, workload.specs)
    assert workload.ops(7, count, data) != workload.ops(8, count, other)
    # A shorter run is a prefix of a longer one: the traced third and the
    # twin's fifth execute the very ops the full run starts with.
    assert workload.ops(7, count, data)[: count // 3] == workload.ops(7, count // 3, data)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_kind_has_an_oracle_shape_and_gets_full_checks(name):
    workload = WORKLOADS[name]
    count = workload.op_count(RUN_SECONDS)
    data = generate_tables(3, workload.specs)
    ops = workload.ops(3, count, data)
    full = workload.full_checks(3, count)
    assert len(full) == -(-count // 10)
    read_kinds = {op.kind for op in ops} & set(RESULT_SHAPES)
    assert {ops[i].kind for i in full} >= read_kinds - {"read"}


# -- the oracle ---------------------------------------------------------------------


def _scan_agg_oracle():
    workload = WORKLOADS["scan_agg"]
    data = generate_tables(5, workload.specs)
    oracle = Oracle(data, [principal_for("u2")])
    ops = {op.kind: op for op in workload.ops(5, 5, data)}
    return oracle, ops, data


def test_oracle_accepts_the_right_answer_and_catches_a_wrong_one():
    oracle, ops, _ = _scan_agg_oracle()
    op = ops["agg_region"]
    right = RESULT_SHAPES[op.kind].expected(oracle, op, oracle.principals[0])
    assert oracle.check(op, right, full=True) is None
    region, count, total, mean = right[0]
    wrong = [(region, count + 1, total, mean)] + right[1:]
    problem = oracle.check(op, wrong, full=True)
    assert problem is not None and "oracle expects" in problem
    # The cheap per-op check does not recompute aggregates; only the full one does.
    assert oracle.check(op, wrong, full=False) is None


def test_oracle_catches_a_planted_row_filter_leak_on_every_op():
    oracle, ops, data = _scan_agg_oracle()
    op = ops["project"]
    principal = oracle.principals[0]
    right = RESULT_SHAPES[op.kind].expected(oracle, op, principal)
    assert oracle.check(op, right, full=False) is None
    events = data[EVENTS]
    foreign = next(
        i for i, region in zip(events["id"], events["region"]) if not principal.admits(region)
    )
    leaked = right + [(foreign, 1.0, MASKED_NOTE)]
    problem = oracle.check(op, leaked, full=False)
    assert problem is not None and "leaked" in problem
    grouped = ops["agg_region"]
    problem = oracle.check(grouped, [("US", 1, 1.0, 1.0)], full=False)
    assert problem is not None and "leaked" in problem


def test_oracle_catches_a_planted_mask_leak():
    oracle, ops, data = _scan_agg_oracle()
    op = ops["project"]
    right = RESULT_SHAPES[op.kind].expected(oracle, op, oracle.principals[0])
    row_id, amount, _ = right[0]
    unmasked = [(row_id, amount, data[EVENTS]["note"][row_id])] + right[1:]
    problem = oracle.check(op, unmasked, full=False)
    assert problem is not None and "mask" in problem


def test_txn_model_replays_acknowledged_writes():
    workload = WORKLOADS["txn_writes"]
    data = generate_tables(2, workload.specs)
    oracle = Oracle(data, [principal_for("u2")])
    ops = workload.warmup_ops(2, data) + workload.ops(2, 20, data)
    final = workload.final_ops()[0]
    principal = oracle.principals[0]
    before = RESULT_SHAPES["read"].expected(oracle, final, principal)
    for op in ops:
        if op.kind in ("insert", "update", "delete", "txn"):
            assert oracle.check(op, [{"status": "ok", "rows": 20}] * len(op.sql), True) is None
    after = RESULT_SHAPES["read"].expected(oracle, final, principal)
    assert after != before
    assert oracle.check(final, after, full=True) is None
    assert oracle.check(final, before, full=True) is not None
    assert oracle.check(ops[0], [{"status": "error"}], True) is not None


# -- the probes ---------------------------------------------------------------------


def test_every_probe_target_resolves_at_this_commit():
    recorder = probes.Recorder()
    try:
        recorder.install()
        assert recorder.unresolved == []
    finally:
        recorder.uninstall()


def test_a_missing_probe_target_reads_null_not_a_crash():
    broken = tuple(
        probes.Probe(p.key, p.module, "no_such_callable") if p.key == "sql.parse" else p
        for p in probes.PROBES
    )
    recorder = probes.Recorder(broken)
    try:
        recorder.install()
        assert recorder.unresolved == ["sql.parse"]
    finally:
        recorder.uninstall()
    totals = probes.aggregate(recorder, set())
    values = layers.evaluate(
        layers.LayerInputs(ops=1, totals=totals, delta={}, end={}, op_seconds=1.0)
    )
    assert values["sql.parse_self_ms_per_op"] is None
    assert values["engine.run_operator_self_ms_per_op"] == 0.0
    # A counter source that is gone reads null too.
    assert values["core.plan_cache_hit_ratio"] is None


# -- names --------------------------------------------------------------------------


def test_manifest_declares_exactly_what_the_code_defines():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS
    ]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}
    assert MANIFEST["run_seconds"] == RUN_SECONDS


def test_smoke_runs_all_five_workloads_and_prints_the_declared_names():
    result = _run("--smoke")
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    for workload in WORKLOADS:
        printed = {
            name.split(".", 1)[1]: value["unit"]
            for name, value in result["metrics"].items() if name.startswith(workload + ".")
        }
        assert printed == declared


def test_traced_run_prints_every_per_layer_metric_with_a_value():
    result = _run("--smoke", "--workload", "efgac_remote", "--trace", "1")
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
    assert all(value["value"] is not None for value in result["metrics"].values())
    assert result["metrics"]["core.efgac_staged_share"]["value"] > 0
    assert result["metrics"]["trace.attributed_share"]["value"] >= 0.8


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in E2E_DIR.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "scan_agg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
