"""End-to-end benchmark: five governed workloads, measured from outside.

One command measures everything::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--smoke] [--out FILE]

Without ``--workload`` all five run in turn. Each measurement is a fresh
child process (``child.py``) executing a fixed, seeded op sequence against
the real public surface with default configuration and zero injected
latency; ``--seconds`` scales the op count (the sequence is the same on
every commit, so a faster system finishes sooner with the same samples).

* ``--trace 0`` (default) reports the end-to-end metrics with no probe code
  loaded. ``setup_s`` is the median over several fresh set-ups.
* ``--trace 1`` / ``--traced`` reports the per-layer metrics: the first
  third of the op sequence runs once plain and once with the probes on
  (their ratio is ``trace.overhead_ratio``), and the first fifth runs on the
  workload's ungoverned twin (``baseline.*``).

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero on a harness error (an op that fails is counted
in ``failed``, not an error). See ``README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from child import RESULT_MARKER

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Share of the op sequence the traced pass and the twin run.
TRACE_FRACTION = 1 / 3
BASELINE_FRACTION = 1 / 5
SMOKE_SCALE = 1 / 20

class HarnessError(RuntimeError):
    """The benchmark itself failed (as opposed to an op failing)."""


def manifest() -> dict[str, Any]:
    """``BENCHMARK.json``: workload names, run length and metric units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """The child's environment: no ``LAKEGUARD_*`` knob, ``src`` importable.

    ``PYTHONPATH`` is exported (not just put on ``sys.path``) because the
    subprocess sandbox launches ``python -m repro.sandbox.worker``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("LAKEGUARD_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(workload: str, seed: int, seconds: float, **flags: Any) -> dict[str, Any]:
    """Start one child, wait for it, and return the record it printed."""
    command = [
        sys.executable, str(E2E_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--spawned-at", repr(time.time()),
    ]
    for flag, value in flags.items():
        text = repr(value) if isinstance(value, float) else str(value)
        command += [f"--{flag.replace('_', '-')}", text]
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s") from exc
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise HarnessError(f"{workload}: child exited {done.returncode}\n{done.stdout[-2000:]}")
    for line in reversed(done.stdout.splitlines()):
        if line.startswith(RESULT_MARKER):
            return json.loads(line[len(RESULT_MARKER):])
    raise HarnessError(f"{workload}: child printed no result")


def measure_end_to_end(
    workload: str, seed: int, seconds: float, setups_wanted: int
) -> dict[str, Any]:
    """The untraced run: several set-ups, one of which goes on to be timed."""
    setups = [
        run_child(workload, seed, seconds, setup_only=1)["setup_s"]
        for _ in range(setups_wanted - 1)
    ]
    record = run_child(workload, seed, seconds)
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    record["setup_s"] = statistics.median(setups)
    record["checked"] = {"attempted": record["attempted"], "failed": record["failed"]}
    return record


def measure_layers(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """The traced run: plain prefix, traced prefix, and the ungoverned twin."""
    plain = run_child(workload, seed, seconds, fraction=TRACE_FRACTION)
    traced = run_child(workload, seed, seconds, fraction=TRACE_FRACTION, traced=1)
    twin = run_child(workload, seed, seconds, fraction=BASELINE_FRACTION, baseline=1)
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = traced["latency_mean_ms"] / plain["latency_mean_ms"]
    # The twin runs the first fifth; compare medians over the same ops.
    governed = sorted(plain["latencies_ms"][: twin["attempted"]])
    layers["baseline.p50_ms"] = twin["latency_p50_ms"]
    layers["baseline.overhead_ratio"] = statistics.median(governed) / twin["latency_p50_ms"]
    traced["plain_prefix"] = {k: plain[k] for k in ("attempted", "failed", "latency_mean_ms")}
    traced["twin"] = {k: twin[k] for k in ("attempted", "failed", "latency_p50_ms", "problems")}
    runs = (traced, plain, twin)
    traced["checked"] = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    traced["problems"] = traced["problems"] + plain["problems"] + twin["problems"]
    return traced


def compact_json(record: dict[str, Any]) -> str:
    """Indented JSON with every list of scalars kept on one line (spans, latencies)."""
    text = json.dumps(record, indent=1)
    return re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda match: "[" + re.sub(r"\s*\n\s*", " ", match.group(1)) + "]",
        text,
    )


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def report(workload: str, record: dict[str, Any], traced: bool, spec: dict[str, Any]) -> dict:
    """Print one workload's metrics by name; return them in the result-line form."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = (
        record["layers"] if traced else {m["name"]: record[m["name"]] for m in spec["end_to_end"]}
    )
    metrics = {}
    print(f"== {workload}  ({record['planned_ops']} ops; checked {record['checked']['attempted']}, "
          f"failed {record['checked']['failed']})")
    for name, value in values.items():
        unit = units.get(name, "")
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit}")
        if value is None:
            print(f"warning: {workload}: metric {name} has no source at this commit",
                  file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    if not traced:
        print(f"  {'failed_share':<42} {record['failed_share']:>14.6g} ratio")
        print(f"  latency_tail_ms is p{record['tail_percentile']:g} "
              f"({record['samples_beyond_tail']} samples beyond it)")
    print(f"  times are at reference host speed; this run's host_slowdown was "
          f"{record['host_slowdown']:.4f} ({record['calibration_samples']} samples)")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    if record.get("truncated"):
        print("  TRUNCATED: the run hit its overrun guard before finishing the op sequence")
    return metrics


def main(argv: list[str]) -> int:
    """Parse arguments, run the children, print the metrics and the result line."""
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC}/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    spec = manifest()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="every workload at 1/20 size")
    parser.add_argument("--out", type=Path, help="write the full record here as JSON")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)
    seconds = args.seconds * SMOKE_SCALE if args.smoke else args.seconds

    started = time.time()
    records: dict[str, dict[str, Any]] = {}
    metrics: dict[str, dict[str, Any]] = {}
    try:
        for workload in [args.workload] if args.workload else names:
            if traced:
                records[workload] = measure_layers(workload, args.seed, seconds)
            else:
                # --smoke checks that everything runs; one set-up is enough for that.
                setups = 1 if args.smoke else SETUPS
                records[workload] = measure_end_to_end(workload, args.seed, seconds, setups)
            reported = report(workload, records[workload], traced, spec)
            prefix = "" if args.workload else f"{workload}."
            metrics.update({prefix + name: value for name, value in reported.items()})
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["checked"]["attempted"] for r in records.values())
    failed = sum(r["checked"]["failed"] for r in records.values())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(compact_json({
            "benchmark": "benchmarks/e2e",
            "claim": None,
            "traced": traced,
            "seed": args.seed,
            "seconds": seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
            "wall_s": round(time.time() - started, 3),
            "op_counts": {name: r["planned_ops"] for name, r in records.items()},
            "tail_percentile": {name: r["tail_percentile"] for name, r in records.items()},
            "workloads": records,
        }) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
