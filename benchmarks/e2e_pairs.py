"""Alternating parent/change pairs of the end-to-end benchmark.

The rule a performance claim has to meet (``/opt/skills/guides/choosing-metrics``
§8, restated in ``benchmarks/e2e/README.md``): at least ten pairs of runs,
alternating which side goes first, the change winning nine tenths of them and
the medians further apart than the parent's own inter-quartile range, on
identical benchmark code and settings, including one seed that was not used
while the change was written. This tool runs exactly that and nothing else::

    python3 benchmarks/e2e_pairs.py --parent REF --workload txn_writes \\
        [--workload NAME ...] [--pairs 10] [--seconds S] [--seed-base N] \\
        [--unseen-seed N] [--traced-prefix PATH] [--out FILE]

* ``--parent`` is a git ref — checked out into a temporary ``git worktree``
  that is removed afterwards — or a directory that already holds a checkout
  of the parent (containers that may not create worktrees).
* The *change* is this checkout's working tree. Both sides run their own
  ``benchmarks/e2e/run.py --workload W --seed S_i --seconds S --out ...``;
  pair ``i`` runs the parent first when ``i`` is odd, the change first when
  even. ``--unseen-seed`` replaces the last pair's seed.
* ``--out`` receives, per run, the end-to-end metrics and the run's latency
  distribution on a fixed percentile grid (not the per-op array: 20 pairs of
  7 000 ops are megabytes), plus, per workload and end-to-end metric, both
  sides' median and quartiles, the change's win count (ties count for
  neither) and whether the claim rule holds. ``--traced-prefix P`` also
  records one ``--traced`` run per side and workload as
  ``P<parent|change>_traced_<workload>.json``.

Exit status is non-zero when any run had a failed op or an incorrect
answer; timings are reported, never gated (a shared CI runner is noisy).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: Percentiles of a run's per-op latencies kept in the record.
QUANTILE_GRID = (1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100)


def git(*args: str, cwd: Path = ROOT) -> str:
    """Run one git command; raise with its stderr when it fails."""
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


@contextmanager
def parent_checkout(parent: str) -> Iterator[tuple[Path, str]]:
    """Yield ``(directory, description)`` of the parent side."""
    if (Path(parent) / RUNNER).is_file():
        directory = Path(parent).resolve()
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=directory, capture_output=True, text=True
        ).stdout.strip()
        yield directory, f"{sha or 'unknown'} (directory {directory})"
        return
    sha = git("rev-parse", "--verify", f"{parent}^{{commit}}")
    holder = Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    worktree = holder / "parent"
    git("worktree", "add", "--detach", str(worktree), sha)
    try:
        yield worktree, f"{sha} (git worktree)"
    finally:
        git("worktree", "remove", "--force", str(worktree))
        git("worktree", "prune")
        holder.rmdir()


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, out: Path, traced: bool = False
) -> dict[str, Any]:
    """One ``run.py`` invocation in ``checkout``; returns that workload's record."""
    command = [
        sys.executable, str(checkout / RUNNER), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--out", str(out),
    ]
    if traced:
        command.append("--traced")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(out.read_text())["workloads"][workload]


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles (a single run is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def latency_quantiles(latencies_ms: list[float]) -> dict[str, float]:
    """One run's latencies on :data:`QUANTILE_GRID` (nearest rank; p100 = max)."""
    ordered = sorted(latencies_ms)
    if not ordered:
        return {}
    return {
        f"p{q:g}": ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
        for q in QUANTILE_GRID
    }


def summarise(pairs: list[dict[str, Any]], metrics: list[dict[str, Any]]) -> dict[str, Any]:
    """Per metric: both sides' spread, the change's wins, the claim rule."""
    out: dict[str, Any] = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_stats, c_stats = quartiles(parent), quartiles(change)
        gap = c_stats["median"] - p_stats["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": p_stats,
            "change": c_stats,
            "change_over_parent": (
                c_stats["median"] / p_stats["median"] if p_stats["median"] else None
            ),
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "claim_rule_met": (
                len(pairs) >= 10
                and wins * 10 >= 9 * len(pairs)
                and (gap if higher else -gap) > p_stats["q3"] - p_stats["q1"]
            ),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    """Run the pairs, write the record, print one line per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref, or a checkout directory")
    parser.add_argument("--workload", action="append", choices=names, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--seed-base", type=int, default=1501)
    parser.add_argument("--unseen-seed", type=int, help="seed of the last pair")
    parser.add_argument("--traced-prefix", help="also record one traced run per side here")
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args(argv)

    seeds = [args.seed_base + i for i in range(args.pairs)]
    if args.unseen_seed is not None:
        seeds[-1] = args.unseen_seed
    record: dict[str, Any] = {
        "what": (
            "Alternating parent/change pairs of benchmarks/e2e/run.py "
            "(benchmarks/e2e_pairs.py). Pair i ran the parent first when i is "
            "odd, the change first when even; every value is copied from that "
            "run's --out record (times at reference host speed), its per-op "
            "latencies reduced to nearest-rank percentiles."
        ),
        "seconds": args.seconds,
        "unseen_seed": args.unseen_seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    clean = True
    with parent_checkout(args.parent) as (parent_dir, parent_desc), \
            tempfile.TemporaryDirectory(prefix="e2e-pairs-runs-") as scratch:
        record["parent"] = parent_desc
        record["change"] = (
            f"{git('rev-parse', 'HEAD')} + working tree"
            if git("status", "--porcelain", "--untracked-files=no")
            else git("rev-parse", "HEAD")
        )
        sides = {"parent": parent_dir, "change": ROOT}
        kept = [m["name"] for m in spec["end_to_end"]] + [
            "attempted", "failed", "host_slowdown",
        ]
        for workload in args.workload:
            pairs: list[dict[str, Any]] = []
            for index, seed in enumerate(seeds, start=1):
                order = ("parent", "change") if index % 2 else ("change", "parent")
                pair: dict[str, Any] = {"pair": index, "seed": seed, "order": list(order)}
                for side in order:
                    run = run_once(
                        sides[side], workload, seed, args.seconds,
                        Path(scratch) / f"{side}.json",
                    )
                    pair[side] = {name: run[name] for name in kept}
                    pair[side]["latency_quantiles_ms"] = latency_quantiles(
                        run["latencies_ms"]
                    )
                    pair[side]["correct"] = not run["problems"]
                    clean = clean and run["failed"] == 0 and not run["problems"]
                pairs.append(pair)
                print(
                    f"{workload} pair {index}/{len(seeds)} seed {seed}: " + ", ".join(
                        f"{side} {pair[side]['ops_per_s']:.1f} ops/s "
                        f"(failed {pair[side]['failed']})" for side in ("parent", "change")
                    ),
                    flush=True,
                )
            summary = summarise(pairs, spec["end_to_end"])
            record["workloads"][workload] = {"summary": summary, "pairs": pairs}
            for name, row in summary.items():
                print(
                    f"  {name:<16} parent {row['parent']['median']:.3f} "
                    f"[{row['parent']['q1']:.3f}, {row['parent']['q3']:.3f}]  "
                    f"change {row['change']['median']:.3f} "
                    f"[{row['change']['q1']:.3f}, {row['change']['q3']:.3f}] {row['unit']}  "
                    f"wins {row['change_wins']}/{row['pairs']}"
                )
            if args.traced_prefix is not None:
                for side, checkout in sides.items():
                    out = Path(f"{args.traced_prefix}{side}_traced_{workload}.json")
                    out.parent.mkdir(parents=True, exist_ok=True)
                    run = run_once(
                        checkout, workload, seeds[0], args.seconds, out.resolve(), traced=True
                    )
                    clean = clean and run["failed"] == 0 and not run["problems"]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"clean": clean, "workloads": list(record["workloads"])}))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
