#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage: python scripts/bench.py ROOT_A ROOT_B --workload W --seed S --pairs N
                               [--out BENCH.json]

ROOT_A is the base and ROOT_B the change.  Each pair runs the unmodified
``perfbench/run.py --workload W --seed S --trace 0`` once in each tree, at
run.py's default length, base first in even pairs and change first in odd
ones, so a drift in machine load falls on both sides alike.  OUT holds one
entry per workload, replaced when that workload is run again: the machine
(cpu, nproc, Python and numpy versions, from run.py's environment line),
``run_seconds`` from BENCHMARK.json, the pair count, each side's median and
quartiles of every end-to-end metric, and in how many pairs the change was
better.  It also holds one row per operation of the workload, named by its
argv in the plan of each tree's perfbench/workloads.py, with each side's
median latency: the median over the pairs of the per-pass median that
run.py leaves in ROOT/.perfbench/results-W-untraced.json.  Exits 1 if a run
reports a failed operation or a problem.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV_PREFIX = "environment: "
ENV_KEYS = ("cpu", "nproc", "python", "numpy")


def parse_run(stdout: str) -> dict:
    """Metric values, failed count and environment from one run.py output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX)), {})
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "correct": result["correct"],
        "environment": {k: env.get(k) for k in ENV_KEYS},
    }


def op_latencies(root: Path, workload: str) -> list[float]:
    """Each operation's median latency over the passes of the run just made in root."""
    result = json.loads((root / ".perfbench" / f"results-{workload}-untraced.json").read_text())
    return [statistics.median(per_op) for per_op in zip(*result["pass_latencies_s"])]


# prints the label of each operation of workloads.plan(workload, seed), one per line
LABEL_SCRIPT = """
import sys, workloads
for op in workloads.plan(sys.argv[1], int(sys.argv[2]))["ops"]:
    print(" ".join(op["argv"]) if op["kind"] == "cli"
          else f"ga n={op['n']} {op['metric']} {op['density']} {op['scalars']}")
"""


def op_labels(root: Path, workload: str, seed: int) -> list[str]:
    """The operations of root's own workload plan, in run order, a cli op named by its argv."""
    cmd = [sys.executable, "-c", LABEL_SCRIPT, workload, str(seed)]
    proc = subprocess.run(cmd, cwd=root / "perfbench", capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def run_once(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return {**parse_run(proc.stdout), "op_s": op_latencies(root, workload)}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def op_rows(pairs: list[tuple[dict, dict]], labels: list[str]) -> list[dict]:
    """Per operation: its label and each side's median over the pairs of its latency."""
    return [
        {
            "op": label,
            "base_s": statistics.median(a["op_s"][i] for a, _ in pairs),
            "change_s": statistics.median(b["op_s"][i] for _, b in pairs),
        }
        for i, label in enumerate(labels)
    ]


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's spread and the pairs the change won; failed counts."""
    metrics = {}
    for name, direction in better.items():
        base = [a["metrics"][name] for a, _ in pairs]
        change = [b["metrics"][name] for _, b in pairs]
        wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(base, change))
        metrics[name] = {
            "better": direction,
            "base": spread(base),
            "change": spread(change),
            "change_wins": wins,
        }
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "failed": {"base": sum(a["failed"] for a, _ in pairs), "change": sum(b["failed"] for _, b in pairs)},
    }


def benchmark_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def end_to_end_directions(spec: dict) -> dict[str, str]:
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    roots, pairs = (args.base, args.change), []
    labels = op_labels(args.base, args.workload, args.seed)
    if op_labels(args.change, args.workload, args.seed) != labels:
        parser.error(f"the two trees plan different operations for {args.workload} seed {args.seed}")
    for i in range(args.pairs):
        runs = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side] = run_once(roots[side], args.workload, args.seed)
        pairs.append(tuple(runs))
        base, change = (run["metrics"]["wall_s"] for run in runs)
        print(f"pair {i + 1}/{args.pairs}: wall_s base {base:.4g} s, change {change:.4g} s", flush=True)

    spec = benchmark_spec()
    summary = summarize(pairs, end_to_end_directions(spec))
    # one file gathers every workload; a rerun of a workload replaces its entry
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.workload] = {
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "environment": pairs[0][1]["environment"],
        **summary,
        "ops": op_rows(pairs, labels),
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name}: base {m['base']['median']:.4g}, change {m['change']['median']:.4g}, "
              f"change better in {m['change_wins']}/{summary['pairs']} pairs")
    for row in record[args.workload]["ops"]:
        print(f"{row['base_s'] * 1e3:9.3f} ms -> {row['change_s'] * 1e3:9.3f} ms  {row['op']}")
    ok = all(run["correct"] for pair in pairs for run in pair)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
