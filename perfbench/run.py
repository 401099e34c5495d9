"""clifbundle benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a clifbundle checkout:

    python3 perfbench/run.py --workload spinor-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --self-test     # the benchmark's own self-tests

Load model: a closed loop with one client.  This process generates the
workload's inputs from the seed, then starts one fresh Python process per
pass (``child.py``), one at a time; each pass imports clifbundle and runs
the operation list once.  An untraced run repeats passes for about
``--seconds``: another pass starts while it is expected to end within that
time, and there are at least MIN_PASSES.  It reports medians.  A traced run
makes one untraced and one traced pass and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import selftest
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"
MIN_PASSES = 2
# a run must exit within 180 s; leave room for verification and clean-up
RUN_DEADLINE_S = 165.0

# end-to-end metrics in the result line; BENCHMARK.json bounds each of them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# environment stamp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> tuple[str, object]:
    """BLAS library name from numpy's build config, and its live thread count."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, passes: dict) -> dict:
    blas_name, blas_threads = _blas()
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "commit": _git_commit(),
        "seed": seed,
        "passes_per_workload": passes,
    }


# ---------------------------------------------------------------------------
# passes


def _write_inputs(work: Path, plan: dict) -> list[dict]:
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for name, data in plan["files"].items():
        (inputs / name).write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    ops = []
    for op in plan["ops"]:
        if op["kind"] == "cli":
            op = dict(op, argv=[a.replace(workloads.INPUTS_DIR, str(inputs)) for a in op["argv"]])
        ops.append(op)
    return ops


def run_pass(work: Path, tag: str, ops: list[dict], trace: bool, deadline: float) -> dict:
    """One fresh process runs every operation once; verify what it wrote."""
    out = work / tag
    out.mkdir()
    plan_path, result_path = work / f"{tag}-plan.json", work / f"{tag}-result.json"
    plan_path.write_text(json.dumps({"root": str(ROOT), "ops": ops, "out": str(out), "trace": trace}))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(plan_path), str(result_path)]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {tag} did not finish before the run deadline")
    elapsed = time.perf_counter() - spawned_at
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"pass {tag} exited with {proc.returncode}:\n{stderr.strip()}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready_at"] - spawned_at
    result["elapsed_s"] = elapsed
    result["failures"] = [
        checks.op_failures(op, rec, out / f"op{i:03d}") for i, (op, rec) in enumerate(zip(ops, result["ops"]))
    ]
    result["digests"] = [checks.output_digest(out / f"op{i:03d}") for i in range(len(ops))]
    spans = out / "spans.npz"
    if spans.exists():
        shutil.move(str(spans), str(STATE_DIR / f"spans-{tag}.npz"))
    shutil.rmtree(out)
    return result


def _describe(op: dict) -> str:
    if op["kind"] == "cli":
        return " ".join(Path(a).name if a.endswith(".json") else a for a in op["argv"])
    return f"ga n={op['n']} {op['metric']} {op['density']} {op['scalars']}"


def _tally(ops: list[dict], passes: list[dict]) -> tuple[int, int, list[str], list[str]]:
    """attempted, failed, failure descriptions, consistency problems."""
    attempted = failed = 0
    failures = []
    for p in passes:
        for op, reasons in zip(ops, p["failures"]):
            attempted += 1
            if reasons:
                failed += 1
                failures.append(f"{_describe(op)}: {'; '.join(reasons)}")
    problems = []
    for i, op in enumerate(ops):
        if len({p["digests"][i] for p in passes}) > 1:
            problems.append(f"outputs of '{_describe(op)}' differ between passes")
    return attempted, failed, failures, problems


def _sum_of_medians(passes: list[dict]) -> float:
    per_op = zip(*[[r["latency_s"] for r in p["ops"]] for p in passes])
    return sum(statistics.median(lat) for lat in per_op)


# ---------------------------------------------------------------------------
# runs


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of one workload; returns metrics and verdicts."""
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    problems = selftest.generators_deterministic(workload, seed)
    problems += selftest.failures_counted()
    problems += selftest.self_time_arithmetic()
    work = STATE_DIR / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = _write_inputs(work, workloads.plan(workload, seed))
        passes = []
        if trace:
            passes.append(run_pass(work, f"{workload}-untraced", ops, False, deadline))
            traced = run_pass(work, f"{workload}-traced", ops, True, deadline)
            passes.append(traced)
        else:
            measuring_since = time.perf_counter()
            while True:
                passes.append(run_pass(work, f"p{len(passes)}", ops, False, deadline))
                now = time.perf_counter()
                mean_pass = (now - measuring_since) / len(passes)
                if len(passes) >= MIN_PASSES and now + mean_pass > measuring_since + seconds:
                    break
                if now + 1.5 * mean_pass > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, failures, consistency = _tally(ops, passes)
    problems += consistency
    result = {
        "workload": workload,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if trace:
        untraced_wall = sum(r["latency_s"] for r in passes[0]["ops"])
        traced_wall = sum(r["latency_s"] for r in traced["ops"])
        layer = dict(traced["layer_metrics"])
        layer["trace.overhead_ratio"] = traced_wall / untraced_wall
        problems += [f"still wrapped after the traced pass: {w}" for w in traced["leftover_wrappers"]]
        missing = set(tracing.PER_LAYER_METRICS) - set(layer)
        problems += [f"per-layer metric missing: {m}" for m in sorted(missing)]
        result["metrics"] = {
            name: {"value": layer[name], "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER_METRICS.items() if name in layer
        }
        result["spans"] = traced["spans"]
    else:
        latencies = [r["latency_s"] for p in passes for r in p["ops"]]
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": _sum_of_medians(passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        result["metrics"] = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        result["op_p50_s"] = statistics.median(latencies)
        result["failed_ratio"] = failed / attempted
        result["latency_samples"] = len(latencies)
        result["pass_latencies_s"] = [[r["latency_s"] for r in p["ops"]] for p in passes]
        result["pass_setup_s"] = [p["setup_s"] for p in passes]
    result["problems"] = problems
    result["correct"] = failed == 0 and not problems
    return result


def _print_result(res: dict) -> None:
    head = f"[{res['workload']}] {res['passes']} passes x {res['ops_per_pass']} ops"
    if "latency_samples" in res:
        head += f", op latency median over {res['latency_samples']} samples"
    print(head)
    for name, m in res["metrics"].items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    if "failed_ratio" in res:
        print(f"  {'op_p50_s':52s} {res['op_p50_s']:.6g} s")
        print(f"  {'failed_ratio':52s} {res['failed_ratio']:.6g} ratio ({res['failed']}/{res['attempted']})")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    for line in res["problems"]:
        print(f"  PROBLEM {line}")


def _check_checkout() -> None:
    for needed in ("src/clifbundle/__init__.py", "src/clifbundle/cli.py", *workloads.SHIPPED_SCENARIOS):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{ROOT} is not a clifbundle checkout: {needed} is missing")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: traced run with per-layer metrics "
                             "(default with --workload all: both)")
    parser.add_argument("--self-test", action="store_true", help="run the benchmark's self-tests")
    args = parser.parse_args(argv)

    try:
        _check_checkout()
        STATE_DIR.mkdir(exist_ok=True)
        if args.self_test:
            problems = selftest.run_all(ROOT, args.seed)
            for line in problems:
                print(f"FAIL {line}")
            print(f"self-test: {'ok' if not problems else f'{len(problems)} problem(s)'}")
            return 0 if not problems else 1
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        modes = (False, True) if args.trace is None else (bool(args.trace),)
        results = [measure(w, args.seed, args.seconds, t) for w in names for t in modes]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = {r["workload"]: r["passes"] for r in results if "latency_samples" in r}
    env = environment(args.seed, passes)
    for res in results:
        _print_result(res)
        kind = "traced" if "latency_samples" not in res else "untraced"
        (STATE_DIR / f"results-{res['workload']}-{kind}.json").write_text(
            json.dumps(dict(res, environment=env), indent=1, sort_keys=True) + "\n"
        )
    print("environment: " + json.dumps(env, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": m for r in results for name, m in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
