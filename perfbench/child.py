"""One pass of a workload, in a fresh Python process.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

The plan names the repository root, the operations and the output
directory.  The pass imports clifbundle from ``<root>/src``, prepares the
operands, runs every operation once in plan order and writes the latencies,
exit codes and peak RSS to RESULT.json.  ``ready_at`` is the
``time.perf_counter`` reading when the first operation can start; on Linux
that clock is CLOCK_MONOTONIC, so the parent subtracts its own reading
taken just before the spawn to get the set-up time.  With ``"trace": true``
the pass runs under the tracer and also reports per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

FLOAT_REL_TOL = 1e-12


def _import_clifbundle(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import clifbundle
    from clifbundle import cli, ga

    where = Path(clifbundle.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"clifbundle imported from {where}, not from {src}")
    return cli, ga


def _scalar(value):
    return Fraction(value) if isinstance(value, str) else float(value)


def _prepare_ga(op: dict, ga) -> dict:
    n = op["n"]
    exact = op["scalars"] == "exact"
    gram = [[(Fraction(x) if exact else float(x)) for x in row] for row in op["gram"]]
    metric = ga.Metric.from_gram(np.array(gram, dtype=object if exact else float))

    def mv(terms):
        return ga.Multivector(n, {int(m): _scalar(c) for m, c in terms})

    return {
        "exact": exact,
        "metric": metric,
        "a": mv(op["a"]),
        "b": mv(op["b"]),
        "c": mv(op["c"]),
        "v": mv(op["v"]),
    }


def _digest(mv) -> str:
    text = repr(sorted((m, str(c)) for m, c in mv.terms.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _law(lhs, rhs, exact: bool) -> dict:
    if exact:
        residual = 0.0 if lhs == rhs else 1.0
        tolerance = 0.0
    else:
        scale = max(lhs.max_abs(), rhs.max_abs())
        residual = float((lhs - rhs).max_abs() / scale) if scale else 0.0
        tolerance = FLOAT_REL_TOL
    return {
        "residual": residual,
        "tolerance": tolerance,
        "status": "pass" if residual <= tolerance else "fail",
    }


def run_ga(ga, p: dict) -> dict:
    """Both Clifford-product laws on one operand triple."""
    metric = p["metric"]
    a, b, c, v = p["a"], p["b"], p["c"], p["v"]
    left = ga.clifford(ga.clifford(a, b, metric), c, metric)
    right = ga.clifford(a, ga.clifford(b, c, metric), metric)
    va = ga.clifford(v, a, metric)
    split = ga.wedge(v, a) + ga.interior(v, a, metric)
    return {
        "checks": {
            "associativity": _law(left, right, p["exact"]),
            "vector-product-split": _law(va, split, p["exact"]),
        },
        "digests": {"abc": _digest(left), "va": _digest(va)},
    }


def main(argv: list[str]) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text())
    cli, ga = _import_clifbundle(Path(plan["root"]))
    ops = [
        _prepare_ga(op, ga) if op["kind"] == "ga" else op
        for op in plan["ops"]
    ]
    out_root = Path(plan["out"])
    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ready_at = time.perf_counter()

    records = []
    for i, op in enumerate(ops):
        out_dir = out_root / f"op{i:03d}"
        if tracer is not None:
            tracer.op_id = i
        rc, payload, error = None, None, None
        start = time.perf_counter()
        try:
            if "argv" in op:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    rc = cli.main(op["argv"] + ["--out", str(out_dir)])
                error = err.getvalue().strip() or None
            else:
                payload = run_ga(ga, op)
                rc = 0
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaping exception fails the operation, not the pass
            error = traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
        if payload is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "ga_result.json").write_text(json.dumps(payload, sort_keys=True) + "\n")
        records.append({"latency_s": latency, "rc": rc, "error": error})
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ready_at": ready_at, "ops": records, "peak_rss_mib": peak_rss_kib / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["leftover_wrappers"] = tracing.leftover_wrappers()
        result["layer_metrics"] = tracer.metrics()
        result["spans"] = len(tracer.span_start)
        tracer.dump(out_root / "spans.npz")
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
