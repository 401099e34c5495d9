"""Self-tests of the benchmark's own machinery.

Run them all with ``python3 perfbench/run.py --self-test``.  The cheap
ones (generator determinism, failure counting, self-time arithmetic) also
run at the start of every benchmark run and make it report
``"correct": false`` if they fail.  Each test returns a list of problems;
an empty list is a pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
import workloads


def generators_deterministic(workload: str, seed: int) -> list[str]:
    first = workloads.plan_bytes(workload, seed)
    problems = []
    if workloads.plan_bytes(workload, seed) != first:
        problems.append(f"{workload}: seed {seed} gave different inputs on a second call")
    if workloads.plan_bytes(workload, seed + 1) == first:
        problems.append(f"{workload}: seeds {seed} and {seed + 1} gave identical inputs")
    return problems


def failures_counted() -> list[str]:
    """A failing check row, a nonzero exit and a missing report all count."""
    problems = []
    op = {"kind": "cli", "argv": ["dirac", "--scenario", "hermiticity"]}

    def report(status):
        return {"command": "dirac", "checks": [
            {"name": "momentum-hermiticity", "status": "pass"},
            {"name": "hamiltonian-hermiticity", "status": status},
        ]}

    cases = [
        ("passing report, exit 0", report("pass"), {"rc": 0}, False),
        ("failing row", report("fail"), {"rc": 1}, True),
        ("failing row despite exit 0", report("fail"), {"rc": 0}, True),
        ("nonzero exit", report("pass"), {"rc": 2}, True),
        ("escaped exception", None, {"rc": None, "error": "Traceback\nValueError: boom"}, True),
        ("missing report", None, {"rc": 0}, True),
    ]
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent / ".perfbench") as tmp:
        for label, rep, record, should_fail in cases:
            out = Path(tmp) / label.replace(" ", "_").replace(",", "")
            out.mkdir()
            if rep is not None:
                (out / "dirac_report.json").write_text(json.dumps(rep))
            reasons = checks.op_failures(op, record, out)
            if bool(reasons) != should_fail:
                problems.append(f"failure counting, {label}: got {reasons or 'pass'}")
    return problems


def self_time_arithmetic() -> list[str]:
    """Synthetic nested spans with known self times."""
    # A [0,10] has children B [1,4] and C [5,9]; C has child D [6,7]; E [11,12]
    spans = {
        "name": np.array([0, 1, 2, 3, 4]),
        "parent": np.array([-1, 0, 0, 2, -1]),
        "op": np.zeros(5, dtype=int),
        "start": np.array([0.0, 1.0, 5.0, 6.0, 11.0]),
        "end": np.array([10.0, 4.0, 9.0, 7.0, 12.0]),
    }
    got = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    want = np.array([3.0, 3.0, 3.0, 1.0, 1.0])
    problems = []
    if not np.allclose(got, want):
        problems.append(f"self times {got.tolist()} != {want.tolist()}")
    # the same arithmetic through the recording path, with a fake clock
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    rec = tracing.Tracer(clock=lambda: next(ticks))
    a, b, c, d = (rec.intern(x) for x in "ABCD")
    ia = rec.open(a)
    rec.close(rec.open(b))
    ic = rec.open(c)
    rec.close(rec.open(d))
    rec.close(ic)
    rec.close(ia)
    arr = rec.arrays()
    got = tracing.self_times(arr["parent"], arr["start"], arr["end"])
    if not np.allclose(got, [3.0, 3.0, 3.0, 1.0]) or arr["parent"].tolist() != [-1, 0, 0, 2]:
        problems.append(f"recorded spans give self times {got.tolist()}, parents {arr['parent'].tolist()}")
    return problems


# short operations from three layers for the in-process tracing test
TRANSPARENCY_ARGVS = (
    ["verify", "--signature", "1,1", "--signature", "0,2"],
    ["spinor-rep", "--signature", "2,1"],
    ["dirac", "--scenario", "kg-roundtrip", "--grid", "64"],
)


def tracing_transparent(root: Path) -> list[str]:
    """Traced and untraced calls write the same outputs; every binding comes back.

    Also checks that the per-layer metric set is complete.
    """
    sys.path.insert(0, str(root / "src"))
    from clifbundle import cli

    modules = tracing.clifbundle_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    methods = {
        (m.__name__, k, a): member
        for m in modules for k, v in vars(m).items() if isinstance(v, type)
        for a, member in vars(v).items()
    }
    problems = []
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as tmp:
        digests = {}
        for traced in (False, True):
            rec = tracing.Tracer()
            if traced:
                rec.install()
            try:
                for i, argv in enumerate(TRANSPARENCY_ARGVS):
                    out = Path(tmp) / f"{traced}-{i}"
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(list(argv) + ["--out", str(out)])
                    digests.setdefault(i, []).append(checks.output_digest(out))
            finally:
                rec.uninstall()
        problems += [
            f"traced outputs differ for {' '.join(TRANSPARENCY_ARGVS[i])}"
            for i, pair in digests.items() if pair[0] != pair[1]
        ]
    seen = {rec.names[i] for i in rec.arrays()["name"]}
    for wanted in ("cli.main", "ga.clifford", "exact.rref", "spinor.verify_iso_table",
                   "fields.klein_gordon_hamiltonian", "report.Report.to_json"):
        if wanted not in seen:
            problems.append(f"no span recorded for {wanted}")
    missing = set(tracing.PER_LAYER_METRICS) - set(rec.metrics()) - {"trace.overhead_ratio"}
    problems += [f"per-layer metric missing: {name}" for name in sorted(missing)]
    problems += [f"still wrapped after uninstall: {name}" for name in tracing.leftover_wrappers()]
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    problems += [f"binding changed: {'.'.join(key)}" for key in before if after.get(key) is not before[key]]
    for (mod, cls, attr), member in methods.items():
        if vars(getattr(sys.modules[mod], cls)).get(attr) is not member:
            problems.append(f"method changed: {mod}.{cls}.{attr}")
    return problems


def run_all(root: Path, seed: int) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        problems += generators_deterministic(workload, seed)
    problems += failures_counted()
    problems += self_time_arithmetic()
    problems += tracing_transparent(root)
    return problems
