#!/usr/bin/env python3
"""Compare the reports of report_digest's CLI runs between two checkouts.

Usage: python scripts/report_diff.py ROOT_A ROOT_B

Runs every command line of report_digest.RUNS (this checkout's list) in
each tree, in one subprocess per tree that imports clifbundle from
ROOT/src.  For each run it prints whether the exit codes agree, whether
every check row agrees in name and status, the largest |delta residual|
over the check rows and the largest |delta| over the numeric cells of the
CSV files the run wrote.  A CSV file or cell present on one side only,
or a text cell that differs, counts as inf.  Under each run it names every
field of the JSON files the run wrote that differs, wall_time_s aside, as
FILE:/key/.../key with check rows keyed by name (for example
spinor_rep_report.json:/checks/idempotent-search/details); a list of
values is one field.  Exits 1 if any exit code or check status differs,
0 otherwise.
"""

import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from report_digest import RUNS, run_all

EXIT_CODES = "exit_codes.json"


def _delta(a, b) -> float:
    """|a - b| for two floats, 0 for equal values (NaN equals NaN), inf otherwise."""
    if a == b or (a != a and b != b):
        return 0.0
    if not (isinstance(a, float) and isinstance(b, float)):
        return math.inf
    d = abs(a - b)
    return d if math.isfinite(d) else math.inf


def _checks(run_dir: Path) -> dict:
    rows = {}
    for path in sorted(run_dir.glob("*_report.json")):
        for check in json.loads(path.read_text())["checks"]:
            rows[(path.name, check["name"])] = (check["status"], check["residual"])
    return rows


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_cells(run_dir: Path) -> dict:
    cells = {}
    for path in sorted(run_dir.rglob("*.csv")):
        with open(path, newline="") as fh:
            for r, row in enumerate(csv.reader(fh)):
                for c, text in enumerate(row):
                    cells[(str(path.relative_to(run_dir)), r, c)] = _cell(text)
    return cells


def _fields(obj, path=""):
    """(path, value) of every leaf: dicts by key, lists of named rows by name."""
    if isinstance(obj, dict):
        items = obj.items()
    elif obj and isinstance(obj, list) and all(isinstance(x, dict) and "name" in x for x in obj):
        items = ((x["name"], x) for x in obj)
    else:
        yield path, json.dumps(obj, sort_keys=True)
        return
    for key, value in items:
        yield from _fields(value, f"{path}/{key}")


def field_diffs(run_a: Path, run_b: Path) -> list[str]:
    """FILE:/path of every JSON field that differs between two run directories."""
    names = []
    files = {p.relative_to(d) for d in (run_a, run_b) for p in d.rglob("*.json")}
    for rel in sorted(files):
        if not ((run_a / rel).is_file() and (run_b / rel).is_file()):
            names.append(f"{rel}: written on one side only")
            continue
        a, b = (json.loads((run_dir / rel).read_text()) for run_dir in (run_a, run_b))
        for obj in (a, b):
            if isinstance(obj, dict):
                obj.pop("wall_time_s", None)
        a, b = dict(_fields(a)), dict(_fields(b))
        names += [f"{rel}:{key}" for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    return names


def _max_delta(a: dict, b: dict, value) -> float:
    worst = 0.0
    for key in a.keys() | b.keys():
        if key not in a or key not in b:
            return math.inf
        worst = max(worst, _delta(value(a[key]), value(b[key])))
    return worst


def compare(out_a: Path, out_b: Path) -> bool:
    """Print one line per run; True if every exit code and status agrees."""
    codes_a = json.loads((out_a / EXIT_CODES).read_text())
    codes_b = json.loads((out_b / EXIT_CODES).read_text())
    agree = True
    print(f"{'exit':<6}{'checks':<8}{'max|d residual|':>16}{'max|d csv|':>12}  run")
    for i, run in enumerate(RUNS):
        dir_a, dir_b = out_a / f"run{i:02d}", out_b / f"run{i:02d}"
        checks_a, checks_b = _checks(dir_a), _checks(dir_b)
        same_exit = codes_a[i] == codes_b[i]
        same_checks = {k: s for k, (s, _) in checks_a.items()} == {
            k: s for k, (s, _) in checks_b.items()
        }
        agree = agree and same_exit and same_checks
        d_res = _max_delta(checks_a, checks_b, lambda row: row[1])
        d_csv = _max_delta(_csv_cells(dir_a), _csv_cells(dir_b), lambda cell: cell)
        print(
            f"{'same' if same_exit else 'DIFF':<6}{'same' if same_checks else 'DIFF':<8}"
            f"{d_res:16.3e}{d_csv:12.3e}  {' '.join(run)}",
            flush=True,
        )
        for name in field_diffs(dir_a, dir_b):
            print(f"{'':<14}field {name}", flush=True)
    return agree


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--run-tree":
        # child side: one tree's runs, and their exit codes for compare
        out = Path(argv[3])
        codes = [rc for _, rc, _ in run_all(Path(argv[2]).resolve(), out)]
        (out / EXIT_CODES).write_text(json.dumps(codes))
        return 0
    if len(argv) != 3:
        raise SystemExit("usage: report_diff.py ROOT_A ROOT_B")
    roots = [Path(a).resolve() for a in argv[1:]]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "a", Path(tmp) / "b"]
        children = [
            subprocess.Popen([sys.executable, __file__, "--run-tree", str(root), str(out)])
            for root, out in zip(roots, outs)
        ]
        for root, child in zip(roots, children):
            if child.wait() != 0:
                raise SystemExit(f"the runs in {root} failed (exit {child.returncode})")
        return 0 if compare(*outs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
