"""Output verification: which operations failed, and output digests.

An operation fails on any of: a nonzero exit code, an exception that
escaped, a missing or unreadable report, a report without check rows, any
check row with ``"status": "fail"``, or a failed independent check below.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

REPORT_FILES = {
    "verify": "verify_report.json",
    "spinor-rep": "spinor_rep_report.json",
    "transport": "transport_report.json",
    "dirac": "dirac_report.json",
    "ga": "ga_result.json",
}
SERIES_ROWS = 21  # `transport` writes psi at 21 times after a header row
GAMMA_TOL = 1e-9


def op_command(op: dict) -> str:
    return op["argv"][0] if op["kind"] == "cli" else "ga"


def _signature(argv: list[str]) -> tuple[int, int]:
    p, q = argv[argv.index("--signature") + 1].split(",")
    return int(p), int(q)


def _gamma_failures(report: dict, p: int, q: int) -> list[str]:
    """Recheck g^mu g^nu + g^nu g^mu = 2 eta^{mu nu} I from the written matrices."""
    n = p + q
    mats = report.get("matrices", {})
    if len(mats) != n:
        return [f"matrices: expected {n} gammas, found {len(mats)}"]
    gammas = []
    for mu in range(n):
        flat = np.asarray(mats[f"gamma_{mu + 1}"], dtype=float)
        side = int(round(np.sqrt(flat.size)))
        gammas.append(flat.reshape(side, side))
    eye = np.eye(gammas[0].shape[0])
    eta = [1.0] * p + [-1.0] * q
    worst = 0.0
    for mu in range(n):
        for nu in range(n):
            target = 2 * eta[mu] * eye if mu == nu else 0 * eye
            acomm = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
            worst = max(worst, float(np.max(np.abs(acomm - target))))
    return [] if worst <= GAMMA_TOL else [f"matrices: anticommutator residual {worst:.3e}"]


def op_failures(op: dict, record: dict, out_dir: Path) -> list[str]:
    """Reasons one executed operation failed; empty when it passed."""
    reasons = []
    if record.get("error") and record.get("rc") is None:
        reasons.append("exception: " + record["error"].strip().splitlines()[-1])
    elif record.get("rc") != 0:
        detail = (record.get("error") or "").strip().splitlines()
        reasons.append(f"exit code {record.get('rc')}" + (f" ({detail[-1]})" if detail else ""))
    command = op_command(op)
    path = out_dir / REPORT_FILES[command]
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return reasons + [f"report {path.name} missing or unreadable: {exc.__class__.__name__}"]
    if command == "ga":
        rows = [{"name": k, **v} for k, v in sorted(report.get("checks", {}).items())]
    else:
        rows = report.get("checks", [])
        if report.get("command") != command:
            reasons.append(f"report command {report.get('command')!r} != {command!r}")
    if not rows:
        reasons.append("report has no check rows")
    reasons += [f"check {row.get('name')} failed" for row in rows if row.get("status") != "pass"]
    if command == "spinor-rep":
        reasons += _gamma_failures(report, *_signature(op["argv"]))
    if command == "transport":
        try:
            with open(out_dir / "psi_series.csv", newline="") as fh:
                n_rows = sum(1 for _ in csv.reader(fh)) - 1
        except OSError:
            n_rows = -1
        if n_rows != SERIES_ROWS:
            reasons.append(f"psi_series.csv has {n_rows} rows, expected {SERIES_ROWS}")
    return reasons


def output_digest(out_dir: Path) -> str:
    """Hash of every file an operation wrote, ignoring reports' wall_time_s."""
    h = hashlib.sha256()
    if not out_dir.is_dir():
        return "missing"
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            try:
                obj = json.loads(data)
            except ValueError:
                obj = None
            if isinstance(obj, dict):
                obj.pop("wall_time_s", None)
                data = json.dumps(obj, sort_keys=True).encode()
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + data + b"\0")
    return h.hexdigest()
