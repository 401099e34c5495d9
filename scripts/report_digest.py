#!/usr/bin/env python3
"""Digest the reports of a fixed set of CLI runs, for refactors that must not move them.

Usage: python scripts/report_digest.py [ROOT]

Imports clifbundle from ROOT/src (default: this checkout), runs each command
line in-process from ROOT, and prints one line per run: the exit code, a
sha256 and the command.  The hash covers every file the run wrote, with the
reports' wall_time_s dropped (the rule of perfbench/checks.output_digest),
plus its stdout, with ROOT replaced by a placeholder.  Two checkouts whose
reports agree byte-for-byte print identical lines.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

from checks import output_digest  # noqa: E402

RUNS = [
    ["verify"],
    ["verify", "--signature", "3,1", "--signature", "1,3", "--signature", "2,2"],
    ["spinor-rep", "--signature", "3,1"],
    # division algebra H: f = 1, the whole algebra is the minimal ideal
    ["spinor-rep", "--signature", "0,2"],
    ["spinor-rep", "--signature", "0,3"],
    ["spinor-rep", "--signature", "1,3"],
    ["spinor-rep", "--signature", "4,1"],
    # real M_8(R): three factors e1, e24, e35
    ["spinor-rep", "--signature", "3,3"],
    # quaternionic M_4(H): 16-dimensional ideal, above the old 2^(n/2) stop
    ["spinor-rep", "--signature", "2,4"],
    # 2 x M_4(H): three factors e1, e23, e4567, down to the 16-dimensional ideal
    ["spinor-rep", "--signature", "2,5"],
    ["transport", "--scenario", "scenarios/qubit.json"],
    ["transport", "--scenario", "scenarios/qubit_gauged.json"],
    # config.tolerances: transport records the merged table, dirac only the overrides
    ["transport", "--scenario", "scenarios/qubit_gauged.json", "--tol", "unitarity=1e-9"],
    # a tabulated H, one sample complex, and a tabulated trivialization: both interpolated
    ["transport", "--scenario", "scenarios/tabulated.json"],
    ["dirac", "--scenario", "dispersion"],
    ["dirac", "--scenario", "dispersion", "--grid", "8,8,8"],
    ["dirac", "--scenario", "dispersion", "--grid", "256",
     "--potential", "plane-wave-gauge", "--charge", "0.5"],
    # 8 sites, fewer than the stencil's 9 offsets: the ring stencil's aliased offsets
    ["dirac", "--scenario", "dispersion", "--grid", "8",
     "--potential", "constant-E", "--charge", "0.5"],
    # a site-dependent coupling on three axes: the step loop's stacked derivative matmul
    ["dirac", "--scenario", "dispersion", "--grid", "8,8,8",
     "--potential", "plane-wave-gauge", "--charge", "0.5"],
    # A_0 alone varies by site: the ring stencil of an operator with no axis coupling
    ["dirac", "--scenario", "dispersion", "--potential", "constant-E", "--charge", "0.5"],
    # massless: the k = 0 mode has omega = 0 and takes the limit of the closed form
    ["dirac", "--scenario", "dispersion", "--mass", "0"],
    ["dirac", "--scenario", "kg-roundtrip"],
    # the largest ||R(k)|| of the Klein-Gordon doublet among these runs
    ["dirac", "--scenario", "kg-roundtrip", "--grid", "1024"],
    # the step shrinks to spacing/4 below 1e-3 (exit 2 before the step was derived)
    ["dirac", "--scenario", "kg-roundtrip", "--grid", "2048"],
    ["dirac", "--scenario", "hermiticity"],
    ["dirac", "--scenario", "hermiticity", "--tol", "hermiticity=1e-9"],
    ["dirac", "--scenario", "dalembert", "--refine", "2"],
    ["dirac", "--scenario", "wrap-check"],
]


def run_all(root: Path, out: Path):
    """Run every RUNS entry in-process from root, run NN writing to out/runNN.

    Imports clifbundle from root/src, and refuses one imported from elsewhere.
    Yields (run, exit code, stdout) per run; an exception that escapes
    cli.main stands in for the exit code by its type name, with its
    traceback on stderr.
    """
    src = root / "src"
    sys.path.insert(0, str(src))
    import clifbundle
    from clifbundle import cli

    if src not in Path(clifbundle.__file__).resolve().parents:
        raise SystemExit(f"clifbundle imported from {clifbundle.__file__}, not from {src}")
    os.chdir(root)
    for i, run in enumerate(RUNS):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                rc = cli.main(run + ["--out", str(out / f"run{i:02d}")])
            # an escaped exception is a result too: an older tree may let one escape
            except Exception as exc:
                traceback.print_exc()
                rc = type(exc).__name__
        yield run, rc, stdout.getvalue()


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else REPO).resolve()
    marker = str(root).encode()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (run, rc, stdout) in enumerate(run_all(root, Path(tmp))):
            out_dir = Path(tmp) / f"run{i:02d}"
            for path in out_dir.rglob("*"):
                if path.is_file():
                    path.write_bytes(path.read_bytes().replace(marker, b"<root>"))
            h = hashlib.sha256(output_digest(out_dir).encode())
            h.update(stdout.encode().replace(marker, b"<root>"))
            print(f"{rc} {h.hexdigest()} {' '.join(run)}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
