"""Witness defects for report rows.

A law check is worth something only if a plausible defect makes it fail.
Each case patches one defect into the code under test, runs one CLI
command, and asserts exit 1 with exactly the rows expected to fail.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from clifbundle import transport as tr
from clifbundle.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
_rk4_step, _step_grid, _power_increment = tr.rk4_step, tr._step_grid, tr._power_increment


def _rk4_with_minus_h(apply_h, y, time, step):
    return _rk4_step(lambda at, state: -apply_h(at, state), y, time, step)


def _rk4_without_k4(apply_h, y, time, step):
    k1 = -1j * apply_h(time, y)
    k2 = -1j * apply_h(time + step / 2, y + step / 2 * k1)
    k3 = -1j * apply_h(time + step / 2, y + step / 2 * k2)
    return y + step / 6 * (k1 + 2 * k2 + 3 * k3)


def _power_one_factor_short(inc, n):
    return _power_increment(inc, max(n - 1, 0))


def _power_square_without_product(inc, n):
    acc = np.zeros_like(inc)
    while n:
        if n & 1:
            acc = acc + inc + inc @ acc
        n >>= 1
        if n:
            inc = 2 * inc
    return acc


def _bundle_hamiltonian_without_inverse(transport, t, h=1e-4):
    t0 = transport.path.t_start
    return 1j * (transport.operator(t + h, t0) - transport.operator(t - h, t0)) / (2 * h)


def _step_grid_always_forward(s, t, dt):
    steps, step = _step_grid(s, t, dt)
    return steps, abs(step)


# each row kind: a defect patched into the layer under test, the run that
# must then exit 1, and exactly the rows that fail.  The constant H of
# qubit.json takes evolve's matrix power and tabulated.json its step blocks,
# so a stepper defect runs on both.
@pytest.mark.parametrize(
    "name, defect, scenario, failing",
    [
        ("rk4_step", _rk4_with_minus_h, "qubit.json", {"connection-vs-hamiltonian"}),
        ("rk4_step", _rk4_with_minus_h, "tabulated.json", {"connection-vs-hamiltonian"}),
        # the cocycle triple with a backward leg sees both defects of the stepper:
        # a step that is not inverted by the step back, and a step that runs forward
        ("rk4_step", _rk4_without_k4, "qubit.json",
         {"cocycle", "unitarity", "round-trip", "matrix-bundle-hamiltonian"}),
        ("rk4_step", _rk4_without_k4, "tabulated.json",
         {"cocycle", "unitarity", "round-trip", "matrix-bundle-hamiltonian"}),
        # one step too few still gives a unitary U and an exact inverse pair
        ("_power_increment", _power_one_factor_short, "qubit.json",
         {"cocycle", "connection-vs-hamiltonian", "matrix-bundle-hamiltonian"}),
        ("_power_increment", _power_square_without_product, "qubit.json",
         {"cocycle", "unitarity", "round-trip", "matrix-bundle-hamiltonian"}),
        ("matrix_bundle_hamiltonian", _bundle_hamiltonian_without_inverse, "qubit.json",
         {"matrix-bundle-hamiltonian"}),
        ("_step_grid", _step_grid_always_forward, "qubit.json",
         {"cocycle", "round-trip", "connection-vs-hamiltonian", "matrix-bundle-hamiltonian"}),
        ("_step_grid", _step_grid_always_forward, "tabulated.json",
         {"cocycle", "round-trip", "connection-vs-hamiltonian", "matrix-bundle-hamiltonian"}),
    ],
    ids=[
        "minus-h", "minus-h-tabulated", "no-k4", "no-k4-tabulated", "power-short",
        "power-square-without-product", "no-inverse", "forward-qubit", "forward-tabulated",
    ],
)
def test_transport_rows_witness_their_defect(tmp_path, monkeypatch, name, defect, scenario, failing):
    monkeypatch.setattr(tr, name, defect)
    assert main(["transport", "--scenario", str(SCENARIOS / scenario), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "transport_report.json").read_text())
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing
