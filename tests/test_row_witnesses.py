"""Witness defects for report rows.

A law check is worth something only if a plausible defect makes it fail.
Each case patches one defect into the code under test, runs one CLI
command, and asserts exit 1 with exactly the rows expected to fail.
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from clifbundle import cli
from clifbundle import fields as fl
from clifbundle import ga
from clifbundle import spinor as sp
from clifbundle import transport as tr
from clifbundle.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
_rk4_step, _step_grid, _power_increment = tr.rk4_step, tr._step_grid, tr._power_increment
_minkowski_gamma_set, _covariant_hessian = fl.minkowski_gamma_set, fl._covariant_hessian
_ring_windows = fl._ring_windows


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


# no other row of the default verify reads either entry: Cl^0(1,1) = Cl(1,0)
# has p - q = 1, and Cl^0(3,1) = Cl(3,0) has p - q = 3
@pytest.mark.parametrize(
    "index, wrong, failing", [(1, "C", "cl11-centre"), (3, "R", "cl31-centre")]
)
def test_centre_rows_witness_a_wrong_type_table_entry(tmp_path, monkeypatch, index, wrong, failing):
    types = list(sp.ALGEBRA_TYPES)
    types[index] = wrong
    monkeypatch.setattr(sp, "ALGEBRA_TYPES", tuple(types))
    assert main(["verify", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == {failing}


def _product_with_sign_rule(parity):
    """ga.clifford with its reordering sign read from `parity` in place of _suffix_parity."""
    def product(a, b, metric):
        with mock.patch.object(ga, "_suffix_parity", parity):
            return ga.clifford(a, b, metric)
    return product


def _parity_of_the_top_bit(a):
    # right for a basis vector; a blade of two or more factors counts its highest one alone
    return (1 << (a.bit_length() - 1)) - 1 if a else 0


def _blades_without_the_scalar(n, grade=None):
    return [m for m in ga.basis_blades(n, grade) if m]


_SIGNATURES = [f"cl{p}{q}" for p, q in sp.REFERENCE_SIGNATURES]


# the kernel rows of verify read cli's own bindings of clifford and
# basis_blades, so a defect there leaves the classification rows, which
# build the spinor representation through spinor's binding, untouched
@pytest.mark.parametrize(
    "name, defect, failing",
    [
        # without the sign the product commutes, and stays associative
        ("clifford", _product_with_sign_rule(lambda a: 0),
         {f"{tag}-defining-relations" for tag in _SIGNATURES if tag != "cl01"}),
        # basis vectors keep their sign, so e_i e_j + e_j e_i = 2 g_ij still holds
        ("clifford", _product_with_sign_rule(_parity_of_the_top_bit),
         {"cl13-associativity", "cl31-associativity"}),
        ("basis_blades", _blades_without_the_scalar,
         {f"{tag}-dimension-counts" for tag in _SIGNATURES}),
    ],
    ids=["no-sign", "sign-of-the-top-bit", "no-scalar-blade"],
)
def test_verify_kernel_rows_witness_their_defect(tmp_path, monkeypatch, name, defect, failing):
    monkeypatch.setattr(cli, name, defect)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing


def _unchecked_gamma_set(eta, gammas):
    """A FieldGammaSet built without the gate on its defining relations."""
    gset = object.__new__(fl.FieldGammaSet)
    for name, value in (("spacetime_dim", len(eta)), ("eta", tuple(eta)), ("gammas", gammas)):
        object.__setattr__(gset, name, value)
    return gset


def _gamma_set_with_eta_dropped(dim):
    # the right side then reads d_t^2 + d_x^2 where the gammas give d_t^2 - d_x^2
    return _unchecked_gamma_set((1,) * dim, _minkowski_gamma_set(dim).gammas)


def _gamma_set_with_the_last_gamma_times_i(dim):
    # (i gamma^1)^2 = +1: the gamma products the left side reads lose the minus sign
    gset = _minkowski_gamma_set(dim)
    return _unchecked_gamma_set(gset.eta, gset.gammas[:-1] + [1j * gset.gammas[-1]])


def _hessian_with_a_forward_mixed_difference(phi, conn):
    """c[0, 1] from forward differences, first-order; c[1, 0] keeps the central ones."""
    c = _covariant_hessian(phi, conn)
    (ht, hx), f = phi.grid.spacing, phi.values
    dx = (np.roll(f, -1, axis=1) - f) / hx
    c[0, 1] = (np.roll(dx, -1, axis=0) - dx) / ht
    return c


# the dalembert rows read the per-entry sum of c_mu_nu gamma^mu gamma^nu
# (scalar-parts-agree against eta^mu_nu c_mu_nu, grade2-vanishes alone) and
# the convergence rows its scalar part against the analytic d'Alembertian
@pytest.mark.parametrize(
    "name, defect, failing",
    [
        ("minkowski_gamma_set", _gamma_set_with_eta_dropped, {"scalar-parts-agree"}),
        ("minkowski_gamma_set", _gamma_set_with_the_last_gamma_times_i,
         {"scalar-parts-agree", "convergence-factor-level0"}),
        # the scalar part reads only the symmetric part of c, to roundoff
        ("_covariant_hessian", _hessian_with_a_forward_mixed_difference, {"grade2-vanishes"}),
    ],
    ids=["eta-dropped", "gamma-times-i", "forward-mixed-difference"],
)
def test_dalembert_rows_witness_their_defect(tmp_path, monkeypatch, name, defect, failing):
    argv = ["dirac", "--scenario", "dalembert", "--grid", "8,8", "--refine", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    monkeypatch.setattr(fl, name, defect)
    assert main(argv) == 1
    report = json.loads((tmp_path / "dirac_report.json").read_text())
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing


def _ring_colours_one_site_too_tight(n):
    # sites of one colour 8 apart: a window of 9 sites holds an impulse at each end
    return next((k for k in range(8, n) if n % k == 0 or n % k >= 8), n)


def _ring_windows_mirrored(pad, n):
    # the gather reads psi(y - o) where the stencil holds the coefficient of psi(y + o)
    return _ring_windows(pad, n)[:, ::-1]


_GAUGE_256 = ["--grid", "256", "--potential", "plane-wave-gauge", "--charge", "0.5"]
_CONSTANT_E_64 = ["--potential", "constant-E", "--charge", "0.5"]
_CONSTANT_E_8 = ["--grid", "8", "--potential", "constant-E", "--charge", "0.5"]


# the 1-D site-dependent runs of scripts/report_digest.py, where the ring
# stencil steps: 256 sites take 13 colours, 64 sites 11, and 8 sites one
# colour each, which the tight colouring leaves as it is.  The mirrored
# gather steps by the parity image of the true step, up to the coupling's
# change across one stencil, and parity keeps the norm: on the weak, smooth
# gauge field of the 256-site run it drifts 5.1e-9, inside the row's 1e-8
@pytest.mark.parametrize(
    "name, defect, argv",
    [
        ("_ring_colours", _ring_colours_one_site_too_tight, _GAUGE_256),
        ("_ring_colours", _ring_colours_one_site_too_tight, _CONSTANT_E_64),
        ("_ring_windows", _ring_windows_mirrored, _CONSTANT_E_64),
        ("_ring_windows", _ring_windows_mirrored, _CONSTANT_E_8),
    ],
    ids=[
        "colours-8-apart-gauge-256", "colours-8-apart-constant-E-64",
        "mirrored-gather-constant-E-64", "mirrored-gather-constant-E-8",
    ],
)
def test_norm_drift_witnesses_a_ring_stencil_defect(tmp_path, monkeypatch, name, defect, argv):
    argv = ["dirac", "--scenario", "dispersion", *argv, "--out", str(tmp_path)]
    assert main(argv) == 0
    monkeypatch.setattr(fl, name, defect)
    assert main(argv) == 1
    report = json.loads((tmp_path / "dirac_report.json").read_text())
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == {"norm-drift"}
