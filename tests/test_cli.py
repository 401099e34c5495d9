import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from clifbundle import cli, exact
from clifbundle import fields as fl
from clifbundle import transport as tr
from clifbundle import spinor as sp
from clifbundle.cli import main
from clifbundle.ga import Multivector, Signature, clifford
from clifbundle.transport import (
    evolve,
    matrix_to_json,
    qubit_scenario_dict,
    scenario_from_dict,
)


def write_scenario(tmp_path, data) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def load_report(out_dir, name) -> dict:
    return json.loads((out_dir / name).read_text())


# ---------------------------------------------------------------------------
# verify


def test_verify_single_signature_passes(tmp_path, capsys):
    code = main(["verify", "--signature", "3,1", "--out", str(tmp_path)])
    assert code == 0
    report = load_report(tmp_path, "verify_report.json")
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["config"]["seed"] == 0


def test_verify_defaults_to_the_reference_signatures(tmp_path):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    report = load_report(tmp_path, "verify_report.json")
    tags = [f"cl{p}{q}" for p, q in sp.REFERENCE_SIGNATURES]
    assert report["config"]["signatures"] == [f"{p},{q}" for p, q in sp.REFERENCE_SIGNATURES]
    # three identity rows per --signature and five classification rows per reference one
    rows = ("defining-relations", "dimension-counts", "associativity",
            "minimal-ideal", "primitive", "gamma-relations", "blade-span", "centre")
    assert sorted(c["name"] for c in report["checks"]) == sorted(
        f"{tag}-{row}" for tag in tags for row in rows
    )


def test_verify_rejects_zero_dimension():
    assert main(["verify", "--signature", "0,0"]) == 2


def test_verify_rejects_oversized_signature():
    assert main(["verify", "--signature", "9,9"]) == 2


def test_signature_above_the_ceiling_names_the_ceiling(capsys):
    # Signature decides the ceiling, and the usage error passes its message on
    assert main(["spinor-rep", "--signature", "6,6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad signature '6,6': ")
    assert "n <= 10" in err


def test_verify_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--signature", "1,1", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify", "--signature", "1,1", "--seed", "7", "--out", str(out2)]) == 0
    r1 = load_report(out1, "verify_report.json")
    r2 = load_report(out2, "verify_report.json")
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


# ---------------------------------------------------------------------------
# spinor-rep


def test_spinor_rep_reports_matrices(tmp_path):
    code = main(["spinor-rep", "--signature", "3,1", "--out", str(tmp_path)])
    assert code == 0
    report = load_report(tmp_path, "spinor_rep_report.json")
    assert all(c["status"] == "pass" for c in report["checks"])
    gammas = report["matrices"]
    assert set(gammas) == {"gamma_1", "gamma_2", "gamma_3", "gamma_4"}
    assert len(gammas["gamma_1"]) == 16  # row-major 4x4


def test_spinor_rep_division_algebra(tmp_path):
    code = main(["spinor-rep", "--signature", "0,2", "--out", str(tmp_path)])
    assert code == 0
    report = load_report(tmp_path, "spinor_rep_report.json")
    ideal = [c for c in report["checks"] if c["name"] == "minimal-ideal"][0]
    assert "whole algebra" in ideal["relation"] or "whole algebra" in ideal["details"]


def statuses(report) -> dict:
    return {c["name"]: c["status"] for c in report["checks"]}


@pytest.fixture
def scalar_in_ideal(monkeypatch):
    """minimal_left_ideal with its first (pivot-mask-0) vector replaced by 1: not a left ideal."""
    original = sp.minimal_left_ideal

    def patched(f, metric):
        return [Multivector.scalar(F(1), f.n)] + original(f, metric)[1:]

    monkeypatch.setattr(sp, "minimal_left_ideal", patched)
    return patched


def test_spinor_rep_closure_failure_is_a_law_failure(tmp_path, scalar_in_ideal):
    sig = Signature(3, 1)
    metric = sig.metric()
    basis = scalar_in_ideal(sp.find_primitive_idempotent(sig).idempotent, metric)
    # independent count: the images e^mu w that raise the rank of the span
    span = np.stack([sp.multivector_coords(w) for w in basis], axis=1)
    outside = 0
    for mu in range(sig.n):
        raised = Multivector.basis_vector(mu + 1, sig.n, F(sig.diag[mu]))
        for w in basis:
            image = sp.multivector_coords(clifford(raised, w, metric)).reshape(-1, 1)
            outside += exact.rank(np.concatenate([span, image], axis=1)) > len(basis)
    assert main(["spinor-rep", "--signature", "3,1", "--out", str(tmp_path)]) == 1
    report = load_report(tmp_path, "spinor_rep_report.json")
    ideal = [c for c in report["checks"] if c["name"] == "minimal-ideal"][0]
    assert ideal["status"] == "fail" and ideal["residual"] == outside > 0
    assert statuses(report)["gamma-relations"] == "fail"
    assert statuses(report)["sigma-generators"] == "fail"


def test_verify_closure_failure_is_a_law_failure(tmp_path, scalar_in_ideal):
    assert main(["verify", "--out", str(tmp_path)]) == 1
    status = statuses(load_report(tmp_path, "verify_report.json"))
    for tag in ("cl11", "cl20", "cl31"):
        assert status[f"{tag}-gamma-relations"] == "fail"
        assert status[f"{tag}-blade-span"] == "fail"


def test_closure_failure_behind_field_gammas_is_a_numerical_fault(
    tmp_path, capsys, scalar_in_ideal
):
    # the dirac scenarios need a representation; without one they cannot run
    assert main(["dirac", "--scenario", "hermiticity", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: numerical fault: ")
    assert not (tmp_path / "dirac_report.json").exists()


def test_escaped_exception_is_an_internal_fault(tmp_path, capsys, monkeypatch):
    # exit 1 means a law failed; an exception nothing maps must not read as one
    def broken(self, t, s):
        raise KeyError("no such row")

    monkeypatch.setattr(tr.Transport, "unitarity_residual", broken)
    argv = ["transport", "--scenario", write_scenario(tmp_path, qubit_scenario_dict())]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal fault: KeyError: 'no such row'\n")
    assert "Traceback" in err
    assert not (tmp_path / "out" / "transport_report.json").exists()


def test_field_gamma_gate_failure_is_a_numerical_fault(tmp_path, capsys, monkeypatch):
    # conjugating by diag(1, 2, ...) keeps the anticommutators but breaks Hermiticity
    def skewed(sig):
        gs = sp.gamma_set_for_signature(sig)
        s = np.diag([F(k + 1) for k in range(gs.dim)]).astype(object)
        s_inv = np.diag([F(1, k + 1) for k in range(gs.dim)]).astype(object)
        return dataclasses.replace(gs, gammas=[s @ g @ s_inv for g in gs.gammas])

    monkeypatch.setattr(cli.fl, "gamma_set_for_signature", skewed)
    assert main(["dirac", "--scenario", "hermiticity", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: numerical fault: ")
    assert not (tmp_path / "dirac_report.json").exists()


def test_failed_eigensolver_is_a_numerical_fault(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which alone would map it to exit 2
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["dirac", "--scenario", "dispersion", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: numerical fault: Eigenvalues did not converge\n"
    assert not (tmp_path / "dirac_report.json").exists()


def test_spinor_rep_fails_a_gamma_that_breaks_anticommutation(tmp_path, monkeypatch):
    # the product table is shared by gamma-relations and sigma-generators;
    # both must still see g^2 -> g^2 + g^1 break the relations
    original = sp.spinor_rep_matrices

    def broken(*args):
        gs = original(*args)
        g = list(gs.gammas)
        g[1] = g[1] + g[0]
        return dataclasses.replace(gs, gammas=g)

    monkeypatch.setattr(sp, "spinor_rep_matrices", broken)
    assert main(["spinor-rep", "--signature", "3,1", "--out", str(tmp_path)]) == 1
    status = statuses(load_report(tmp_path, "spinor_rep_report.json"))
    assert status["gamma-relations"] == "fail"
    assert status["sigma-generators"] == "fail"
    assert status["minimal-ideal"] == "pass"


def test_sigma_generators_row_fails_a_table_that_is_not_antisymmetric(tmp_path, monkeypatch):
    # sigma^{mu nu} = g^mu g^nu / 2 in place of the quarter-commutator passes the
    # row's C^{mu nu} = 2 P[mu][nu] test; on gammas that do not anticommute only
    # the antisymmetry test C^{mu nu} + C^{nu mu} = 0 can catch it
    rep, sigmas = sp.spinor_rep_matrices, sp.sigma_generators

    def broken(*args):
        gs = rep(*args)
        g = list(gs.gammas)
        g[1] = g[1] + g[0]
        return dataclasses.replace(gs, gammas=g)

    def half_products(gamma_set):
        good, p = sigmas(gamma_set), gamma_set.products
        numerators = {(mu, nu): 0 * c if mu == nu else 2 * p[mu][nu]
                      for (mu, nu), c in good.numerators.items()}
        return dataclasses.replace(good, numerators=numerators)

    monkeypatch.setattr(sp, "spinor_rep_matrices", broken)
    monkeypatch.setattr(sp, "sigma_generators", half_products)
    assert main(["spinor-rep", "--signature", "3,1", "--out", str(tmp_path)]) == 1
    assert statuses(load_report(tmp_path, "spinor_rep_report.json"))["sigma-generators"] == "fail"


class _CountingMatrix(np.ndarray):
    """Object matrix that counts every matrix product it takes part in."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatrix.matmuls += 1
        plain = [x.view(np.ndarray) if isinstance(x, _CountingMatrix) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_CountingMatrix) if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("signature", ["3,1", "0,2", "2,3"])
def test_spinor_rep_forms_each_gamma_product_once(tmp_path, monkeypatch, signature):
    original = sp.spinor_rep_matrices

    def counted(*args):
        gs = original(*args)
        return dataclasses.replace(gs, gammas=[g.view(_CountingMatrix) for g in gs.gammas])

    monkeypatch.setattr(sp, "spinor_rep_matrices", counted)
    monkeypatch.setattr(_CountingMatrix, "matmuls", 0)
    assert main(["spinor-rep", "--signature", signature, "--out", str(tmp_path)]) == 0
    n = sum(int(x) for x in signature.split(","))
    assert _CountingMatrix.matmuls == n * n


# ---------------------------------------------------------------------------
# transport


def test_transport_qubit_scenario(tmp_path):
    scenario = write_scenario(tmp_path, qubit_scenario_dict())
    out = tmp_path / "out"
    code = main(["transport", "--scenario", scenario, "--out", str(out)])
    assert code == 0
    report = load_report(out, "transport_report.json")
    corr = [c for c in report["checks"] if c["name"] == "connection-vs-hamiltonian"][0]
    assert corr["residual"] <= 1e-6
    series = (out / "psi_series.csv").read_text().splitlines()
    assert series[0] == "t,re_psi0,im_psi0,re_psi1,im_psi1"
    assert len(series) == 22


def test_transport_zero_hamiltonian_all_tiny(tmp_path):
    data = qubit_scenario_dict()
    data["hamiltonian"] = {"type": "zero"}
    scenario = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["transport", "--scenario", scenario, "--out", str(out)]) == 0
    report = load_report(out, "transport_report.json")
    for check in report["checks"]:
        assert check["residual"] <= 1e-12


def test_transport_singular_trivialization_is_config_error(tmp_path):
    data = qubit_scenario_dict()
    data["trivialization"] = {
        "type": "tabulated",
        "matrices": [
            matrix_to_json(np.eye(2)),
            matrix_to_json(np.zeros((2, 2))),
            matrix_to_json(np.eye(2)),
        ],
    }
    scenario = write_scenario(tmp_path, data)
    code = main(["transport", "--scenario", scenario])
    assert code == 2


def test_transport_non_finite_trivialization_is_config_error(tmp_path):
    data = qubit_scenario_dict()
    data["trivialization"] = {
        "type": "tabulated",
        "matrices": [
            matrix_to_json(np.eye(2)),
            matrix_to_json(np.array([[1.0, float("nan")], [0.0, 1.0]])),
            matrix_to_json(np.eye(2)),
        ],
    }
    scenario = write_scenario(tmp_path, data)
    assert main(["transport", "--scenario", scenario]) == 2


def test_transport_nan_hamiltonian_is_config_error(tmp_path):
    # a NaN entry used to pass the Hermiticity gate and reach the report as a NaN residual
    data = qubit_scenario_dict()
    data["hamiltonian"]["matrix"]["re"][0][1] = float("nan")
    scenario = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["transport", "--scenario", scenario, "--out", str(out)]) == 2
    assert not (out / "transport_report.json").exists()


def test_transport_series_sweeps_tabulated_kinks(tmp_path):
    # H has kinks at 0.4 and 0.7.  Integrated directly from 0, a row whose time
    # lies a hair above a multiple of dt gets one step more, and a grid off the
    # kinks: t = 0.6000000000000001 takes ceil(600.0000000000001) = 601 steps.
    # The sweep integrates each 0.05 segment on its own.
    rng = np.random.default_rng(5)
    mats = []
    for _ in range(4):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mats.append(2.0 * (a + a.conj().T))
    data = qubit_scenario_dict()
    data["hamiltonian"] = {
        "type": "tabulated",
        "times": [0.0, 0.4, 0.7, 1.0],
        "matrices": [matrix_to_json(m) for m in mats],
    }
    scenario = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["transport", "--scenario", scenario, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "psi_series.csv", delimiter=",", skiprows=1)
    ham = scenario_from_dict(data).hamiltonian
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for row in rows:
        psi = evolve(ham, row[0], 0.0, 1e-4) @ psi0
        assert np.max(np.abs(row[1::2] + 1j * row[2::2] - psi)) <= 1e-9


def _tabulated_hamiltonian(times, count):
    mats = [matrix_to_json((1 + k) * np.diag([1.0, -1.0])) for k in range(count)]
    return {"type": "tabulated", "times": times, "matrices": mats}


def test_transport_short_hamiltonian_table_is_config_error(tmp_path):
    # the path runs to t=1.0; a table ending at 0.5 must not be extrapolated
    data = qubit_scenario_dict()
    data["hamiltonian"] = _tabulated_hamiltonian([0.0, 0.5], 2)
    scenario = write_scenario(tmp_path, data)
    assert main(["transport", "--scenario", scenario]) == 2


def test_transport_hamiltonian_table_count_mismatch_is_config_error(tmp_path):
    data = qubit_scenario_dict()
    data["hamiltonian"] = _tabulated_hamiltonian([0.0, 0.5, 1.0], 2)
    scenario = write_scenario(tmp_path, data)
    assert main(["transport", "--scenario", scenario]) == 2


@pytest.mark.parametrize("times", [[0.0, float("nan"), 1.0], [0.0, 0.5, float("nan")]])
def test_transport_nan_hamiltonian_time_is_config_error(tmp_path, times):
    # json reads NaN, and every comparison with it is false
    data = qubit_scenario_dict()
    data["hamiltonian"] = _tabulated_hamiltonian(times, 3)
    scenario = write_scenario(tmp_path, data)
    assert main(["transport", "--scenario", scenario]) == 2


def test_transport_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["transport", "--scenario", str(path)]) == 2


def test_transport_missing_field_is_config_error(tmp_path):
    scenario = write_scenario(tmp_path, {"fibre_dim": 2})
    assert main(["transport", "--scenario", str(scenario)]) == 2


@pytest.mark.parametrize("dim", [0, "MAX + 1"])
def test_transport_fibre_dim_out_of_bounds_is_config_error(tmp_path, capsys, dim):
    data = qubit_scenario_dict()
    del data["hamiltonian"]
    data["fibre_dim"] = tr.MAX_FIBRE_DIM + 1 if dim == "MAX + 1" else dim
    assert main(["transport", "--scenario", write_scenario(tmp_path, data)]) == 2
    assert "fibre_dim must be in [1, " in capsys.readouterr().err


def test_transport_field_of_the_wrong_type_is_config_error(tmp_path, capsys):
    data = qubit_scenario_dict()
    data["path"] = []
    assert main(["transport", "--scenario", write_scenario(tmp_path, data)]) == 2
    assert "wrong type" in capsys.readouterr().err


def test_transport_tolerance_override_can_fail(tmp_path):
    scenario = write_scenario(tmp_path, qubit_scenario_dict())
    code = main(
        ["transport", "--scenario", scenario, "--tol", "correspondence=1e-15"]
    )
    assert code == 1


def test_transport_misspelt_scenario_tolerance_is_config_error(tmp_path, capsys):
    data = qubit_scenario_dict()
    data["tolerances"] = {"unitarty": -1.0, "cocycle": 1e-8}
    assert main(["transport", "--scenario", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "'unitarty'" in err and "cocycle, correspondence, unitarity" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transport_non_finite_hamiltonian_is_config_error(tmp_path, capsys):
    data = qubit_scenario_dict()
    data["hamiltonian"]["matrix"]["im"] = [[0, float("inf")], [0, 0]]
    assert main(["transport", "--scenario", write_scenario(tmp_path, data)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_transport_infinite_path_time_is_config_error(tmp_path, capsys):
    # json reads 1e309 as inf; the path used to build, and then refused every
    # time as outside [0.0, inf] with exit 2 on the wrong cause
    text = json.dumps(qubit_scenario_dict()).replace('"t": 1.0', '"t": 1e309')
    assert "1e309" in text
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["transport", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: path times must be finite"]


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_transport_dt_that_is_not_positive_and_finite_is_config_error(tmp_path, capsys, dt):
    # NaN used to escape as a float-to-integer error, and infinity ran one step
    # over the whole path and exited 1 on the failed laws
    data = qubit_scenario_dict()
    data["dt"] = dt
    out = tmp_path / "out"
    assert main(["transport", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]) == 2
    assert "dt must be positive and finite" in capsys.readouterr().err
    assert not (out / "transport_report.json").exists()


# ---------------------------------------------------------------------------
# dirac


def test_dirac_hermiticity_scenario(tmp_path):
    out = tmp_path / "out"
    code = main(["dirac", "--scenario", "hermiticity", "--out", str(out)])
    assert code == 0
    report = load_report(out, "dirac_report.json")
    mom = [c for c in report["checks"] if c["name"] == "momentum-hermiticity"][0]
    assert mom["residual"] <= 1e-10


def test_dirac_dalembert_refine(tmp_path):
    out = tmp_path / "out"
    code = main(["dirac", "--scenario", "dalembert", "--refine", "1", "--out", str(out)])
    assert code == 0
    report = load_report(out, "dirac_report.json")
    conv = [c for c in report["checks"] if c["name"].startswith("convergence-factor")]
    assert conv and all(c["status"] == "pass" for c in conv)
    assert "factor" in conv[0]["details"]


def test_dirac_wrap_check(tmp_path):
    out = tmp_path / "out"
    code = main(["dirac", "--scenario", "wrap-check", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = load_report(out, "dirac_report.json")
    wrap = [c for c in report["checks"] if c["name"] == "wrapped-anticommutator"][0]
    assert wrap["residual"] <= 1e-10


def test_dirac_kg_roundtrip_scenario(tmp_path):
    code = main(["dirac", "--scenario", "kg-roundtrip"])
    assert code == 0


def test_dirac_kg_roundtrip_step_follows_the_stability_bound(tmp_path):
    # on 2048 sites spacing/4 = 7.7e-4 < 1e-3, so the step shrinks to it
    assert main(["dirac", "--scenario", "kg-roundtrip", "--grid", "2048", "--out", str(tmp_path)]) == 0
    rows = load_report(tmp_path, "dirac_report.json")["checks"]
    assert [r["status"] for r in rows] == ["pass", "pass"]


def one_sided_difference_slices(axis):
    """psi(x + h) - psi(x): a first-order stencil in place of the central one."""
    def at(s):
        return (slice(None),) * axis + (s,)

    return [
        (at(slice(0, -1)), at(slice(1, None)), at(slice(0, -1))),
        (at(slice(-1, None)), at(slice(0, 1)), at(slice(-1, None))),
    ]


@pytest.mark.parametrize(
    "argv, broken",
    [
        (["hermiticity", "--grid", "8,8"], {"momentum-hermiticity", "hamiltonian-hermiticity"}),
        (["dispersion", "--grid", "16"], {"norm-drift", "dispersion-fidelity"}),
        (["dalembert", "--grid", "8,8", "--refine", "1"], {"convergence-factor-level0"}),
        (["kg-roundtrip"], {"plane-wave-roundtrip"}),
    ],
)
def test_dirac_scenarios_fail_a_one_sided_stencil(tmp_path, monkeypatch, argv, broken):
    # every field derivative reads the one stencil, so breaking it must fail these rows
    argv = ["dirac", "--scenario"] + argv + ["--out", str(tmp_path)]
    assert main(argv) == 0
    monkeypatch.setattr(fl, "_periodic_difference_slices", one_sided_difference_slices)
    assert main(argv) == 1
    rows = load_report(tmp_path, "dirac_report.json")["checks"]
    assert {r["name"] for r in rows if r["status"] == "fail"} == broken


def test_dirac_dispersion_writes_field_snapshot(tmp_path):
    out = tmp_path / "out"
    code = main(["dirac", "--scenario", "dispersion", "--out", str(out)])
    assert code == 0
    header = json.loads((out / "dirac_field_header.json").read_text())
    assert header["grid"]["extents"] == [64]
    lines = (out / "dirac_field.csv").read_text().splitlines()
    assert lines[0] == "x0,re_c0,im_c0,re_c1,im_c1"
    assert len(lines) == 65


def row_by_row_snapshot_csv(path, grid, comps) -> None:
    """The field snapshot written one site at a time: the reference for the block writer."""
    ncomp = comps.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{a}" for a in range(grid.dims)]
            + [f"{part}_c{k}" for k in range(ncomp) for part in ("re", "im")]
        )
        for idx in np.ndindex(grid.extents):
            coords = [grid.spacing[a] * idx[a] for a in range(grid.dims)]
            vals = []
            for k in range(ncomp):
                vals += [comps[(k,) + idx].real, comps[(k,) + idx].imag]
            writer.writerow(coords + vals)


@pytest.mark.parametrize("block", [cli.SNAPSHOT_ROWS, 7])
def test_field_snapshot_bytes_match_the_row_by_row_writer(tmp_path, monkeypatch, block):
    monkeypatch.setattr(cli, "SNAPSHOT_ROWS", block)
    grid = fl.Grid((4, 5, 6), (0.1, 2 * np.pi / 5, 1 / 3))
    rng = np.random.default_rng(8)
    comps = rng.normal(size=(2,) + grid.extents) + 1j * rng.normal(size=(2,) + grid.extents)
    comps[0, 0, 0, 0] = complex(-0.0, 5e-324)
    comps[1, 3, 4, 5] = complex(1e16, -0.0)
    comps[0, 2, 1, 3] = complex(-5e-324, -1e16)
    args = argparse.Namespace(out=str(tmp_path / "new"))
    cli._write_field_snapshot(args, grid, fl.SpinorField(grid, comps), "field")
    row_by_row_snapshot_csv(tmp_path / "old.csv", grid, comps)
    assert (tmp_path / "new" / "field.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    header = json.loads((tmp_path / "new" / "field_header.json").read_text())
    assert header["grid"]["periodic"] == [True, True, True]


def test_dirac_unknown_scenario_is_usage_error():
    assert main(["dirac", "--scenario", "mystery"]) == 2


def test_dirac_potential_presets_run(tmp_path):
    for preset in ("constant-E", "plane-wave-gauge"):
        code = main(["dirac", "--scenario", "hermiticity", "--potential", preset])
        assert code == 0


def test_bad_tol_flag_is_usage_error():
    assert main(["dirac", "--scenario", "hermiticity", "--tol", "oops"]) == 2


@pytest.mark.parametrize("mass", ["-2", "0"])
def test_dirac_kg_roundtrip_rejects_a_mass_that_is_not_positive(mass, capsys):
    assert main(["dirac", "--scenario", "kg-roundtrip", "--grid", "16", "--mass", mass]) == 2
    assert "m > 0" in capsys.readouterr().err


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_dirac_dalembert_rejects_refine_below_one(refine, capsys):
    argv = ["dirac", "--scenario", "dalembert", "--grid", "8,8", "--refine", refine]
    assert main(argv) == 2
    assert "--refine >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, grid",
    [
        ("dispersion", "0"), ("hermiticity", "0,4"), ("dalembert", "0,8"),
        ("kg-roundtrip", "0"), ("wrap-check", "4,0"), ("dispersion", "-4"),
    ],
)
def test_dirac_grid_extent_below_four_is_refused_before_any_arithmetic(
    scenario, grid, capsys, recwarn
):
    # an extent of 0 used to divide 2 pi by it first: exit 3, ZeroDivisionError
    assert main(["dirac", "--scenario", scenario, "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: bad --grid '{grid}': each axis needs >= 4 points"]
    assert len(recwarn) == 0


@pytest.mark.parametrize("spacing", ["inf", "nan", "1,inf"])
def test_dirac_spacing_outside_zero_to_infinity_is_refused_before_any_arithmetic(
    spacing, capsys, recwarn
):
    # inf used to run and fail with NaN residuals (exit 1), and nan warned first
    assert main(["dirac", "--scenario", "hermiticity", "--grid", "8,8", "--spacing", spacing]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: spacing must be positive and finite, got (")
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "scenario, flag, value, kind",
    [
        ("dispersion", "--grid", "4,x", "int"),
        ("dalembert", "--grid", "8,", "int"),
        ("kg-roundtrip", "--spacing", "abc", "float"),
    ],
)
def test_dirac_unparsable_grid_or_spacing_names_its_flag(scenario, flag, value, kind, capsys):
    # the bare int() and float() messages used to name neither flag
    assert main(["dirac", "--scenario", scenario, flag, value]) == 2
    expected = f"error: bad {flag} {value!r}: expected comma-separated {kind}s"
    assert capsys.readouterr().err.splitlines() == [expected]


@pytest.mark.parametrize("scenario", ["dispersion", "kg-roundtrip"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dirac_overflowing_mode_symbol_is_refused_as_non_finite(scenario, capsys):
    # kg-roundtrip used to exit 3 with an OverflowError from its energy, and
    # dispersion to report the NaN of the quadratic test without its cause.
    # Then both blamed the mode symbol, after three RuntimeWarnings from h^2
    # underflowing to 0; the grid now refuses the spacing before any arithmetic
    assert main(["dirac", "--scenario", scenario, "--spacing", "1e-300"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: spacing squared must be a normal float, at least 2.225e-308, got (1e-300,)"
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scenario", ["dispersion", "kg-roundtrip"])
def test_dirac_huge_mass_is_refused_with_no_numpy_warning(scenario, capsys):
    # max|H|^2 overflowed with a RuntimeWarning on stderr before the error line
    assert main(["dirac", "--scenario", scenario, "--mass", "1e300"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the mode symbol has no two eigenvalues c +- omega: "
        "max|H|^2 = inf is non-finite"
    ]


def test_dirac_dispersion_with_an_overflowing_symbol_is_refused_at_once():
    # spacing 1e-150: dt = spacing / 8 gives 8e150 steps, and mass 1e300 overflows
    # the symbol.  The per-mode path used to fall back to the step loop and run
    # all of them.  (Spacing 1e-300, used here before, is now refused by the grid.)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["dirac", "--scenario", "dispersion", "--spacing", "1e-150", "--mass", "1e300"]
    proc = subprocess.run(
        [sys.executable, "-m", "clifbundle.cli", *argv],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith(
        "error: the mode symbol has no two eigenvalues c +- omega"
    )


@pytest.mark.parametrize("grid", ["16", "8,8,8"])
def test_dirac_dalembert_rejects_a_grid_without_two_axes(grid, capsys):
    # the scenario reads a (t, x) grid; any other axis count is a bad config
    assert main(["dirac", "--scenario", "dalembert", "--grid", grid]) == 2
    assert "two axes (t, x)" in capsys.readouterr().err


# the README's --tol table, with a small grid per scenario so each case runs fast
DIRAC_TOL_NAMES = [
    ("dispersion", "norm-drift", "16"),
    ("dispersion", "momentum-drift", "16"),
    ("dispersion", "fidelity", "16"),
    ("hermiticity", "hermiticity", "8,8"),
    ("dalembert", "grade2", "8,8"),
    ("dalembert", "convergence", "8,8"),
    ("kg-roundtrip", "roundtrip", "16"),
    ("wrap-check", "wrap", "4,4"),
]


def test_dirac_tol_table_lists_every_scenario():
    assert {s for s, _, _ in DIRAC_TOL_NAMES} == set(cli.DIRAC_SCENARIOS)
    for scenario, (_, _, names) in cli.DIRAC_SCENARIOS.items():
        assert set(names) == {n for s, n, _ in DIRAC_TOL_NAMES if s == scenario}


@pytest.mark.parametrize("scenario, name, grid", DIRAC_TOL_NAMES)
def test_every_listed_dirac_tol_name_is_read(scenario, name, grid):
    # no residual is below -1, so a name the scenario reads fails a check
    argv = ["dirac", "--scenario", scenario, "--grid", grid, "--tol", f"{name}=-1"]
    assert main(argv) == 1


def test_dispersion_drift_tolerances_are_set_one_at_a_time(tmp_path):
    argv = ["dirac", "--scenario", "dispersion", "--grid", "16", "--out", str(tmp_path)]
    assert main(argv + ["--tol", "norm-drift=-1"]) == 1
    rows = {c["name"]: c for c in load_report(tmp_path, "dirac_report.json")["checks"]}
    assert (rows["norm-drift"]["status"], rows["norm-drift"]["tolerance"]) == ("fail", -1.0)
    assert (rows["momentum-drift"]["status"], rows["momentum-drift"]["tolerance"]) == ("pass", 1e-6)


@pytest.mark.parametrize("name", ["cocycle", "correspondence", "unitarity"])
def test_every_transport_tol_name_is_read(tmp_path, name):
    scenario = write_scenario(tmp_path, qubit_scenario_dict())
    assert main(["transport", "--scenario", scenario, "--tol", f"{name}=-1"]) == 1


@pytest.mark.parametrize(
    "argv, valid",
    [
        (["dirac", "--scenario", "hermiticity", "--tol", "hermiticty=1e-30"], "hermiticity"),
        (["dirac", "--scenario", "dispersion", "--grid", "16", "--tol", "wrap=1"],
         "norm-drift, momentum-drift, fidelity"),
        (["transport", "--scenario", "QUBIT", "--tol", "drift=1"],
         "cocycle, correspondence, unitarity"),
    ],
)
def test_unknown_tol_name_is_usage_error(tmp_path, argv, valid, capsys):
    qubit = write_scenario(tmp_path, qubit_scenario_dict())
    assert main([qubit if a == "QUBIT" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "unknown --tol name" in err and valid in err


@pytest.mark.parametrize(
    "argv", [["verify", "--signature", "1,1"], ["spinor-rep", "--signature", "1,1"]]
)
def test_tol_is_not_an_option_of_commands_that_read_none(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "x=1"])
    assert exc.value.code == 2


def test_relation_tags_present_everywhere(tmp_path):
    out = tmp_path / "out"
    main(["verify", "--signature", "1,1", "--out", str(out)])
    report = load_report(out, "verify_report.json")
    assert all(c["relation"] for c in report["checks"])


def test_dirac_dalembert_rejects_spacing():
    # the levels fix their own spacings; equal ones put the test mode on the light cone
    argv = ["dirac", "--scenario", "dalembert", "--grid", "16,16", "--refine", "1"]
    assert main(argv + ["--spacing", "0.5"]) == 2
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv, unread",
    [
        # evolved a free field and reported pass
        (["kg-roundtrip", "--potential", "constant-E", "--charge", "1"], "--charge, --potential"),
        (["dalembert", "--grid", "8,8", "--mass", "5", "--seed", "9"], "--mass, --seed"),
        (["dispersion", "--grid", "16", "--refine", "3"], "--refine"),
        (["kg-roundtrip", "--refine", "0"], "--refine"),
    ],
)
def test_dirac_flag_the_scenario_does_not_read_is_usage_error(argv, unread, capsys):
    assert main(["dirac", "--scenario", *argv]) == 2
    err = capsys.readouterr().err
    assert f"does not read {unread};" in err
    reads = ", ".join(f"--{flag}" for flag in cli.DIRAC_SCENARIOS[argv[0]][1])
    assert err.rstrip().endswith(f"it reads {reads}")


def test_dirac_report_config_records_the_defaults(tmp_path):
    assert main(["dirac", "--scenario", "wrap-check", "--grid", "4,4", "--out", str(tmp_path)]) == 0
    config = load_report(tmp_path, "dirac_report.json")["config"]
    assert config == {
        "scenario": "wrap-check", "grid": "4,4", "spacing": None, "mass": 1.0, "charge": 0.0,
        "potential": "zero", "seed": 0, "refine": 1, "tolerances": {},
    }


def test_dirac_grid_memory_budget_enforced():
    assert main(["dirac", "--scenario", "hermiticity", "--grid", "4096,4096"]) == 2
    # 2^64 sites, which an int64 product wraps to 0
    assert main(["dirac", "--scenario", "hermiticity", "--grid", "4294967296,4294967296"]) == 2


def test_dirac_dalembert_grid_memory_budget_covers_the_finest_level(monkeypatch):
    # 16x16 fits, but the second refinement runs on 64x64
    monkeypatch.setattr(cli, "MAX_GRID_SITES", 1000)
    argv = ["dirac", "--scenario", "dalembert", "--grid", "16,16", "--refine", "2"]
    assert main(argv) == 2


def test_transport_gauged_scenario(tmp_path):
    scenario = write_scenario(tmp_path, qubit_scenario_dict(with_gauge=True))
    out = tmp_path / "out"
    code = main(["transport", "--scenario", scenario, "--out", str(out)])
    assert code == 0
    report = load_report(out, "transport_report.json")
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize(
    "argv", [["spinor-rep", "--signature", "1,1"], ["transport", "--scenario", "QUBIT"]]
)
def test_seed_is_not_an_option_of_commands_that_draw_no_random_number(tmp_path, argv):
    qubit = write_scenario(tmp_path, qubit_scenario_dict())
    argv = [qubit if a == "QUBIT" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert main(argv + ["--out", str(tmp_path)]) == 0
    report = load_report(tmp_path, f"{argv[0].replace('-', '_')}_report.json")
    assert "seed" not in report["config"]


def test_spinor_rep_rejects_multiple_signatures():
    assert main(["spinor-rep", "--signature", "1,1", "--signature", "2,0"]) == 2


def test_one_process_runs_commands_in_turn_like_fresh_ones(tmp_path):
    # the parser is built once per process: each run must read only its own argv,
    # and dirac's seed default None must still be filled in afresh
    scenario = str(Path(__file__).resolve().parents[1] / "scenarios" / "qubit.json")
    runs = [
        (["dirac", "--seed", "5"], "dirac_report.json"),
        (["dirac"], "dirac_report.json"),
        (["spinor-rep", "--signature", "3,1"], "spinor_rep_report.json"),
        (["transport", "--scenario", scenario], "transport_report.json"),
    ]

    def run(k, argv, name, label):
        out = tmp_path / f"{label}{k}"
        main(argv + ["--out", str(out)])
        report = load_report(out, name)
        report.pop("wall_time_s")
        return report

    in_turn = [run(k, argv, name, "in-turn") for k, (argv, name) in enumerate(runs)]
    for k, (argv, name) in enumerate(runs):
        cli.build_parser.cache_clear()
        assert run(k, argv, name, "fresh") == in_turn[k]
    assert in_turn[1]["config"]["seed"] == 0
