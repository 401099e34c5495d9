"""Acceptance gate: one test per criterion, stated tolerance, timed.

Each test prints a single PASS line when its criterion holds (pytest -s
shows them; failures surface as ordinary assertion errors).
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from clifbundle import exact, spinor
from clifbundle.cli import main as cli_main
from clifbundle.fields import (
    EMPotential,
    Grid,
    ScalarField,
    SpinorField,
    AffineConnection,
    bundle_wrap,
    dalembert_identity,
    dirac_hamiltonian_evolve,
    dirac_pairing,
    klein_gordon_evolve,
    klein_gordon_reconstruct,
    klein_gordon_reduce,
    lowered_gammas_exact,
    minkowski_gamma_set,
    momentum_expectation,
    momentum_op,
    random_smooth_trivialization_field,
    stress_energy_spinvector,
)
from clifbundle.ga import Multivector, Signature, basis_blades, clifford
from clifbundle.spinor import (
    algebra_span_dimension,
    find_primitive_idempotent,
    gamma_set_for_signature,
    minimal_ideal_dimension,
    sigma_generators,
    verify_iso_table,
)
from clifbundle.transport import (
    HamiltonianSpec,
    Path,
    Transport,
    Trivialization,
    connection_coeffs,
    evolve,
    solve_bundle_schrodinger,
)


class Budget:
    """Wall-clock guard for a criterion."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s)")
        return False


def test_criterion_01_clifford_relations_all_signatures():
    with Budget("1 defining relations p+q <= 8", 5.0):
        for n in range(1, 9):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                metric = sig.metric()
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        ei = Multivector.basis_vector(i, n, F(1))
                        ej = Multivector.basis_vector(j, n, F(1))
                        lhs = clifford(ei, ej, metric) + clifford(ej, ei, metric)
                        rhs = Multivector.scalar(2 * F(metric.entry(i - 1, j - 1)), n)
                        assert lhs == rhs, (p, n - p, i, j)


def test_criterion_02_algebra_dimensions():
    from math import comb

    with Budget("2 algebra dimensions", 1.0):
        for n in range(1, 9):
            assert len(basis_blades(n)) == 2**n
            for q in range(n + 1):
                assert len(basis_blades(n, q)) == comb(n, q)


def test_criterion_03_isomorphism_table(monkeypatch):
    # every signature with p+q <= 8, each expected value from the type table
    sigs = [Signature(p, n - p) for n in range(1, 9) for p in range(n + 1)]
    # keep each gamma set the rows are built from
    built, representation = {}, spinor.spinor_representation

    def keep(sig):
        built[sig] = representation(sig)
        return built[sig]

    monkeypatch.setattr(spinor, "spinor_representation", keep)
    with Budget("3 isomorphism table p+q <= 8", 5.0):
        rows = {r.name: r for r in verify_iso_table([(s.p, s.q) for s in sigs])}
        # omega central in Cl^0(0,2) = C and Cl^0(3,1) = C(2), squaring to -1
        assert rows["cl02-centre"].passed
        assert rows["cl31-centre"].passed
        assert len(rows) == 5 * len(sigs)
        assert all(r.passed for r in rows.values()), [
            n for n, r in rows.items() if not r.passed
        ]
        # the construction's own stop agrees with the table's ideal dimension
        assert all(built[s][1].dim == minimal_ideal_dimension(s) for s in sigs)
        # the span dimensions themselves, recomputed exactly
        assert algebra_span_dimension(gamma_set_for_signature(Signature(1, 1))) == 4
        assert algebra_span_dimension(gamma_set_for_signature(Signature(3, 1))) == 16


def test_criterion_04_spinor_representation():
    with Budget("4 spinor representation", 5.0):
        report = find_primitive_idempotent(Signature(3, 1))
        assert report.ideal_dimension == 4
        gs = gamma_set_for_signature(Signature(3, 1))
        assert gs.dim == 4
        assert gs.anticommutator_residuals() == 0
        sigmas = sigma_generators(gs)
        g = gs.gammas
        for mu in range(4):
            for nu in range(4):
                brute = (g[mu] @ g[nu] - g[nu] @ g[mu]) * F(1, 4)
                assert all(
                    x == y for x, y in zip(np.ravel(sigmas.mat(mu, nu)), np.ravel(brute))
                )
        # commutator against the brute-force matrix oracle, exact
        for (a, b), (c, d) in [((0, 1), (1, 2)), ((0, 3), (1, 3)), ((1, 2), (2, 3))]:
            lib = sigmas.mat(a, b) @ sigmas.mat(c, d) - sigmas.mat(c, d) @ sigmas.mat(a, b)
            brute = (
                (g[a] @ g[b] - g[b] @ g[a]) @ (g[c] @ g[d] - g[d] @ g[c])
                - (g[c] @ g[d] - g[d] @ g[c]) @ (g[a] @ g[b] - g[b] @ g[a])
            ) * F(1, 16)
            assert all(x == y for x, y in zip(np.ravel(lib), np.ravel(brute)))


QUBIT_H = np.diag([1.0, -1.0]).astype(complex)


def test_criterion_05_bundle_transport():
    with Budget("5 bundle transport", 10.0):
        path = Path.line(0.0, 1.0, 3)
        tr = Transport.build(path, HamiltonianSpec.constant(QUBIT_H), dt=1e-3)
        assert tr.cocycle_residual(1.0, 0.5, 0.0) <= 1e-8
        # integrator order from the closed-form qubit solution
        exact_u = np.diag([np.exp(-1j), np.exp(1j)])
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            u = evolve(HamiltonianSpec.constant(QUBIT_H), 1.0, 0.0, dt)
            errs.append(np.max(np.abs(u - exact_u)))
        slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.3
        gamma = connection_coeffs(tr, 0.5, 1e-4)
        assert np.max(np.abs(gamma - 1j * QUBIT_H)) <= 1e-6


def test_criterion_06_bundle_schrodinger_consistency():
    with Budget("6 bundle Schrodinger", 5.0):
        path = Path.line(0.0, 1.0, 3)
        l = Trivialization.from_time_function(
            2,
            lambda t: np.array(
                [[np.cos(0.4 * t), -np.sin(0.4 * t)], [np.sin(0.4 * t), np.cos(0.4 * t)]],
                dtype=complex,
            ),
        )
        tr = Transport.build(path, HamiltonianSpec.constant(QUBIT_H), l, dt=1e-3)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        bundle = solve_bundle_schrodinger(tr, psi0, 1.0)
        pushed = l.matrix(1.0) @ bundle
        direct = np.diag([np.exp(-1j), np.exp(1j)]) @ (l.matrix(0.0) @ psi0)
        assert np.max(np.abs(pushed - direct)) <= 1e-8


def test_criterion_07_bundle_anticommutator():
    with Budget("7 wrapped anticommutator", 5.0):
        grid = Grid((16, 16), (2 * np.pi / 16, 2 * np.pi / 16))
        gset = minkowski_gamma_set(2)
        l_field = random_smooth_trivialization_field(grid, 2, seed=42)
        wrapped = bundle_wrap(gset, grid, l_field)
        assert wrapped.anticommutator_residual() <= 1e-10


def test_criterion_08_momentum_operator():
    with Budget("8 momentum operator", 10.0):
        gset = minkowski_gamma_set(2)
        grid = Grid((32, 32), (2 * np.pi / 32, 2 * np.pi / 32))
        rng = np.random.default_rng(0)
        shape = (2,) + grid.extents
        phi = SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        psi = SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        defect = abs(
            dirac_pairing(phi, momentum_op(psi, gset), gset)
            - dirac_pairing(momentum_op(phi, gset), psi, gset)
        )
        assert defect <= 1e-10
        # free-evolution expectation drift over t = 1
        sgrid = Grid((32,), (2 * np.pi / 32,))
        k = sgrid.wavenumber(0, 1)
        klat = np.sin(k * sgrid.spacing[0]) / sgrid.spacing[0]
        hmat = gset.gamma0 @ gset.gamma(1) * klat + 1.0 * gset.gamma0
        _, evecs = np.linalg.eigh(hmat)
        u = evecs[:, -1] + 0.5 * evecs[:, 0]
        psi0 = SpinorField.plane_wave(sgrid, (k,), u)
        psit = dirac_hamiltonian_evolve(psi0, None, 1.0, 0.0, 1.0, 1e-3, gset)
        drift = abs(momentum_expectation(psit, 0) - momentum_expectation(psi0, 0))
        assert drift <= 1e-6


def test_criterion_09_dalembert_convergence():
    with Budget("9 d'Alembert convergence", 10.0):
        gset = minkowski_gamma_set(2)
        errors = []
        for n in (64, 128):
            grid = Grid((n, n), (2 * np.pi / n, np.pi / n))
            kt, kx = grid.wavenumber(0, 1), grid.wavenumber(1, 1)
            phi = ScalarField.plane_wave(grid, (kt, kx))
            res = dalembert_identity(phi, AffineConnection.flat(2), gset)
            analytic = -(kt**2 - kx**2) * phi.values
            errors.append(
                float(np.max(np.abs(res.lhs_scalar - analytic)))
                / float(np.max(np.abs(analytic)))
            )
        factor = errors[0] / errors[1]
        assert abs(factor - 4.0) <= 0.8  # 4 within 20%


def test_criterion_10_klein_gordon_roundtrip():
    with Budget("10 Klein-Gordon roundtrip", 10.0):
        n = 128
        grid = Grid((n,), (2 * np.pi / n,))
        mass = 1.0
        k = grid.wavenumber(0, 1)
        energy = np.sqrt(k**2 + mass**2)
        x = grid.axis_coords(0)
        phi0 = ScalarField(grid, np.exp(1j * k * x))
        phidot0 = ScalarField(grid, -1j * energy * phi0.values)
        psi = klein_gordon_reduce(phi0, phidot0, mass)
        psit = klein_gordon_evolve(psi, mass, 1.0, 1e-3)
        phit, _ = klein_gordon_reconstruct(psit)
        ref = np.exp(-1j * energy) * phi0.values
        rel = np.max(np.abs(phit.values - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-4


def test_criterion_11_spin_tensor_collapse():
    with Budget("11 spin-tensor collapse", 2.0):
        gs = gamma_set_for_signature(Signature(3, 1))
        lows = lowered_gammas_exact(gs)
        rng = np.random.default_rng(1)
        eye = exact.identity(4)
        for _ in range(100):
            raw = rng.integers(-9, 10, size=(4, 4))
            t = np.empty((4, 4), dtype=object)
            for i in range(4):
                for j in range(4):
                    t[i, j] = F(int(raw[i, j] + raw[j, i]), 2)
            got = stress_energy_spinvector(t, lows)
            trace = sum(F(gs.metric_diag[mu]) * t[mu, mu] for mu in range(4))
            assert all(
                x == y for x, y in zip(np.ravel(got), np.ravel(trace * eye))
            )


def test_criterion_12_full_verify_cli():
    with Budget("12 full verify CLI", 60.0):
        cmd = [sys.executable, "-m", "clifbundle.cli", "verify"]
        for s in ("1,1", "2,0", "0,2", "3,1", "1,3"):
            cmd += ["--signature", s]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "checks passed" in proc.stdout
