"""Command-line front door: verification suites and scenario runners.

Subcommands
-----------
verify      identity suites (anticommutation relations, dimension counts,
            associativity sampled from --seed) per --signature, by default
            each reference signature 0,1 0,2 1,1 2,0 3,1 1,3, plus the five
            classification rows of every reference signature
spinor-rep  primitive idempotent as a greedy product, minimal ideal,
            gamma/sigma extraction
transport   evolution-transport scenario from a JSON file
dirac       flat-grid field scenarios (dispersion | hermiticity |
            dalembert | kg-roundtrip | wrap-check)

Exit codes: 0 all checks passed, 1 a tolerance failed, 2 usage/config error,
3 numerical fault: a linear-algebra routine failed, or the gammas a scenario
needs came from a basis that is not a left ideal or failed their
anticommutator or Hermiticity gate; 3 also marks an internal fault, any
other exception, which prints its traceback.  Exit 3 writes no report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import traceback
from fractions import Fraction
from math import comb, prod
from pathlib import Path as FsPath

import numpy as np

from . import fields as fl
from . import spinor as sp
from . import transport as tr
from .ga import Multivector, Signature, basis_blades, clifford
from .report import Report

EQ1_RELATION = "e_i e_j + e_j e_i = 2 g_ij"
USAGE_ERROR = 2
NUMERICAL_FAULT = 3


class UsageError(ValueError):
    pass


def _parse_signature(text: str) -> Signature:
    try:
        p_str, q_str = text.split(",")
        p, q = int(p_str), int(q_str)
    except ValueError as exc:
        raise UsageError(f"bad signature {text!r}: expected 'p,q' with p+q >= 1") from exc
    # Signature owns the bounds on p, q and the dimension ceiling
    try:
        return Signature(p, q)
    except ValueError as exc:
        raise UsageError(f"bad signature {text!r}: {exc}") from exc


def _parse_tols(pairs, names) -> dict:
    """--tol name=value overrides; a name outside `names` is a usage error."""
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"bad --tol {item!r}: expected name=value")
        name, value = item.split("=", 1)
        if name not in names:
            raise UsageError(
                f"unknown --tol name {name!r}; this run reads {', '.join(names)}"
            )
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad --tol value in {item!r}") from exc
    return out


def _write_report(
    report: Report, out_dir: str | None, filename: str, extra: dict | None = None
) -> None:
    text = report.to_json(extra)
    if out_dir:
        path = FsPath(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text + "\n")
    for line in report.summary_lines():
        print(line)


# ---------------------------------------------------------------------------
# verify


def _random_exact_multivector(rng, n: int) -> Multivector:
    masks = rng.choice(1 << n, size=min(4, 1 << n), replace=False)
    return Multivector(
        n, {int(m): Fraction(int(rng.integers(-3, 4))) for m in masks}
    )


def _verify_signature(report: Report, sig: Signature, rng) -> None:
    metric = sig.metric()
    n = sig.n
    tag = f"cl{sig.p}{sig.q}"
    # defining anticommutation relations, exhaustive over basis vector pairs
    worst = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ei = Multivector.basis_vector(i, n, Fraction(1))
            ej = Multivector.basis_vector(j, n, Fraction(1))
            lhs = clifford(ei, ej, metric) + clifford(ej, ei, metric)
            rhs = Multivector.scalar(2 * Fraction(metric.entry(i - 1, j - 1)), n)
            if lhs != rhs:
                worst += 1
    report.add(
        f"{tag}-defining-relations", residual=worst, tolerance=0.0,
        relation=EQ1_RELATION, details=f"exhaustive over {n * n} basis pairs, exact",
    )
    # dimension counts
    dims_ok = len(basis_blades(n)) == 2**n and all(
        len(basis_blades(n, q)) == comb(n, q) for q in range(n + 1)
    )
    report.add(
        f"{tag}-dimension-counts", residual=0 if dims_ok else 1, tolerance=0,
        relation="dim Lambda = 2^n and dim Lambda^q = C(n, q)",
    )
    # associativity sampling (exact)
    assoc_fail = 0
    for _ in range(3):
        a = _random_exact_multivector(rng, n)
        b = _random_exact_multivector(rng, n)
        c = _random_exact_multivector(rng, n)
        if clifford(clifford(a, b, metric), c, metric) != clifford(
            a, clifford(b, c, metric), metric
        ):
            assoc_fail += 1
    report.add(
        f"{tag}-associativity", residual=assoc_fail, tolerance=0.0,
        relation="(a b) c = a (b c) for the Clifford product",
        details="3 random exact triples",
    )


def cmd_verify(args) -> int:
    sigs = [_parse_signature(s) for s in args.signature or []] or [
        Signature(p, q) for p, q in sp.REFERENCE_SIGNATURES
    ]
    rng = np.random.default_rng(args.seed)
    report = Report(
        command="verify",
        config={"signatures": [f"{s.p},{s.q}" for s in sigs], "seed": args.seed},
    )
    for sig in sigs:
        _verify_signature(report, sig, rng)
    report.checks.extend(sp.verify_iso_table())
    _write_report(report, args.out, "verify_report.json")
    return report.exit_code


# ---------------------------------------------------------------------------
# spinor-rep


def cmd_spinor_rep(args) -> int:
    if len(args.signature) > 1:
        raise UsageError("spinor-rep inspects one signature per run")
    sig = _parse_signature(args.signature[0])
    report = Report(
        command="spinor-rep",
        config={"signature": f"{sig.p},{sig.q}"},
    )
    idem, gamma_set = sp.spinor_representation(sig)
    f = idem.idempotent
    report.add(
        "idempotent-search", residual=0 if clifford(f, f, sig.metric()) == f else 1, tolerance=0,
        relation="f f = f for the primitive idempotent",
        details=idem.note,
    )
    # matrices of a basis that is not a left ideal represent nothing
    closed = gamma_set.closure_failures == 0
    report.add(
        "minimal-ideal", residual=gamma_set.closure_failures, tolerance=0.0,
        relation=(
            "division algebra: the whole algebra is the minimal ideal" if idem.whole_algebra
            else "v (ideal) lies inside the ideal for every basis vector v"
        ),
        details=f"ideal dimension {gamma_set.dim}",
    )
    residual = gamma_set.anticommutator_residuals()
    report.add(
        "gamma-relations", residual=residual, tolerance=0,
        relation="g^mu g^nu + g^nu g^mu = 2 g^{mu nu} I (exact)",
        details=f"representation dimension {gamma_set.dim}", holds=closed,
    )
    # In integers at scale 4 D^2: C^{mu mu} = 0 and C^{mu nu} = 2 P[mu][nu], read from the
    # product table, not the commutator sigma_generators forms; for mu != nu the two
    # agree exactly when g^mu and g^nu anticommute.
    sigmas = sp.sigma_generators(gamma_set)
    c, products = sigmas.numerators, gamma_set.products
    worst = 0
    for mu in range(sig.n):
        for nu in range(sig.n):
            expected = 0 if mu == nu else 2 * products[mu][nu]
            worst = max(
                worst,
                np.abs(c[mu, nu] - expected).max(),
                np.abs(c[mu, nu] + c[nu, mu]).max(),
            )
    report.add(
        "sigma-generators", residual=Fraction(worst, sigmas.scale), tolerance=0,
        relation="4 sigma^{mu nu} = [g^mu, g^nu], antisymmetric in (mu, nu)", holds=closed,
    )
    matrices = {
        f"gamma_{mu + 1}": np.array(g, dtype=float).reshape(-1).tolist()
        for mu, g in enumerate(gamma_set.gammas)
    }
    _write_report(report, args.out, "spinor_rep_report.json", extra={"matrices": matrices})
    return report.exit_code


# ---------------------------------------------------------------------------
# transport


def cmd_transport(args) -> int:
    scenario = tr.load_scenario(args.scenario)
    tols = {**scenario.tolerances, **_parse_tols(args.tol, tr.TOLERANCES)}
    transport = tr.Transport.build(
        scenario.path, scenario.hamiltonian, scenario.trivialization, scenario.dt
    )
    report = Report(
        command="transport",
        config={
            "scenario": args.scenario,
            "dt": scenario.dt,
            "fibre_dim": scenario.fibre_dim,
            "tolerances": tols,
        },
    )
    t0, t1 = scenario.path.t_start, scenario.path.t_end
    span = t1 - t0
    times = [t0, t0 + 0.25 * span, t0 + 0.5 * span, t0 + 0.75 * span, t1]
    worst_cocycle = max(
        transport.cocycle_residual(times[4], times[2], times[0]),
        transport.cocycle_residual(times[3], times[2], times[1]),
        # the middle time lies outside the other two, so one leg runs backward;
        # RK4 is not time-symmetric, so this triple sees a step taken the wrong way
        transport.cocycle_residual(times[1], times[4], times[3]),
    )
    report.add(
        "cocycle", worst_cocycle, tols["cocycle"],
        relation="U(t,s) U(s,r) = U(t,r)",
    )
    report.add(
        "round-trip", transport.round_trip_residual(times[3], times[1]), tols["cocycle"],
        relation="U(s,t) U(t,s) = I",
    )
    report.add(
        "unitarity", transport.unitarity_residual(t1, t0), tols["unitarity"],
        relation="U preserves the trivialization-conjugated inner product",
    )
    h = 1e-4
    # evaluate inside the first path segment: tabulated trivializations are
    # only piecewise linear, so derivative stencils must avoid sample kinks
    mid = 0.5 * (scenario.path.times[0] + scenario.path.times[1])
    gamma = tr.connection_coeffs(transport, mid, h)
    target = 1j * transport.trivialization.inverse(mid) @ scenario.hamiltonian.matrix(
        mid
    ) @ transport.trivialization.matrix(mid)
    # pure-gauge contribution of a time-varying trivialization
    lp = transport.trivialization.matrix(mid + h)
    lm = transport.trivialization.matrix(mid - h)
    target = target + transport.trivialization.inverse(mid) @ ((lp - lm) / (2 * h))
    report.add(
        "connection-vs-hamiltonian",
        float(np.max(np.abs(gamma - target))),
        tols["correspondence"],
        relation="Gamma(t) = (i/hbar) H_bundle(t)",
    )
    hmat = tr.matrix_bundle_hamiltonian(transport, mid, h)
    report.add(
        "matrix-bundle-hamiltonian",
        float(np.max(np.abs(hmat - (-1j) * gamma))),
        tols["correspondence"],
        relation="H_bundle = i dU/dt U^{-1} = -i Gamma",
    )
    # time series of the bundle solution
    psi0 = np.zeros(scenario.fibre_dim, dtype=complex)
    psi0[0] = 1.0
    series_times = np.linspace(t0, t1, 21)
    rows = []
    for t, psi in zip(series_times, transport.propagate(series_times, t0) @ psi0):
        rows.append([t] + [v for comp in psi for v in (comp.real, comp.imag)])
    if args.out:
        path = FsPath(args.out)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "psi_series.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["t"]
            for kdx in range(scenario.fibre_dim):
                header += [f"re_psi{kdx}", f"im_psi{kdx}"]
            writer.writerow(header)
            writer.writerows(rows)
    _write_report(report, args.out, "transport_report.json")
    return report.exit_code


# ---------------------------------------------------------------------------
# dirac


def _potential_preset(name: str, grid: fl.Grid, n_components: int) -> fl.EMPotential:
    a = np.zeros((n_components,) + grid.extents)
    # spatial axis carrying the preset profile: axis 0 on spatial grids,
    # axis 1 on spacetime grids (where axis 0 is time)
    axis = 0 if n_components > grid.dims else min(1, grid.dims - 1)
    if name == "zero":
        pass
    elif name == "constant-E":
        # temporal-gauge sawtooth A_0 = -E0 (x - L/2); the periodic wrap
        # discontinuity is documented in the README
        x = grid.axis_coords(axis)
        shape = [1] * grid.dims
        shape[axis] = -1
        a[0] = -0.5 * (x - grid.length(axis) / 2).reshape(shape)
    elif name == "plane-wave-gauge":
        mesh = grid.mesh()
        k = grid.wavenumber(axis, 1)
        for mu in range(n_components):
            a[mu] = 0.1 * np.sin(k * mesh[axis])
    else:
        raise UsageError(f"unknown potential preset {name!r}")
    return fl.EMPotential(grid, a)


# largest grid the dirac scenarios accept; a 4-spinor complex field on
# 2^22 sites takes 256 MiB.  The step loop (rk4_linear) over a site-dependent
# potential on three axes peaks at 9.9 field arrays under tracemalloc, 634 B
# a site: the state, the stage input and three RK4 stages, the prepared
# operator's three-axis difference scratch and its matmul output, and its
# coupling arrays (19.8 MiB on 32^3, where the field takes 2 MiB; 158 MiB on
# 64^3).  On one axis the ring stencil steps instead: its coefficients are 18
# fields of a 2-spinor, and reading them takes one more probe step, a peak of
# 28.5 fields, 910 B a site (3.6 GiB on 2^22 sites, 1.2 GiB before the
# stencil; the steps that follow hold about 24 fields).  dalembert's finest level
# peaks at 7.5 complex scalar fields, 120 bytes a site: the four second
# derivatives and about four more, with no (V, m, m) stack (7.5 MiB on 256^2)
MAX_GRID_SITES = 1 << 22


def _parse_values(flag: str, text: str, kind) -> tuple:
    """A comma-separated flag value; an entry kind() cannot read names the flag."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}: expected comma-separated {kind.__name__}s") from exc


def _parse_extents(text: str) -> tuple:
    """--grid as extents, each refused below 4 points before any arithmetic on it."""
    extents = _parse_values("--grid", text, int)
    if any(n < 4 for n in extents):
        raise UsageError(f"bad --grid {text!r}: each axis needs >= 4 points")
    return extents


def _grid_from_args(args, default_extents) -> fl.Grid:
    extents = _parse_extents(args.grid) if args.grid else default_extents
    if args.spacing:
        spacing = _parse_values("--spacing", args.spacing, float)
        if len(spacing) == 1:
            spacing = spacing * len(extents)
    else:
        spacing = tuple(2 * np.pi / n for n in extents)
    if len(spacing) != len(extents):
        raise UsageError("--spacing must have one entry or one per axis")
    _check_grid_sites(extents)
    return fl.Grid(extents, spacing)


def _check_grid_sites(extents) -> None:
    sites = prod(extents)
    if sites > MAX_GRID_SITES:
        raise UsageError(
            f"grid has {sites} sites, above the memory budget of {MAX_GRID_SITES}"
        )


def _dirac_dispersion(args, report: Report, tols: dict, rng) -> None:
    grid = _grid_from_args(args, (64,))
    gset = fl.minkowski_gamma_set(grid.dims + 1)
    mass = args.mass
    pot = _potential_preset(args.potential, grid, gset.spacetime_dim)
    k = grid.wavenumber(0, 1)
    klat = np.sin(k * grid.spacing[0]) / grid.spacing[0]
    hmat = gset.gamma0_products[1] * klat + mass * gset.gamma0
    evals, evecs = np.linalg.eigh(hmat)
    u = evecs[:, int(np.argmax(evals))]
    elat = float(np.max(evals))
    psi0 = fl.SpinorField.plane_wave(grid, (k,), u)
    dt = min(1e-3, min(grid.spacing) / 8)
    psit = fl.dirac_hamiltonian_evolve(psi0, pot, mass, args.charge, 1.0, dt, gset)
    report.add(
        "norm-drift", abs(psit.norm_sq() - psi0.norm_sq()), tols["norm-drift"],
        relation="the evolution is unitary (norm conserved)",
    )
    if args.potential == "zero":
        exact = fl.SpinorField.plane_wave(grid, (k,), u * np.exp(-1j * elat))
        report.add(
            "dispersion-fidelity",
            float(np.max(np.abs(psit.components - exact.components))),
            tols["fidelity"],
            relation="on-shell phase advances as exp(-i E_lat t)",
        )
        report.add(
            "momentum-drift",
            abs(fl.momentum_expectation(psit, 0) - fl.momentum_expectation(psi0, 0)),
            tols["momentum-drift"],
            relation="free evolution conserves the momentum expectation",
        )
    _write_field_snapshot(args, grid, psit, "dirac_field")


def _dirac_hermiticity(args, report: Report, tols: dict, rng) -> None:
    grid = _grid_from_args(args, (32, 32))
    gset = fl.minkowski_gamma_set(grid.dims)
    shape = (gset.spinor_dim,) + grid.extents
    phi = fl.SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    psi = fl.SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    lhs = fl.dirac_pairing(phi, fl.momentum_op(psi, gset), gset)
    rhs = fl.dirac_pairing(fl.momentum_op(phi, gset), psi, gset)
    report.add(
        "momentum-hermiticity", abs(lhs - rhs), tols["hermiticity"],
        relation="<phi, p psi> = <p phi, psi> in the Dirac pairing",
    )
    # spatial Hamiltonian Hermiticity with the chosen potential preset
    sgrid = fl.Grid((grid.extents[-1],), (grid.spacing[-1],))
    sset = fl.minkowski_gamma_set(sgrid.dims + 1)
    pot = _potential_preset(args.potential, sgrid, sset.spacetime_dim)
    sshape = (sset.spinor_dim,) + sgrid.extents
    a = rng.normal(size=sshape) + 1j * rng.normal(size=sshape)
    b = rng.normal(size=sshape) + 1j * rng.normal(size=sshape)
    ha = fl.dirac_hamiltonian(a, sgrid, pot, args.mass, args.charge, sset)
    hb = fl.dirac_hamiltonian(b, sgrid, pot, args.mass, args.charge, sset)
    lhs2 = np.sum(np.conj(a) * hb)
    rhs2 = np.sum(np.conj(ha) * b)
    report.add(
        "hamiltonian-hermiticity", abs(lhs2 - rhs2) * sgrid.cell_volume, tols["hermiticity"],
        relation="H_D is Hermitian in the plain L2 product",
    )


def _dirac_dalembert(args, report: Report, tols: dict, rng) -> None:
    base = args.grid or "64,64"
    extents = _parse_extents(base)
    if len(extents) != 2:
        raise UsageError(f"dalembert needs a grid of two axes (t, x), got --grid {base}")
    refinements = args.refine
    if refinements < 1:
        raise UsageError(f"dalembert needs --refine >= 1, got {refinements}")
    _check_grid_sites(tuple(n * 2**refinements for n in extents))
    errors = []
    for level in range(refinements + 1):
        ext = tuple(n * 2**level for n in extents)
        grid = fl.Grid(ext, (2 * np.pi / ext[0], np.pi / ext[1]))
        gset = fl.minkowski_gamma_set(grid.dims)
        kt, kx = grid.wavenumber(0, 1), grid.wavenumber(1, 1)
        phi = fl.ScalarField.plane_wave(grid, (kt, kx))
        res = fl.dalembert_identity(phi, fl.AffineConnection.flat(2), gset)
        analytic = -(kt**2 - kx**2) * phi.values
        scale = float(np.max(np.abs(analytic)))
        errors.append(float(np.max(np.abs(res.lhs_scalar - analytic))) / scale)
        if level == 0:
            report.add(
                "scalar-parts-agree", res.scalar_residual, 1e-12,
                relation="scalar part of the gamma-squared operator equals D_mu D^mu",
            )
            report.add(
                "grade2-vanishes", res.grade2_max, tols["grade2"],
                relation="mixed partials commute: no grade-2 content for flat data",
            )
    for level in range(len(errors) - 1):
        factor = errors[level] / errors[level + 1]
        report.add(
            f"convergence-factor-level{level}",
            abs(factor - 4.0), tols["convergence"],
            relation="second-order stencils: error shrinks 4x per grid doubling",
            details=f"factor {factor:.3f} from error {errors[level]:.3e} to {errors[level + 1]:.3e}",
        )


def _dirac_kg(args, report: Report, tols: dict, rng) -> None:
    grid = _grid_from_args(args, (128,))
    mass = args.mass
    k = grid.wavenumber(0, 1)
    energy = np.hypot(k, mass)
    x = grid.axis_coords(0)
    phi0 = fl.ScalarField(grid, np.exp(1j * k * x))
    phidot0 = fl.ScalarField(grid, -1j * energy * np.exp(1j * k * x))
    psi = fl.klein_gordon_reduce(phi0, phidot0, mass)
    phi_back, _ = fl.klein_gordon_reconstruct(psi)
    report.add(
        "roundtrip-at-t0",
        float(np.max(np.abs(phi_back.values - phi0.values))),
        1e-14,
        relation="reduce then reconstruct is the identity",
    )
    # the largest step up to 1e-3 that the stability bound admits
    psit = fl.klein_gordon_evolve(psi, mass, 1.0, min(1e-3, fl._stability_bound(grid)))
    phit, _ = fl.klein_gordon_reconstruct(psit)
    exact = np.exp(-1j * energy) * phi0.values
    rel = float(np.max(np.abs(phit.values - exact)) / np.max(np.abs(exact)))
    report.add(
        "plane-wave-roundtrip", rel, tols["roundtrip"],
        relation="the first-order doublet evolution reproduces the scalar wave",
    )


def _dirac_wrap(args, report: Report, tols: dict, rng) -> None:
    grid = _grid_from_args(args, (16, 16))
    gset = fl.minkowski_gamma_set(grid.dims)
    l_field = fl.random_smooth_trivialization_field(grid, gset.spinor_dim, seed=args.seed)
    wrapped = fl.bundle_wrap(gset, grid, l_field)
    report.add(
        "wrapped-anticommutator", wrapped.anticommutator_residual(), tols["wrap"],
        relation="G^mu G^nu + G^nu G^mu = 2 eta^{mu nu} I at every grid point",
    )
    dets_orig = np.prod([np.linalg.det(np.asarray(g, dtype=complex)) for g in gset.gammas])
    dets_wrapped = np.prod(
        [np.linalg.det(wrapped.matrices[mu][(0,) * grid.dims]) for mu in range(len(gset.gammas))]
    )
    report.add(
        "determinant-invariance", abs(dets_orig - dets_wrapped),
        1e-10,
        relation="similarity transforms preserve determinants",
    )


# grid sites per block of the field snapshot; bounds the Python floats held at once
SNAPSHOT_ROWS = 1 << 16


def _write_field_snapshot(args, grid: fl.Grid, psi: fl.SpinorField, name: str) -> None:
    if not args.out:
        return
    path = FsPath(args.out)
    path.mkdir(parents=True, exist_ok=True)
    header = {
        "grid": {
            "extents": list(grid.extents),
            "spacing": list(grid.spacing),
            "periodic": [True] * grid.dims,
        },
        "metric": "diag(+1, -1, ...) with time first",
        "gamma_convention": "algebra-derived set, -i carried by the complex scalars",
    }
    (path / f"{name}_header.json").write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    comps = psi.components
    ncomp = psi.spinor_dim
    with open(path / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{a}" for a in range(grid.dims)]
            + [f"{part}_c{k}" for k in range(ncomp) for part in ("re", "im")]
        )
        flat = comps.reshape(ncomp, -1)
        for lo in range(0, grid.volume, SNAPSHOT_ROWS):
            hi = min(lo + SNAPSHOT_ROWS, grid.volume)
            # Python floats, so each cell is written as repr(float)
            columns = [
                (idx * h).tolist()
                for idx, h in zip(np.unravel_index(np.arange(lo, hi), grid.extents), grid.spacing)
            ]
            for k in range(ncomp):
                columns += [flat[k, lo:hi].real.tolist(), flat[k, lo:hi].imag.tolist()]
            writer.writerows(zip(*columns))


# the flags a dirac scenario may read, with their defaults
_DIRAC_FLAGS = {
    "grid": None, "spacing": None, "mass": 1.0, "charge": 0.0,
    "potential": "zero", "seed": 0, "refine": 1,
}
_FIELD_FLAGS = ("grid", "spacing", "mass", "charge", "potential")

# each dirac scenario: its runner, the flags it reads, and the --tol names it
# reads with their defaults.  dalembert sets its spacings to (2 pi/N_t, pi/N_x)
# on each level: with equal spacings its (1, 1) test mode lies on the light
# cone and the analytic scale the errors divide by is 0.
DIRAC_SCENARIOS = {
    "dispersion": (
        _dirac_dispersion, _FIELD_FLAGS,
        {"norm-drift": 1e-8, "momentum-drift": 1e-6, "fidelity": 1e-6},
    ),
    "hermiticity": (_dirac_hermiticity, _FIELD_FLAGS + ("seed",), {"hermiticity": 1e-10}),
    "dalembert": (
        _dirac_dalembert, ("grid", "refine"), {"grade2": 1e-10, "convergence": 0.8}
    ),
    "kg-roundtrip": (_dirac_kg, ("grid", "spacing", "mass"), {"roundtrip": 1e-4}),
    "wrap-check": (_dirac_wrap, ("grid", "spacing", "seed"), {"wrap": 1e-10}),
}


def cmd_dirac(args) -> int:
    scenario = args.scenario
    if scenario not in DIRAC_SCENARIOS:
        raise UsageError(
            f"unknown dirac scenario {scenario!r}; choose from {', '.join(DIRAC_SCENARIOS)}"
        )
    run, reads, tol_defaults = DIRAC_SCENARIOS[scenario]
    # a flag the scenario would ignore is a bad config, not a silent no-op
    unread = [
        f"--{flag}" for flag in _DIRAC_FLAGS
        if flag not in reads and getattr(args, flag) is not None
    ]
    if unread:
        raise UsageError(
            f"dirac scenario {scenario!r} does not read {', '.join(unread)}; "
            f"it reads {', '.join('--' + flag for flag in reads)}"
        )
    for flag, default in _DIRAC_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    # the report records the overrides; the runner reads them over the defaults
    tols = _parse_tols(args.tol, tol_defaults)
    rng = np.random.default_rng(args.seed)
    flags = {flag: getattr(args, flag) for flag in _DIRAC_FLAGS}
    report = Report(
        command="dirac", config={"scenario": scenario, **flags, "tolerances": tols}
    )
    run(args, report, {**tol_defaults, **tols}, rng)
    _write_report(report, args.out, "dirac_report.json")
    return report.exit_code


# ---------------------------------------------------------------------------
# entry point


# parse_args leaves the parser as it found it, so one process builds it once
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifbundle",
        description="verification CLI for the Clifford-algebra / bundle-evolution library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_names=None):
        p.add_argument("--out", help="directory for JSON reports and CSV series")
        if tol_names:
            p.add_argument(
                "--tol", action="append", metavar="NAME=VALUE",
                help=f"override a named tolerance (repeatable); names: {tol_names}",
            )

    p_verify = sub.add_parser("verify", help="run the algebra identity suites")
    p_verify.add_argument(
        "--signature", action="append", metavar="P,Q",
        help="signature to check (repeatable; default: the six reference ones)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="seed for associativity sampling")
    common(p_verify)

    p_rep = sub.add_parser("spinor-rep", help="inspect the spinor representation")
    p_rep.add_argument("--signature", action="append", metavar="P,Q", required=True)
    common(p_rep)

    p_tr = sub.add_parser("transport", help="run a transport scenario file")
    p_tr.add_argument("--scenario", required=True, help="scenario JSON path")
    common(p_tr, ", ".join(tr.TOLERANCES))

    p_di = sub.add_parser("dirac", help="run a flat-grid field scenario")
    p_di.add_argument(
        "--scenario",
        default="hermiticity",
        help=" | ".join(DIRAC_SCENARIOS),
    )
    p_di.add_argument("--grid", help="comma-separated extents, e.g. 64,64")
    p_di.add_argument("--spacing", help="comma-separated spacings (or one for all axes)")
    p_di.add_argument("--mass", type=float)
    p_di.add_argument("--charge", type=float)
    p_di.add_argument("--potential", help="zero | constant-E | plane-wave-gauge")
    p_di.add_argument("--refine", type=int, help="grid doublings for convergence studies")
    # each dirac flag defaults to None, a flag left out; cmd_dirac fills in _DIRAC_FLAGS
    p_di.add_argument("--seed", type=int, help="seed of the hermiticity and wrap-check fields")
    common(p_di, "; ".join(f"{k}: {', '.join(v[2])}" for k, v in DIRAC_SCENARIOS.items()))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "spinor-rep": cmd_spinor_rep,
        "transport": cmd_transport,
        "dirac": cmd_dirac,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, sp.ClosureError) as exc:
        print(f"error: numerical fault: {exc}", file=sys.stderr)
        return NUMERICAL_FAULT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # any other escape is a fault of the program: neither a failed law (1) nor a bad config (2)
    except Exception as exc:
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return NUMERICAL_FAULT


if __name__ == "__main__":
    sys.exit(main())
