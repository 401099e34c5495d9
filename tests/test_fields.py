import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from clifbundle import fields
from clifbundle.fields import (
    AffineConnection,
    EMPotential,
    FieldGammaSet,
    Grid,
    GridError,
    ScalarField,
    SpinorField,
    StabilityError,
    bundle_wrap,
    central_diff,
    dalembert_identity,
    dirac_hamiltonian,
    dirac_hamiltonian_evolve,
    dirac_pairing,
    dirac_slash,
    field_energy_momentum,
    klein_gordon_evolve,
    klein_gordon_hamiltonian,
    klein_gordon_reconstruct,
    klein_gordon_reduce,
    lowered_gammas_exact,
    lowered_gammas_field,
    minkowski_gamma_set,
    momentum_expectation,
    momentum_op,
    random_smooth_trivialization_field,
    second_diff,
    spin_vector_package,
    stress_energy_spinvector,
    stress_tensor,
    wrapped_momentum,
)
from clifbundle.ga import Signature
from clifbundle.numerics import rk4_linear
from clifbundle.spinor import gamma_set_for_signature

L = 2 * np.pi


@pytest.fixture(scope="module")
def g2():
    return minkowski_gamma_set(2)


@pytest.fixture(scope="module")
def g4():
    return minkowski_gamma_set(4)


def spacetime_grid(n: int) -> Grid:
    return Grid((n, n), (L / n, L / n))


def onshell_spinor(grid: Grid, gset: FieldGammaSet, energy, p, mass) -> SpinorField:
    """u exp(i(-E t + p x)) with u from the momentum-space nullspace."""
    mat = energy * gset.gamma0 - p * gset.gamma(1) - mass * np.eye(gset.spinor_dim)
    _, svals, vh = np.linalg.svd(mat)
    assert svals[-1] < 1e-12, "requested (E, p, m) is not on shell"
    u = vh.conj()[-1]
    return SpinorField.plane_wave(grid, (-energy, p), u)


def field_norm(f: SpinorField) -> float:
    return float(np.sqrt(np.sum(np.abs(f.components) ** 2) * f.grid.cell_volume))


# ---------------------------------------------------------------------------
# gamma sets


def test_gamma_sets_satisfy_relations(g2, g4):
    for gset, dim in ((g2, 2), (g4, 4)):
        assert gset.anticommutator_residual() <= 1e-12
        assert gset.hermiticity_residual() <= 1e-12
        assert gset.spinor_dim == dim
    assert g2.eta == (1, -1)
    assert g4.eta == (1, -1, -1, -1)


# ---------------------------------------------------------------------------
# discrete derivative machinery


def test_summation_by_parts_on_periodic_grid():
    grid = spacetime_grid(16)
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid.extents) + 1j * rng.normal(size=grid.extents)
    g = rng.normal(size=grid.extents) + 1j * rng.normal(size=grid.extents)
    for axis in range(2):
        lhs = np.sum(np.conj(f) * central_diff(g, axis, grid.spacing[axis]))
        rhs = -np.sum(np.conj(central_diff(f, axis, grid.spacing[axis])) * g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def roll_central_diff(arr, axis, spacing):
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * spacing)


def roll_second_diff(arr, axis, spacing):
    return (np.roll(arr, -1, axis=axis) - 2.0 * arr + np.roll(arr, 1, axis=axis)) / spacing**2


@pytest.mark.parametrize("shape", [(4,), (7,), (4, 6), (6, 4), (4, 5, 6), (5, 4, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_slice_stencils_match_the_roll_forms_bit_for_bit(shape, dtype):
    # the slice stencil keeps the operation order of the np.roll forms, so
    # every derivative, and every report built on one, keeps its bits
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    arr = rng.normal(size=shape)
    if dtype is complex:
        arr = arr + 1j * rng.normal(size=shape)
    for axis in range(len(shape)):
        for spacing in (0.3, 2 * np.pi / shape[axis]):
            got = central_diff(arr, axis, spacing)
            assert got.dtype == arr.dtype
            assert np.array_equal(got, roll_central_diff(arr, axis, spacing))
            got = second_diff(arr, axis, spacing)
            assert got.dtype == arr.dtype
            assert np.array_equal(got, roll_second_diff(arr, axis, spacing))


def test_grid_validation():
    with pytest.raises(GridError):
        Grid((3,), (0.1,))
    with pytest.raises(GridError):
        Grid((8,), (-0.1,))
    with pytest.raises(GridError):
        Grid((8, 8), (0.1,))


def test_grid_volume_does_not_wrap():
    # 2^64 sites, which an int64 product wraps to 0
    assert Grid((2**32, 2**32), (1.0, 1.0)).volume == 2**64


def test_gamma0_products_are_formed_once(g4):
    products = g4.gamma0_products
    assert g4.gamma0_products is products
    for mu in range(4):
        assert np.array_equal(products[mu], g4.gamma0 @ g4.gamma(mu))


# ---------------------------------------------------------------------------
# dirac_slash


def test_slash_of_constant_massless_field_vanishes(g2):
    grid = spacetime_grid(16)
    psi = SpinorField(grid, np.ones((2,) + grid.extents, dtype=complex))
    out = dirac_slash(psi, EMPotential.zero(grid), 0.0, 0.0, g2)
    assert np.max(np.abs(out.components)) <= 1e-14


def test_slash_residual_shows_second_order_decay(g2):
    # on-shell continuum (E, p, m) = (5, 4, 3): all lattice-periodic modes
    energy, p, mass = 5.0, 4.0, 3.0
    norms = []
    for n in (64, 128):
        grid = spacetime_grid(n)
        psi = onshell_spinor(grid, g2, energy, p, mass)
        r = dirac_slash(psi, EMPotential.zero(grid), mass, 0.7, g2)
        norms.append(field_norm(r))
    factor = norms[0] / norms[1]
    assert abs(factor - 4.0) <= 0.8


def test_slash_gauge_transform_leaves_residual_norm(g2):
    energy, p, mass, charge = 5.0, 4.0, 3.0, 0.8
    grid = spacetime_grid(64)
    psi = onshell_spinor(grid, g2, energy, p, mass)
    mesh = grid.mesh()
    chi = 0.3 * np.sin(grid.wavenumber(0, 1) * mesh[0]) + 0.2 * np.cos(
        grid.wavenumber(1, 1) * mesh[1]
    )
    dchi = np.stack([central_diff(chi, a, grid.spacing[a]) for a in range(2)])
    r_plain = dirac_slash(psi, EMPotential.zero(grid), mass, charge, g2)
    psi_g = SpinorField(grid, np.exp(-1j * charge * chi) * psi.components)
    r_gauged = dirac_slash(psi_g, EMPotential(grid, dchi), mass, charge, g2)
    n0, n1 = field_norm(r_plain), field_norm(r_gauged)
    assert abs(n0 - n1) / max(n0, n1) <= 0.05


def test_slash_dimension_mismatch(g2, g4):
    grid = spacetime_grid(8)
    psi = SpinorField(grid, np.ones((4,) + grid.extents, dtype=complex))
    with pytest.raises(ValueError):
        dirac_slash(psi, EMPotential.zero(grid), 0.0, 0.0, g2)
    with pytest.raises(GridError):
        dirac_slash(psi, EMPotential.zero(grid), 0.0, 0.0, g4)


# ---------------------------------------------------------------------------
# momentum operator


def test_momentum_of_constant_field_is_zero(g2):
    grid = spacetime_grid(8)
    psi = SpinorField(grid, np.ones((2,) + grid.extents, dtype=complex))
    assert np.max(np.abs(momentum_op(psi, g2).components)) <= 1e-14


def test_momentum_plane_wave_discrete_eigenvalue(g2):
    grid = spacetime_grid(32)
    kt, kx = grid.wavenumber(0, 1), grid.wavenumber(1, 2)
    u = np.array([1.0, 0.5])
    psi = SpinorField.plane_wave(grid, (kt, kx), u)
    out = momentum_op(psi, g2)
    klat = [np.sin(k * s) / s for k, s in zip((kt, kx), grid.spacing)]
    eigen_u = (klat[0] * g2.gamma(0) + klat[1] * g2.gamma(1)) @ u
    expected = SpinorField.plane_wave(grid, (kt, kx), eigen_u)
    assert np.max(np.abs(out.components - expected.components)) <= 1e-12


def test_momentum_hermitian_in_dirac_pairing(g2):
    grid = spacetime_grid(32)
    rng = np.random.default_rng(1)
    shape = (2,) + grid.extents
    phi = SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    psi = SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    lhs = dirac_pairing(phi, momentum_op(psi, g2), g2)
    rhs = dirac_pairing(momentum_op(phi, g2), psi, g2)
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# d'Alembert identity


def test_dalembert_constant_field_gives_zero(g2):
    grid = spacetime_grid(8)
    phi = ScalarField(grid, np.full(grid.extents, 2.3, dtype=complex))
    res = dalembert_identity(phi, AffineConnection.flat(2), g2)
    assert np.max(np.abs(res.lhs_scalar)) <= 1e-14
    assert np.max(np.abs(res.rhs)) <= 1e-14


def test_dalembert_plane_wave_and_convergence(g2):
    errors = []
    for n in (64, 128):
        grid = Grid((n, n), (2 * np.pi / n, np.pi / n))
        kt, kx = grid.wavenumber(0, 1), grid.wavenumber(1, 1)
        phi = ScalarField.plane_wave(grid, (kt, kx))
        res = dalembert_identity(phi, AffineConnection.flat(2), g2)
        analytic = -(kt**2 - kx**2) * phi.values
        scale = np.max(np.abs(analytic))
        errors.append(float(np.max(np.abs(res.lhs_scalar - analytic))) / scale)
        assert res.scalar_residual <= 1e-12
        assert res.grade2_max <= 1e-12
    assert errors[0] <= 1e-3
    assert abs(errors[0] / errors[1] - 4.0) <= 0.8


def test_dalembert_with_constant_symmetric_connection(g2):
    grid = spacetime_grid(32)
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 1] = coeffs[0, 1, 0] = 0.3
    coeffs[1, 1, 1] = -0.2
    conn = AffineConnection(coeffs)
    kt, kx = grid.wavenumber(0, 1), grid.wavenumber(1, 2)
    phi = ScalarField.plane_wave(grid, (kt, kx))
    res = dalembert_identity(phi, conn, g2)
    # symmetric second covariant derivative: still no grade-2 content
    assert res.scalar_residual <= 1e-12
    assert res.grade2_max <= 1e-10


def test_connection_symmetry_validated():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 1] = 1.0  # not symmetric in the lower pair
    with pytest.raises(ValueError):
        AffineConnection(coeffs)


# ---------------------------------------------------------------------------
# bundle wrapping


def test_bundle_wrap_identity_returns_gammas(g2):
    grid = spacetime_grid(8)
    eye_field = np.broadcast_to(np.eye(2), grid.extents + (2, 2)).copy()
    wrapped = bundle_wrap(g2, grid, eye_field)
    for mu in range(2):
        assert np.max(np.abs(wrapped.matrices[mu] - g2.gamma(mu))) <= 1e-14


def test_bundle_wrap_single_point_anticommutator(g2):
    grid = spacetime_grid(4)
    rng = np.random.default_rng(5)
    l_field = np.broadcast_to(np.eye(2), grid.extents + (2, 2)).copy().astype(complex)
    l_field[0, 0] = np.eye(2) + 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    wrapped = bundle_wrap(g2, grid, l_field)
    g_0 = wrapped.matrices[0][0, 0]
    g_1 = wrapped.matrices[1][0, 0]
    assert np.max(np.abs(g_0 @ g_1 + g_1 @ g_0)) <= 1e-10


def test_bundle_wrap_field_identity_random_smooth(g2):
    grid = spacetime_grid(16)
    l_field = random_smooth_trivialization_field(grid, 2, seed=7)
    wrapped = bundle_wrap(g2, grid, l_field)
    assert wrapped.anticommutator_residual() <= 1e-10


def test_bundle_wrap_preserves_determinants(g2):
    grid = spacetime_grid(8)
    l_field = random_smooth_trivialization_field(grid, 2, seed=11)
    wrapped = bundle_wrap(g2, grid, l_field)
    for mu in range(2):
        dets = np.linalg.det(wrapped.matrices[mu])
        assert np.max(np.abs(dets - np.linalg.det(g2.gamma(mu)))) <= 1e-10


def test_bundle_wrap_reports_singular_point(g2):
    grid = spacetime_grid(4)
    l_field = np.broadcast_to(np.eye(2), grid.extents + (2, 2)).copy().astype(complex)
    l_field[1, 2] = 0.0
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        bundle_wrap(g2, grid, l_field)


def test_bundle_wrap_reports_non_finite_point(g2):
    # np.linalg.cond raises LinAlgError on a NaN matrix instead of returning a number
    grid = spacetime_grid(4)
    l_field = np.broadcast_to(np.eye(2), grid.extents + (2, 2)).copy().astype(complex)
    l_field[3, 1, 0, 1] = np.nan
    with pytest.raises(ValueError, match=r"\(3, 1\)"):
        bundle_wrap(g2, grid, l_field)


def test_bundle_wrap_accepts_small_well_conditioned_field(g4):
    # 5e-4 I has condition number 1; its |det| = 6.25e-14 failed the old absolute gate
    grid = spacetime_grid(4)
    l_field = np.broadcast_to(5e-4 * np.eye(4), grid.extents + (4, 4))
    assert bundle_wrap(g4, grid, l_field).anticommutator_residual() <= 1e-10


def test_bundle_wrap_rejects_ill_conditioned_point(g2):
    # diag(1e6, 1e-7) has |det| = 0.1 but condition number 1e13
    grid = spacetime_grid(4)
    l_field = np.broadcast_to(np.eye(2), grid.extents + (2, 2)).copy().astype(complex)
    l_field[1, 2] = np.diag([1e6, 1e-7])
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        bundle_wrap(g2, grid, l_field)


# ---------------------------------------------------------------------------
# Dirac time evolution


def test_dirac_evolution_dispersion_fidelity(g2):
    grid = Grid((64,), (L / 64,))
    mass = 1.0
    k = grid.wavenumber(0, 1)
    klat = np.sin(k * grid.spacing[0]) / grid.spacing[0]
    hmat = g2.gamma0 @ g2.gamma(1) * klat + mass * g2.gamma0
    evals, evecs = np.linalg.eigh(hmat)
    u = evecs[:, int(np.argmax(evals))]
    elat = float(np.max(evals))
    psi0 = SpinorField.plane_wave(grid, (k,), u)
    psit = dirac_hamiltonian_evolve(psi0, None, mass, 0.0, 1.0, 1e-3, g2)
    exact = SpinorField.plane_wave(grid, (k,), u * np.exp(-1j * elat))
    overlap = abs(np.vdot(exact.components, psit.components)) / (
        np.linalg.norm(exact.components) * np.linalg.norm(psit.components)
    )
    assert overlap >= 1.0 - 1e-6


def test_massless_movers_translate_at_lattice_speed(g2):
    grid = Grid((64,), (L / 64,))
    k = grid.wavenumber(0, 2)
    klat = np.sin(k * grid.spacing[0]) / grid.spacing[0]
    # right mover: eigenvector of gamma0 gamma1 with eigenvalue +1
    evals, evecs = np.linalg.eigh(g2.gamma0 @ g2.gamma(1))
    u = evecs[:, int(np.argmax(evals))]
    psi0 = SpinorField.plane_wave(grid, (k,), u)
    t = 0.5
    psit = dirac_hamiltonian_evolve(psi0, None, 0.0, 0.0, t, 1e-3, g2)
    speed = klat / k
    translated = SpinorField.plane_wave(grid, (k,), u * np.exp(-1j * k * speed * t))
    assert np.max(np.abs(psit.components - translated.components)) <= 1e-8
    # lattice light speed is within the dispersion error of 1
    assert abs(speed - 1.0) <= (k * grid.spacing[0]) ** 2 / 6 * 1.5


def test_norm_drift_over_thousand_steps(g2):
    grid = Grid((32,), (L / 32,))
    k = grid.wavenumber(0, 1)
    u = np.array([1.0, 0.3j])
    psi0 = SpinorField.plane_wave(grid, (k,), u / np.linalg.norm(u))
    psit = dirac_hamiltonian_evolve(psi0, None, 1.0, 0.0, 1.0, 1e-3, g2)
    assert abs(psit.norm_sq() - psi0.norm_sq()) <= 1e-8


def test_momentum_expectation_conserved_free_evolution(g2):
    grid = Grid((32,), (L / 32,))
    k = grid.wavenumber(0, 1)
    hmat = g2.gamma0 @ g2.gamma(1) * (np.sin(k * grid.spacing[0]) / grid.spacing[0]) + 1.0 * g2.gamma0
    _, evecs = np.linalg.eigh(hmat)
    u = evecs[:, -1] + 0.3 * evecs[:, 0]
    psi0 = SpinorField.plane_wave(grid, (k,), u)
    psit = dirac_hamiltonian_evolve(psi0, None, 1.0, 0.0, 1.0, 1e-3, g2)
    drift = abs(momentum_expectation(psit, 0) - momentum_expectation(psi0, 0))
    assert drift <= 1e-6


def test_cfl_bound_enforced(g2):
    grid = Grid((16,), (0.1,))
    psi = SpinorField(grid, np.ones((2, 16), dtype=complex))
    with pytest.raises(StabilityError):
        dirac_hamiltonian_evolve(psi, None, 1.0, 0.0, 1.0, 0.1, g2)


def test_cfl_bound_enforced_on_the_step_loop(g2):
    # a site-dependent coupling takes rk4_linear; no potential (above) takes the per-mode path
    grid = Grid((16,), (0.1,))
    psi = SpinorField(grid, np.ones((2, 16), dtype=complex))
    with pytest.raises(StabilityError):
        dirac_hamiltonian_evolve(psi, one_site_potential(grid, 2), 1.0, 0.5, 1.0, 0.1, g2)


@pytest.mark.parametrize("case", ["ceil-steps", "backward-roundtrip", "dt-zero", "dt-negative"])
@pytest.mark.parametrize("equation", ["dirac", "klein-gordon"])
def test_step_rule_bounds_every_step(g2, equation, case):
    """ceil(|t|/dt) equal steps: dt bounds the step taken, time may run backward."""
    grid = Grid((32,), (L / 32,))
    bound = grid.spacing[0] / 4
    k = grid.wavenumber(0, 1)
    psi0 = SpinorField.plane_wave(grid, (k,), [1.0, 0.3j])
    if equation == "dirac":
        def run(psi, t, dt):
            return dirac_hamiltonian_evolve(psi, None, 1.0, 0.0, t, dt, g2)
    else:
        def run(psi, t, dt):
            return klein_gordon_evolve(psi, 1.0, t, dt)
    if case == "ceil-steps":
        t = 2.5 * bound
        # 3 steps of t/3, not 2 steps of 1.25 bound
        assert np.array_equal(run(psi0, t, bound).components, run(psi0, t, t / 3).components)
    elif case == "backward-roundtrip":
        back = run(run(psi0, 0.5, 1e-2), -0.5, 1e-2)
        assert np.max(np.abs(back.components - psi0.components)) <= 1e-9
    else:
        with pytest.raises(ValueError):
            run(psi0, 1.0, 0.0 if case == "dt-zero" else -bound)


def one_site_potential(grid: Grid, n_components: int) -> EMPotential:
    a = np.zeros((n_components,) + grid.extents)
    a[(1,) + (0,) * grid.dims] = 0.2
    return EMPotential(grid, a)


def random_spinor(grid: Grid, m: int, seed: int) -> SpinorField:
    rng = np.random.default_rng(seed)
    shape = (m,) + grid.extents
    return SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.mark.parametrize(
    "extents, t, charge, a_const",
    [
        ((64,), 0.05, 0.0, None),
        ((15,), -0.04, 0.0, None),
        ((15,), 0.03, 0.7, (0.4, -1.1)),
        ((7, 6, 5), 0.02, 0.0, None),
        ((7, 6, 5), -0.02, 0.5, (0.3, -0.2, 0.6, 0.1)),
    ],
)
def test_per_mode_path_matches_the_step_loop(extents, t, charge, a_const):
    grid = Grid(extents, tuple(L / n for n in extents))
    gset = minkowski_gamma_set(grid.dims + 1)
    psi0 = random_spinor(grid, gset.spinor_dim, seed=sum(extents))
    ncomp = gset.spacetime_dim
    a = np.zeros((ncomp,) + grid.extents)
    if a_const is not None:
        a += np.reshape(a_const, (ncomp,) + (1,) * grid.dims)
    pot = EMPotential(grid, a)
    dt = 1e-3
    ref = rk4_linear(
        lambda _, y: dirac_hamiltonian(y, grid, pot, 1.0, charge, gset),
        psi0.components, 0.0, t, dt,
    )
    got = dirac_hamiltonian_evolve(psi0, pot, 1.0, charge, t, dt, gset).components
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mode_symbol_is_the_lattice_dirac_symbol(g4):
    grid = Grid((7, 6, 5), (0.3, 0.25, 0.2))
    mass = 1.3
    pot = EMPotential.zero(grid, 4)
    columns = fields._mode_symbol(
        lambda _, y: dirac_hamiltonian(y, grid, pot, mass, 0.0, g4), 4, grid
    )
    symbol = np.moveaxis(columns, (0, 1), (-1, -2))  # (*extents, row, column)
    k = [2 * np.pi * np.fft.fftfreq(n, h) for n, h in zip(grid.extents, grid.spacing)]
    klat = np.meshgrid(*[np.sin(kj * h) / h for kj, h in zip(k, grid.spacing)], indexing="ij")
    expected = mass * g4.gamma0 + sum(
        np.multiply.outer(klat[j], g4.gamma0 @ g4.gamma(j + 1)) for j in range(3)
    )
    assert np.max(np.abs(symbol - expected)) <= 1e-13


PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def written_out_gammas(m: int) -> list:
    """gamma0 and three spatial gammas for eta = diag(+1, -1, ...), not read from the library.

    m = 2: gamma0 = sigma3, gamma^j = i sigma_j for j = 1, 2; m = 4: the Dirac
    representation gamma0 = diag(I, -I), gamma^j = [[0, sigma_j], [-sigma_j, 0]].
    """
    if m == 2:
        return [PAULI[2], 1j * PAULI[0], 1j * PAULI[1]]
    zero, eye = np.zeros((2, 2)), np.eye(2)
    return [np.block([[eye, zero], [zero, -eye]])] + [np.block([[zero, s], [-s, zero]]) for s in PAULI]


def dense_dirac_hamiltonian(gammas, extents, spacing, a, mass, charge) -> np.ndarray:
    """H_D as one (m V) x (m V) matrix over spinor-major, C-ordered sites, built with np.kron.

    m gamma0 + e A_0 + sum_j alpha_j (-i D_j + e A_j), alpha_j = gamma0 gamma^j,
    with D_j the periodic central-difference matrix of axis j.
    """
    m, volume = len(gammas[0]), int(np.prod(extents))

    def on_axis(axis, mat):
        out = np.eye(1)
        for k, n in enumerate(extents):
            out = np.kron(out, mat if k == axis else np.eye(n))
        return out

    h = np.kron(mass * gammas[0], np.eye(volume))
    for j, (n, step) in enumerate(zip(extents, spacing)):
        diff = (np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)) / (2 * step)
        alpha = gammas[0] @ gammas[j + 1]
        h = h + np.kron(alpha, -1j * on_axis(j, diff))
        if a is not None:
            h = h + np.kron(alpha, np.diag(charge * a[j + 1].ravel()))
    if a is not None:
        h = h + np.kron(np.eye(m), np.diag(charge * a[0].ravel()))
    return h


@pytest.mark.parametrize("charge", [0.0, 0.7])
@pytest.mark.parametrize("potential", ["none", "constant", "site-dependent"])
@pytest.mark.parametrize(
    "m, extents",
    [(2, (9,)), (2, (5, 7)), (4, (11,)), (4, (4, 6)), (4, (4, 5, 6))],
)
def test_prepared_dirac_hamiltonian_matches_a_dense_matrix(m, extents, potential, charge):
    d = len(extents)
    grid = Grid(extents, tuple(0.3 + 0.17 * j for j in range(d)))
    gammas = written_out_gammas(m)
    gset = FieldGammaSet(d + 1, (1,) + (-1,) * d, gammas[: d + 1])
    rng = np.random.default_rng(m + 10 * d)
    a = {
        "none": None,
        "constant": np.ones((d + 1,) + extents) * rng.normal(size=(d + 1,) + (1,) * d),
        "site-dependent": rng.normal(size=(d + 1,) + extents),
    }[potential]
    pot = None if a is None else EMPotential(grid, a)
    psi = random_spinor(grid, m, seed=d).components
    ref = dense_dirac_hamiltonian(gammas, extents, grid.spacing, a, 1.3, charge) @ psi.ravel()
    op = fields.DiracHamiltonian(grid, pot, 1.3, charge, gset)
    got = op(0.0, psi)
    assert np.max(np.abs(got.ravel() - ref)) <= 1e-14 * np.max(np.abs(ref))
    # one operator serves every call: a second input leaves the first result as it was
    other = op(0.5, psi[::-1].copy())
    assert not np.shares_memory(got, other)
    assert np.array_equal(op(0.0, psi), got)
    assert np.array_equal(dirac_hamiltonian(psi, grid, pot, 1.3, charge, gset), got)


@pytest.fixture
def fields_loop_calls(monkeypatch):
    """The argument tuples of every rk4_linear call made through the fields module."""
    calls = []

    def counting_rk4_linear(*args):
        calls.append(args)
        return rk4_linear(*args)

    monkeypatch.setattr(fields, "rk4_linear", counting_rk4_linear)
    return calls


@pytest.mark.parametrize(
    "potential, charge, loop_calls",
    [
        ("none", 0.5, 0),
        ("constant", 0.5, 0),
        ("one-site", 0.0, 0),
        ("one-site", 0.5, 1),
        ("klein-gordon", 0.0, 0),
    ],
)
def test_only_a_site_dependent_coupling_takes_the_step_loop(
    g2, fields_loop_calls, potential, charge, loop_calls
):
    grid = Grid((16,), (L / 16,))
    psi0 = random_spinor(grid, 2, seed=1)
    if potential == "klein-gordon":
        klein_gordon_evolve(psi0, 1.0, 0.01, 1e-3)
    else:
        pot = {
            "none": None,
            "constant": EMPotential(grid, np.full((2, 16), 0.3)),
            "one-site": one_site_potential(grid, 2),
        }[potential]
        dirac_hamiltonian_evolve(psi0, pot, 1.0, charge, 0.01, 1e-3, g2)
    assert len(fields_loop_calls) == loop_calls


def test_a_symbol_without_two_eigenvalues_takes_the_step_loop(fields_loop_calls):
    # diag(1, 2, 4): H - (7/3) I does not square to a multiple of I
    grid = Grid((16,), (L / 16,))
    psi0 = random_spinor(grid, 3, seed=4)
    weights = np.reshape([1.0, 2.0, 4.0], (3, 1))
    got = fields._evolve_modes(lambda _, y: weights * y, psi0.components, grid, 0.05, 1e-2)
    assert len(fields_loop_calls) == 1
    ref = rk4_linear(lambda _, y: weights * y, psi0.components, 0.0, 0.05, 1e-2)
    assert np.array_equal(got, ref)


def long_double_loop(apply_h, comp: np.ndarray, t: float, dt: float) -> np.ndarray:
    """The step loop run in extended precision, as a reference for the float paths."""
    return rk4_linear(apply_h, comp.astype(np.clongdouble), 0.0, t, dt)


def max_relative(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_klein_gordon_per_mode_path_matches_a_long_double_loop(t):
    # w = K/2m reaches 5e4 at the top of a 1024 grid, so ||R(k)|| is far above 1;
    # the float step loop ends about 4e-12 off the reference
    grid = Grid((1024,), (L / 1024,))
    psi0 = random_spinor(grid, 2, seed=5)
    got = klein_gordon_evolve(psi0, 1.0, t, 1e-3).components
    ref = long_double_loop(
        lambda _, y: klein_gordon_hamiltonian(y, grid, 1.0), psi0.components, t, 1e-3
    )
    assert max_relative(got, ref) <= 1e-12


@pytest.mark.parametrize("extents", [(64,), (8, 8, 8)])
@pytest.mark.parametrize("t", [0.2, -0.2])
def test_dirac_per_mode_path_matches_a_long_double_loop(extents, t):
    grid = Grid(extents, tuple(L / n for n in extents))
    gset = minkowski_gamma_set(grid.dims + 1)
    psi0 = random_spinor(grid, gset.spinor_dim, seed=6)
    a_const = np.linspace(0.4, -0.3, gset.spacetime_dim)
    pot = EMPotential(grid, np.broadcast_to(
        np.reshape(a_const, (-1,) + (1,) * grid.dims), (gset.spacetime_dim,) + extents
    ))
    got = dirac_hamiltonian_evolve(psi0, pot, 1.0, 0.7, t, 1e-3, gset).components
    ref = long_double_loop(
        lambda _, y: dirac_hamiltonian(y, grid, pot, 1.0, 0.7, gset), psi0.components, t, 1e-3
    )
    assert max_relative(got, ref) <= 1e-13


def test_massless_zero_mode_takes_the_limit_of_the_closed_form(g2):
    # m = 0 and A_1 = 0: H(0) = e A_0 I, so omega = 0 at k = 0 and
    # (lam_+^N - lam_-^N)/(2 omega) is 0/0; random data excites that mode
    grid = Grid((16,), (L / 16,))
    psi0 = random_spinor(grid, 2, seed=7)
    pot = EMPotential(grid, np.stack([np.full(16, 0.4), np.zeros(16)]))
    got = dirac_hamiltonian_evolve(psi0, pot, 0.0, 0.7, 0.05, 1e-3, g2).components
    assert np.all(np.isfinite(got))
    ref = rk4_linear(
        lambda _, y: dirac_hamiltonian(y, grid, pot, 0.0, 0.7, g2),
        psi0.components, 0.0, 0.05, 1e-3,
    )
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_a_nilpotent_symbol_takes_the_limit_of_the_closed_form():
    # H = 0.4 I + [[0, 1], [0, 0]]: omega = 0 on every mode while H' != 0,
    # so the whole b H' term comes from the limit N p(z_c)^(N-1) p'(z_c) (-i step)
    grid = Grid((16,), (L / 16,))
    psi0 = random_spinor(grid, 2, seed=9)

    def apply_h(_, y):
        return 0.4 * y + np.stack([y[1], np.zeros_like(y[1])])

    got = fields._evolve_modes(apply_h, psi0.components, grid, 0.05, 1e-3)
    ref = rk4_linear(apply_h, psi0.components, 0.0, 0.05, 1e-3)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("equation", ["dirac", "klein-gordon"])
def test_zero_time_returns_a_copy_of_the_initial_field(g2, equation):
    grid = Grid((16,), (L / 16,))
    psi0 = random_spinor(grid, 2, seed=8)
    if equation == "dirac":
        psit = dirac_hamiltonian_evolve(psi0, None, 1.0, 0.0, 0.0, 1e-3, g2)
    else:
        psit = klein_gordon_evolve(psi0, 1.0, 0.0, 1e-3)
    assert np.array_equal(psit.components, psi0.components)
    assert not np.shares_memory(psit.components, psi0.components)


def test_per_mode_path_peak_memory_within_the_loop(g4):
    grid = Grid((32, 32, 32), (L / 32,) * 3)
    psi0 = random_spinor(grid, 4, seed=2)
    varying = one_site_potential(grid, 4)
    t, dt = 2e-3, 1e-3

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def evolve(pot):
        return lambda: dirac_hamiltonian_evolve(psi0, pot, 1.0, 0.5, t, dt, g4)

    free = peak(evolve(None))
    assert free <= peak(evolve(varying))
    # pot=None allocates no zero potential and no charge * A array
    modes = peak(lambda: fields._evolve_modes(
        lambda _, y: dirac_hamiltonian(y, grid, None, 1.0, 0.5, g4),
        psi0.components, grid, t, dt,
    ))
    assert free <= 1.05 * modes


def test_kg_dirac_consistency_free_field(g2):
    # (i slash + m)(i slash - m) psi = (-box - m^2) psi with commuting
    # discrete partials: machine-precision identity on the lattice
    grid = spacetime_grid(16)
    rng = np.random.default_rng(3)
    shape = (2,) + grid.extents
    psi = SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    mass = 1.3
    zero_pot = EMPotential.zero(grid)
    first = dirac_slash(psi, zero_pot, mass, 0.0, g2)       # (i slash - m) psi
    second = dirac_slash(first, zero_pot, -mass, 0.0, g2)   # (i slash + m) applied
    box = np.zeros_like(psi.components)
    for mu in range(2):
        d1 = central_diff(psi.components, mu + 1, grid.spacing[mu])
        box = box + g2.eta[mu] * central_diff(d1, mu + 1, grid.spacing[mu])
    expected = -box - mass**2 * psi.components
    assert np.max(np.abs(second.components - expected)) <= 1e-10


# ---------------------------------------------------------------------------
# Klein-Gordon reduction


def kg_second_order_oracle(phi0, phidot0, grid, mass, t, dt):
    """Direct RK4 on (phi, phidot) for phi_tt = lap phi - m^2 phi."""

    def rhs(state):
        phi, pi = state
        lap = np.zeros_like(phi)
        for j in range(grid.dims):
            lap = lap + second_diff(phi, j, grid.spacing[j])
        return np.stack([pi, lap - mass**2 * phi])

    state = np.stack([phi0, phidot0]).astype(complex)
    steps = max(1, int(round(t / dt)))
    step = t / steps
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + step / 2 * k1)
        k3 = rhs(state + step / 2 * k2)
        k4 = rhs(state + step * k3)
        state = state + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def test_kg_reduce_rest_solution():
    grid = Grid((16,), (0.1,))
    mass = 2.0
    phi = ScalarField(grid, np.full(16, 1.5, dtype=complex))
    phidot = ScalarField(grid, -1j * mass * phi.values)
    psi = klein_gordon_reduce(phi, phidot, mass)
    assert np.max(np.abs(psi.components[0] - 2 * phi.values)) <= 1e-14
    assert np.max(np.abs(psi.components[1])) <= 1e-14


def test_kg_reduce_reconstruct_round_trip():
    grid = Grid((32,), (0.1,))
    rng = np.random.default_rng(9)
    phi = ScalarField(grid, rng.normal(size=32) + 1j * rng.normal(size=32))
    phidot = ScalarField(grid, rng.normal(size=32) + 1j * rng.normal(size=32))
    psi = klein_gordon_reduce(phi, phidot, 1.7)
    back, half_diff = klein_gordon_reconstruct(psi)
    assert np.max(np.abs(back.values - phi.values)) <= 1e-14
    assert np.max(np.abs(half_diff.values - (1j / 1.7) * phidot.values)) <= 1e-14


def test_kg_rejects_nonpositive_mass():
    grid = Grid((16,), (0.1,))
    phi = ScalarField(grid, np.zeros(16))
    with pytest.raises(ValueError):
        klein_gordon_reduce(phi, phi, 0.0)
    psi = SpinorField(grid, np.zeros((2, 16), dtype=complex))
    with pytest.raises(ValueError):
        klein_gordon_evolve(psi, -1.0, 1.0, 1e-3)


def test_kg_plane_wave_round_trip():
    n = 128
    grid = Grid((n,), (L / n,))
    mass = 1.0
    k = grid.wavenumber(0, 1)
    energy = np.sqrt(k**2 + mass**2)
    x = grid.axis_coords(0)
    phi0 = ScalarField(grid, np.exp(1j * k * x))
    phidot0 = ScalarField(grid, -1j * energy * phi0.values)
    psi = klein_gordon_reduce(phi0, phidot0, mass)
    psit = klein_gordon_evolve(psi, mass, 1.0, 1e-3)
    phit, _ = klein_gordon_reconstruct(psit)
    exact = np.exp(-1j * energy) * phi0.values
    rel = np.max(np.abs(phit.values - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-4


def test_kg_reduction_matches_direct_second_order_integration():
    n = 64
    grid = Grid((n,), (L / n,))
    mass = 1.4
    x = grid.axis_coords(0)
    phi0 = np.exp(1j * grid.wavenumber(0, 1) * x) + 0.3 * np.exp(
        -1j * grid.wavenumber(0, 2) * x
    )
    phidot0 = 0.2j * np.exp(1j * grid.wavenumber(0, 1) * x)
    psi = klein_gordon_reduce(ScalarField(grid, phi0), ScalarField(grid, phidot0), mass)
    t, dt = 0.5, 5e-4
    psit = klein_gordon_evolve(psi, mass, t, dt)
    phit, _ = klein_gordon_reconstruct(psit)
    oracle_phi, _ = kg_second_order_oracle(phi0, phidot0, grid, mass, t, dt)
    assert np.max(np.abs(phit.values - oracle_phi)) <= 1e-9


# ---------------------------------------------------------------------------
# stress tensor and spin vectors


def test_stress_tensor_vanishes_on_trivial_data():
    t = stress_tensor(0.0, [0.0, 0.0, 0.0, 0.0], 1.0)
    assert np.max(np.abs(np.array(t, dtype=float))) == 0.0


def test_stress_tensor_static_gradient_oracle():
    # phi = a x^1 only: hand expansion for eta = diag(+,-,-,-) gives
    # L = -a^2/2, T^11 = a^2/2, T^00 = a^2/2, T^22 = T^33 = -a^2/2
    a = F(3)
    t = stress_tensor(F(0), [F(0), a, F(0), F(0)], F(0))
    assert t[1, 1] == F(9, 2)
    assert t[0, 0] == F(9, 2)
    assert t[2, 2] == F(-9, 2)
    assert t[3, 3] == F(-9, 2)
    assert t[0, 1] == -a * F(0) - 0  # off-diagonal with no time gradient


def test_stress_tensor_symmetric_and_energy_positive():
    rng = np.random.default_rng(13)
    for _ in range(10):
        phi = rng.normal()
        dphi = rng.normal(size=4)
        mass = abs(rng.normal())
        t = np.array(stress_tensor(phi, dphi, mass), dtype=float)
        assert np.max(np.abs(t - t.T)) <= 1e-12
        assert t[0, 0] >= -1e-12


def test_spinvector_collapse_exact_for_symmetric_t():
    gs = gamma_set_for_signature(Signature(3, 1))
    lows = lowered_gammas_exact(gs)
    rng = np.random.default_rng(17)
    eye = np.array(
        [[F(1) if i == j else F(0) for j in range(4)] for i in range(4)], dtype=object
    )
    for _ in range(10):
        raw = rng.integers(-5, 6, size=(4, 4))
        t = np.empty((4, 4), dtype=object)
        for i in range(4):
            for j in range(4):
                t[i, j] = F(int(raw[i, j] + raw[j, i]), 2)
        result = stress_energy_spinvector(t, lows)
        trace = sum(F(gs.metric_diag[mu]) * t[mu, mu] for mu in range(4))
        assert all(x == y for x, y in zip(np.ravel(result), np.ravel(trace * eye)))


def test_spinvector_metric_input_gives_four_identity():
    gs = gamma_set_for_signature(Signature(3, 1))
    lows = lowered_gammas_exact(gs)
    eta = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            eta[i, j] = F(gs.metric_diag[i]) if i == j else F(0)
    result = stress_energy_spinvector(eta, lows)
    for i in range(4):
        for j in range(4):
            assert result[i, j] == (4 if i == j else 0)


def test_spinvector_antisymmetric_t_is_pure_grade_two():
    gs = gamma_set_for_signature(Signature(3, 1))
    lows = lowered_gammas_exact(gs)
    rng = np.random.default_rng(19)
    raw = rng.integers(-4, 5, size=(4, 4))
    t = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            t[i, j] = F(int(raw[i, j] - raw[j, i]))
    result = stress_energy_spinvector(t, lows)
    # zero scalar part
    assert sum(result[i, i] for i in range(4)) == 0
    # equals the explicit antisymmetric expansion over mu < nu
    expected = None
    for mu in range(4):
        for nu in range(mu + 1, 4):
            term = (t[mu, nu] - t[nu, mu]) * (lows[mu] @ lows[nu])
            expected = term if expected is None else expected + term
    assert all(x == y for x, y in zip(np.ravel(result), np.ravel(expected)))


def test_spinvector_collapse_float_gammas(g4):
    lows = lowered_gammas_field(g4)
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(4, 4))
    t = (raw + raw.T) / 2
    result = stress_energy_spinvector(t, lows)
    trace = sum(g4.eta[mu] * t[mu, mu] for mu in range(4))
    assert np.max(np.abs(result - trace * np.eye(4))) <= 1e-12


def test_spin_vector_package_basics(g4):
    sv = spin_vector_package(0.0, [0.0, 0.0, 0.0], g4)
    assert np.max(np.abs(sv.e_part)) == 0.0
    assert np.max(np.abs(sv.p_part)) == 0.0
    sv1 = spin_vector_package(1.0, [0.0, 0.0, 0.0], g4)
    assert np.max(np.abs(sv1.e_part - g4.gamma0)) <= 1e-15


def test_spin_vector_clifford_square(g4):
    # (H g0 + P_j g^j)^2 = (H^2 eta^00 + sum P_j^2 eta^jj) I for any scalars
    rng = np.random.default_rng(29)
    h = float(rng.normal())
    p = rng.normal(size=3)
    sv = spin_vector_package(h, p, g4)
    total = sv.total
    expected = (h**2 * g4.eta[0] + sum(p[j] ** 2 * g4.eta[j + 1] for j in range(3))) * np.eye(4)
    assert np.max(np.abs(total @ total - expected)) <= 1e-12


def test_field_energy_momentum_plane_wave_ratio():
    n = 128
    grid = Grid((n,), (L / n,))
    mass = 1.0
    k = grid.wavenumber(0, 1)
    energy = np.sqrt(k**2 + mass**2)
    x = grid.axis_coords(0)
    phi = ScalarField(grid, np.cos(k * x))
    phidot = ScalarField(grid, energy * np.sin(k * x))
    h_val, p_val = field_energy_momentum(phi, phidot, mass)
    assert h_val > 0
    # lowered-index momentum P_1 = -(k/E) H up to the lattice dispersion error
    assert abs(p_val[0] / h_val + k / energy) <= 1e-3


# ---------------------------------------------------------------------------
# wrapped momentum operator


def test_wrapped_momentum_identity_trivialization(g2):
    grid = spacetime_grid(16)
    rng = np.random.default_rng(31)
    shape = (2,) + grid.extents
    psi = SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    eye_field = np.broadcast_to(np.eye(2), grid.extents + (2, 2)).copy()
    got = wrapped_momentum(psi, eye_field, g2)
    expected = momentum_op(psi, g2)
    assert np.max(np.abs(got.components - expected.components)) <= 1e-13


def test_wrapped_momentum_constant_l_preserves_spectrum(g2):
    grid = spacetime_grid(32)
    kt, kx = grid.wavenumber(0, 1), grid.wavenumber(1, 1)
    u = np.array([1.0, -0.5])
    psi = SpinorField.plane_wave(grid, (kt, kx), u)
    m = np.array([[1.1, 0.4], [0.2, 0.9]], dtype=complex)
    m_field = np.broadcast_to(m, grid.extents + (2, 2)).copy()
    minv = np.linalg.inv(m)
    transformed = SpinorField(
        grid, np.tensordot(minv, psi.components, axes=(1, 0))
    )
    lhs = wrapped_momentum(transformed, m_field, g2)
    rhs = momentum_op(psi, g2)
    pulled_rhs = np.tensordot(minv, rhs.components, axes=(1, 0))
    assert np.max(np.abs(lhs.components - pulled_rhs)) <= 1e-12


def test_wrapped_momentum_nonconstant_l_keeps_wrap_identity(g2):
    grid = spacetime_grid(16)
    l_field = random_smooth_trivialization_field(grid, 2, seed=37)
    wrapped = bundle_wrap(g2, grid, l_field)
    assert wrapped.anticommutator_residual() <= 1e-10
    rng = np.random.default_rng(41)
    shape = (2,) + grid.extents
    psi = SpinorField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    out = wrapped_momentum(psi, l_field, g2)
    assert np.all(np.isfinite(out.components.real))
    assert np.all(np.isfinite(out.components.imag))
