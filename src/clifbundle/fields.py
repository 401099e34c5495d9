"""Flat-grid Dirac/Klein-Gordon operators and spin-vector constructions.

Fields are complex arrays on uniform periodic grids; spatial derivatives
are second-order central differences, every one by slice subtraction over
the one periodic stencil of _periodic_difference_slices.  The Dirac
Hamiltonian is prepared once per evolution (DiracHamiltonian).  Time
stepping is the RK4 scheme of numerics, which evolution transport also
steps: numerics.rk4_linear steps the whole grid, and a Klein-Gordon
doublet, or a Dirac field whose coupling e A is the same at every site,
is stepped one Fourier mode at a time instead (_evolve_modes), by the
closed form of the mode's N RK4 steps that a symbol with two eigenvalues
c +- omega admits.
The Minkowski gamma sets are the exact algebra-level representations read
as floats, with no change of basis: the 1+1 case uses the Cl(1,1) matrices
directly, the 3+1 case multiplies the Cl(3,1) set by i so the metric
becomes diag(+1,-1,-1,-1) with time as index 0; the -i of the momentum
operator lives in the complex scalars, not in the (real) algebra.  A set
that fails its anticommutator or Hermiticity gate raises
spinor.ClosureError.

Known discretization caveat: the naive central-difference Dirac operator
exhibits fermion doubling; tests and shipped scenarios use smooth
single-mode fields where the spurious branch is not excited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .ga import Signature
from .numerics import HBAR, _step_grid, _well_conditioned, rk4_linear
from .spinor import (
    ClosureError,
    GammaSet,
    anticommutator_residual,
    gamma_products,
    gamma_set_for_signature,
)


class GridError(ValueError):
    """Grid shape does not support the requested operator."""


class StabilityError(ValueError):
    """Requested time step violates the stability bound."""


# ---------------------------------------------------------------------------
# grids and fields


@dataclass(frozen=True)
class Grid:
    """Uniform periodic tensor-product grid; axis 0 is time on spacetime grids."""

    extents: tuple
    spacing: tuple

    def __post_init__(self):
        extents = tuple(int(n) for n in self.extents)
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != len(extents):
            raise GridError("extents and spacing must have equal length")
        if any(n < 4 for n in extents):
            raise GridError(f"each axis needs >= 4 points, got {extents}")
        if any(s <= 0 for s in spacing):
            raise GridError(f"spacing must be positive, got {spacing}")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> int:
        return len(self.extents)

    @property
    def volume(self) -> int:
        return math.prod(self.extents)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.extents[axis]) * self.spacing[axis]

    def mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.axis_coords(a) for a in range(self.dims)], indexing="ij")

    def length(self, axis: int) -> float:
        return self.extents[axis] * self.spacing[axis]

    def wavenumber(self, axis: int, mode: int) -> float:
        """k compatible with periodicity: 2 pi mode / L."""
        return 2.0 * np.pi * mode / self.length(axis)


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.extents:
            raise ValueError(f"values shape {vals.shape} != grid extents {self.grid.extents}")
        if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
            raise ValueError("non-finite entries in scalar field")
        object.__setattr__(self, "values", vals)

    @classmethod
    def plane_wave(cls, grid: Grid, kvec) -> "ScalarField":
        """exp(i sum_mu k_mu x^mu) on the grid."""
        phase = sum(k * x for k, x in zip(kvec, grid.mesh()))
        return cls(grid, np.exp(1j * phase))


@dataclass(frozen=True)
class SpinorField:
    grid: Grid
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=complex)
        if comp.shape[1:] != self.grid.extents:
            raise ValueError(
                f"component shape {comp.shape} does not match grid extents {self.grid.extents}"
            )
        if not (np.all(np.isfinite(comp.real)) and np.all(np.isfinite(comp.imag))):
            raise ValueError("non-finite entries in spinor field")
        object.__setattr__(self, "components", comp)

    @property
    def spinor_dim(self) -> int:
        return self.components.shape[0]

    @classmethod
    def plane_wave(cls, grid: Grid, kvec, amplitudes) -> "SpinorField":
        wave = ScalarField.plane_wave(grid, kvec).values
        comp = np.stack([a * wave for a in np.asarray(amplitudes, dtype=complex)])
        return cls(grid, comp)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.components) ** 2) * self.grid.cell_volume)


@dataclass(frozen=True)
class EMPotential:
    """Real potential components A_mu over the grid volume.

    The leading axis counts spacetime components: on a spacetime grid it
    matches grid.dims, on a spatial grid it is grid.dims + 1 (A_0 first).
    """

    grid: Grid
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.ndim != self.grid.dims + 1 or arr.shape[1:] != self.grid.extents:
            raise ValueError(
                f"potential shape {arr.shape} is not (components,) + extents {self.grid.extents}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite entries in potential")
        object.__setattr__(self, "a", arr)

    @property
    def n_components(self) -> int:
        return self.a.shape[0]

    @classmethod
    def zero(cls, grid: Grid, n_components: int | None = None) -> "EMPotential":
        ncomp = grid.dims if n_components is None else n_components
        return cls(grid, np.zeros((ncomp,) + grid.extents))


@dataclass(frozen=True)
class AffineConnection:
    """Constant torsion-free connection coefficients Gamma^alpha_{mu nu}."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError(f"connection coefficients must be (d,d,d), got {arr.shape}")
        if np.max(np.abs(arr - arr.transpose(0, 2, 1))) > 1e-12:
            raise ValueError("connection coefficients not symmetric in (mu, nu)")
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def flat(cls, dims: int) -> "AffineConnection":
        return cls(np.zeros((dims, dims, dims)))


# ---------------------------------------------------------------------------
# Minkowski gamma sets for field work


@dataclass(frozen=True)
class FieldGammaSet:
    """Gamma matrices in the field convention: eta = diag(+1, -1, ...), time first."""

    spacetime_dim: int
    eta: tuple
    gammas: list = field(repr=False)

    @property
    def spinor_dim(self) -> int:
        return self.gammas[0].shape[0]

    def gamma(self, mu: int) -> np.ndarray:
        return self.gammas[mu]

    def gamma_lower(self, mu: int) -> np.ndarray:
        return self.eta[mu] * self.gammas[mu]

    @property
    def gamma0(self) -> np.ndarray:
        return self.gammas[0]

    @cached_property
    def gamma0_products(self) -> list:
        """gamma0 @ gamma^mu for each mu; the alpha matrices of H_D for mu >= 1."""
        return [self.gamma0 @ g for g in self.gammas]

    def anticommutator_residual(self) -> float:
        return anticommutator_residual(gamma_products(self.gammas), self.eta)

    def hermiticity_residual(self) -> float:
        """gamma0 and gamma0 @ gamma^mu must all be Hermitian."""
        worst = 0.0
        for m in self.gamma0_products:
            worst = max(worst, float(np.max(np.abs(m - m.conj().T))))
        worst = max(worst, float(np.max(np.abs(self.gamma0 - self.gamma0.conj().T))))
        return worst


def minkowski_gamma_set(spacetime_dim: int) -> FieldGammaSet:
    """Field-convention gamma set built from the algebra-level representation.

    1+1: the Cl(1,1) matrices, read as floats, realize diag(+1,-1).
    3+1: the Cl(3,1) matrices (metric diag(+,+,+,-)) are multiplied by i and
    reordered so the timelike direction comes first, which flips every
    square and lands on diag(+1,-1,-1,-1).  A failed gate raises ClosureError.
    """
    if spacetime_dim not in (2, 4):
        raise ValueError(f"spacetime_dim must be 2 or 4, got {spacetime_dim}")
    sig = Signature(1, 1) if spacetime_dim == 2 else Signature(3, 1)
    base = [np.array(g, dtype=float) for g in gamma_set_for_signature(sig).gammas]
    if spacetime_dim == 2:
        gammas, eta = [g.astype(complex) for g in base], (1, -1)
    else:
        gammas, eta = [1j * base[3]] + [1j * g for g in base[:3]], (1, -1, -1, -1)
    out = FieldGammaSet(spacetime_dim, eta, gammas)
    if out.anticommutator_residual() > 1e-12 or out.hermiticity_residual() > 1e-12:
        raise ClosureError("constructed gamma set failed its defining relations")
    return out


# ---------------------------------------------------------------------------
# discrete derivatives


def _periodic_difference_slices(axis: int) -> list:
    """(out, ahead, behind) indices of psi(x + h) - psi(x - h) along an array axis.

    One triple each for the interior, the first site and the last site; the
    out indices also pick psi(x) itself.  Every field derivative reads this
    one periodic stencil.
    """
    def at(s):
        return (slice(None),) * axis + (s,)

    return [
        (at(slice(1, -1)), at(slice(2, None)), at(slice(None, -2))),
        (at(slice(0, 1)), at(slice(1, 2)), at(slice(-1, None))),
        (at(slice(-1, None)), at(slice(0, 1)), at(slice(-2, -1))),
    ]


def _difference(arr: np.ndarray, stencil, out: np.ndarray) -> np.ndarray:
    """out = arr(x + h) - arr(x - h) over the triples of one axis's stencil."""
    for dst, ahead, behind in stencil:
        np.subtract(arr[ahead], arr[behind], out=out[dst])
    return out


def central_diff(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """(arr(x + h) - arr(x - h)) / 2h on the periodic axis."""
    out = np.empty(arr.shape, np.result_type(arr, 1.0))
    _difference(arr, _periodic_difference_slices(axis), out)
    out /= 2.0 * spacing
    return out


def second_diff(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """((arr(x + h) - 2 arr(x)) + arr(x - h)) / h^2 on the periodic axis."""
    out = np.empty(arr.shape, np.result_type(arr, 1.0))
    for dst, ahead, behind in _periodic_difference_slices(axis):
        np.multiply(arr[dst], 2.0, out=out[dst])
        np.subtract(arr[ahead], out[dst], out=out[dst])
        out[dst] += arr[behind]
    out /= spacing**2
    return out


def _apply_matrix(mat: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """(m x m) matrix acting on the spinor axis of (m, *grid) components."""
    return (mat @ comp.reshape(len(comp), -1)).reshape(comp.shape)


# ---------------------------------------------------------------------------
# Dirac operators on spacetime grids


def _check_field_gammas(psi: SpinorField, gset: FieldGammaSet):
    if psi.grid.dims != gset.spacetime_dim:
        raise GridError(
            f"grid has {psi.grid.dims} axes but gamma set is {gset.spacetime_dim}-dimensional"
        )
    if psi.spinor_dim != gset.spinor_dim:
        raise ValueError(
            f"spinor dimension {psi.spinor_dim} != gamma dimension {gset.spinor_dim}"
        )


def dirac_slash(
    psi: SpinorField, pot: EMPotential, mass: float, charge: float, gset: FieldGammaSet
) -> SpinorField:
    """(i gamma^mu (d_mu + i e A_mu) - m) psi with central differences."""
    _check_field_gammas(psi, gset)
    if pot.grid is not psi.grid and pot.grid != psi.grid:
        raise GridError("potential and spinor live on different grids")
    if pot.n_components != psi.grid.dims:
        raise ValueError(
            f"potential has {pot.n_components} components; the spacetime grid needs {psi.grid.dims}"
        )
    out = -mass * psi.components
    for mu in range(psi.grid.dims):
        cov = central_diff(psi.components, mu + 1, psi.grid.spacing[mu])
        cov = cov + 1j * charge * pot.a[mu] * psi.components
        out = out + 1j * _apply_matrix(gset.gamma(mu), cov)
    return SpinorField(psi.grid, out)


def momentum_op(psi: SpinorField, gset: FieldGammaSet) -> SpinorField:
    """-i gamma^mu d_mu psi; Hermitian w.r.t. the Dirac pairing on periodic grids."""
    _check_field_gammas(psi, gset)
    out = np.zeros_like(psi.components)
    for mu in range(psi.grid.dims):
        dpsi = central_diff(psi.components, mu + 1, psi.grid.spacing[mu])
        out = out - 1j * _apply_matrix(gset.gamma(mu), dpsi)
    return SpinorField(psi.grid, out)


def dirac_pairing(phi: SpinorField, psi: SpinorField, gset: FieldGammaSet) -> complex:
    """<phi, psi> = sum_x phi^dag gamma0 psi * cell volume."""
    g0phi = _apply_matrix(gset.gamma0, psi.components)
    return complex(np.sum(np.conj(phi.components) * g0phi) * phi.grid.cell_volume)


def momentum_expectation(psi: SpinorField, axis: int) -> float:
    """<-i d_axis> / <1> with the plain L2 product (conserved under free evolution)."""
    dpsi = central_diff(psi.components, axis + 1, psi.grid.spacing[axis])
    num = np.sum(np.conj(psi.components) * (-1j) * dpsi) * psi.grid.cell_volume
    return float(np.real(num)) / (psi.norm_sq() if psi.norm_sq() else 1.0)


# ---------------------------------------------------------------------------
# d'Alembert identity


@dataclass(frozen=True)
class DalembertResult:
    """Both sides of the second-derivative identity plus their defects."""

    lhs_scalar: np.ndarray
    rhs: np.ndarray
    scalar_residual: float
    grade2_max: float


def dalembert_identity(
    phi: ScalarField, conn: AffineConnection, gset: FieldGammaSet
) -> DalembertResult:
    """gamma^mu gamma^nu D_mu D_nu phi versus D_mu D^mu phi on the grid."""
    grid = phi.grid
    d = grid.dims
    if conn.coeffs.shape[0] != d:
        raise ValueError("connection dimension disagrees with grid")
    if gset.spacetime_dim != d:
        raise GridError("gamma set dimension disagrees with grid")
    w = [central_diff(phi.values, mu, grid.spacing[mu]) for mu in range(d)]
    c = np.empty((d, d), dtype=object)
    for mu in range(d):
        for nu in range(d):
            # compact 3-point stencil for repeated derivatives, composed
            # central differences for the mixed ones
            if mu == nu:
                second = second_diff(phi.values, mu, grid.spacing[mu])
            else:
                second = central_diff(w[nu], mu, grid.spacing[mu])
            for alpha in range(d):
                gamma_coef = conn.coeffs[alpha, mu, nu]
                if gamma_coef:
                    second = second - gamma_coef * w[alpha]
            c[mu, nu] = second
    m = gset.spinor_dim
    lhs = np.zeros(grid.extents + (m, m), dtype=complex)
    for mu in range(d):
        for nu in range(d):
            lhs += np.multiply.outer(c[mu, nu], gset.gamma(mu) @ gset.gamma(nu))
    lhs_scalar = np.trace(lhs, axis1=-2, axis2=-1) / m
    rhs = sum(gset.eta[mu] * c[mu, mu] for mu in range(d))
    eye = np.eye(m)
    grade2 = lhs - np.multiply.outer(lhs_scalar, eye)
    return DalembertResult(
        lhs_scalar=lhs_scalar,
        rhs=rhs,
        scalar_residual=float(np.max(np.abs(lhs_scalar - rhs))),
        grade2_max=float(np.max(np.abs(grade2))),
    )


# ---------------------------------------------------------------------------
# bundle-wrapped operators


@dataclass(frozen=True)
class WrappedGammaField:
    """Pointwise conjugated gamma matrices G^mu(x) = l_x^-1 gamma^mu l_x."""

    grid: Grid
    eta: tuple
    matrices: np.ndarray = field(repr=False)  # (d, *extents, m, m)

    def anticommutator_residual(self) -> float:
        return anticommutator_residual(gamma_products(self.matrices), self.eta)


def _check_invertible_field(l_field: np.ndarray):
    ok = _well_conditioned(l_field)
    if not np.all(ok):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), ok.shape))
        raise ValueError(f"trivialization matrix singular at grid point {idx}")


def bundle_wrap(gset: FieldGammaSet, grid: Grid, l_field: np.ndarray) -> WrappedGammaField:
    """Conjugate every gamma by the pointwise trivialization matrices."""
    l_field = np.asarray(l_field, dtype=complex)
    m = gset.spinor_dim
    if l_field.shape != grid.extents + (m, m):
        raise ValueError(
            f"l field shape {l_field.shape} != extents + (m, m) = {grid.extents + (m, m)}"
        )
    _check_invertible_field(l_field)
    l_inv = np.linalg.inv(l_field)
    wrapped = np.stack([l_inv @ g @ l_field for g in gset.gammas])
    return WrappedGammaField(grid=grid, eta=gset.eta, matrices=wrapped)


def _pointwise_apply(l_field: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """Apply an (extents, m, m) matrix field to (m, *extents) components."""
    vol_shape = comp.shape[1:]
    m = comp.shape[0]
    flat_l = l_field.reshape(-1, m, m)
    flat_c = comp.reshape(m, -1)
    out = np.einsum("vab,bv->av", flat_l, flat_c)
    return out.reshape((m,) + vol_shape)


def wrapped_momentum(
    psi: SpinorField, l_field: np.ndarray, gset: FieldGammaSet
) -> SpinorField:
    """l^-1 o (-i gamma^mu d_mu) o l, applied pointwise on the grid."""
    l_field = np.asarray(l_field, dtype=complex)
    m = gset.spinor_dim
    if l_field.shape != psi.grid.extents + (m, m):
        raise ValueError("l field shape mismatch")
    _check_invertible_field(l_field)
    pushed = SpinorField(psi.grid, _pointwise_apply(l_field, psi.components))
    slashed = momentum_op(pushed, gset)
    l_inv = np.linalg.inv(l_field)
    return SpinorField(psi.grid, _pointwise_apply(l_inv, slashed.components))


def random_smooth_trivialization_field(grid: Grid, dim: int, seed: int = 0) -> np.ndarray:
    """I + a smooth two-mode perturbation of peak 0.25; invertible and well conditioned."""
    rng = np.random.default_rng(seed)
    pert = np.zeros(grid.extents + (dim, dim), dtype=complex)
    for _ in range(2):
        kvec = [grid.wavenumber(a, int(rng.integers(-2, 3))) for a in range(grid.dims)]
        coef = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pert += np.multiply.outer(ScalarField.plane_wave(grid, kvec).values, coef)
    peak = np.max(np.abs(pert))
    if peak > 0:
        pert *= 0.25 / peak
    return np.broadcast_to(np.eye(dim), grid.extents + (dim, dim)).copy() + pert


# ---------------------------------------------------------------------------
# time evolution (spatial grids)


def _stability_bound(grid: Grid) -> float:
    """The largest step the evolutions accept: spacing/4."""
    return min(grid.spacing) / 4.0


def _cfl_check(grid: Grid, dt: float):
    bound = _stability_bound(grid)
    if dt > bound:
        raise StabilityError(f"dt = {dt} exceeds the stability bound spacing/4 = {bound}")


class DiracHamiltonian:
    """H_D psi = [gamma0 gamma^j (-i d_j + e A_j) + m gamma0 + e A_0] psi, prepared once.

    Obtained from the covariant equation by multiplying with gamma0 and
    isolating i d_t; spatial axis j of the grid carries spacetime index j+1.
    pot=None drops every A term.  The alphas gamma0 gamma^j sit side by side
    in one m x (m d) matrix with the -i/(2 h_j) of the difference folded in,
    so a call writes psi(x + h_j) - psi(x - h_j) + 2i h_j e A_j psi for each
    axis into one scratch by slice subtraction and applies all axes with one
    matmul.  The scratch lives only until that matmul.  A call takes
    (time, psi), the right-hand side of rk4_linear and _evolve_modes.
    """

    def __init__(
        self, grid: Grid, pot: EMPotential | None, mass: float, charge: float,
        gset: FieldGammaSet,
    ):
        self.mass_term = mass * gset.gamma0
        self.alphas = np.concatenate(
            [gset.gamma0_products[j + 1] * (-0.5j / h) for j, h in enumerate(grid.spacing)],
            axis=1,
        )
        self._scratch_shape = (grid.dims, gset.spinor_dim) + grid.extents
        self._stencils = [_periodic_difference_slices(j + 1) for j in range(grid.dims)]
        self._a0 = self._axis_coupling = None
        if pot is not None:
            self._a0 = (charge * pot.a[0]).reshape(-1)
            self._axis_coupling = [
                2j * h * (charge * pot.a[j + 1]) for j, h in enumerate(grid.spacing)
            ]

    def _derivative_terms(self, psi: np.ndarray) -> np.ndarray:
        """sum_j alpha_j (-i d_j + e A_j) psi as an (m, V) array."""
        scratch = np.empty(self._scratch_shape, dtype=complex)
        for j, stencil in enumerate(self._stencils):
            diff = _difference(psi, stencil, scratch[j])
            if self._axis_coupling is not None:
                diff += self._axis_coupling[j] * psi
        return self.alphas @ scratch.reshape(self.alphas.shape[1], -1)

    def __call__(self, time, psi: np.ndarray) -> np.ndarray:
        out = self._derivative_terms(psi)
        flat = psi.reshape(len(psi), -1)
        out += self.mass_term @ flat
        if self._a0 is not None:
            out += self._a0 * flat
        return out.reshape(psi.shape)


def dirac_hamiltonian(
    psi_comp: np.ndarray, grid: Grid, pot: EMPotential | None, mass: float, charge: float,
    gset: FieldGammaSet,
) -> np.ndarray:
    """H_D psi, one apply of a freshly prepared DiracHamiltonian."""
    return DiracHamiltonian(grid, pot, mass, charge, gset)(0.0, psi_comp)


# Fourier modes stepped per batch of _evolve_modes; bounds its transient memory
MODE_BLOCK = 4096

# (H(k) - c I)^2 = omega^2 I must hold to this fraction of max|H|^2
_QUADRATIC_TOL = 1e-12

# below this |omega step|, (lam_+^N - lam_-^N)/(2 omega) is replaced by its limit
_OMEGA_STEP_FLOOR = 1e-8


def _mode_symbol(apply_h, m: int, grid: Grid) -> np.ndarray:
    """Columns of the symbol H(k) of a translation-invariant apply_h, shape (m, m, *extents).

    Entry [b, a, k] is H(k)[a, b]: column b is the FFT of apply_h's response
    to a unit impulse in spinor component b at the origin, so the symbol is
    read from the operator.  Each impulse is built in the slot its column
    then overwrites, which keeps the peak memory below the step loop's.
    """
    axes = tuple(range(1, grid.dims + 1))
    columns = np.zeros((m, m) + grid.extents, dtype=complex)
    for b in range(m):
        columns[(b, b) + (0,) * grid.dims] = 1.0
        columns[b] = np.fft.fftn(apply_h(0.0, columns[b]), axes=axes)
    return columns


def _rk4_power(z: np.ndarray, n: int) -> np.ndarray:
    """p(z)^n for the RK4 step polynomial p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

    Formed as exp(n log p(z)) with log p = log1p(delta), delta = p(z) - 1, taken
    apart into modulus and phase, so 1 + delta is never rounded before the power.
    """
    delta = z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    log_modulus = np.log1p(2 * delta.real + np.abs(delta) ** 2) / 2
    return np.exp(n * (log_modulus + 1j * np.arctan2(delta.imag, 1 + delta.real)))


def _evolve_modes(apply_h, comp: np.ndarray, grid: Grid, t: float, dt: float) -> np.ndarray:
    """rk4_linear(apply_h, comp, 0, t, dt) for a translation-invariant apply_h.

    Fourier modes do not mix, so the N steps of rk4_linear act on mode k as
    R(k)^N, with R(k) = p(-i step H(k)) and p the RK4 step polynomial.  When
    H'(k) = H(k) - (tr H(k)/m) I squares to omega^2 I, as for the free Dirac
    symbol with a constant potential and for the Klein-Gordon doublet, every
    polynomial in H(k) is a I + b H'(k), and
        R(k)^N = (lam_+^N + lam_-^N)/2 I + (lam_+^N - lam_-^N)/(2 omega) H'(k)
    with lam_+- = p(-i step (c +- omega)); where |omega step| < 1e-8 the
    second coefficient takes its limit N p(z_c)^(N-1) p'(z_c) (-i step).  No
    power of the matrix R(k), which is not normal for Klein-Gordon, is
    formed.  omega^2 is read as (H'^2)_00 = (alpha - s)(alpha + s), with
    alpha = H'_00 and s^2 = -sum_{j>0} H'_0j H'_j0, which does not cancel
    where |alpha| and |s| far exceed omega.  The test H'^2 = omega^2 I is
    made on the read symbol, relative to max|H|^2; if any mode fails it,
    rk4_linear steps the whole grid instead.
    """
    steps, step = _step_grid(0.0, t, dt)
    if steps == 0:
        return np.array(comp, copy=True)
    m = comp.shape[0]
    axes = tuple(range(1, grid.dims + 1))
    columns = _mode_symbol(apply_h, m, grid).reshape(m, m, -1)
    bound = _QUADRATIC_TOL * np.max(np.abs(columns)) ** 2
    modes = np.fft.fftn(comp, axes=axes).reshape(m, -1)
    eye = np.eye(m)
    tau = -1j * step / HBAR
    for lo in range(0, grid.volume, MODE_BLOCK):
        h_k = columns[:, :, lo:lo + MODE_BLOCK].transpose(2, 1, 0)
        center = np.trace(h_k, axis1=1, axis2=2) / m
        h_prime = h_k - center[:, None, None] * eye
        alpha = h_prime[:, 0, 0]
        s = np.sqrt(-np.sum(h_prime[:, 0, 1:] * h_prime[:, 1:, 0], axis=1))
        omega_sq = (alpha - s) * (alpha + s)
        defect = h_prime @ h_prime - omega_sq[:, None, None] * eye
        if not np.max(np.abs(defect)) <= bound:
            return rk4_linear(apply_h, comp, 0.0, t, dt)
        omega = np.sqrt(omega_sq)
        z_c = tau * center
        up = _rk4_power(z_c + tau * omega, steps)
        down = _rk4_power(z_c - tau * omega, steps)
        small = np.abs(tau * omega) < _OMEGA_STEP_FLOOR
        p_prime = 1 + z_c * (1 + z_c / 2 * (1 + z_c / 3))
        b = np.where(
            small,
            steps * _rk4_power(z_c, steps - 1) * p_prime * tau,
            (up - down) / np.where(small, 1.0, 2 * omega),
        )
        block = modes[:, lo:lo + MODE_BLOCK]
        block[...] = (up + down) / 2 * block + b * np.einsum("kab,bk->ak", h_prime, block)
    return np.fft.ifftn(modes.reshape(comp.shape), axes=axes)


def dirac_hamiltonian_evolve(
    psi0: SpinorField,
    pot: EMPotential | None,
    mass: float,
    charge: float,
    t: float,
    dt: float,
    gset: FieldGammaSet,
) -> SpinorField:
    """Integrate i d_t psi = H_D psi on a spatial grid up to time t.

    When charge * A is the same at every site, H_D is translation-invariant
    and the RK4 steps run one Fourier mode at a time (_evolve_modes);
    otherwise rk4_linear steps the whole grid.  Both take the same steps,
    and both apply the one DiracHamiltonian prepared here.
    """
    grid = psi0.grid
    if grid.dims != gset.spacetime_dim - 1:
        raise GridError(
            f"spatial grid has {grid.dims} axes; gamma set expects {gset.spacetime_dim - 1}"
        )
    _cfl_check(grid, dt)
    invariant = True
    if pot is not None:
        if pot.a.shape != (gset.spacetime_dim,) + grid.extents:
            raise ValueError(
                f"potential must supply {gset.spacetime_dim} spacetime components "
                f"(A_0 first) over the spatial grid {grid.extents}, got shape {pot.a.shape}"
            )
        coupling = (charge * pot.a).reshape(len(pot.a), -1)
        invariant = bool(np.all(coupling == coupling[:, :1]))
        del coupling  # not held through the evolution
    apply_h = DiracHamiltonian(grid, pot, mass, charge, gset)
    if invariant:
        comp = _evolve_modes(apply_h, psi0.components, grid, t, dt)
    else:
        comp = rk4_linear(apply_h, psi0.components, 0.0, t, dt)
    return SpinorField(grid, comp)


# ---------------------------------------------------------------------------
# Klein-Gordon via the two-component reduction


def klein_gordon_reduce(phi: ScalarField, phidot: ScalarField, mass: float) -> SpinorField:
    """psi = (phi + (i/m) dphi/dt, phi - (i/m) dphi/dt)."""
    if mass <= 0:
        raise ValueError("the two-component reduction divides by the mass; need m > 0")
    up = phi.values + (1j / mass) * phidot.values
    dn = phi.values - (1j / mass) * phidot.values
    return SpinorField(phi.grid, np.stack([up, dn]))


def klein_gordon_reconstruct(psi: SpinorField) -> tuple[ScalarField, ScalarField]:
    """Inverse of the reduction: phi = (psi1 + psi2)/2.

    The second return is (psi1 - psi2)/2 = (i/m) dphi/dt, kept in that
    mass-free form so the round trip needs no mass argument.
    """
    phi = ScalarField(psi.grid, (psi.components[0] + psi.components[1]) / 2.0)
    half_diff = ScalarField(psi.grid, (psi.components[0] - psi.components[1]) / 2.0)
    return phi, half_diff


def klein_gordon_hamiltonian(comp: np.ndarray, grid: Grid, mass: float) -> np.ndarray:
    """First-order (two-component) Hamiltonian equivalent to the KG equation.

    H = sigma3 m + (sigma3 + i sigma2) (-laplacian) / (2m); i d_t psi = H psi
    reproduces d^2 phi/dt^2 = (laplacian - m^2) phi for the reduced doublet.
    """
    lap = np.zeros_like(comp)
    for j in range(grid.dims):
        lap = lap + second_diff(comp, j + 1, grid.spacing[j])
    w = -lap / (2.0 * mass)
    up, dn = comp[0], comp[1]
    h_up = mass * up + w[0] + w[1]
    h_dn = -mass * dn - w[0] - w[1]
    return np.stack([h_up, h_dn])


def klein_gordon_evolve(psi0: SpinorField, mass: float, t: float, dt: float) -> SpinorField:
    """March the reduced doublet with the 4th-order one-step scheme, mode by mode."""
    if mass <= 0:
        raise ValueError("need m > 0")
    grid = psi0.grid
    _cfl_check(grid, dt)
    comp = _evolve_modes(
        lambda time, y: klein_gordon_hamiltonian(y, grid, mass), psi0.components, grid, t, dt
    )
    return SpinorField(grid, comp)


# ---------------------------------------------------------------------------
# stress tensor and spin-vector packaging


def stress_tensor(phi_value, dphi, mass) -> np.ndarray:
    """T^{mu nu} = d^mu phi d^nu phi - eta^{mu nu} L for the free scalar Lagrangian.

    Pointwise in eta = diag(+1, -1, ...); exact if inputs are Fractions.
    L = (d^mu phi d_mu phi - m^2 phi^2)/2.
    """
    d = len(dphi)
    eta = (1,) + (-1,) * (d - 1)
    upper = [eta[mu] * dphi[mu] for mu in range(d)]
    quad = sum(upper[mu] * dphi[mu] for mu in range(d))
    half = Fraction(1, 2) if not any(isinstance(x, (float, complex)) for x in list(dphi) + [phi_value, mass]) else 0.5
    lag = half * (quad - mass * mass * phi_value * phi_value)
    out = np.empty((d, d), dtype=object)
    for mu in range(d):
        for nu in range(d):
            out[mu, nu] = upper[mu] * upper[nu] - (eta[mu] if mu == nu else 0) * lag
    if any(isinstance(x, (float, complex)) for x in out.ravel()):
        return out.astype(float)
    return out


def stress_energy_spinvector(t_upper, gammas_lower) -> np.ndarray:
    """Sum T^{mu nu} gamma_mu gamma_nu; collapses to trace(T^mu_nu) * I for symmetric T."""
    t_upper = np.asarray(t_upper)
    d = t_upper.shape[0]
    if len(gammas_lower) != d:
        raise ValueError("need one lowered gamma per index")
    out = None
    for mu in range(d):
        for nu in range(d):
            term = t_upper[mu, nu] * (gammas_lower[mu] @ gammas_lower[nu])
            out = term if out is None else out + term
    return out


def lowered_gammas_exact(gamma_set: GammaSet) -> list:
    """gamma_mu = g_{mu mu} gamma^mu for the exact diagonal-metric sets."""
    return [
        gamma_set.gammas[mu] * Fraction(gamma_set.metric_diag[mu])
        for mu in range(gamma_set.n)
    ]


def lowered_gammas_field(gset: FieldGammaSet) -> list:
    return [gset.gamma_lower(mu) for mu in range(gset.spacetime_dim)]


@dataclass(frozen=True)
class SpinVector:
    """Clifford-valued packaging of conserved scalars: (H gamma0, P_j gamma^j)."""

    e_part: np.ndarray
    p_part: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.e_part + self.p_part


def spin_vector_package(energy: float, momentum, gset: FieldGammaSet) -> SpinVector:
    e_part = energy * gset.gamma0
    p_part = np.zeros_like(gset.gamma0)
    for j, pj in enumerate(momentum):
        p_part = p_part + pj * gset.gamma(j + 1)
    return SpinVector(e_part=e_part, p_part=p_part)


def field_energy_momentum(
    phi: ScalarField, phidot: ScalarField, mass: float
) -> tuple[float, list[float]]:
    """Classical lattice integrals H = sum T^00 dV, P_j = sum T^0_j dV.

    Stand-ins for the conserved scalars packaged by spin_vector_package.
    """
    grid = phi.grid
    vals = np.real(phi.values)
    dots = np.real(phidot.values)
    grads = [np.real(central_diff(phi.values, a, grid.spacing[a])) for a in range(grid.dims)]
    grad_sq = sum(g * g for g in grads)
    t00 = 0.5 * (dots**2 + grad_sq + mass**2 * vals**2)
    energy = float(np.sum(t00) * grid.cell_volume)
    momenta = [float(np.sum(dots * g) * grid.cell_volume) for g in grads]
    return energy, momenta
