"""Spinor representations of Cl(p,q) via minimal left ideals.

The regular representation acts on the 2^n blade basis.  A depth-first
search multiplies factors (1 +- e_A)/2 of commuting +1-square blades and
stops at the classified minimal ideal dimension; C and H keep f = 1.  It
never squares f (commuting idempotents multiply to idempotents), so a
caller's f f = f check tests it.  spinor_representation runs search ->
left ideal Cl f -> gammas.  The ideal's basis is in reduced row echelon
form, so the gamma matrices are read off, not solved for: the coordinates
of e^mu w are its entries at the basis' pivot masks, and each image is
confirmed by exact reconstruction, which also proves the ideal closed.
Each GammaSet forms its products g^mu g^nu once, for the anticommutator and
sigma checks.  Everything in this module runs over Fractions so that the
defining anticommutation relations are checked as equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import exact
from .ga import (
    Metric,
    Multivector,
    Signature,
    basis_blades,
    clifford,
    grade_of_mask,
    mask_indices,
    metric_raise,
)
from .report import Check


class ClosureError(RuntimeError):
    """A subspace expected to be invariant failed to close under the action."""


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# ---------------------------------------------------------------------------
# regular representation


def multivector_coords(v: Multivector) -> np.ndarray:
    """Coordinates of v in the ascending blade-mask basis (length 2^n)."""
    out = np.full(1 << v.n, Fraction(0), dtype=object)
    for mask, c in v.terms.items():
        out[mask] = Fraction(c) if not isinstance(c, float) else c
    return out


def coords_to_multivector(coords, n: int) -> Multivector:
    return Multivector(n, {m: c for m, c in enumerate(coords) if c != 0})


def regular_rep(v: Multivector, metric: Metric) -> np.ndarray:
    """Matrix of x -> v * x in the blade basis (2^n square, exact for exact input)."""
    n = v.n
    dim = 1 << n
    mat = np.full((dim, dim), Fraction(0), dtype=object)
    for col in range(dim):
        image = clifford(v, Multivector(n, {col: Fraction(1)}), metric)
        for mask, c in image.terms.items():
            mat[mask, col] = c
    return mat


# ---------------------------------------------------------------------------
# blade combinatorics used by the idempotent search


def blade_square_sign(mask: int, diag) -> int:
    """Sign s with e_mask * e_mask = s (orthogonal basis)."""
    k = grade_of_mask(mask)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    for i in mask_indices(mask):
        sign *= 1 if diag[i - 1] > 0 else -1
    return sign


def blades_commute(ma: int, mb: int) -> bool:
    """Whether e_A and e_B commute (orthogonal basis)."""
    swaps = grade_of_mask(ma) * grade_of_mask(mb) - grade_of_mask(ma & mb)
    return swaps % 2 == 0


# ---------------------------------------------------------------------------
# primitive idempotents and minimal left ideals


@dataclass(frozen=True)
class IdempotentReport:
    """Outcome of the primitive-idempotent search for one signature."""

    signature: Signature
    idempotent: Multivector
    ideal_dimension: int
    factors: tuple = ()

    @property
    def whole_algebra(self) -> bool:
        return self.ideal_dimension == 1 << self.signature.n

    @property
    def note(self) -> str:
        if self.whole_algebra:
            return "no nontrivial idempotent: the whole algebra is the minimal ideal"
        labels = ", ".join(
            f"(1 {'+' if s > 0 else '-'} e{''.join(map(str, mask_indices(m)))})/2"
            for m, s in self.factors
        )
        return f"idempotent {labels}, ideal dimension {self.ideal_dimension}"


# Radon-Hurwitz numbers r_0 .. r_7; r_{i+8} = r_i + 4 for every integer i
RADON_HURWITZ = (0, 1, 2, 2, 3, 3, 3, 3)


def minimal_ideal_dimension(sig: Signature) -> int:
    """Real dimension 2^(n-k) of a minimal left ideal, k = q - r_{q-p} (Lounesto, ch. 17)."""
    i = sig.q - sig.p
    return 1 << (sig.n - sig.q + RADON_HURWITZ[i % 8] + 4 * (i // 8))


def find_primitive_idempotent(sig: Signature) -> IdempotentReport:
    """First product of the depth-first search whose left ideal has minimal dimension.

    Walks the products of commuting factors (1 +- e_A)/2, e_A squaring to +1,
    in ascending mask order with sign + before -, keeps the smallest ideal
    seen and stops at minimal_ideal_dimension.  It starts from f = 1, the
    answer for C and H, which have no +1-square blade.
    """
    metric = sig.metric()
    n = sig.n
    one = Multivector.scalar(Fraction(1), n)
    candidates = [m for m in range(1, 1 << n) if blade_square_sign(m, sig.diag) == 1]
    k_max = n // 2 + 1

    def walk(f: Multivector, factors: tuple, start: int):
        if len(factors) >= k_max:
            return
        for idx in range(start, len(candidates)):
            mask = candidates[idx]
            if not all(blades_commute(mask, m) for m, _ in factors):
                continue
            for sign in (1, -1):
                g = clifford(f, (one + Multivector(n, {mask: Fraction(sign)})) * HALF, metric)
                if not g.is_zero():  # every extension of 0 is 0
                    yield g, factors + ((mask, sign),)
                    yield from walk(g, factors + ((mask, sign),), idx + 1)

    target = minimal_ideal_dimension(sig)
    best = IdempotentReport(sig, one, 1 << n)
    for f, factors in walk(one, (), 0):
        # right multiplication by an idempotent f is a projection, so the
        # ideal's dimension is its trace, 2^n times the scalar part of f
        dim = int(Fraction(f.coeff(0)) * (1 << n))
        if dim < best.ideal_dimension:
            best = IdempotentReport(sig, f, dim, factors)
            if dim <= target:
                break
    return best


def minimal_left_ideal(f: Multivector, metric: Metric) -> list[Multivector]:
    """Ordered basis of the left ideal generated by f, by exact row reduction."""
    n = f.n
    dim = 1 << n
    rows = np.full((dim, dim), Fraction(0), dtype=object)
    for b in range(dim):
        image = clifford(Multivector(n, {b: Fraction(1)}), f, metric)
        for mask, c in image.terms.items():
            rows[b, mask] = Fraction(c)
    red, pivots = exact.rref(rows)
    return [coords_to_multivector(red[r], n) for r in range(len(pivots))]


# ---------------------------------------------------------------------------
# gamma matrices


@dataclass(frozen=True)
class GammaSet:
    """Spinor-representation matrices, one per basis vector, indices raised.

    They represent the algebra only if no image e^mu w left the ideal's span
    (``closure_failures == 0``).
    """

    signature: Signature
    dim: int
    gammas: list = field(repr=False)
    closure_failures: int = 0

    @property
    def n(self) -> int:
        return self.signature.n

    @property
    def metric_diag(self) -> tuple[int, ...]:
        return self.signature.diag

    @cached_property
    def products(self) -> list[list[np.ndarray]]:
        """The table P[mu][nu] = g^mu g^nu, formed once per set."""
        return gamma_products(self.gammas)

    def anticommutator_residuals(self):
        """Max |{g^mu, g^nu} - 2 g^{mu nu} I| entry over all pairs; exact zero expected."""
        return anticommutator_residual(self.products, self.metric_diag)


def gamma_products(gammas) -> list[list[np.ndarray]]:
    """The table P[mu][nu] = g^mu g^nu of a gamma sequence."""
    return [[a @ b for b in gammas] for a in gammas]


def anticommutator_residual(products, diag):
    """Largest entry of |P[mu][nu] + P[nu][mu] - 2 diag[mu] delta^{mu nu} I|.

    ``products`` is a ``gamma_products`` table.  Exact (object) matrices give
    the exact residual.  Float matrices give a float, and may be stacked
    fields of shape (*extents, m, m).
    """
    exact_mode = products[0][0].dtype == object
    m = products[0][0].shape[-1]
    eye = exact.identity(m) if exact_mode else np.eye(m)
    worst = 0 if exact_mode else 0.0
    for mu in range(len(diag)):
        for nu in range(mu, len(diag)):
            target = (2 * diag[mu] if mu == nu else 0) * eye
            delta = products[mu][nu] + products[nu][mu] - target
            if exact_mode:
                worst = max(worst, max(abs(x) for x in np.ravel(delta)))
            else:
                worst = max(worst, float(np.max(np.abs(delta))))
    return worst


def spinor_rep_matrices(
    ideal_basis: list[Multivector], metric: Metric, signature: Signature
) -> GammaSet:
    """Restrict the regular action of the raised basis vectors to the ideal.

    In a reduced row echelon basis (as ``minimal_left_ideal`` gives) the
    coordinates of an image are its entries at the pivots, the vectors'
    lowest masks.  Each read is confirmed by rebuilding the image, so a wrong
    read can only fail; failed images are counted in ``closure_failures``.
    """
    if not ideal_basis:
        raise ValueError("empty ideal basis")
    n = ideal_basis[0].n
    pivots = [min(w.terms) for w in ideal_basis]
    gammas = []
    failures = 0
    for mu in range(n):
        raised = metric_raise([1 if j == mu else 0 for j in range(n)], metric)
        cols = []
        for w in ideal_basis:
            image = clifford(raised, w, metric)
            col = [image.coeff(p) for p in pivots]
            rebuilt = sum((c * b for c, b in zip(col, ideal_basis) if c), Multivector.zero(n))
            failures += rebuilt != image
            cols.append(col)
        gammas.append(exact.frac_matrix(cols).T)
    return GammaSet(
        signature=signature, dim=len(ideal_basis), gammas=gammas, closure_failures=failures
    )


def spinor_representation(sig: Signature) -> tuple[IdempotentReport, GammaSet]:
    """Idempotent search -> minimal left ideal -> gammas read off at its pivots.

    The gammas represent the algebra only if ``closure_failures == 0``.
    """
    metric = sig.metric()
    report = find_primitive_idempotent(sig)
    basis = minimal_left_ideal(report.idempotent, metric)
    return report, spinor_rep_matrices(basis, metric, sig)


def gamma_set_for_signature(sig: Signature) -> GammaSet:
    """The gammas of spinor_representation; raises ClosureError if they represent nothing."""
    gs = spinor_representation(sig)[1]
    if gs.closure_failures:
        raise ClosureError(f"{gs.closure_failures} images e^mu w leave the ideal of {sig}")
    return gs


def algebra_span_dimension(gamma_set: GammaSet) -> int:
    """Dimension of the matrix span of all blade products of the gammas."""
    n = gamma_set.n
    dim = gamma_set.dim
    rows = []
    for mask in basis_blades(n):
        mat = exact.identity(dim)
        for i in mask_indices(mask):
            mat = mat @ gamma_set.gammas[i - 1]
        rows.append(np.ravel(mat))
    return exact.rank(np.stack(rows, axis=0))


# ---------------------------------------------------------------------------
# sigma generators and spinor derivatives


@dataclass(frozen=True)
class SigmaSet:
    """Quarter-commutators sigma^{mu nu} = [g^mu, g^nu] / 4."""

    n: int
    dim: int
    table: dict = field(repr=False)

    def mat(self, mu: int, nu: int) -> np.ndarray:
        return self.table[(mu, nu)]


def sigma_generators(gamma_set: GammaSet) -> SigmaSet:
    """Quarter-commutators read from the set's product table."""
    quarter = QUARTER if gamma_set.gammas[0].dtype == object else 0.25
    p = gamma_set.products
    table = {
        (mu, nu): (p[mu][nu] - p[nu][mu]) * quarter
        for mu in range(gamma_set.n)
        for nu in range(gamma_set.n)
    }
    return SigmaSet(n=gamma_set.n, dim=gamma_set.dim, table=table)


def _check_antisymmetric(coeffs, n: int, what: str):
    arr = np.asarray(coeffs)
    if arr.shape != (n, n):
        raise ValueError(f"{what} must be an {n}x{n} array, got {arr.shape}")
    for mu in range(n):
        for nu in range(n):
            a, b = arr[mu, nu], arr[nu, mu]
            bad = abs(a + b) > 1e-12 if isinstance(a, float) else a != -b
            if bad:
                raise ValueError(f"{what} must be antisymmetric: ({mu},{nu}) entry fails")
    return arr


def spinor_cov_deriv(coeffs, x_dpsi, psi, sigmas: SigmaSet):
    """Covariant derivative: x(psi) + (1/2) A_{mu nu} sigma^{mu nu} psi."""
    arr = _check_antisymmetric(coeffs, sigmas.n, "connection coefficients")
    out = np.array(x_dpsi, dtype=np.result_type(np.asarray(x_dpsi), np.asarray(psi)))
    psi = np.asarray(psi)
    for mu in range(sigmas.n):
        for nu in range(mu + 1, sigmas.n):
            if arr[mu, nu] != 0:
                out = out + arr[mu, nu] * (np.array(sigmas.mat(mu, nu), dtype=out.dtype) @ psi)
    return out


def spinor_lie_deriv(coeffs, x_dpsi, psi, sigmas: SigmaSet):
    """Spinorial Lie derivative: x(psi) - (1/2) L_{mu nu} sigma^{mu nu} psi."""
    arr = _check_antisymmetric(coeffs, sigmas.n, "Lie coefficients")
    return spinor_cov_deriv(-arr, x_dpsi, psi, sigmas)


# ---------------------------------------------------------------------------
# representation orthogonalization (group averaging)


def orthogonalize_gammas(gamma_set: GammaSet) -> list[np.ndarray]:
    """Conjugate the representation so every blade matrix becomes orthogonal.

    Averages M^T M over the finite group generated by the gammas; the
    Cholesky factor of the invariant form supplies the change of basis.
    Matrices squaring to +1 come out symmetric, squares -1 antisymmetric.
    """
    gs = [np.array(g, dtype=float) for g in gamma_set.gammas]
    dim = gamma_set.dim
    s = np.zeros((dim, dim))
    for mask in basis_blades(gamma_set.n):
        mat = np.eye(dim)
        for i in mask_indices(mask):
            mat = mat @ gs[i - 1]
        s += mat.T @ mat
    lower = np.linalg.cholesky(s)
    lt = lower.T
    lt_inv = np.linalg.inv(lt)
    out = [lt @ g @ lt_inv for g in gs]
    for g in out:
        if np.max(np.abs(g.T @ g - np.eye(dim))) > 1e-10:
            raise ClosureError("orthogonalization failed to produce orthogonal matrices")
    return out


# ---------------------------------------------------------------------------
# isomorphism table verification


def _quaternion_checks() -> Check:
    sig = Signature(0, 2)
    metric = sig.metric()
    n = 2
    one = Multivector.scalar(Fraction(1), n)
    i = Multivector.basis_vector(1, n, Fraction(1))
    j = Multivector.basis_vector(2, n, Fraction(1))
    k = clifford(i, j, metric)
    mul = lambda a, b: clifford(a, b, metric)
    ok = (
        mul(i, i) == -one
        and mul(j, j) == -one
        and mul(k, k) == -one
        and mul(i, j) == k
        and mul(j, k) == i
        and mul(k, i) == j
        and mul(i, j) == -mul(j, i)
        and mul(j, k) == -mul(k, j)
        and mul(k, i) == -mul(i, k)
        and mul(mul(i, j), k) == -one
    )
    return Check.boolean(
        "cl02-quaternion-table",
        ok,
        "i^2 = j^2 = k^2 = ijk = -1 with i=e1, j=e2, k=e1e2",
        details="Cl(0,2) reproduces the quaternion structure constants",
    )


def _matrix_algebra_check(sig: Signature, expected_ideal_dim: int) -> list[Check]:
    rows = []
    name = f"cl{sig.p}{sig.q}"
    algebra_dim = 1 << sig.n
    matrix_dim = expected_ideal_dim**2
    rows.append(
        Check.boolean(
            f"{name}-dimension",
            algebra_dim == matrix_dim,
            f"2^n = (matrix side)^2 for {sig}",
            details=f"dim Cl = {algebra_dim}, dim M_{expected_ideal_dim}(R) = {matrix_dim}",
        )
    )
    report, gamma_set = spinor_representation(sig)
    rows.append(
        Check.boolean(
            f"{name}-minimal-ideal",
            report.ideal_dimension == expected_ideal_dim,
            f"minimal left ideal of {sig} has dimension {expected_ideal_dim}",
            details=report.note,
        )
    )
    # matrices of a basis that is not a left ideal represent nothing
    closed = gamma_set.closure_failures == 0
    residual = gamma_set.anticommutator_residuals()
    rows.append(
        Check(
            name=f"{name}-gamma-relations",
            passed=closed and residual == 0,
            residual=float(residual),
            tolerance=0.0,
            relation="g^mu g^nu + g^nu g^mu = 2 g^{mu nu} I (exact)",
        )
    )
    span = algebra_span_dimension(gamma_set)
    rows.append(
        Check.boolean(
            f"{name}-full-matrix-span",
            closed and span == matrix_dim,
            f"blade images span all of M_{expected_ideal_dim}(R)",
            details=f"span dimension {span} of {matrix_dim}",
        )
    )
    return rows


def _division_algebra_check(sig: Signature, algebra_name: str) -> list[Check]:
    report = find_primitive_idempotent(sig)
    return [
        Check.boolean(
            f"cl{sig.p}{sig.q}-division-algebra",
            report.whole_algebra,
            f"{sig} is a division algebra ({algebra_name}): minimal ideal is the whole algebra",
            details=report.note,
        )
    ]


def _even_subalgebra_checks() -> list[Check]:
    sig = Signature(3, 1)
    metric = sig.metric()
    n = 4
    even_masks = [m for m in basis_blades(n) if grade_of_mask(m) % 2 == 0]
    rows = [
        Check.boolean(
            "cl31-even-dimension",
            len(even_masks) == 8,
            "even subalgebra of Cl(3,1) has dimension 2^(n-1) = 8 = dim_R M_2(C)",
            details=f"counted {len(even_masks)} even blades",
        )
    ]
    omega = Multivector(n, {0b1111: Fraction(1)})
    sq = clifford(omega, omega, metric)
    central = all(
        clifford(omega, Multivector(n, {m: Fraction(1)}), metric)
        == clifford(Multivector(n, {m: Fraction(1)}), omega, metric)
        for m in even_masks
    )
    rows.append(
        Check.boolean(
            "cl31-even-central-imaginary",
            sq == Multivector.scalar(Fraction(-1), n) and central,
            "e1234 squares to -1 and is central in the even subalgebra",
            details=f"omega^2 = {sq}",
        )
    )
    # closure of the even part under the product
    closed = all(
        grade_of_mask(mask) % 2 == 0
        for ma in even_masks
        for mb in even_masks
        for mask in clifford(
            Multivector(n, {ma: Fraction(1)}), Multivector(n, {mb: Fraction(1)}), metric
        ).terms
    )
    rows.append(
        Check.boolean(
            "cl31-even-closed",
            closed,
            "the even subalgebra is closed under the Clifford product",
        )
    )
    return rows


def verify_iso_table(signatures=None) -> list[Check]:
    """Machine-check the classical low-dimensional algebra identifications."""
    rows: list[Check] = []
    rows.extend(_division_algebra_check(Signature(0, 1), "C"))
    rows.append(_quaternion_checks())
    rows.extend(_division_algebra_check(Signature(0, 2), "H"))
    rows.extend(_matrix_algebra_check(Signature(1, 1), 2))
    rows.extend(_matrix_algebra_check(Signature(2, 0), 2))
    rows.extend(_matrix_algebra_check(Signature(3, 1), 4))
    rows.extend(_even_subalgebra_checks())
    if signatures:
        wanted = {(s.p, s.q) if isinstance(s, Signature) else tuple(s) for s in signatures}
        extra_rows = []
        if (1, 3) in wanted:
            report = find_primitive_idempotent(Signature(1, 3))
            extra_rows.append(
                Check.boolean(
                    "cl13-quaternionic-ideal",
                    report.ideal_dimension == 8,
                    "Cl(1,3) = H(2): minimal ideal has real dimension 8",
                    details=report.note,
                )
            )
        rows.extend(extra_rows)
    return rows
